"""Command-line front end: every subcommand prints one JSON document.

Exit codes: 0 success, 1 structured error (bad flags, malformed input,
precondition failure, an answer too large to write), 2 enumeration budget
exhausted.  Identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import functools
import json
import operator
import sys
from fractions import Fraction
from types import SimpleNamespace

# each handler imports its own subsystem, so a process loads only what its
# command uses; ``_invoke`` needs these two for the budget and its errors
from . import encode, ground

SCHEMA = 1


class CliError(Exception):
    pass


class _HelpRequested(Exception):
    pass


_REQUIRED_INT = dict(type=int, required=True)
_K_GROUND = [("--k", _REQUIRED_INT), ("--ground", _REQUIRED_INT)]

# command -> action -> flags as (name, add_argument keywords); the action None
# marks a command that takes its flags directly instead of an action.  ``_parse``
# reads type, choices, required and default; argparse also reads help
_COMMANDS = {
    "classify": {None: [
        ("--tau", dict(required=True)),
        ("--tau2", dict(required=True)),
        ("--gamma", dict(choices=["uncountable", "countable"], default="uncountable")),
    ]},
    "cb": {None: [("--ks", dict(required=True, help="comma list of factor bounds, e.g. 2,3"))]},
    "decompose": {None: [
        ("--kind", dict(choices=["absorb_small", "classif_K"], required=True)),
        ("--m", dict(type=int, default=0)),
        ("--n", dict(type=int, default=2)),
        ("--element", dict(type=int, default=0)),
        ("--depth", dict(type=int, default=6)),
        ("--samples", dict(type=int, default=200)),
        ("--boxes", dict(type=int, default=20)),
    ]},
    "avg": {
        "build": _K_GROUND,
        "check": _K_GROUND,
        "apply": [*_K_GROUND,
                  ("--f", dict(required=True, help="JSON file with the function values"))],
    },
    "uec": {
        "phi": [("--bits", dict(required=True, help="0/1 string, lowest level first")),
                ("--levels", dict(type=int))],
        "preimage": [("--target", dict(required=True, help="rational in [0,1], e.g. 1/2")),
                     ("--levels", _REQUIRED_INT),
                     ("--limit", dict(type=int, default=50,
                                      help="solutions listed in the output"))],
        "l0": [("--bits-file", dict(required=True, help="JSON list of [element, level] pairs"))],
        "bounds": [("--levels", _REQUIRED_INT)],
        "pipeline": [("--points-file", dict(required=True,
                                            help="JSON list of {label: rational} objects")),
                     ("--levels", _REQUIRED_INT)],
    },
    "ds": {
        "extract": [("--family", dict(required=True, help="file with lines 'label: {e1,e2}'")),
                    ("--petals", _REQUIRED_INT)],
        "witness": [("--spec", dict(required=True,
                                    help="JSON file with side_g / side_h exclusion tuples")),
                    ("--n", _REQUIRED_INT),
                    ("--k", _REQUIRED_INT)],
    },
    "clopen": {
        "empty": [("--box", dict(required=True))],
        "reduce": [("--box", dict(required=True))],
        "preimage": [("--box", dict(required=True)), ("--k", _REQUIRED_INT)],
    },
}


# flags every command takes, before or after its name
_GLOBAL_FLAGS = {
    "--budget": dict(type=int, default=ground.DEFAULT_BUDGET,
                     help=f"enumeration budget (default {ground.DEFAULT_BUDGET})"),
    "--seed": dict(type=int, default=0, help="seed for sampled checks (default 0)"),
    "--out": dict(help="write the JSON document here"),
}


def _parse_tables() -> dict:
    """Path of positional tokens -> (the flags allowed there, the names the
    next positional token may take, or None at a leaf)."""
    tables = {(): (_GLOBAL_FLAGS, tuple(_COMMANDS))}
    for command, actions in _COMMANDS.items():
        if None in actions:
            tables[(command,)] = ({**dict(actions[None]), **_GLOBAL_FLAGS}, None)
            continue
        tables[(command,)] = ({}, tuple(actions))
        for action, flags in actions.items():
            tables[(command, action)] = ({**dict(flags), **_GLOBAL_FLAGS}, None)
    return tables


_TABLES = _parse_tables()


def _flag_value(flag: str, options: dict, text: str):
    value = text
    if options.get("type") is int:
        value = ground.read_int(text)
        if value is None:
            raise CliError(f"argument {flag}: invalid int value: {text!r}")
    choices = options.get("choices")
    if choices is not None and value not in choices:
        raise CliError(f"argument {flag}: invalid choice: {value!r} "
                       f"(choose from {', '.join(map(repr, choices))})")
    return value


def _parse(argv) -> SimpleNamespace:
    """Read argv against ``_COMMANDS``: the command, its action if it has
    actions, then its flags; the global flags may also come first.

    Every flag takes one value, as the next token or after ``=``; the next
    token is the value even when it starts with "-".  A repeated flag keeps
    its last value, and a flag is matched only by its full name.  -h/--help
    where a flag may stand raises ``_HelpRequested`` with argparse's help for
    the path read so far.
    """
    path = ()
    flags, choices = _TABLES[path]
    values, unknown = {}, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            build_parser().parse_args([*path, token])  # raises _HelpRequested
        if token.startswith("-"):
            flag, eq, text = token.partition("=")
            options = flags.get(flag)
            if options is None:
                unknown.append(token)
                continue
            if not eq:
                text = next(tokens, None)
                if text is None:
                    raise CliError(f"argument {flag}: expected one argument")
            values[flag] = _flag_value(flag, options, text)
        elif choices is None:
            unknown.append(token)
        elif token in choices:
            path += (token,)
            flags, choices = _TABLES[path]
        else:
            raise CliError(f"argument {('command', 'action')[len(path)]}: invalid choice: "
                           f"{token!r} (choose from {', '.join(map(repr, choices))})")
    # argparse reports stray tokens only once the scan is over, so a later
    # -h/--help still answers
    if unknown:
        raise CliError(f"unrecognized arguments: {' '.join(unknown)}")
    if not path:
        raise CliError("missing subcommand")
    if choices is not None:
        raise CliError(f"{path[0]} needs one of: {', '.join(choices)}")
    missing = [flag for flag, options in flags.items()
               if options.get("required") and flag not in values]
    if missing:
        raise CliError(f"the following arguments are required: {', '.join(missing)}")
    args = SimpleNamespace(**dict(zip(("command", "action"), path)))
    for flag, options in flags.items():
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, options.get("default")))
    return args


@functools.cache
def build_parser():
    """argparse's parser for every command in ``_COMMANDS``, built on first
    use.  It writes the -h/--help text; ``_parse`` reads argv without it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # -h/--help: hand the text back instead of printing it and exiting
            raise _HelpRequested(self.format_help())

    # shared by every (sub)parser so global flags may follow the subcommand;
    # SUPPRESS keeps inner defaults from clobbering values parsed earlier
    common = Parser(add_help=False)
    for flag, options in _GLOBAL_FLAGS.items():
        common.add_argument(flag, **{**options, "default": argparse.SUPPRESS})

    def leaf(subparsers, name: str, flags) -> None:
        parser = subparsers.add_parser(name, parents=[common])
        for flag, options in flags:
            parser.add_argument(flag, **options)

    parser = Parser(prog="sigmaprod", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", parser_class=Parser)
    for command, actions in _COMMANDS.items():
        if None in actions:
            leaf(sub, command, actions[None])
            continue
        action_sub = sub.add_parser(command).add_subparsers(dest="action",
                                                            parser_class=Parser)
        for action, flags in actions.items():
            leaf(action_sub, action, flags)
    return parser


def _parse_fraction(text: str) -> Fraction:
    try:
        if "e" in text.lower():  # Fraction would build 10^|exponent|
            raise ValueError(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"malformed rational {text!r}") from None


def _read_file(path: str) -> str:
    try:
        # an empty path names the current directory, refused as a directory
        with open(path or ".", encoding="utf-8") as file:
            return file.read()
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _read_json(path: str, name: str, form: str, decode):
    """``decode`` of the JSON in ``path``, a number with a fraction part read
    exactly.  A file that cannot be read or parsed, or that ``decode`` refuses
    with a TypeError, ValueError, KeyError or AttributeError, is a usage error."""
    text = _read_file(path)
    try:
        raw = json.loads(text, parse_float=_parse_fraction)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise CliError(f"unreadable number in {path}: {exc}") from None
    except RecursionError:
        raise CliError(f"JSON nested too deeply in {path}") from None
    try:
        return decode(raw)
    except (TypeError, ValueError, KeyError, AttributeError):
        raise CliError(f"malformed {name} file; expected {form}") from None


def _json_int(value) -> int:
    """``operator.index`` of a value read from a JSON file, refusing ``true``
    and ``false``, which Python would take for 1 and 0."""
    if isinstance(value, bool):
        raise TypeError("a JSON boolean is not an integer")
    return operator.index(value)


def _json_label(label: str) -> int:
    """An int label of a JSON file; any other key is refused."""
    value = ground.read_int(label)
    if value is None:
        raise ValueError(f"malformed label {label!r}")
    return value


def _json_rational(value) -> Fraction:
    """A rational in a JSON file: ``_parse_fraction`` text, a decimal or an int."""
    if isinstance(value, str):
        return _parse_fraction(value)
    if isinstance(value, Fraction):
        return value
    return Fraction(_json_int(value))


def _handle_classify(args) -> dict:
    from . import classification

    tau = ground.parse_tau(args.tau)
    tau2 = ground.parse_tau(args.tau2)
    verdict = classification.classify(tau, tau2, args.gamma)
    return {
        **encode.verdict(verdict),
        "gamma": args.gamma,
        "tau": encode.tau(tau),
        "tau2": encode.tau(tau2),
        "normal_form": encode.normal_form(classification.normal_form(tau)),
        "normal_form2": encode.normal_form(classification.normal_form(tau2)),
    }


def _handle_cb(args) -> dict:
    from . import classification

    ks = tuple(ground.read_int(tok) for tok in map(str.strip, args.ks.split(",")) if tok)
    if None in ks:
        raise CliError(f"malformed bounds list {args.ks!r}")
    index, last = classification.cb_invariants(ks, args.budget)
    return {"ks": list(ks), "index": index, "last_cardinality": last}


def _handle_decompose(args) -> dict:
    from . import classification

    for flag in ("samples", "boxes"):
        if getattr(args, flag) < 0:
            raise CliError(f"{flag} must be non-negative")
    if args.kind == "absorb_small":
        dec = classification.decompose_absorb_small(args.m, args.n, args.depth,
                                                    budget=args.budget)
    else:
        dec = classification.decompose_classif_k(args.element, args.depth, args.budget)
    # on top of the constraints, each sampled point costs its widest prefix
    # plus its tail, and each neighborhood box one unit
    width = dec.ambient.explicit_len + dec.depth
    args.budget.charge(args.samples * width + args.boxes)
    disjoint = classification.check_pairwise_disjoint(dec, args.budget)
    membership = classification.check_sample_membership(dec, args.samples, args.seed)
    boxes = classification.limit_neighborhood_boxes(dec, args.boxes, args.seed + 1)
    cofinite = classification.check_limit_cofinite(dec, boxes)
    return {
        **encode.decomposition_to_json(dec),
        "checks": encode.decomposition_checks(disjoint, membership, cofinite),
        "seed": args.seed,
    }


def _handle_avg(args) -> dict:
    from . import averaging

    op = averaging.build_operator(args.k, args.ground, args.budget)
    if args.action == "build":
        return {"k": args.k, "ground": args.ground, **encode.operator_to_json(op)}
    if args.action == "check":
        return {"k": args.k, "ground": args.ground, **encode.rao_check(op.check())}
    f = _read_json(args.f, "function", "[[coords…], rational] pairs", lambda raw: {
        tuple(ground.Point(map(_json_int, c)) for c in coords): _json_rational(value)
        for coords, value in raw})
    missing = sum(x not in f for x in op.surjection)
    if missing:
        raise CliError(f"function file misses {missing} domain points")
    return {"k": args.k, "ground": args.ground,
            "values": encode.function_values(op.apply(f))}


def _handle_uec(args) -> dict:
    from . import uec

    if args.action == "phi":
        if not set(args.bits) <= {"0", "1"}:
            raise CliError(f"malformed bit string {args.bits!r}")
        bits = tuple(int(b) for b in args.bits)
        levels = args.levels if args.levels is not None else max(len(bits), 1)
        value = uec.phi(bits, levels, args.budget)
        return {"bits": list(bits), "levels": levels, "value": encode.fraction(value)}
    if args.action == "preimage":
        if args.limit < 0:
            raise CliError("limit must be non-negative")
        target = _parse_fraction(args.target)
        count, first = uec.phi_preimage_head(target, args.levels, args.limit, args.budget)
        return {
            "target": args.target,
            "levels": args.levels,
            "tolerance": encode.fraction(uec.truncation_tail(args.levels)),
            "count": count,
            "solutions": [list(bits) for bits in first],
        }
    if args.action == "l0":
        array = _read_json(args.bits_file, "bits", "[[element, level], …]", lambda raw:
                           uec.BinaryArray(tuple((_json_int(el), _json_int(lvl))
                                                 for el, lvl in raw)))
        return encode.l0_certificate(uec.in_L0(array, args.budget))
    if args.action == "bounds":
        return encode.weight_table(uec.level_bounds(args.levels, args.budget))
    points = _read_json(args.points_file, "points", "[{label: rational}, …]", lambda raw: [
        uec.SignedVector(tuple((_json_label(lab), _json_rational(val))
                               for lab, val in entry.items()))
        for entry in raw])
    return encode.pipeline_report(uec.pipeline_check(points, args.levels, args.budget))


def _parse_family_file(path: str) -> deltasystem.SetFamily:
    from . import deltasystem

    pairs = []
    for lineno, line in enumerate(_read_file(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, sep, point = (tok.strip() for tok in line.partition(":"))
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'label: {{e1,e2}}'")
        try:
            # a label ground.read_int reads is an int, any other is text
            value = ground.read_int(label)
            pairs.append((label if value is None else value, ground.parse_point(point)))
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
    return deltasystem.SetFamily.from_pairs(pairs)


def _handle_ds(args) -> dict:
    from . import deltasystem

    if args.action == "extract":
        fam = _parse_family_file(args.family)
        result = deltasystem.extract_delta_system(fam, args.petals, args.budget)
        return encode.delta_extraction(result, len(fam), args.petals)
    side_g, side_h = _read_json(args.spec, "spec", "side_g / side_h objects", lambda raw: [
        tuple(sorted(((_json_label(label), tuple(ground.Point(map(_json_int, s)) for s in sets))
                      for label, sets in raw[side].items()), key=lambda pair: pair[0]))
        for side in ("side_g", "side_h")])
    spec = deltasystem.NeighborhoodSpec(args.k, side_g, side_h)
    result = deltasystem.common_point_witness(spec, args.n, args.k, args.budget)
    return encode.common_point(result)


def _handle_clopen(args) -> dict:
    from . import clopen

    box = clopen.parse_box(args.box)
    if args.action == "empty":
        return {"box": encode.box(box), "empty": clopen.box_is_empty(box)}
    if args.action == "reduce":
        return {"box": encode.box(box),
                **encode.box_reduction(clopen.box_reduce(box, args.budget))}
    preimage = clopen.preimage_under_union(box, args.k, args.budget)
    return {"box": encode.box(box), "k": args.k,
            "preimage": encode.clopen_set(preimage), "count": len(preimage)}


_HANDLERS = {
    "classify": _handle_classify,
    "cb": _handle_cb,
    "decompose": _handle_decompose,
    "avg": _handle_avg,
    "uec": _handle_uec,
    "ds": _handle_ds,
    "clopen": _handle_clopen,
}


def _invoke(argv) -> tuple:
    """Run one invocation; returns (exit code, JSON-ready payload, the
    parsed arguments or None when parsing failed)."""
    args = None
    try:
        args = _parse(argv)
        args.budget = ground.Budget(args.budget)
        if args.budget.limit <= 0:
            raise CliError("budget must be positive")
        payload = _HANDLERS[args.command](args)
        return 0, {"schema": SCHEMA, **payload}, args
    except _HelpRequested as exc:
        return 0, {"help": exc.args[0]}, None
    except ground.BudgetExceeded as exc:
        code, error = 2, {"type": "budget-exceeded", "message": str(exc),
                          "needed": exc.needed, "budget": exc.budget}
    except encode.OutputTooLarge as exc:
        code, error = 1, {"type": "output-too-large", "message": str(exc)}
    except CliError as exc:
        code, error = 1, {"type": "usage", "message": str(exc)}
    except (ValueError, KeyError) as exc:
        code, error = 1, {"type": "invalid-input", "message": str(exc)}
    except Exception as exc:  # never a bare crash
        code, error = 1, {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}
    return code, {"schema": SCHEMA, "error": error}, args


def dispatch(argv) -> tuple:
    """Run one invocation; returns (exit code, JSON-ready payload).

    With -h/--help the payload is ``{"help": <the parser's help text>}``.
    """
    code, payload, _args = _invoke(argv)
    return code, payload


# payloads are trees built by ``encode``, so no cycle markers are kept
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def render(payload: dict) -> str:
    return _ENCODER.encode(payload)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    code, payload, args = _invoke(argv)
    if args is None and "help" in payload:
        sys.stdout.write(payload["help"])
        return code
    text = render(payload)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as file:
                file.write(text + "\n")
            return code
        except OSError as exc:
            code, text = 1, render({"schema": SCHEMA, "error": {
                "type": "usage", "message": f"cannot write {out}: {exc.strerror}"}})
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
