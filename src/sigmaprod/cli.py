"""Command-line front end: every subcommand prints one JSON document.

Exit codes: 0 success, 1 structured error (bad flags, malformed input,
precondition failure, an answer too large to write), 2 enumeration budget
exhausted.  Identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import averaging, classification, clopen, deltasystem, encode, ground, uec

SCHEMA = 1


class CliError(Exception):
    pass


class _HelpRequested(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)

    def print_help(self, file=None):
        # -h/--help: hand the text back instead of printing it and exiting
        raise _HelpRequested(self.format_help())


_REQUIRED_INT = dict(type=int, required=True)
_K_GROUND = [("--k", _REQUIRED_INT), ("--ground", _REQUIRED_INT)]

# command -> action -> flags as (name, add_argument keywords); the action None
# marks a command that takes its flags directly instead of an action
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


def _common_flags() -> _Parser:
    # shared by every (sub)parser so global flags may follow the subcommand;
    # SUPPRESS keeps inner defaults from clobbering values parsed earlier
    common = _Parser(add_help=False)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help=f"enumeration budget (default {ground.DEFAULT_BUDGET})")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON document here")
    return common


def _leaf(subparsers, name: str, common: _Parser, flags) -> None:
    parser = subparsers.add_parser(name, parents=[common])
    for flag, options in flags:
        parser.add_argument(flag, **options)


@functools.cache
def build_parser() -> _Parser:
    """The parser for every command in ``_COMMANDS``, built on first use."""
    common = _common_flags()
    parser = _Parser(prog="sigmaprod", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for command, actions in _COMMANDS.items():
        if None in actions:
            _leaf(sub, command, common, actions[None])
            continue
        action_sub = sub.add_parser(command).add_subparsers(dest="action",
                                                            parser_class=_Parser)
        for action, flags in actions.items():
            _leaf(action_sub, action, common, flags)
    return parser


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"malformed rational {text!r}") from None


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from None


def _handle_classify(args) -> dict:
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
    try:
        ks = tuple(int(tok) for tok in args.ks.split(",") if tok.strip() != "")
    except ValueError:
        raise CliError(f"malformed bounds list {args.ks!r}") from None
    index, last = classification.cb_invariants(ks, args.budget)
    return {"ks": list(ks), "index": index, "last_cardinality": last}


def _handle_decompose(args) -> dict:
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
    disjoint = classification.check_pairwise_disjoint(dec)
    membership = classification.check_sample_membership(dec, args.samples, args.seed)
    boxes = classification.limit_neighborhood_boxes(dec, args.boxes, args.seed + 1)
    cofinite = classification.check_limit_cofinite(dec, boxes)
    return {
        **encode.decomposition_to_json(dec),
        "checks": encode.decomposition_checks(disjoint, membership, cofinite),
        "seed": args.seed,
    }


def _handle_avg(args) -> dict:
    op = averaging.build_operator(args.k, args.ground, args.budget)
    if args.action == "build":
        return {"k": args.k, "ground": args.ground, **encode.operator_to_json(op)}
    if args.action == "check":
        return {"k": args.k, "ground": args.ground, **encode.rao_check(op.check())}
    raw = _read_json(args.f)
    f = {}
    try:
        for coords, value in raw:
            x = tuple(ground.Point(tuple(c)) for c in coords)
            f[x] = _parse_fraction(value) if isinstance(value, str) else Fraction(value)
    except (TypeError, ValueError):
        raise CliError("malformed function file; expected [[coords…], rational] pairs") from None
    missing = [x for x in op.domain if x not in f]
    if missing:
        raise CliError(f"function file misses {len(missing)} domain points")
    return {"k": args.k, "ground": args.ground,
            "values": encode.function_values(op.codomain, op.apply(f))}


def _handle_uec(args) -> dict:
    if args.action == "phi":
        if not set(args.bits) <= {"0", "1"}:
            raise CliError(f"malformed bit string {args.bits!r}")
        bits = tuple(int(b) for b in args.bits)
        levels = args.levels if args.levels is not None else max(len(bits), 1)
        value = uec.phi(bits, levels)
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
        raw = _read_json(args.bits_file)
        try:
            array = uec.BinaryArray(tuple((int(el), int(lvl)) for el, lvl in raw))
        except (TypeError, ValueError):
            raise CliError("malformed bits file; expected [[element, level], …]") from None
        return encode.l0_certificate(uec.in_L0(array, args.budget))
    if args.action == "bounds":
        return encode.weight_table(uec.level_bounds(args.levels, args.budget))
    raw = _read_json(args.points_file)
    try:
        points = [
            uec.SignedVector.from_dict({int(lab): _parse_fraction(str(val))
                                        for lab, val in entry.items()})
            for entry in raw
        ]
    except (TypeError, ValueError, AttributeError):
        raise CliError("malformed points file; expected [{label: rational}, …]") from None
    return encode.pipeline_report(uec.pipeline_check(points, args.levels, args.budget))


def _parse_family_file(path: str) -> deltasystem.SetFamily:
    pairs = []
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label_tok, sep, set_tok = line.partition(":")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected 'label: {{e1,e2}}'")
        label_tok = label_tok.strip()
        label = int(label_tok) if label_tok.lstrip("-").isdigit() else label_tok
        pairs.append((label, ground.parse_point(set_tok)))
    return deltasystem.SetFamily.from_pairs(pairs)


def _handle_ds(args) -> dict:
    if args.action == "extract":
        fam = _parse_family_file(args.family)
        result = deltasystem.extract_delta_system(fam, args.petals)
        return encode.delta_extraction(result, len(fam), args.petals)
    raw = _read_json(args.spec)
    try:
        side_g, side_h = (
            tuple((int(label), tuple(ground.Point(tuple(s)) for s in sets))
                  for label, sets in sorted(raw[side].items(), key=lambda kv: int(kv[0])))
            for side in ("side_g", "side_h")
        )
    except (TypeError, ValueError, KeyError):
        raise CliError("malformed spec file; expected side_g / side_h objects") from None
    spec = deltasystem.NeighborhoodSpec(args.k, side_g, side_h)
    result = deltasystem.common_point_witness(spec, args.n, args.k, args.budget)
    return encode.common_point(result)


def _handle_clopen(args) -> dict:
    box = clopen.parse_box(args.box)
    if args.action == "empty":
        return {"box": encode.box(box), "empty": clopen.box_is_empty(box)}
    if args.action == "reduce":
        return {"box": encode.box(box), **encode.box_reduction(clopen.box_reduce(box))}
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
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise CliError("missing subcommand")
        args.budget = ground.Budget(getattr(args, "budget", ground.DEFAULT_BUDGET))
        if args.budget.limit <= 0:
            raise CliError("budget must be positive")
        args.seed = getattr(args, "seed", 0)
        actions = _COMMANDS[args.command]
        if None not in actions and args.action is None:
            raise CliError(f"{args.command} needs one of: {', '.join(actions)}")
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


def render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    code, payload, args = _invoke(argv)
    if args is None and "help" in payload:
        sys.stdout.write(payload["help"])
        return code
    text = render(payload)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
