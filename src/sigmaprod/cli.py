"""Command-line front end: every subcommand prints one JSON document.

Exit codes: 0 success, 1 structured error (bad flags, malformed input,
precondition failure), 2 enumeration budget exhausted.  Identical flags and
seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import averaging, classification, clopen, deltasystem, ground, uec

SCHEMA = 1
BUDGET_ENV = "SIGMAPROD_BUDGET"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@dataclass(frozen=True)
class RunConfig:
    budget: int
    seed: int


def _common_flags() -> _Parser:
    # shared by every (sub)parser so global flags may follow the subcommand;
    # SUPPRESS keeps inner defaults from clobbering values parsed earlier
    common = _Parser(add_help=False)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS,
                        help=f"enumeration budget (default {ground.DEFAULT_BUDGET}, "
                             f"env {BUDGET_ENV})")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled checks (default 0)")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the JSON document here")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="JSON output (the only mode; accepted for compatibility)")
    return common


def build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(prog="sigmaprod", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("classify", parents=[common])
    p.add_argument("--tau", required=True)
    p.add_argument("--tau2", required=True)
    p.add_argument("--gamma", choices=["uncountable", "countable"],
                   default="uncountable")

    p = sub.add_parser("cb", parents=[common])
    p.add_argument("--ks", required=True, help="comma list of factor bounds, e.g. 2,3")

    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--kind", choices=["absorb_small", "classif_K"], required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--element", type=int, default=0)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--boxes", type=int, default=20)

    p = sub.add_parser("avg")
    avg_sub = p.add_subparsers(dest="action", parser_class=_Parser)
    for action in ("build", "check", "apply"):
        q = avg_sub.add_parser(action, parents=[common])
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--ground", type=int, required=True)
        if action == "apply":
            q.add_argument("--f", required=True, help="JSON file with the function values")

    p = sub.add_parser("uec")
    uec_sub = p.add_subparsers(dest="action", parser_class=_Parser)
    q = uec_sub.add_parser("phi", parents=[common])
    q.add_argument("--bits", required=True, help="0/1 string, lowest level first")
    q.add_argument("--levels", type=int, default=None)
    q = uec_sub.add_parser("preimage", parents=[common])
    q.add_argument("--target", required=True, help="rational in [0,1], e.g. 1/2")
    q.add_argument("--levels", type=int, required=True)
    q.add_argument("--limit", type=int, default=50, help="solutions listed in the output")
    q = uec_sub.add_parser("l0", parents=[common])
    q.add_argument("--bits-file", required=True,
                   help="JSON list of [element, level] pairs")
    q = uec_sub.add_parser("bounds", parents=[common])
    q.add_argument("--levels", type=int, required=True)
    q = uec_sub.add_parser("pipeline", parents=[common])
    q.add_argument("--points-file", required=True,
                   help="JSON list of {label: rational} objects")
    q.add_argument("--levels", type=int, required=True)

    p = sub.add_parser("ds")
    ds_sub = p.add_subparsers(dest="action", parser_class=_Parser)
    q = ds_sub.add_parser("extract", parents=[common])
    q.add_argument("--family", required=True, help="file with lines 'label: {e1,e2}'")
    q.add_argument("--petals", type=int, required=True)
    q = ds_sub.add_parser("witness", parents=[common])
    q.add_argument("--spec", required=True,
                   help="JSON file with side_g / side_h exclusion tuples")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)

    p = sub.add_parser("clopen")
    cl_sub = p.add_subparsers(dest="action", parser_class=_Parser)
    q = cl_sub.add_parser("empty", parents=[common])
    q.add_argument("--box", required=True)
    q = cl_sub.add_parser("reduce", parents=[common])
    q.add_argument("--box", required=True)
    q = cl_sub.add_parser("preimage", parents=[common])
    q.add_argument("--box", required=True)
    q.add_argument("--k", type=int, required=True)
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


def _frac_json(q: Fraction) -> str:
    return uec.fraction_to_json(q)


def _handle_classify(args, config) -> dict:
    tau = ground.parse_tau(args.tau)
    tau2 = ground.parse_tau(args.tau2)
    verdict = classification.classify(tau, tau2, args.gamma)
    return {
        **classification.verdict_to_json(verdict),
        "gamma": args.gamma,
        "tau": ground.tau_to_json(tau),
        "tau2": ground.tau_to_json(tau2),
        "normal_form": classification.normal_form_to_json(classification.normal_form(tau)),
        "normal_form2": classification.normal_form_to_json(classification.normal_form(tau2)),
    }


def _handle_cb(args, config) -> dict:
    try:
        ks = tuple(int(tok) for tok in args.ks.split(",") if tok.strip() != "")
    except ValueError:
        raise CliError(f"malformed bounds list {args.ks!r}") from None
    index, last = classification.cb_invariants(ks)
    return {"ks": list(ks), "index": index, "last_cardinality": last}


def _handle_decompose(args, config) -> dict:
    if args.kind == "absorb_small":
        dec = classification.decompose_absorb_small(args.m, args.n, args.depth)
    else:
        dec = classification.decompose_classif_k(args.element, args.depth)
    disjoint = classification.check_pairwise_disjoint(dec)
    membership = classification.check_sample_membership(dec, args.samples, config.seed)
    boxes = classification.limit_neighborhood_boxes(dec, args.boxes, config.seed + 1)
    cofinite = classification.check_limit_cofinite(dec, boxes)
    return {
        **classification.decomposition_to_json(dec),
        "checks": {
            "pairwise_disjoint": not disjoint,
            "disjoint_violations": [list(p) for p in disjoint],
            "membership": {
                "total": membership.total,
                "in_piece": membership.in_piece,
                "at_limit": membership.at_limit,
                "unresolved": len(membership.unresolved),
                "ok": membership.ok,
            },
            "limit_cofinite": {
                "boxes": cofinite.boxes,
                "violations": len(cofinite.violations),
                "ok": cofinite.ok,
            },
        },
        "seed": config.seed,
    }


def _handle_avg(args, config) -> dict:
    if args.action is None:
        raise CliError("avg needs one of: build, check, apply")
    op = averaging.build_operator(args.k, args.ground, config.budget)
    if args.action == "build":
        return {"k": args.k, "ground": args.ground, **averaging.operator_to_json(op)}
    if args.action == "check":
        report = op.check()
        return {
            "k": args.k,
            "ground": args.ground,
            "rao_axioms": "pass" if report.ok else "fail",
            "unital": report.unital,
            "positive": report.positive,
            "section": report.section,
            "fiber_supported": report.fiber_supported,
        }
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
    result = op.apply(f)
    return {
        "k": args.k,
        "ground": args.ground,
        "values": [
            {"y": ground.point_to_json(y), "value": _frac_json(result[y])}
            for y in op.codomain
        ],
    }


def _handle_uec(args, config) -> dict:
    if args.action is None:
        raise CliError("uec needs one of: phi, preimage, l0, bounds, pipeline")
    if args.action == "phi":
        if not set(args.bits) <= {"0", "1"}:
            raise CliError(f"malformed bit string {args.bits!r}")
        bits = tuple(int(b) for b in args.bits)
        levels = args.levels if args.levels is not None else max(len(bits), 1)
        value = uec.phi(bits, levels)
        return {"bits": list(bits), "levels": levels, "value": _frac_json(value)}
    if args.action == "preimage":
        target = _parse_fraction(args.target)
        solutions = uec.phi_preimage(target, args.levels, config.budget)
        return {
            "target": args.target,
            "levels": args.levels,
            "tolerance": _frac_json(uec.truncation_tail(args.levels)),
            "count": len(solutions),
            "solutions": [list(bits) for bits in solutions[:args.limit]],
        }
    if args.action == "l0":
        raw = _read_json(args.bits_file)
        try:
            array = uec.BinaryArray(tuple((int(el), int(lvl)) for el, lvl in raw))
        except (TypeError, ValueError):
            raise CliError("malformed bits file; expected [[element, level], …]") from None
        cert = uec.in_L0(array)
        return {
            "member": cert.member,
            "total": _frac_json(cert.total),
            "counts": {str(n): c for n, c in cert.counts.items()},
        }
    if args.action == "bounds":
        table = uec.level_bounds(args.levels)
        return {
            "levels": args.levels,
            "r": [_frac_json(w) for w in table.r],
            "M": list(table.m),
        }
    raw = _read_json(args.points_file)
    try:
        points = [
            uec.SignedVector.from_dict({int(lab): _parse_fraction(str(val))
                                        for lab, val in entry.items()})
            for entry in raw
        ]
    except (TypeError, ValueError, AttributeError):
        raise CliError("malformed points file; expected [{label: rational}, …]") from None
    report = uec.pipeline_check(points, args.levels, config.budget)
    return uec.pipeline_report_to_json(report)


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


def _handle_ds(args, config) -> dict:
    if args.action is None:
        raise CliError("ds needs one of: extract, witness")
    if args.action == "extract":
        fam = _parse_family_file(args.family)
        result = deltasystem.extract_delta_system(fam, args.petals)
        payload = {
            "family_size": len(fam),
            "petals_requested": args.petals,
            "max_petals": result.max_petals,
            "method": result.method,
            "found": result.ok,
        }
        if result.system is not None:
            payload["root"] = ground.point_to_json(result.system.root)
            payload["petal_labels"] = [str(l) for l in result.system.petal_labels]
            payload["petal_size"] = result.system.petal_size
        return payload
    raw = _read_json(args.spec)
    try:
        side_g = tuple(
            (int(label), tuple(ground.Point(tuple(s)) for s in sets))
            for label, sets in sorted(raw["side_g"].items(), key=lambda kv: int(kv[0]))
        )
        side_h = tuple(
            (int(label), tuple(ground.Point(tuple(s)) for s in sets))
            for label, sets in sorted(raw["side_h"].items(), key=lambda kv: int(kv[0]))
        )
    except (TypeError, ValueError, KeyError):
        raise CliError("malformed spec file; expected side_g / side_h objects") from None
    spec = deltasystem.NeighborhoodSpec(args.k, side_g, side_h)
    result = deltasystem.common_point_witness(spec, args.n, args.k, config.budget)
    return {
        "ok": result.ok,
        "lambda0": result.lambda0,
        "s_labels": [str(l) for l in result.s_labels],
        "m_labels": [str(l) for l in result.m_labels],
        "root": ground.point_to_json(result.root) if result.root is not None else None,
        "failed_stage": result.failed_stage,
        "detail": result.detail,
        "checks": [
            {"F": [str(l) for l in f_labels], "nonempty": nonempty, "witnessed": witnessed}
            for f_labels, nonempty, witnessed in result.checks
        ],
    }


def _handle_clopen(args, config) -> dict:
    if args.action is None:
        raise CliError("clopen needs one of: empty, reduce, preimage")
    box = clopen.parse_box(args.box)
    if args.action == "empty":
        return {"box": clopen.box_to_json(box), "empty": clopen.box_is_empty(box)}
    if args.action == "reduce":
        reduction = clopen.box_reduce(box)
        return {
            "box": clopen.box_to_json(box),
            "descriptor": ground.descriptor_to_json(reduction.descriptor),
            "removed": [
                {"coord": s, "F": ground.point_to_json(f)} for s, f in reduction.removed
            ],
        }
    preimage = clopen.preimage_under_union(box, args.k)
    return {
        "box": clopen.box_to_json(box),
        "k": args.k,
        "preimage": clopen.clopen_to_json(preimage),
        "count": len(preimage),
    }


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
        budget = getattr(args, "budget", None)
        if budget is None:
            budget = int(os.environ.get(BUDGET_ENV, ground.DEFAULT_BUDGET))
        if budget <= 0:
            raise CliError("budget must be positive")
        config = RunConfig(budget, getattr(args, "seed", 0))
        payload = _HANDLERS[args.command](args, config)
        return 0, {"schema": SCHEMA, **payload}, args
    except ground.BudgetExceeded as exc:
        code, error = 2, {"type": "budget-exceeded", "message": str(exc),
                          "needed": exc.needed, "budget": exc.budget}
    except CliError as exc:
        code, error = 1, {"type": "usage", "message": str(exc)}
    except (ValueError, KeyError) as exc:
        code, error = 1, {"type": "invalid-input", "message": str(exc)}
    except Exception as exc:  # never a bare crash
        code, error = 1, {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}
    return code, {"schema": SCHEMA, "error": error}, args


def dispatch(argv) -> tuple:
    """Run one invocation; returns (exit code, JSON-ready payload)."""
    code, payload, _args = _invoke(argv)
    return code, payload


def render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    code, payload, args = _invoke(argv)
    text = render(payload)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
