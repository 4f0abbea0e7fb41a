"""JSON forms of the library's values: the schema of the CLI's output.

The only module that turns library values into JSON-native ones, which
``cli.render`` writes as they are.  A rational is the text "p/q" ("p" for an
integer), omega is "w", and a point is the list of its elements.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .ground import (
    Point,
    ProductDescriptor,
    format_constraint,
    format_descriptor,
    format_tau,
    is_omega,
    type_signature,
)


class OutputTooLarge(Exception):
    """A number of the answer has more digits than the interpreter will write."""


def fraction(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
    except ValueError:  # the interpreter's limit on int-to-string conversion
        raise OutputTooLarge(
            f"the answer holds a rational with more than {sys.get_int_max_str_digits()} "
            "digits in its numerator or denominator") from None


def integer(n: int) -> int:
    """``n`` as it is, once the interpreter will write it as text."""
    try:
        str(n)
    except ValueError:  # the interpreter's limit on int-to-string conversion
        raise OutputTooLarge("the answer holds an integer with more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
    return n


def value(v):
    """An exponent or a bound: an int, or "w" for omega."""
    return "w" if is_omega(v) else v


def tau(t) -> dict:
    return {"entries": [[idx, value(val)] for idx, val in t.entries],
            "tail": value(t.tail), "text": format_tau(t)}


def descriptor(desc) -> dict:
    return {"factors": list(desc.factors), "omega_tail": desc.omega_tail,
            "text": format_descriptor(desc)}


def _constraint(s: int, f: Point, g: Point) -> dict:
    return {"coord": s, "F": list(f), "G": list(g)}


def box(b) -> dict:
    ambient = descriptor(b.ambient)
    return {
        "ambient": ambient,
        "constraints": [_constraint(s, f, g) for s, f, g in b.constraints],
        "text": "[" + "; ".join([format_constraint(s, f, g) for s, f, g in b.constraints])
                + "] @ " + ambient["text"],
    }


def union_preimage(b, k: int, placements: tuple) -> dict:
    f, g = b.constraint_at(0)
    return {"k": k, "F": list(f), "G": list(g), "placements": [list(p) for p in placements],
            "count": len(placements)}


def box_reduction(reduction) -> dict:
    return {"descriptor": descriptor(reduction.descriptor),
            "removed": [{"coord": s, "F": list(f)} for s, f in reduction.removed]}


def verdict(v) -> dict:
    return {"outcome": v.outcome, "rule": v.rule, "detail": v.detail}


def normal_form(nf) -> dict:
    return {"omega_threshold": value(nf.i), "upper_tail": nf.upper_tail,
            "upper_entries": [[n, v] for n, v in nf.upper_entries]}


def run_length(zeros: int, rest: tuple, tail) -> dict:
    """A type in the form of ``ProductDescriptor.run_length``: its leading
    zero factors, the factors after them and its tail, no longer than its
    positive factors."""
    return {"zeros": zeros, "factors": list(rest), "omega_tail": tail}


def decomposition_to_json(dec) -> dict:
    """The level constraints once, then each piece of ``dec`` as its label,
    level, own constraints, type in run-length form and type signature:
    O(depth·n) for the partitions ``decompose`` builds.  A piece's box is
    the first ``level`` level constraints plus its own.
    Each distinct point is written from one list, and each distinct type
    signature from one object."""
    lists: dict = {}  # a point -> its list

    def constraints(forms) -> list:
        out = []
        for s, f, g in forms:
            f_list = lists.get(f)
            if f_list is None:
                f_list = lists[f] = list(f)
            g_list = lists.get(g)
            if g_list is None:
                g_list = lists[g] = list(g)
            out.append({"coord": s, "F": f_list, "G": g_list})
        return out

    signatures: dict = {}  # the factors past the zeros and tail of a type -> its signature
    pieces = []
    for label, _ambient, own, (zeros, rest, tail), level, _levels in dec.pieces:
        signature = signatures.get((rest, tail))
        if signature is None:
            signature = signatures[rest, tail] = descriptor(
                type_signature(ProductDescriptor(rest, tail)))
        pieces.append({"label": label, "level": level, "own": constraints(own),
                       "type": run_length(zeros, rest, tail), "type_signature": signature})
    return {
        "kind": dec.kind,
        "ambient": descriptor(dec.ambient),
        "limit_point": str(dec.limit_point),
        "witnesses": list(dec.witnesses),
        "depth": dec.depth,
        "levels": constraints(dec.levels),
        "pieces": pieces,
    }


def decomposition_checks(disjoint, membership, cofinite) -> dict:
    return {
        "pairwise_disjoint": not disjoint,
        "disjoint_violations": [list(p) for p in disjoint],
        "membership": {"total": membership.total, "in_piece": membership.in_piece,
                       "at_limit": membership.at_limit,
                       "unresolved": len(membership.unresolved), "ok": membership.ok},
        "limit_cofinite": {"boxes": cofinite.boxes, "violations": len(cofinite.violations),
                           "ok": cofinite.ok},
    }


def operator_to_json(op) -> dict:
    """A union-map operator with each placement written as the k-tuple it
    stands for, of weight 1/|row|."""
    return {
        "rows": [
            {"y": list(y), "terms": [[[list(c) for c in x], 1, len(row)] for x in op.fiber(y)]}
            for y, row in op.rows.items()
        ],
        "domain_size": integer(op.domain_size),
        "codomain_size": len(op.codomain),
    }


def rao_check(report) -> dict:
    return {"rao_axioms": "pass" if report.ok else "fail", "unital": report.unital,
            "positive": report.positive, "section": report.section,
            "fiber_supported": report.fiber_supported}


def function_values(f: dict) -> list:
    return [{"y": list(y), "value": fraction(v)} for y, v in f.items()]


def l0_certificate(cert) -> dict:
    return {"member": cert.member, "total": fraction(cert.total),
            "counts": {str(n): c for n, c in cert.counts.items()}}


def weight_table(table) -> dict:
    return {"levels": table.levels, "r": [fraction(w) for w in table.r], "M": list(table.m)}


def pipeline_report(report) -> dict:
    return {
        "levels": report.levels,
        "tolerance_per_coordinate": fraction(report.tolerance_per_coordinate),
        "bounds": list(report.table.m),
        "ok": report.ok,
        "points": [
            {
                "vector": {str(label): fraction(q) for label, q in w.vector.coords},
                "bits": [[el, lvl] for el, lvl in w.bits.bits],
                "per_coordinate": [
                    {"label": str(label), "target": fraction(target), "bits": list(bits),
                     "error": fraction(err)}
                    for label, target, bits, err in w.per_coordinate
                ],
                "weighted_sum": fraction(w.l0_total),
                "strictly_inside": w.strict_l0,
                "within_tolerance": w.within_tolerance,
                "level_counts": {str(n): c for n, c in w.level_counts.items()},
                "bounds_ok": w.bounds_ok,
            }
            for w in report.points
        ],
        "stages": list(report.stages),
    }


def delta_extraction(result, family_size: int, petals: int) -> dict:
    doc = {"family_size": family_size, "petals_requested": petals,
           "max_petals": result.max_petals, "method": result.method, "found": result.ok}
    system = result.system
    if system is not None:
        doc.update(root=list(system.root), petal_size=system.petal_size,
                   petal_labels=[str(l) for l in system.petal_labels])
    return doc


def common_point(result) -> dict:
    return {
        "ok": result.ok,
        "lambda0": result.lambda0,
        "s_labels": [str(l) for l in result.s_labels],
        "m_labels": [str(l) for l in result.m_labels],
        "root": list(result.root) if result.root is not None else None,
        "failed_stage": result.failed_stage,
        "detail": result.detail,
        "checks": [{"F": [str(l) for l in f_labels], "nonempty": nonempty,
                    "witnessed": witnessed} for f_labels, nonempty, witnessed in result.checks],
    }
