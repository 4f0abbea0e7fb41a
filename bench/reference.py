"""Reference answers the benchmark grades every request against.

Nothing here imports sigmaprod: each answer is recomputed from the
benchmark's own description of the input (closed forms, small brute-force
enumerations, or the defining predicate), so a wrong answer from the program
cannot also be the expected one.

A grader returns ``None`` when the answer agrees, or a short cause string
when it does not.  Causes that start with ``known:`` name a defect listed in
ROADMAP.md and are attributed only when the program's answer equals what
that defect predicts.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations, permutations, product

W = "w"  # the omega marker in tau specs
KNOWN_REPEATED_COORD = "known:parse_box-repeated-coordinate"


def frac_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


# ---------------------------------------------------------------------------
# exponent sequences and the classifier


def tau_text(vals, tail) -> str:
    head = ",".join(str(v) for v in vals)
    return f"{head} tail={tail}" if head else f"tail={tail}"


def tau_invariants(vals, tail):
    """(omega-threshold i, support bound j, normal form) of a tau spec."""
    return _invariants(tuple(vals), tail)


@functools.lru_cache(maxsize=None)
def _invariants(vals: tuple, tail):
    entries = [(n, v) for n, v in enumerate(vals, start=1) if v != tail]
    if tail == W:
        i = W
    else:
        i = max((n for n, v in entries if v == W), default=0)
    if tail != 0:
        j = W
    else:
        j = max((n for n, v in entries if v != 0), default=0)
    nf = (W,) if i == W else (i, tuple((n, v) for n, v in entries if n > i), tail)
    return i, j, nf


def classify_expected(t1, t2, gamma: str) -> tuple:
    """(outcome, rule) from the invariants i, j and the exponents above i."""
    if gamma == "countable":
        fin1 = t1[1] == 0 and W not in t1[0]
        fin2 = t2[1] == 0 and W not in t2[0]
        if fin1 and fin2:
            inv1 = 1 + sum(n * v for n, v in enumerate(t1[0], start=1))
            inv2 = 1 + sum(n * v for n, v in enumerate(t2[0], start=1))
            outcome = "HOMEOMORPHIC" if inv1 == inv2 else "NOT_HOMEOMORPHIC"
            return outcome, "countable-derivation-index"
        if not fin1 and not fin2:
            return "HOMEOMORPHIC", "countable-infinite-product"
        return "NOT_HOMEOMORPHIC", "countable-versus-perfect"
    i1, j1, nf1 = tau_invariants(*t1)
    i2, j2, nf2 = tau_invariants(*t2)
    if nf1 == nf2:
        if i1 == W:
            return "HOMEOMORPHIC", "omega-saturated"
        if j1 != W:
            return "HOMEOMORPHIC", "finite-support-invariants"
        return "HOMEOMORPHIC", "absorption-normal-form"
    if j1 != j2:
        return "NOT_HOMEOMORPHIC", "largest-embeddable-bound"
    if j1 != W:
        if i1 != i2:
            return "NOT_HOMEOMORPHIC", "omega-threshold"
        return "NOT_HOMEOMORPHIC", "upper-exponents"
    return "OPEN", "open-question"


def grade_classify(spec, code, out):
    if code != 0:
        return f"exit {code}"
    outcome, rule = classify_expected(spec["tau"], spec["tau2"], spec["gamma"])
    if (out["outcome"], out["rule"], out["gamma"]) != (outcome, rule, spec["gamma"]):
        return "verdict"
    i1 = tau_invariants(*spec["tau"])[0]
    i2 = tau_invariants(*spec["tau2"])[0]
    if (out["normal_form"]["omega_threshold"], out["normal_form2"]["omega_threshold"]) != (i1, i2):
        return "normal-form"
    return None


def grade_classify_row(spec, result):
    t0 = spec["tau"]
    expected = [list(classify_expected(t0, t, spec["gamma"])) for t in spec["others"]]
    return None if result == expected else "verdict"


def grade_cb(spec, code, out):
    if code != 0:
        return f"exit {code}"
    if out["index"] != 1 + sum(spec["ks"]) or out["last_cardinality"] != 1:
        return "cb"
    return None


def grade_cb_call(spec, result):
    return None if result == [1 + sum(spec["ks"]), 1] else "cb"


# ---------------------------------------------------------------------------
# decompositions


def grade_decompose(spec, code, out):
    if code != 0:
        return f"exit {code}"
    if spec["kind"] == "absorb_small":
        kind = f"absorb_small({spec['m']},{spec['n']})"
        pieces = spec["m"] + spec["n"] * spec["depth"]
    else:
        kind, pieces = "classif_K", spec["depth"]
    checks = out["checks"]
    membership, cofinite = checks["membership"], checks["limit_cofinite"]
    if out["kind"] != kind or out["depth"] != spec["depth"] or len(out["pieces"]) != pieces:
        return "pieces"
    if not checks["pairwise_disjoint"] or checks["disjoint_violations"]:
        return "disjoint"
    if membership["total"] != spec["samples"] or not membership["ok"]:
        return "membership"
    if cofinite["boxes"] != spec["boxes"] or not cofinite["ok"]:
        return "cofinite"
    return None


# ---------------------------------------------------------------------------
# boxes; a spec is {"factors": [...], "tail": n|None, "constraints": [[s, F, G], ...]}


def box_text(spec) -> str:
    parts = [str(n) for n in spec["factors"]]
    if spec["tail"] is not None:
        parts.append(f"{spec['tail']}^w")
    inner = "; ".join(
        f"{s}: F={{{','.join(map(str, f))}}} G={{{','.join(map(str, g))}}}"
        for s, f, g in spec["constraints"])
    return f"[{inner}] @ {'x'.join(parts)}"


def _bound(spec, s):
    return spec["factors"][s] if s < len(spec["factors"]) else spec["tail"]


def _box_constraints(spec, merge: bool) -> dict:
    """Per-coordinate (F, G); repeats are merged, or the last one wins."""
    merged: dict = {}
    for s, f, g in spec["constraints"]:
        f, g = set(f), set(g)
        if merge and s in merged:
            f, g = merged[s][0] | f, merged[s][1] | g
        merged[s] = (f, g)
    return {s: fg for s, fg in sorted(merged.items()) if fg[0] or fg[1]}


def _box_empty(spec, cons) -> bool:
    return any(f & g or len(f) > _bound(spec, s) for s, (f, g) in cons.items())


def _clopen_expected(action, spec, merge):
    """(exit code, the checked part of the answer) for a clopen request."""
    cons = _box_constraints(spec, merge)
    empty = _box_empty(spec, cons)
    if action == "empty":
        return 0, empty
    if empty:
        return 1, None
    if action == "reduce":
        width = max([len(spec["factors"])] + [s + 1 for s in cons])
        factors = [_bound(spec, s) - len(cons.get(s, ((), ()))[0]) for s in range(width)]
        while spec["tail"] is not None and factors and factors[-1] == spec["tail"]:
            factors.pop()
        removed = [[s, sorted(f)] for s, (f, _g) in cons.items() if f]
        return 0, (factors, spec["tail"], removed)
    k = spec["factors"][0]
    f = cons.get(0, ((), ()))[0]
    return 0, math.perm(k, len(f))


def _clopen_answer(action, code, out):
    if code != 0:
        return None
    if action == "empty":
        return out["empty"]
    if action == "reduce":
        desc = out["descriptor"]
        return (desc["factors"], desc["omega_tail"],
                [[r["coord"], r["F"]] for r in out["removed"]])
    return out["count"]


def repeat_changes_answer(action, spec) -> bool:
    """Whether keeping only the last constraint of a repeated coordinate
    changes the answer, so the known parse_box defect shows."""
    return _clopen_expected(action, spec, merge=True) != _clopen_expected(action, spec, merge=False)


def grade_clopen(spec, code, out):
    action = spec["action"]
    answer = (code, _clopen_answer(action, code, out))
    if answer == _clopen_expected(action, spec["box"], merge=True):
        return None
    coords = [s for s, _f, _g in spec["box"]["constraints"]]
    if len(set(coords)) < len(coords) and answer == _clopen_expected(action, spec["box"], merge=False):
        return KNOWN_REPEATED_COORD
    return f"clopen-{action}"


# ---------------------------------------------------------------------------
# averaging operators


def _singletons_tuples(k, g):
    singles = [()] + [(e,) for e in range(g)]
    return list(product(singles, repeat=k))


def codomain_size(k, g):
    return sum(math.comb(g, m) for m in range(min(k, g) + 1))


def total_terms(k, g):
    return sum(math.comb(g, m) * math.perm(k, m) for m in range(min(k, g) + 1))


def grade_avg_build(spec, code, out):
    if code != 0:
        return f"exit {code}"
    k, g = spec["k"], spec["ground"]
    if out["domain_size"] != (g + 1) ** k or out["codomain_size"] != codomain_size(k, g):
        return "sizes"
    if len(out["rows"]) != codomain_size(k, g):
        return "rows"
    for row in out["rows"]:
        y = row["y"]
        fiber = math.perm(k, len(y))
        if len(row["terms"]) != fiber:
            return "fiber"
        for x, num, den in row["terms"]:
            elems = [e for coord in x for e in coord]
            if (num, den) != (1, fiber) or sorted(elems) != y or any(len(c) > 1 for c in x):
                return "term"
    return None


def grade_avg_check(spec, code, out):
    if code != 0:
        return f"exit {code}"
    flags = (out["rao_axioms"], out["unital"], out["positive"], out["section"],
             out["fiber_supported"])
    return None if flags == ("pass", True, True, True, True) else "rao"


def avg_apply_values(k, g, rng):
    """A seeded function on the operator's domain, as the CLI's JSON file."""
    values = []
    for x in _singletons_tuples(k, g):
        num, den = rng.randint(-5, 9), rng.randint(1, 4)
        values.append([[list(c) for c in x], f"{num}/{den}"])
    return values


def grade_avg_apply(spec, code, out):
    if code != 0:
        return f"exit {code}"
    k, g = spec["k"], spec["ground"]
    f = {tuple(tuple(c) for c in x): Fraction(v) for x, v in spec["values"]}
    got = {tuple(e["y"]): e["value"] for e in out["values"]}
    if len(got) != codomain_size(k, g):
        return "rows"
    for y, value in got.items():
        fiber = []
        for slots in permutations(range(k), len(y)):
            coords = [()] * k
            for el, slot in zip(y, slots):
                coords[slot] = (el,)
            fiber.append(f[tuple(coords)])
        if value != frac_text(sum(fiber, Fraction(0)) / len(fiber)):
            return "value"
    return None


def grade_operator_call(spec, result):
    k, g = spec["k"], spec["ground"]
    expected = {"codomain": codomain_size(k, g), "domain": (g + 1) ** k,
                "terms": total_terms(k, g), "rao": [True, True, True, True]}
    return None if result == expected else "operator"


# ---------------------------------------------------------------------------
# the level-weighted decoding


_WEIGHTS = [Fraction(1, 3) * Fraction(2, 3) ** n for n in range(80)]


def phi_value(bits) -> Fraction:
    return sum((_WEIGHTS[n] for n, b in enumerate(bits) if b), Fraction(0))


def grade_uec_phi(spec, code, out):
    if code != 0:
        return f"exit {code}"
    bits, levels = spec["bits"], spec["levels"]
    if out["value"] != frac_text(phi_value(bits[:levels])):
        return "phi"
    return None


def preimage_count(target: Fraction, levels: int) -> int:
    """Brute-force count over all 2^levels vectors, in integers scaled by 3^L."""
    scale = 3 ** levels
    weights = [2 ** n * 3 ** (levels - 1 - n) for n in range(levels)]
    lo, hi = target * scale - 2 ** levels, target * scale + 2 ** levels
    sums = [0]
    for w in weights:
        sums = sums + [s + w for s in sums]
    return sum(1 for s in sums if lo <= s <= hi)


def grade_uec_preimage(spec, code, out):
    if code != 0:
        return f"exit {code}"
    levels, target = spec["levels"], Fraction(spec["target"])
    tol = Fraction(2, 3) ** levels
    sols = out["solutions"]
    if out["count"] < 1 or out["tolerance"] != frac_text(tol):
        return "count"
    if len(sols) != min(out["count"], spec["limit"]) or sols != sorted(sols):
        return "listing"
    if len({tuple(s) for s in sols}) != len(sols):
        return "listing"
    for bits in sols:
        if len(bits) != levels or abs(phi_value(bits) - target) > tol:
            return "error-bound"
    if spec.get("brute_force") and out["count"] != preimage_count(target, levels):
        return "count"
    return None


def grade_uec_l0(spec, code, out):
    if code != 0:
        return f"exit {code}"
    counts: dict = {}
    for _el, lvl in set(map(tuple, spec["bits"])):
        counts[lvl] = counts.get(lvl, 0) + 1
    total = sum((_WEIGHTS[n] * c for n, c in counts.items()), Fraction(0))
    expected = (total <= 1, frac_text(total), {str(n): c for n, c in sorted(counts.items())})
    return None if (out["member"], out["total"], out["counts"]) == expected else "l0"


def grade_uec_bounds(spec, code, out):
    if code != 0:
        return f"exit {code}"
    levels = spec["levels"]
    r = [frac_text(_WEIGHTS[n]) for n in range(levels)]
    m = [3 ** (n + 1) // 2 ** n for n in range(levels)]  # floor(1/r_n)
    return None if (out["r"], out["M"]) == (r, m) else "bounds"


def grade_uec_pipeline(spec, code, out):
    if code != 0:
        return f"exit {code}"
    levels = spec["levels"]
    tol = Fraction(2, 3) ** levels
    if not out["ok"] or len(out["points"]) != len(spec["points"]):
        return "ok"
    for point, got in zip(spec["points"], out["points"]):
        coords = sorted((int(lab), Fraction(val)) for lab, val in point.items())
        per = got["per_coordinate"]
        if len(per) != len(coords):
            return "coordinates"
        total = Fraction(0)
        for (label, value), entry in zip(coords, per):
            bits = entry["bits"]
            if entry["label"] != str(label) or entry["target"] != frac_text(value):
                return "coordinates"
            if len(bits) != levels or any(b not in (0, 1) for b in bits):
                return "bits"
            err = phi_value(bits) - value
            if entry["error"] != frac_text(err) or abs(err) > tol:
                return "error-bound"
            total += phi_value(bits)
        if got["weighted_sum"] != frac_text(total) or not got["within_tolerance"]:
            return "weighted-sum"
    return None


# ---------------------------------------------------------------------------
# delta-systems


def delta_predicate(sets):
    """(ok, root): equal sizes and one common pairwise intersection."""
    if len(sets) < 2:
        return True, frozenset()
    if len({len(s) for s in sets}) != 1:
        return False, None
    root = sets[0] & sets[1]
    return all(a & b == root for a, b in combinations(sets, 2)), root


def _grade_extraction(spec, found, max_petals, method, root, labels, size):
    members = {label: frozenset(s) for label, s in spec["members"]}
    if method != ("exact" if len(members) <= 20 else "greedy"):
        return "method"
    if found != (max_petals >= spec["petals"]):
        return "found"
    if not found:
        return None
    if len(labels) != max_petals or len(set(labels)) != len(labels):
        return "petals"
    petals = [members[label] for label in labels]
    ok, check_root = delta_predicate(petals)
    if not ok or check_root != frozenset(root) or any(len(p) != size for p in petals):
        return "delta-predicate"
    return None


def grade_ds_extract(spec, code, out):
    if code != 0:
        return f"exit {code}"
    if out["family_size"] != len(spec["members"]):
        return "family"
    return _grade_extraction(spec, out["found"], out["max_petals"], out["method"],
                             out.get("root", []),
                             [int(label) for label in out.get("petal_labels", [])],
                             out.get("petal_size"))


def grade_delta_call(spec, result):
    return _grade_extraction(spec, result["found"], result["max"], result["method"],
                             result["root"], result["labels"], result["size"])


WITNESS_STAGES = {"delta-system", "thinning", "lambda0-selection", "s-size"}


def grade_ds_witness(spec, code, out):
    """Consistency of the construction; a failing stage must be a legitimate one."""
    if code != 0:
        return f"exit {code}"
    if not out["ok"]:
        return None if out["failed_stage"] in WITNESS_STAGES else "stage"
    n = spec["n"]
    side_g = {int(label): sets for label, sets in spec["side_g"].items()}
    side_h = {int(label): sets for label, sets in spec["side_h"].items()}
    lam = out["lambda0"]
    s_labels = [int(label) for label in out["s_labels"]]
    m_labels = [int(label) for label in out["m_labels"]]
    if lam not in side_g or not set(s_labels) <= set(m_labels) <= set(side_h):
        return "labels"
    if any(lam in side_h[mu][0] for mu in m_labels):
        return "lambda0"
    if set(s_labels) & set(side_g[lam][1]) or len(s_labels) < n + 1:
        return "s-labels"
    expected = [[str(label) for label in combo] for combo in combinations(s_labels, n + 1)]
    if [c["F"] for c in out["checks"]] != expected:
        return "checks"
    if not all(c["nonempty"] and c["witnessed"] for c in out["checks"]):
        return "witnessed"
    return None


def grade_malformed(spec, code, out):
    if code != 1 or out.get("error", {}).get("type") not in ("usage", "invalid-input"):
        return "malformed-accepted"
    return None


CLI_GRADERS = {
    "classify": grade_classify,
    "cb": grade_cb,
    "decompose": grade_decompose,
    "avg_build": grade_avg_build,
    "avg_check": grade_avg_check,
    "avg_apply": grade_avg_apply,
    "uec_phi": grade_uec_phi,
    "uec_preimage": grade_uec_preimage,
    "uec_l0": grade_uec_l0,
    "uec_bounds": grade_uec_bounds,
    "uec_pipeline": grade_uec_pipeline,
    "ds_extract": grade_ds_extract,
    "ds_witness": grade_ds_witness,
    "clopen": grade_clopen,
    "malformed": grade_malformed,
}

CALL_GRADERS = {
    "classify_row": grade_classify_row,
    "operator": grade_operator_call,
    "delta": grade_delta_call,
    "cb_call": grade_cb_call,
}
