"""Acceptance suite: one test per criterion, printing a pass/fail line each.

All checks are exact (rational arithmetic, zero tolerance) unless a criterion
states an explicit truncation bound; sampled checks use fixed seeds.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product as iter_product

from sigmaprod.averaging import build_operator, enumerate_L, fiber_map
from sigmaprod.classification import (
    HOMEOMORPHIC,
    NOT_HOMEOMORPHIC,
    OPEN,
    cb_invariants,
    check_limit_cofinite,
    check_pairwise_disjoint,
    check_sample_membership,
    classify,
    decompose_absorb_small,
    decompose_classif_k,
    limit_neighborhood_boxes,
    normal_form,
)
from sigmaprod.cli import dispatch, render
from sigmaprod.clopen import BasicBox, box_is_empty
from sigmaprod.deltasystem import SetFamily, extract_delta_system
from sigmaprod.ground import (
    EMPTY,
    OMEGA,
    Point,
    ProductDescriptor,
    TauSequence,
    i_of,
    is_omega,
    j_of,
    materialize,
)
from sigmaprod.uec import (
    BinaryArray,
    in_L0,
    level_bounds,
    level_weight,
    phi,
    truncation_tail,
)
from test_classification import engine_invariants
from test_clopen import decoded_preimage, tuple_preimage
from test_deltasystem import brute_force_max_petals
from test_uec import weight_partial_sum


def report(number, name, ok):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_rao_axiom_suite():
    started = time.monotonic()
    ok = True
    for k in range(1, 5):
        for g in range(1, 5):
            op = build_operator(k, g)
            check = op.check()
            ok = ok and check.unital and check.positive and check.section
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 30
    report(1, "averaging operator axioms (k<=4, ground<=4, exact)", ok)


def test_criterion_02_fiber_law():
    ok = True
    for k in range(1, 6):
        for size2 in range(k + 1):
            y2 = Point(tuple(range(size2)))
            assert len(enumerate_L(y2, k)) == math.factorial(k) // math.factorial(k - size2)
            for size1 in range(size2 + 1):
                y1 = Point(tuple(range(size1)))
                fm = fiber_map(y1, y2, k)
                fibers = {}
                for x, image in fm.assignment.items():
                    fibers.setdefault(image, []).append(x)
                sizes = {len(v) for v in fibers.values()}
                ok = ok and sizes == {fm.fiber_size}
                ok = ok and len(enumerate_L(y2, k)) == fm.fiber_size * len(enumerate_L(y1, k))
    report(2, "fiber law |L(y')| = n * |L(y)| with uniform fibers (k<=5)", ok)


def test_criterion_03_continuity_witnesses():
    mismatches = 0
    ground_size = 4
    subsets = [tuple(c) for size in range(3) for c in combinations(range(3), size)]
    for k in range(1, 5):
        desc = ProductDescriptor.power(1, k)
        points = materialize(desc, ground_size)
        for f in subsets:
            for g in subsets:
                box = BasicBox.make(ProductDescriptor.single(k),
                                    {0: (Point(f), Point(g))})
                if box_is_empty(box):
                    continue
                pre = decoded_preimage(box, k)
                mismatches += pre.boxes != tuple_preimage(box, k).boxes
                for x in points:
                    union = EMPTY
                    for s in range(k):
                        union = union | x.coordinate(s)
                    in_image = (set(f) <= set(union)
                                and not set(g) & set(union))
                    if pre.contains(x) != in_image:
                        mismatches += 1
    report(3, "union-map placements decode to the tuple boxes and agree pointwise "
              "(ground<=4, k<=4)", mismatches == 0)


def test_criterion_04_pipeline_numbers():
    ok = all(1 - truncation_tail(n) == weight_partial_sum(n) for n in range(1, 41))
    ok = ok and all(
        sum(level_weight(i) for i in range(n)) == weight_partial_sum(n)
        for n in range(1, 41)
    )
    table = level_bounds(6)
    ok = ok and table.m == (3, 4, 6, 10, 15, 22)
    # derived oracle: M_n is the floor of 3 * (3/2)^n
    ok = ok and all(
        table.m[n] == math.floor(3 * Fraction(3, 2) ** n) for n in range(6)
    )
    three = in_L0(BinaryArray(tuple((el, 0) for el in range(3))))
    four = in_L0(BinaryArray(tuple((el, 0) for el in range(4))))
    ok = ok and three.member and three.total == 1
    ok = ok and not four.member and four.total == Fraction(4, 3)
    report(4, "weight sums, level bounds 3,4,6,10,15,22, boundary membership", ok)


def test_criterion_05_phi_surjectivity_at_truncation():
    started = time.monotonic()
    levels = 12
    tol = Fraction(2, 3) ** levels
    values = sorted(
        phi(bits, levels) for bits in iter_product((0, 1), repeat=levels)
    )
    assert len(values) == 4096
    rng = random.Random(42)
    ok = True
    for _ in range(100):
        den = rng.randint(1, 10**6)
        target = Fraction(rng.randint(0, den), den)
        # bisect into the sorted value list, then check the neighbors
        lo, hi = 0, len(values)
        while lo < hi:
            mid = (lo + hi) // 2
            if values[mid] < target:
                lo = mid + 1
            else:
                hi = mid
        near = values[max(0, lo - 1):lo + 2]
        ok = ok and any(abs(v - target) <= tol for v in near)
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5
    report(5, "100 seeded targets within (2/3)^12 of the 4096 truncated values", ok)


def test_criterion_06_delta_system():
    rng = random.Random(6)
    ok = True
    for _ in range(40):
        n_members = rng.randint(2, 12)
        sets = [tuple(rng.sample(range(8), rng.randint(0, 3))) for _ in range(n_members)]
        family = SetFamily.from_pairs((i, Point(s)) for i, s in enumerate(sets))
        result = extract_delta_system(family, 2)
        ok = ok and result.method == "exact"
        ok = ok and result.max_petals == brute_force_max_petals(family)
    for _ in range(500):
        pairs = set()
        while len(pairs) < 9:
            pairs.add(tuple(sorted(rng.sample(range(10), 2))))
        family = SetFamily.from_pairs((i, Point(s)) for i, s in enumerate(sorted(pairs)))
        result = extract_delta_system(family, 3)
        ok = ok and result.ok and result.max_petals >= 3
    report(6, "exact extractor matches brute force; 9 two-sets give 3 petals", ok)


def test_criterion_07_cb_engine_vs_closed_form():
    ok = engine_invariants((0,)) == cb_invariants((0,)) == (1, 1)
    for total in range(1, 9):
        for length in range(1, total + 1):
            for cuts in combinations(range(1, total), length - 1):
                parts = []
                prev = 0
                for cut in cuts + (total,):
                    parts.append(cut - prev)
                    prev = cut
                ks = tuple(parts)
                ok = ok and engine_invariants(ks) == cb_invariants(ks) == (1 + total, 1)
    # zero-padded factors contribute nothing
    ok = ok and engine_invariants((0, 3, 0, 2)) == cb_invariants((0, 3, 0, 2)) == (6, 1)
    report(7, "derived-set engine equals 1 + sum(k_i) with final count 1", ok)


class _Facts:
    """What the oracle reads of one sequence, computed once per sequence."""

    def __init__(self, tau, top):
        self.tau = tau
        self.i, self.j = i_of(tau), j_of(tau)
        self.tail = tau.tail
        self.max_index = tau.max_index
        # value_at(n) for n = 0..top, where top bounds every pair's range
        self.values = [tau.value_at(n) for n in range(top + 1)]


def _facts(seqs):
    top = max(t.max_index for t in seqs) + 1
    return [_Facts(t, top) for t in seqs]


def _upper_match(a, b):
    ia, ib = a.i, b.i
    if ia != ib or a.tail != b.tail:
        return False
    top = max(a.max_index, b.max_index) + 1
    return all(a.values[n] == b.values[n] for n in range(ia + 1, top + 1))


def _oracle(a, b):
    """Direct restatement of the classification rules, bypassing normal forms."""
    ia, ib = a.i, b.i
    ja, jb = a.j, b.j
    if is_omega(ia) and is_omega(ib):
        return HOMEOMORPHIC
    if not is_omega(ja) and not is_omega(jb):
        return HOMEOMORPHIC if _upper_match(a, b) else NOT_HOMEOMORPHIC
    if is_omega(ja) != is_omega(jb):
        return NOT_HOMEOMORPHIC
    return HOMEOMORPHIC if _upper_match(a, b) else OPEN


def test_criterion_08_classification_table():
    values = [0, 1, 2, 3, OMEGA]
    seqs = _facts([
        TauSequence.from_values(head, tail)
        for tail in (0, OMEGA)
        for head in iter_product(values, repeat=4)
    ])
    # equal normal forms get equal class numbers
    classes = {}
    nf_class = [classes.setdefault(normal_form(a.tau), len(classes)) for a in seqs]
    # outcomes[x][y] is the outcome for the pair (seqs[x], seqs[y])
    outcomes = []
    ok = True
    for a, nf_a in zip(seqs, nf_class):
        row = []
        for b, nf_b in zip(seqs, nf_class):
            v = classify(a.tau, b.tau)
            row.append(v.outcome)
            if v.outcome != _oracle(a, b):
                ok = False
            if v.outcome != OPEN:
                if (v.outcome == HOMEOMORPHIC) != (nf_a == nf_b):
                    ok = False
        outcomes.append(row)
    for x, row in enumerate(outcomes):
        for y, outcome in enumerate(row):
            if outcome != outcomes[y][x]:
                ok = False
    # positive finite tails produce the undecided regime; every mismatched
    # pair there must come back OPEN with the question attached
    small = _facts([
        TauSequence.from_values(head, tail)
        for tail in (0, 1, 2, OMEGA)
        for head in iter_product((0, 1, OMEGA), repeat=2)
    ])
    open_seen = 0
    for a in small:
        for b in small:
            v = classify(a.tau, b.tau)
            if v.outcome != _oracle(a, b):
                ok = False
            undecided = (is_omega(a.j) and is_omega(b.j)
                         and not (is_omega(a.i) and is_omega(b.i))
                         and not _upper_match(a, b))
            if undecided:
                open_seen += 1
                if v.outcome != OPEN or "open question" not in v.detail:
                    ok = False
            elif v.outcome == OPEN:
                ok = False
    ok = ok and open_seen > 0
    report(8, "classification grid: theorem oracle, symmetry, normal forms, OPEN", ok)


def test_criterion_09_decomposition_suite():
    ok = True
    for dec in (
        decompose_absorb_small(1, 2, depth=6),
        decompose_absorb_small(2, 3, depth=6),
        decompose_classif_k(0, depth=6),
    ):
        ok = ok and check_pairwise_disjoint(dec) == []
        membership = check_sample_membership(dec, 1000, seed=0)
        ok = ok and membership.ok and membership.total == 1000
        boxes = limit_neighborhood_boxes(dec, 50, seed=1)
        cof = check_limit_cofinite(dec, boxes)
        ok = ok and cof.ok and cof.boxes == 50
    report(9, "decompositions: disjoint, 1000-point membership, cofinal capture", ok)


def test_criterion_10_cli_determinism(tmp_path):
    bits = tmp_path / "bits.json"
    bits.write_text(json.dumps([[0, 0], [1, 1]]))
    family = tmp_path / "family.txt"
    family.write_text("1: {1,2}\n2: {1,3}\n3: {1,4}\n")
    points = tmp_path / "points.json"
    points.write_text(json.dumps([{"0": "1/3"}]))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "side_g": {"9": [[], []]},
        "side_h": {str(mu): [[], []] for mu in range(3)},
    }))
    corpus = [
        ["classify", "--tau", "w,w,2", "--tau2", "5,w,2"],
        ["classify", "--tau", "w tail=1", "--tau2", "w,2 tail=1"],
        ["classify", "--tau", "2", "--tau2", "0,1", "--gamma", "countable"],
        ["cb", "--ks", "2,3"],
        ["decompose", "--kind", "absorb_small", "--m", "1", "--n", "2",
         "--depth", "6", "--samples", "100", "--boxes", "20", "--seed", "5"],
        ["decompose", "--kind", "classif_K", "--depth", "5", "--seed", "7"],
        ["avg", "build", "--k", "2", "--ground", "3"],
        ["avg", "check", "--k", "3", "--ground", "3"],
        ["uec", "phi", "--bits", "1011", "--levels", "6"],
        ["uec", "preimage", "--target", "2/5", "--levels", "12"],
        ["uec", "l0", "--bits-file", str(bits)],
        ["uec", "bounds", "--levels", "6"],
        ["uec", "pipeline", "--points-file", str(points), "--levels", "10"],
        ["ds", "extract", "--family", str(family), "--petals", "3"],
        ["ds", "witness", "--spec", str(spec), "--n", "1", "--k", "1"],
        ["clopen", "empty", "--box", "[0: F={0} G={1}] @ 2"],
        ["clopen", "reduce", "--box", "[0: F={0,1} G={}] @ 3"],
        ["clopen", "preimage", "--box", "[0: F={0} G={1}] @ 2", "--k", "2"],
        ["classify", "--tau", "zzz", "--tau2", ""],
    ]
    ok = True
    for argv in corpus:
        code1, payload1 = dispatch(argv)
        code2, payload2 = dispatch(argv)
        ok = ok and code1 == code2 and render(payload1) == render(payload2)
    report(10, "byte-identical CLI output under fixed seed", ok)
