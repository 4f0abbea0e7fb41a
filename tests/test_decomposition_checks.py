"""The indexed decomposition checks against the brute-force loops they replace.

The oracles below are the pairwise ``box_intersect`` + ``box_is_empty`` loop,
the linear scan of ``box_contains`` over every piece, and the per-piece
``box_subset`` test; the library answers from the per-coordinate index.
The JSON encoder, the point sampler, the sampled membership check and
``box_reduce`` are checked against the per-occurrence code they replace: a
per-piece box encoder, the sampler that draws ground elements, that sampler's
points each located by the linear scan, and a reduction that builds every
factor anew.
"""

import random
import re

import pytest

from sigmaprod import classification
from sigmaprod.classification import (
    Decomposition,
    DecompositionPiece,
    MembershipReport,
    check_limit_cofinite,
    check_pairwise_disjoint,
    check_sample_membership,
    decompose_absorb_small,
    decompose_classif_k,
    decomposition_to_json,
    limit_neighborhood_boxes,
    piece_for_point,
    sample_decomposition_points,
)
from sigmaprod.cli import render
from sigmaprod.clopen import (
    BasicBox,
    BoxIndex,
    BoxReduction,
    box_contains,
    box_intersect,
    box_is_empty,
    box_reduce,
    box_subset,
)
from sigmaprod.encode import box as box_to_json, descriptor as descriptor_to_json
from sigmaprod.ground import (
    DEFAULT_BUDGET,
    EMPTY,
    BudgetExceeded,
    Point,
    ProductDescriptor,
    ProductPoint,
    format_descriptor,
    materialize,
)

KINDS = [(m, n) for n in (1, 2, 3) for m in range(n)] + ["K"]


def pairs_oracle(dec):
    bad = []
    for a in range(len(dec.pieces)):
        for b in range(a + 1, len(dec.pieces)):
            inter = box_intersect(dec.pieces[a].box, dec.pieces[b].box)
            if not box_is_empty(inter):
                bad.append((dec.pieces[a].label, dec.pieces[b].label))
    return bad


def scan_oracle(dec, x):
    if x == dec.limit_point:
        return "limit"
    hits = [p.label for p in dec.pieces if box_contains(p.box, x)]
    if len(hits) > 1:
        raise AssertionError(f"point {x} lies in several pieces: {hits}")
    return hits[0] if hits else None


def cofinite_oracle(dec, boxes):
    violations = []
    for box in boxes:
        cutoff = box.max_constrained_coord()
        for piece in dec.pieces:
            if piece.box.max_constrained_coord() > cutoff:
                if not box_subset(piece.box, box):
                    violations.append((str(box), piece.label))
    return violations


def outcome(fn, *args):
    """The answer, or the type and message of the error raised instead."""
    try:
        return fn(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def build(kind, depth):
    if kind == "K":
        return decompose_classif_k(element=3, depth=depth)
    m, n = kind
    return decompose_absorb_small(m, n, depth=depth)


def perturbed_limit_points(dec, rng, count):
    """The limit point changed at one coordinate, up to two past the
    materialized depth, so some of them lie in no piece."""
    ground = list(dec.witnesses) + [max(dec.witnesses) + 1]
    last = dec.ambient.explicit_len + dec.depth + 2
    points = []
    for _ in range(count):
        s = rng.randint(0, last)
        size = rng.randint(0, dec.ambient.bound_at(s))
        value = Point(tuple(rng.sample(ground, size)))
        coords = [dec.limit_point.coordinate(t) for t in range(s)] + [value]
        points.append(ProductPoint(tuple(coords), dec.limit_point.tail_value))
    return points


def random_box(rng, ambient, max_coord, ground=4):
    constraints = {}
    for s in rng.sample(range(max_coord), rng.randint(0, min(3, max_coord))):
        f = Point(tuple(rng.sample(range(ground), rng.randint(0, 2))))
        g = Point(tuple(rng.sample(range(ground), rng.randint(0, 2))))
        constraints[s] = (f, g)
    return BasicBox.make(ambient, constraints)


def pieces_oracle(kind, depth):
    """The pieces of ``build(kind, depth)``, each built through the public
    constructors, which check the whole box and reduce it."""
    m, n, witnesses = (0, 1, (3,)) if kind == "K" else (*kind, tuple(range(kind[1])))
    ambient = ProductDescriptor((m,) if m else (), n)
    full = Point(witnesses)
    pieces = [DecompositionPiece(f"B'({j})", BasicBox(ambient, ((0, Point(witnesses[:j]),
                                                                Point.of(witnesses[j])),)),
                                 ProductDescriptor((m - j,), n))
              for j in range(m)]
    pinned = [(0, Point(witnesses[:m]), EMPTY)] if m else []
    for k in range(depth):
        s = len(pinned)
        for i in range(n):
            name = f"K({k + 1})" if kind == "K" else f"{'B' if m else 'A'}({k},{i})"
            box = BasicBox(ambient, tuple(pinned) + ((s, Point(witnesses[:i]),
                                                      Point.of(witnesses[i])),))
            pieces.append(DecompositionPiece(name, box, ProductDescriptor((0,) * s + (n - i,), n)))
        pinned.append((s, full, EMPTY))
    return pieces


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_level_built_pieces_match_the_public_constructors(kind):
    # the pieces are built without BasicBox's walk and the per-piece box_reduce
    for depth in [*range(1, 14), 40]:
        pieces = build(kind, depth).pieces
        assert list(pieces) == pieces_oracle(kind, depth)
        for p in pieces:
            assert p == DecompositionPiece(p.label, BasicBox(p.box.ambient, p.box.constraints),
                                           ProductDescriptor(p.claimed_type.factors,
                                                             p.claimed_type.omega_tail))


def test_a_level_whose_reduction_disagrees_with_its_claim_is_refused(monkeypatch):
    def shifted(shift):
        # box_reduce with the bound at the last constrained coordinate moved by
        # shift, left out of canonical form so that a bound below 0 survives
        def reduce(box, budget=DEFAULT_BUDGET):
            real = box_reduce(box, budget)
            desc = real.descriptor
            factors = [desc.bound_at(t) for t in range(box.max_constrained_coord() + 1)]
            factors[-1] += shift
            return BoxReduction(classification._prechecked(
                ProductDescriptor, factors=tuple(factors), omega_tail=desc.omega_tail),
                real.removed)
        return reduce

    for shift in (1, -1):
        monkeypatch.setattr(classification, "box_reduce", shifted(shift))
        for kind in KINDS:
            with pytest.raises(ValueError, match="claimed type does not match"):
                build(kind, 2)


@pytest.mark.parametrize("witnesses, first", [
    ((0, 0, 1), "A(0,1)"),  # miss 2 holds 1 element; miss 1 holds and avoids 0
    ((1, 2, 1), "A(0,2)"),  # miss 2 holds and avoids 1
])
def test_a_repeated_witness_is_refused(witnesses, first):
    # a repeat leaves miss i's F with fewer than i elements, after an empty miss
    with pytest.raises(ValueError, match=rf"piece {re.escape(first)}: claimed type"):
        classification._absorb_small("absorb_small(0,3)", 0, 3, 2, witnesses,
                                     lambda k, i: f"A({k},{i})", DEFAULT_BUDGET)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_constructed_decompositions_match_the_brute_force_checks(kind):
    rng = random.Random(str(kind))
    for depth in range(1, 13):
        dec = build(kind, depth)
        assert check_pairwise_disjoint(dec) == pairs_oracle(dec) == []
        points = (sample_decomposition_points(dec, 30, seed=depth)
                  + perturbed_limit_points(dec, rng, 30) + [dec.limit_point])
        answers = [piece_for_point(dec, x) for x in points]
        assert answers == [scan_oracle(dec, x) for x in points]
        assert None in answers and "limit" in answers
        max_coord = dec.ambient.explicit_len + depth + 1
        boxes = (limit_neighborhood_boxes(dec, 10, seed=depth)
                 + [random_box(rng, dec.ambient, max_coord) for _ in range(10)])
        report = check_limit_cofinite(dec, boxes)
        assert list(report.violations) == cofinite_oracle(dec, boxes)
        assert report.boxes == len(boxes)


def piece(label, box):
    return DecompositionPiece(label, box, box_reduce(box).descriptor)


def hand_built(pieces, ambient, limit=ProductPoint((), Point.of(0, 1))):
    return Decomposition("hand", ambient, tuple(pieces), limit, (0, 1), 2)


# within the bounds of ``hand_built``'s ambient (2, 1) x 2^omega at every
# coordinate, and off its tail value one coordinate past the explicit factors,
# so a point drawn only as wide as those factors is not the limit
INSIDE_LIMIT = ProductPoint((Point.of(0, 1), Point.of(0), Point.of(1)), Point.of(0, 1))


def test_overlapping_pieces_are_reported_in_order():
    ambient = ProductDescriptor.omega_power(2)
    dec = hand_built([
        piece("P0", BasicBox.make(ambient, {0: (Point.of(0), EMPTY)})),
        piece("P1", BasicBox.make(ambient, {0: (EMPTY, Point.of(1))})),
        piece("P2", BasicBox.make(ambient, {1: (Point.of(0, 1), EMPTY)})),
        piece("P3", BasicBox.make(ambient, {0: (Point.of(0, 1), EMPTY)})),
        piece("P4", BasicBox.make(ambient, {0: (Point.of(1), Point.of(0))})),
    ], ambient)
    expected = [("P0", "P1"), ("P0", "P2"), ("P0", "P3"), ("P1", "P2"),
                ("P2", "P3"), ("P2", "P4")]
    assert check_pairwise_disjoint(dec) == pairs_oracle(dec) == expected
    x = ProductPoint((Point.of(0), Point.of(0, 1)), EMPTY)
    with pytest.raises(AssertionError, match=r"several pieces: \['P0', 'P1', 'P2'\]"):
        piece_for_point(dec, x)
    assert outcome(piece_for_point, dec, x) == outcome(scan_oracle, dec, x)
    outside = ProductPoint((Point.of(0, 1, 2),), EMPTY)
    assert outcome(piece_for_point, dec, outside) == outcome(scan_oracle, dec, outside)
    assert outcome(piece_for_point, dec, outside)[0] is ValueError


def test_random_hand_built_decompositions_match_the_brute_force_checks():
    rng = random.Random(21)
    ambient = ProductDescriptor((2, 1), 2)
    points = materialize(ambient, 3, depth=3)
    seen_overlaps = seen_multiple_hits = 0
    seen = set()
    for trial in range(40):
        pieces = []
        size = rng.randint(1, 7)
        while len(pieces) < size:
            box = random_box(rng, ambient, 3)
            if not box_is_empty(box):
                pieces.append(piece(f"Q{len(pieces)}", box))
        dec = hand_built(pieces, ambient)
        overlaps = check_pairwise_disjoint(dec)
        assert overlaps == pairs_oracle(dec)
        seen_overlaps += bool(overlaps)
        for x in points:
            answer = outcome(piece_for_point, dec, x)
            assert answer == outcome(scan_oracle, dec, x)
            seen_multiple_hits += isinstance(answer, tuple)
        boxes = [random_box(rng, ambient, 4) for _ in range(8)]
        assert list(check_limit_cofinite(dec, boxes).violations) == \
            cofinite_oracle(dec, boxes)
        # the limit above breaks the bound 1 at coordinate 1; this one does not
        for limit in (dec.limit_point, INSIDE_LIMIT):
            sampled = hand_built(pieces, ambient, limit)
            for count in (1, 60):
                answer = outcome(check_sample_membership, sampled, count, trial)
                assert answer == outcome(membership_oracle, sampled, count, trial)
                seen.add(answer[0].__name__ if isinstance(answer, tuple) else
                         "gap" if answer.unresolved else "report")
    assert seen_overlaps and seen_multiple_hits
    assert seen == {"ValueError", "AssertionError", "gap", "report"}


def membership_oracle(dec, count, seed):
    """The membership report from the element sampler's points, each built
    and located by the linear scan."""
    in_piece = at_limit = 0
    unresolved = []
    for x in sample_oracle(dec, count, seed):
        where = scan_oracle(dec, x)
        if where == "limit":
            at_limit += 1
        elif where is None:
            unresolved.append(x)
        else:
            in_piece += 1
    return MembershipReport(count, in_piece, at_limit, tuple(unresolved))


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_sampled_membership_matches_the_scan_of_every_sampled_point(kind):
    at_limit = 0
    for depth in [*range(1, 14), 40]:
        dec = build(kind, depth)
        for count, seeds in ((0, (0,)), (1, range(4)), (200, (depth, depth + 50))):
            for seed in seeds:
                report = check_sample_membership(dec, count, seed)
                assert report == membership_oracle(dec, count, seed)
                assert report.ok and report.total == count
                at_limit += report.at_limit
    assert at_limit


def walked(dec, x):
    """The (coordinate, value) pairs that locating ``x`` reads: coordinates in
    order, stopping before the first past which no piece admitting ``x`` so
    far is constrained."""
    alive = list(dec.pieces)
    pairs = []
    for s in sorted({s for p in dec.pieces for s, _f, _g in p.box.constraints}):
        if all(p.box.max_constrained_coord() < s for p in alive):
            break
        value = x.coordinate(s)
        pairs.append((s, value))
        alive = [p for p in alive
                 if set(p.box.constraint_at(s)[0]) <= set(value)
                 and set(p.box.constraint_at(s)[1]).isdisjoint(value)]
    return pairs


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_the_sampled_check_reads_each_coordinate_value_once_up_to_the_stop(kind, monkeypatch):
    admitted = BoxIndex.admitted
    calls = []

    def counted(index, s, value):
        calls.append((s, value))
        return admitted(index, s, value)

    monkeypatch.setattr(BoxIndex, "admitted", counted)
    for depth in (1, 5, 12, 40):
        dec = build(kind, depth)
        for seed in (1, 2):
            calls.clear()
            check_sample_membership(dec, 100, seed)
            expected = {pair for x in sample_oracle(dec, 100, seed) if x != dec.limit_point
                        for pair in walked(dec, x)}
            assert len(calls) == len(set(calls))  # one lookup per (coordinate, value)
            assert set(calls) == expected


@pytest.mark.parametrize("limit", [
    ProductPoint((), Point.of(0, 1)),  # the tail value at coordinate 1, bound 1
    ProductPoint((Point.of(0, 1, 2),), Point.of(0)),  # three elements at 0, bound 2
], ids=str)
def test_a_limit_value_past_its_bound_is_refused_as_before(limit):
    ambient = ProductDescriptor((2, 1), 2)
    dec = hand_built([piece("P0", BasicBox.make(ambient, {0: (Point.of(0), EMPTY)}))],
                     ambient, limit)
    with pytest.raises(ValueError, match=r"^point \(.*\) outside ambient ProductDescriptor"):
        check_sample_membership(dec, 200, 0)
    for count in (0, 1, 5, 200):
        for seed in range(6):
            assert outcome(check_sample_membership, dec, count, seed) == \
                outcome(membership_oracle, dec, count, seed)


@pytest.mark.parametrize("fn, what", [
    (check_sample_membership, "samples"),
    (sample_decomposition_points, "samples"),
    (limit_neighborhood_boxes, "boxes"),
])
def test_a_negative_count_is_refused(fn, what):
    dec = build((1, 2), 3)
    with pytest.raises(ValueError, match=rf"^{what} must be non-negative$"):
        fn(dec, -1, 0)


def box_json_oracle(b):
    """The per-box encoder: every constraint formatted where it occurs."""
    return {
        "ambient": descriptor_to_json(b.ambient),
        "constraints": [{"coord": s, "F": list(f), "G": list(g)}
                        for s, f, g in b.constraints],
        "text": "[" + "; ".join(f"{s}: F={f} G={g}" for s, f, g in b.constraints)
                + "] @ " + format_descriptor(b.ambient),
    }


def signature_oracle(desc):
    bounds = sorted(n for n in desc.factors if n > 0)
    return ProductDescriptor(tuple(bounds), desc.omega_tail)


def decomposition_json_oracle(dec):
    return {
        "kind": dec.kind,
        "ambient": descriptor_to_json(dec.ambient),
        "limit_point": str(dec.limit_point),
        "witnesses": list(dec.witnesses),
        "depth": dec.depth,
        "pieces": [
            {
                "label": p.label,
                "box": box_json_oracle(p.box),
                "type": descriptor_to_json(p.claimed_type),
                "type_signature": descriptor_to_json(signature_oracle(p.claimed_type)),
            }
            for p in dec.pieces
        ],
    }


def sample_oracle(dec, count, seed, extra_elements=2):
    """The sampler drawing ground elements, one new point per coordinate."""
    rng = random.Random(seed)
    base = max(dec.witnesses) + 1 if dec.witnesses else 0
    ground = list(dec.witnesses) + [base + t for t in range(extra_elements)]
    explicit = dec.ambient.explicit_len
    points = []
    for _ in range(count):
        width = rng.randint(explicit, explicit + dec.depth - 1)
        coords = []
        for s in range(width):
            if rng.random() < 0.5:
                coords.append(dec.limit_point.coordinate(s))
            else:
                bound = dec.ambient.bound_at(s)
                size = rng.randint(0, min(bound, len(ground)))
                coords.append(Point(tuple(rng.sample(ground, size))))
        points.append(ProductPoint(tuple(coords), dec.limit_point.tail_value))
    return points


def reduce_oracle(b):
    """``box_reduce`` building each factor of the reduced type anew."""
    if box_is_empty(b):
        raise ValueError("cannot reduce an empty box")
    width = max(b.ambient.explicit_len, b.max_constrained_coord() + 1)
    removed = tuple((s, f) for s, f, _g in b.constraints if len(f))
    dropped = dict(removed)
    factors = tuple(b.ambient.bound_at(s) - len(dropped.get(s, EMPTY))
                    for s in range(width))
    return BoxReduction(ProductDescriptor(factors, b.ambient.omega_tail), removed)


def constraint_count(dec):
    return sum(len(p.box.constraints) for p in dec.pieces)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_the_json_document_matches_the_per_box_encoder(kind):
    for depth in [*range(1, 13), 40]:
        dec = build(kind, depth)
        assert render(decomposition_to_json(dec)) == render(decomposition_json_oracle(dec))
    assert [box_to_json(p.box) for p in dec.pieces] == \
        [box_json_oracle(p.box) for p in dec.pieces]


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_sampled_points_match_the_element_sampler(kind):
    for depth in (1, 2, 5, 12, 40):
        dec = build(kind, depth)
        for seed in range(20):
            assert sample_decomposition_points(dec, 40, seed) == sample_oracle(dec, 40, seed)
        assert sample_decomposition_points(dec, 40, 3, extra_elements=0) == \
            sample_oracle(dec, 40, 3, extra_elements=0)


def test_sampled_points_over_a_ground_of_more_than_21_elements():
    # past 21 elements ``random.sample`` may take its set branch, where the
    # sampler keeps the pool branch: the draws differ, but stay seeded
    dec = decompose_absorb_small(1, 24, depth=4)
    ground = set(dec.witnesses) | {24, 25}
    runs = [sample_decomposition_points(dec, 100, seed) for seed in (5, 5, 6)]
    assert runs[0] == runs[1] and runs[0] != runs[2]
    assert runs[0] != sample_oracle(dec, 100, 5)
    for x in runs[0]:
        assert x.tail_value == dec.limit_point.tail_value
        assert len(x.prefix) <= dec.ambient.explicit_len + dec.depth - 1
        for s, value in enumerate(x.prefix):
            assert set(value) <= ground and len(value) <= dec.ambient.bound_at(s)
    report = check_sample_membership(dec, 100, 5)
    assert report.ok and report.in_piece > 0


def test_box_reduce_matches_the_factor_by_factor_reduction():
    rng = random.Random(6)
    seen_empty = 0
    for _trial in range(400):
        # bounds that an F of up to two elements exceeds or fills, and large ones
        bounds = [rng.choice((0, 1, 2, 3, 63, 64, 70)) for _ in range(rng.randint(0, 3))]
        tail = rng.choice((None, 1, 2, 64))
        if not bounds and tail is None:
            tail = 2
        ambient = ProductDescriptor(tuple(bounds), tail)
        max_coord = len(bounds) + (3 if tail is not None else 0)
        box = random_box(rng, ambient, max_coord)
        answer = outcome(box_reduce, box)
        assert answer == outcome(reduce_oracle, box)
        seen_empty += isinstance(answer, tuple) and answer[0] is ValueError
    assert seen_empty


def test_basic_box_names_the_first_coordinate_outside_the_ambient():
    ambient = ProductDescriptor((2, 2))
    for constraints, bad in [([(1, EMPTY, EMPTY), (5, EMPTY, EMPTY), (-1, EMPTY, EMPTY)], 5),
                             ([(-2, EMPTY, EMPTY), (7, EMPTY, EMPTY)], -2),
                             ([(1, EMPTY, EMPTY), (-1, EMPTY, EMPTY)], -1),
                             ([(0, Point.of(1), EMPTY), (2, EMPTY, EMPTY)], 2)]:
        with pytest.raises(ValueError, match=rf"^coordinate {bad} outside ambient$"):
            BasicBox(ambient, tuple(constraints))
    tail = ProductDescriptor((2,), 1)
    assert BasicBox(tail, ((9, Point.of(1), EMPTY), (0, EMPTY, EMPTY))).constraints == \
        ((9, Point.of(1), EMPTY),)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_the_constraint_count_is_charged_before_building(kind):
    m, n = (0, 1) if kind == "K" else kind
    for depth in (1, 2, 7):
        # the constraints, then the elements of the points built once: F and G
        # of the miss of witness i, i + 1 of them, the full and the small set
        needed = constraint_count(build(kind, depth)) + n * (n + 1) // 2 + n + m
        if kind == "K":
            assert decompose_classif_k(3, depth, budget=needed).depth == depth
            with pytest.raises(BudgetExceeded) as info:
                decompose_classif_k(3, depth, budget=needed - 1)
        else:
            assert decompose_absorb_small(m, n, depth, budget=needed).depth == depth
            with pytest.raises(BudgetExceeded) as info:
                decompose_absorb_small(m, n, depth, budget=needed - 1)
        assert info.value.needed == needed
