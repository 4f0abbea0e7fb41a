"""The indexed decomposition checks against the brute-force loops they replace.

The oracles below are the pairwise ``box_intersect`` + ``box_is_empty`` loop,
the linear scan of ``box_contains`` over every piece, and the per-piece
``box_subset`` test; the library answers from the per-coordinate index.
"""

import random

import pytest

from sigmaprod.classification import (
    Decomposition,
    DecompositionPiece,
    check_limit_cofinite,
    check_pairwise_disjoint,
    decompose_absorb_small,
    decompose_classif_k,
    limit_neighborhood_boxes,
    piece_for_point,
    sample_decomposition_points,
)
from sigmaprod.clopen import (
    BasicBox,
    box_contains,
    box_intersect,
    box_is_empty,
    box_reduce,
    box_subset,
)
from sigmaprod.ground import (
    EMPTY,
    Point,
    ProductDescriptor,
    ProductPoint,
    SigmaFactor,
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


def hand_built(pieces, ambient):
    return Decomposition("hand", ambient, tuple(pieces),
                         ProductPoint((), Point.of(0, 1)), (0, 1), 2)


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
    ambient = ProductDescriptor((SigmaFactor(2), SigmaFactor(1)), SigmaFactor(2))
    points = materialize(ambient, 3, depth=3)
    seen_overlaps = seen_multiple_hits = 0
    for _trial in range(40):
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
    assert seen_overlaps and seen_multiple_hits
