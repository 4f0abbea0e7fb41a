"""The indexed decomposition checks against the brute-force loops they replace.

The oracles below are the pairwise ``box_intersect`` + ``box_is_empty`` loop,
the linear scan of ``box_contains`` over every piece, and the per-piece
``box_subset`` test; the library answers disjointness and locates points
from the per-coordinate index, or answers from the levels once they prove
the partition (``test_level_partition`` checks that proof).  A
decomposition built by levels answers every check as the same pieces do
in box form, each carrying its whole box, and so do mutated ones.  The
JSON document, the sampled membership check and ``box_reduce`` are
checked against code that draws or builds each part on its own: every
piece's box rebuilt from the document, a sampler that calls ``getrandbits`` once per
coordinate, that sampler's points each located by the linear scan, and a
reduction that builds every factor anew.  Over a decomposition without
pieces every drawn point but the limit is unresolved, so the check's own
draws are compared with that sampler's points.  The
neighborhood boxes are checked against their specification.
"""

import copy
import json
import pickle
import random
import re
from itertools import combinations

import pytest

from sigmaprod import classification, clopen
from sigmaprod.classification import (
    Decomposition,
    DecompositionPiece,
    MembershipReport,
    check_limit_cofinite,
    check_pairwise_disjoint,
    check_sample_membership,
    decompose_absorb_small,
    decompose_classif_k,
    decompose_countable,
    decomposition_to_json,
    limit_neighborhood_boxes,
    piece_for_point,
)
from sigmaprod.cli import dispatch, render
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
from sigmaprod.encode import box as box_to_json, descriptor as descriptor_to_json, run_length
from sigmaprod.ground import (
    DEFAULT_BUDGET,
    EMPTY,
    BudgetExceeded,
    Point,
    ProductDescriptor,
    ProductPoint,
    format_descriptor,
    materialize,
    point_in_ambient,
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
    """The (label, box, type) of each piece of ``build(kind, depth)``: every
    box built whole through ``BasicBox``, and its type checked against
    ``box_reduce``."""
    m, n, witnesses = (0, 1, (3,)) if kind == "K" else (*kind, tuple(range(kind[1])))
    ambient = ProductDescriptor((m,) if m else (), n)
    full = Point(witnesses)
    pieces = [(f"B'({j})", BasicBox(ambient, ((0, Point(witnesses[:j]), Point.of(witnesses[j])),)),
               ProductDescriptor((m - j,), n))
              for j in range(m)]
    pinned = [(0, Point(witnesses[:m]), EMPTY)] if m else []
    for k in range(depth):
        s = len(pinned)
        for i in range(n):
            name = f"K({k + 1})" if kind == "K" else f"{'B' if m else 'A'}({k},{i})"
            box = BasicBox(ambient, tuple(pinned) + ((s, Point(witnesses[:i]),
                                                      Point.of(witnesses[i])),))
            pieces.append((name, box, ProductDescriptor((0,) * s + (n - i,), n)))
        pinned.append((s, full, EMPTY))
    for _name, box, claimed in pieces:
        assert box_reduce(box).descriptor == claimed
    return pieces


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_level_built_pieces_match_the_public_constructors(kind):
    # the pieces are built without BasicBox's walk and the per-piece box_reduce
    for depth in [*range(1, 14), 40]:
        dec = build(kind, depth)
        offset = dec.ambient.explicit_len
        assert len(dec.levels) == offset + depth - 1
        assert [(p.label, p.box, p.claimed_type) for p in dec.pieces] == \
            pieces_oracle(kind, depth)
        for p in dec.pieces:
            assert p.levels is dec.levels and p.ambient is dec.ambient
            assert len(p.own) == 1 and p.level == (p.own[0][0] if p.level else 0)
            # the checked constructor accepts every piece as it stands
            assert p == DecompositionPiece(p.label, p.ambient, p.own,
                                           ProductDescriptor(p.claimed_type.factors,
                                                             p.claimed_type.omega_tail),
                                           p.level, p.levels)


def test_a_piece_out_of_level_form_is_refused():
    dec = build((1, 2), 3)
    p = dec.pieces[-1]
    for level, own in [(len(dec.levels) + 1, p.own), (-1, p.own),
                       (p.level, ((p.level - 1, EMPTY, Point.of(5)),)),  # at a pinned coordinate
                       (p.level, ((p.level, EMPTY, EMPTY),))]:  # trivial
        with pytest.raises(ValueError, match=r"^piece B\(2,1\): (level|own)"):
            DecompositionPiece(p.label, p.ambient, own, p.claimed_type, level, dec.levels)
    with pytest.raises(ValueError, match="does not share the decomposition's ambient and levels"):
        Decomposition("hand", dec.ambient, dec.levels[:-1], dec.pieces, dec.limit_point,
                      dec.witnesses, dec.depth)


def test_the_checked_constructor_refuses_with_its_messages():
    # every refusal of DecompositionPiece(...), word for word, and a
    # decomposition takes only pieces built by it or by the constructors
    dec = build((1, 2), 3)
    p, levels = dec.pieces[-1], dec.levels
    single = ProductDescriptor((1,), None)
    own_form = ("piece B(2,1): own constraints must be nontrivial, at increasing "
                "coordinates past its level's")
    for args, message in [
        ((p.own, p.claimed_type, 4, levels), "piece B(2,1): level 4 outside 0 .. 3"),
        ((p.own, p.claimed_type, -1, levels), "piece B(2,1): level -1 outside 0 .. 3"),
        ((((2, EMPTY, Point.of(5)),), p.claimed_type, 3, levels), own_form),
        ((((3, EMPTY, EMPTY),), p.claimed_type, 3, levels), own_form),
        ((p.own, dec.ambient, 3, levels),
         "piece B(2,1): claimed type does not match the box reduction"),
        ((p.own, "(0, (0,), 2)", 3, levels),
         "piece B(2,1): claimed type does not match the box reduction"),
    ]:
        with pytest.raises(ValueError) as refused:
            DecompositionPiece(p.label, p.ambient, *args)
        assert str(refused.value) == message
    for own, message in [(((0, Point((0, 1)), EMPTY),), "cannot reduce an empty box"),
                         (((1, Point.of(0), EMPTY),), "coordinate 1 outside ambient")]:
        with pytest.raises(ValueError) as refused:
            DecompositionPiece("hand", single, own, single)
        assert str(refused.value) == message
    with pytest.raises(TypeError, match="is not a DecompositionPiece$"):
        Decomposition("hand", dec.ambient, levels, (tuple(p),), dec.limit_point,
                      dec.witnesses, dec.depth)


def test_a_decomposition_survives_a_copy():
    # a copied or unpickled piece goes through the checked constructor again
    dec = build((1, 2), 3)
    for copied in (pickle.loads(pickle.dumps(dec)), copy.deepcopy(dec)):
        assert copied == dec and copied.pieces == dec.pieces
        assert all(type(p) is DecompositionPiece for p in copied.pieces)
        assert decomposition_to_json(copied) == decomposition_to_json(dec)
    p = dec.pieces[-1]
    mistyped = tuple.__new__(DecompositionPiece, (*p[:3], (0, (), 2), *p[4:]))
    with pytest.raises(ValueError, match="claimed type does not match the box reduction$"):
        pickle.loads(pickle.dumps(mistyped))


def test_a_level_whose_reduction_disagrees_with_its_claim_is_refused(monkeypatch,
                                                                   cold_schemas):
    # the memo is emptied first: a warm key would never call the patched reduction
    def shifted(shift):
        # box_reduce with the bound at the last constrained coordinate moved by
        # shift, left out of canonical form so that a bound below 0 survives
        def reduce(box, budget=DEFAULT_BUDGET):
            real = box_reduce(box, budget)
            desc = real.descriptor
            factors = [desc.bound_at(t) for t in range(box.max_constrained_coord() + 1)]
            factors[-1] += shift
            unchecked = object.__new__(ProductDescriptor)
            object.__setattr__(unchecked, "factors", tuple(factors))
            object.__setattr__(unchecked, "omega_tail", desc.omega_tail)
            return BoxReduction(unchecked, real.removed)
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
        points = (oracle_points(dec, 30, depth)
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


def eager(dec):
    """``dec`` in box form: no levels, and every piece at level 0 carrying
    its whole box as its own constraints."""
    pieces = tuple(DecompositionPiece(p.label, p.ambient, p.box.constraints, p.claimed_type)
                   for p in dec.pieces)
    return Decomposition(dec.kind, dec.ambient, (), pieces, dec.limit_point, dec.witnesses,
                         dec.depth)


def index_route(dec):
    """The same pieces with the level proof set aside, so that every check
    takes the route off the proof: the index for disjointness and
    ``piece_for_point``, and ``box_subset`` per piece for cofiniteness."""
    copy = Decomposition(dec.kind, dec.ambient, dec.levels, dec.pieces, dec.limit_point,
                         dec.witnesses, dec.depth)
    vars(copy)["level_partition"] = ("refused", None, "the index route")
    return copy


def index_form(index):
    """Per constrained coordinate: the bound, the free and pending masks, and
    each distinct constraint with its mask."""
    return {s: (bound, free, pending, dict(zip(index.shapes[shape], masks)))
            for s, (bound, free, pending, shape, masks) in index.coords.items()}


def check_answers(dec, seed):
    """What the checks answer on ``dec``: disjointness, sampled membership,
    cofiniteness on drawn and random neighbourhoods, and the piece of each
    of a few sampled and perturbed points."""
    rng = random.Random(seed)
    max_coord = dec.ambient.explicit_len + dec.depth + 1
    boxes = (limit_neighborhood_boxes(dec, 10, seed)
             + [random_box(rng, dec.ambient, max_coord) for _ in range(10)])
    points = (oracle_points(dec, 30, seed)
              + perturbed_limit_points(dec, rng, 30) + [dec.limit_point])
    return (check_pairwise_disjoint(dec), outcome(check_sample_membership, dec, 100, seed),
            check_limit_cofinite(dec, boxes), [outcome(piece_for_point, dec, x) for x in points])


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_the_level_form_answers_as_the_box_form(kind):
    for depth in range(1, 9):
        built = build(kind, depth)
        # the pieces also in reverse, so that a piece precedes those below its level
        reverse = Decomposition(built.kind, built.ambient, built.levels, built.pieces[::-1],
                                built.limit_point, built.witnesses, depth)
        for dec in (built, reverse):
            boxes = eager(dec)
            assert index_form(dec.index) == index_form(boxes.index)
            for seed in (depth, depth + 10):
                assert check_answers(dec, seed) == check_answers(boxes, seed)


# every 0 <= m < n <= 4, and classif_K over several witness elements
ROW_KINDS = [(m, n) for n in range(1, 5) for m in range(n)] + [("K", e) for e in (0, 3, 7)]


@pytest.mark.parametrize("kind", ROW_KINDS, ids=str)
def test_the_rows_agree_with_pieces_built_by_hand(kind):
    # a built decomposition fills its pieces without the checked constructor;
    # rebuilt through it, which reduces each box anew, every piece is the
    # same, and a decomposition hand-built from those pieces writes the same
    # document and answers the same checks
    for depth in range(1, 13):
        if kind[0] == "K":
            dec = decompose_classif_k(element=kind[1], depth=depth)
        else:
            dec = decompose_absorb_small(*kind, depth=depth)
        checked = [DecompositionPiece(p.label, p.ambient, p.own, box_reduce(p.box).descriptor,
                                      p.level, p.levels)
                   for p in dec.pieces]
        assert list(dec.pieces) == checked
        text = render(decomposition_to_json(dec))
        answers = unordered(check_answers(dec, depth))
        doc = json.loads(text)
        doc["pieces"].reverse()
        for pieces, expected in ((checked, text), (checked[::-1], render(doc))):
            hand = Decomposition(dec.kind, dec.ambient, dec.levels, pieces, dec.limit_point,
                                 dec.witnesses, depth)
            assert render(decomposition_to_json(hand)) == expected
            assert unordered(check_answers(hand, depth)) == answers


def unordered(answers):
    """``check_answers`` with its lists of violations as sets, which list
    the pieces in their order."""
    disjoint, membership, cofinite, located = answers
    return set(disjoint), membership, cofinite.boxes, set(cofinite.violations), located


def inside(box):
    """A point of the nonempty ``box``: F at each constrained coordinate,
    the empty set elsewhere."""
    return ProductPoint(tuple(box.constraint_at(s)[0]
                              for s in range(box.max_constrained_coord() + 1)), EMPTY)


def releveled(dec, levels, pieces):
    """``dec`` with these levels and these (label, level, own) pieces, each
    typed by ``box_reduce`` through the checked constructor."""
    built = []
    for label, level, own in pieces:
        box = BasicBox(dec.ambient, levels[:level] + own)
        built.append(DecompositionPiece(label, dec.ambient, own, box_reduce(box).descriptor,
                                        level, levels))
    return Decomposition(dec.kind, dec.ambient, levels, tuple(built), dec.limit_point,
                         dec.witnesses, dec.depth)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_a_mutated_level_decomposition_is_caught_as_in_box_form(kind):
    dec = build(kind, 4)
    offset, n = dec.ambient.explicit_len, len(dec.witnesses)
    parts = [(p.label, p.level, p.own) for p in dec.pieces]
    target = len(parts) - 2 * n  # the last miss of the level before the last
    label, level, ((s, f, g),) = parts[target]
    assert level == s == offset + 2
    # a dropped piece leaves its points in no piece
    dropped = releveled(dec, dec.levels, parts[:target] + parts[target + 1:])
    # a miss one coordinate on overlaps the pieces above it
    shifted = releveled(dec, dec.levels,
                        parts[:target] + [(label, level, ((s + 1, f, g),))] + parts[target + 1:])
    # a level pinned to another n-element value overlaps its last miss and
    # leaves the limit's value there uncovered
    wrong = Point(dec.witnesses[:-1] + (max(dec.witnesses) + 1,))
    levels = dec.levels[:offset + 1] + ((offset + 1, wrong, EMPTY),) + dec.levels[offset + 2:]
    pinned = releveled(dec, levels, parts)
    for mutant in (dropped, shifted, pinned):
        boxes = eager(mutant)
        assert index_form(mutant.index) == index_form(boxes.index)
        answers = [check_answers(mutant, seed) for seed in range(4)]
        assert answers == [check_answers(boxes, seed) for seed in range(4)]
    x = inside(dec.pieces[target].box)
    assert piece_for_point(dec, x) == label and piece_for_point(dropped, x) is None
    # a gap shows as sampled points in no piece, an overlap as pieces that meet
    assert check_pairwise_disjoint(dropped) == []
    assert any(check_sample_membership(dropped, 200, seed).unresolved for seed in range(4))
    assert (label, dec.pieces[target + n].label) in check_pairwise_disjoint(shifted)
    assert check_pairwise_disjoint(pinned)


def test_each_shape_decides_a_value_once(monkeypatch):
    # every omega coordinate but the last lists the same n misses and the
    # full set, so a value is tested against them once, not once per coordinate
    calls, reads = [], []
    admits, admitted = clopen._admits, BoxIndex.admitted

    def counted_admits(f, g, value):
        calls.append((f, g, value))
        return admits(f, g, value)

    def counted_admitted(index, s, value):
        reads.append((s, value))
        return admitted(index, s, value)

    monkeypatch.setattr(clopen, "_admits", counted_admits)
    monkeypatch.setattr(BoxIndex, "admitted", counted_admitted)
    for kind in KINDS:
        for depth in (12, 40):
            dec = build(kind, depth)
            calls.clear()
            reads.clear()
            check_sample_membership(dec, 100, depth)
            piece_for_point(dec, dec.limit_point)
            for x in perturbed_limit_points(dec, random.Random(depth), 40):
                piece_for_point(dec, x)
            index = dec.index
            shape_of = {s: index.coords[s][3] for s, _value in reads if s in index.coords}
            decided = {(shape_of[s], value) for s, value in reads if s in shape_of}
            assert len(calls) == sum(len(index.shapes[shape]) for shape, _value in decided)
            assert len(set(shape_of.values())) <= 3
            # one call per constraint of each coordinate read
            unmemoised = sum(len(index.shapes[shape_of[s]])
                             for s, _value in reads if s in shape_of)
            if depth == 40:
                assert len(calls) < unmemoised / 2


def piece(label, box):
    return DecompositionPiece(label, box.ambient, box.constraints, box_reduce(box).descriptor)


def hand_built(pieces, ambient, limit=ProductPoint((), Point.of(0, 1))):
    return Decomposition("hand", ambient, (), tuple(pieces), limit, (0, 1), 2)


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
    # the sampled check stops at the first drawn point in several pieces,
    # naming it and them in piece order
    for seed in range(3):
        holders = [(x, [p.label for p in dec.pieces if box_contains(p.box, x)])
                   for x in oracle_points(dec, 60, seed) if x != dec.limit_point]
        first, labels = next((x, labels) for x, labels in holders if len(labels) > 1)
        with pytest.raises(AssertionError) as info:
            check_sample_membership(dec, 60, seed)
        assert str(info.value) == f"point {first} lies in several pieces: {labels}"
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
        boxes += limit_neighborhood_boxes(hand_built(pieces, ambient, INSIDE_LIMIT), 8, trial)
        assert list(check_limit_cofinite(dec, boxes).violations) == \
            cofinite_oracle(dec, boxes)
        # the limit above breaks the bound 1 at coordinate 1, so sampling is
        # refused before any draw; this one does not
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
    """The membership report from the per-coordinate sampler's points, each
    built and located by the linear scan; refused for a limit outside the
    ambient."""
    if not point_in_ambient(dec.ambient, dec.limit_point):
        raise ValueError(f"point {dec.limit_point} outside ambient {dec.ambient}")
    in_piece = at_limit = 0
    unresolved = []
    for x in oracle_points(dec, count, seed):
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


@pytest.mark.parametrize("limit", [
    ProductPoint((), Point.of(0, 1)),  # the tail value at coordinate 1, bound 1
    ProductPoint((Point.of(0, 1, 2),), Point.of(0)),  # three elements at 0, bound 2
], ids=str)
def test_a_limit_outside_the_ambient_is_refused_before_any_draw(limit):
    ambient = ProductDescriptor((2, 1), 2)
    dec = hand_built([piece("P0", BasicBox.make(ambient, {0: (Point.of(0), EMPTY)}))],
                     ambient, limit)
    refusal = (ValueError, f"point {limit} outside ambient {ambient}")
    for fn in (check_sample_membership, limit_neighborhood_boxes):
        for count in (0, 1, 200):
            assert outcome(fn, dec, count, 0) == refusal


def test_a_coordinate_outside_a_product_without_a_tail_is_refused_by_every_sampler():
    # the points reach coordinate 2 at depth 2, the neighborhoods coordinate 4
    dec = Decomposition("hand", ProductDescriptor((2, 2)), (), (),
                        ProductPoint((Point.of(0, 1), Point.of(0, 1))), (0, 1), 2)
    for fn in (check_sample_membership, limit_neighborhood_boxes):
        for count in (0, 1, 50):
            with pytest.raises(ValueError, match=r"^coordinate 2 outside ambient$"):
                fn(dec, count, 0)
    # at depth 1 the points stay within the two factors: without pieces,
    # every point drawn but the limit is unresolved
    shallow = Decomposition("hand", dec.ambient, (), (), dec.limit_point, (0, 1), 1)
    report = check_sample_membership(shallow, 20, 0)
    assert report.in_piece == 0 and len(report.unresolved) + report.at_limit == 20
    assert report.unresolved and all(point_in_ambient(dec.ambient, x) for x in report.unresolved)
    with pytest.raises(ValueError, match=r"^coordinate 2 outside ambient$"):
        limit_neighborhood_boxes(shallow, 5, 0)


@pytest.mark.parametrize("call", [
    # each raised "coordinate 2 outside ambient"
    lambda: check_sample_membership(decompose_countable((1, 1)), 10, 0),
    lambda: limit_neighborhood_boxes(decompose_countable((1, 1), 1), 3, 0),
    # and this one found 3 points of the correct partition in no piece
    lambda: check_sample_membership(decompose_countable((1, 1), 1), 10, 0),
])
def test_a_countable_partition_is_refused_by_every_sampler(call):
    with pytest.raises(ValueError, match=r"^cannot sample a countable decomposition: "
                                         r"its depth counts elements, not coordinates$"):
        call()


@pytest.mark.parametrize("fn, what", [
    (check_sample_membership, "samples"),
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


def decoded_pieces(doc):
    """(label, box, type, type signature) of each piece of a ``decompose``
    document: the box rebuilt from the level constraints and the piece's
    own, the type from its run-length form."""
    ambient = ProductDescriptor(doc["ambient"]["factors"], doc["ambient"]["omega_tail"])

    def constraints(forms):
        return tuple((c["coord"], Point(c["F"]), Point(c["G"])) for c in forms)

    levels = constraints(doc["levels"])
    return [(p["label"], BasicBox(ambient, levels[:p["level"]] + constraints(p["own"])),
             ProductDescriptor((0,) * p["type"]["zeros"] + tuple(p["type"]["factors"]),
                               p["type"]["omega_tail"]),
             p["type_signature"])
            for p in doc["pieces"]]


def ground_of(dec):
    base = max(dec.witnesses) + 1 if dec.witnesses else 0
    return list(dec.witnesses) + [base, base + 1]


def decode_oracle(code, ground, limit_value, bound):
    """Bit 0 picks the limit's value; bit j + 1 puts ground[j] in, and the
    first ``bound`` elements put in, in ground order, are kept."""
    if code & 1:
        return limit_value
    picked = [e for j, e in enumerate(ground) if code >> (j + 1) & 1]
    return Point(tuple(picked[:bound]))


def sample_oracle(dec, count, seed):
    """The drawn coordinates of each sampled point: the width through
    ``randint``, then one ``getrandbits(G + 1)`` per coordinate."""
    rng = random.Random(seed)
    ground = ground_of(dec)
    explicit = dec.ambient.explicit_len
    prefixes = []
    for _ in range(count):
        width = rng.randint(explicit, explicit + dec.depth - 1)
        prefixes.append([decode_oracle(rng.getrandbits(len(ground) + 1), ground,
                                       dec.limit_point.coordinate(s), dec.ambient.bound_at(s))
                         for s in range(width)])
    return prefixes


def oracle_points(dec, count, seed):
    tail = dec.limit_point.tail_value
    return [ProductPoint(tuple(coords), tail) for coords in sample_oracle(dec, count, seed)]


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
def test_the_json_document_decodes_to_the_eager_pieces(kind):
    for depth in [*range(1, 13), 40]:
        dec = build(kind, depth)
        doc = json.loads(render(decomposition_to_json(dec)))
        assert doc["levels"] == [{"coord": s, "F": list(f), "G": list(g)}
                                 for s, f, g in dec.levels]
        assert decoded_pieces(doc) == [
            (label, box, claimed, descriptor_to_json(signature_oracle(claimed)))
            for label, box, claimed in pieces_oracle(kind, depth)]
        assert (doc["kind"], doc["depth"], doc["witnesses"], doc["limit_point"]) == \
            (dec.kind, depth, list(dec.witnesses), str(dec.limit_point))
    assert [box_to_json(p.box) for p in dec.pieces] == \
        [box_json_oracle(p.box) for p in dec.pieces]


@pytest.mark.parametrize("zeros, rest, tail", [
    (0, (), None), (0, (), 2), (3, (), 1), (2, (1,), 2), (0, (2, 1), 3), (1, (2, 0, 1), 3),
    (2, (1, 0), None)])
def test_a_type_is_written_as_its_leading_zeros_and_the_rest(zeros, rest, tail):
    desc = ProductDescriptor((0,) * zeros + rest, tail)
    form = run_length(*desc.run_length())
    assert form == {"zeros": zeros, "factors": list(rest), "omega_tail": tail}
    assert ProductDescriptor((0,) * form["zeros"] + tuple(form["factors"]),
                             form["omega_tail"]) == desc


def test_a_deep_document_grows_linearly_with_the_depth():
    # each piece listed its whole prefix and every factor of its type, so
    # a depth-1000 document took 25.0 MB, and doubling the depth quadrupled it
    def size(depth):
        code, payload = dispatch(["decompose", "--kind", "classif_K", "--depth", str(depth),
                                  "--samples", "0", "--boxes", "0"])
        assert code == 0
        return len(render(payload).encode())

    assert size(1000) < 10 ** 6
    assert size(400) < 2.2 * size(200)


def drawn_points(dec, count, seed, keep=slice(0)):
    """The points ``check_sample_membership`` draws over ``dec`` with only
    the pieces ``keep`` picks, none by default, that lie in none of them:
    each is built whole as an unresolved point.  A point located in a piece
    kept draws its unread codes in one skip."""
    sparse = Decomposition(dec.kind, dec.ambient, dec.levels, dec.pieces[keep],
                           dec.limit_point, dec.witnesses, dec.depth)
    return list(check_sample_membership(sparse, count, seed).unresolved)


def unlocated_oracle(dec, count, seed, keep=slice(0)):
    """The per-coordinate sampler's points but the limit that lie in none of
    the pieces ``keep`` picks, tried one by one."""
    kept = dec.pieces[keep]
    return [x for x in oracle_points(dec, count, seed)
            if x != dec.limit_point and not any(box_contains(p.box, x) for p in kept)]


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_sampled_points_match_the_per_coordinate_draws(kind):
    # the walk draws what one getrandbits call per coordinate does: every
    # code of a point in no piece, and the codes of a located point up to its
    # stop followed by one skip over the rest
    every_other = slice(None, None, 2)
    for depth in [*range(1, 14), 40]:
        dec = build(kind, depth)
        for seed in range(6):
            assert drawn_points(dec, 40, seed) == unlocated_oracle(dec, 40, seed)
            assert drawn_points(dec, 40, seed, every_other) == \
                unlocated_oracle(dec, 40, seed, every_other)


@pytest.mark.parametrize("m, n, depth, seeds", [
    *(pytest.param(m, n, 4, 4, id=f"{m}-{n}")
      for m, n in [(1, 24), (0, 29), (0, 30), (1, 31), (1, 61), (0, 62), (1, 63), (2, 100)]),
    pytest.param(0, 30, 10, 2, id="0-30-depth-10"), pytest.param(1, 63, 10, 2, id="1-63-depth-10")])
def test_sampled_points_over_grounds_of_one_word_and_more(m, n, depth, seeds):
    # the codes of G + 1 = n + 3 = 27, 32, 33, 34, 64, 65, 66 and 103 bits: up
    # to a word, a word exactly, just past one, two words exactly, just past
    # two, and more.  At depth 10 a located point leaves many codes of 2 and 3
    # words unread
    dec = decompose_absorb_small(m, n, depth=depth)
    every_other = slice(None, None, 2)
    for seed in range(seeds):
        points = drawn_points(dec, 60, seed, every_other)
        assert points == unlocated_oracle(dec, 60, seed, every_other)
        assert check_sample_membership(dec, 60, seed) == membership_oracle(dec, 60, seed)
    for x in points:
        for s, value in enumerate(x.prefix):
            assert set(value) <= set(ground_of(dec)) and len(value) <= dec.ambient.bound_at(s)


@pytest.mark.parametrize("kind", [(1, 2), (0, 3), "K"], ids=str)
def test_every_value_within_the_bound_is_drawn(kind):
    dec = build(kind, 3)
    ground = ground_of(dec)
    drawn = drawn_points(dec, 3000, 5)
    for s in range(dec.ambient.explicit_len + 2):
        bound = dec.ambient.bound_at(s)
        within = {Point(c) for k in range(bound + 1) for c in combinations(ground, k)}
        codes = {decode_oracle(code, ground, dec.limit_point.coordinate(s), bound)
                 for code in range(2 ** (len(ground) + 1))}
        assert codes == within  # the limit's value is one of them
        # the values the walk draws, read off the points it leaves
        # unresolved; a point drawn narrower holds the limit's tail value at
        # s, within too
        assert {x.coordinate(s) for x in drawn} == within


def check_neighborhood_spec(dec, seed):
    """25 seeded neighborhoods of ``dec``: the same for the same seed, each
    the canonical box of its constraints, containing the limit, constraining
    at most three coordinates below depth + 2 past the explicit factors,
    with F inside the limit's value there and G among the extra elements
    outside it."""
    limit, extras = dec.limit_point, set(ground_of(dec)[len(dec.witnesses):])
    max_coord = dec.ambient.explicit_len + dec.depth + 1
    boxes = limit_neighborhood_boxes(dec, 25, seed)
    assert boxes == limit_neighborhood_boxes(dec, 25, seed)
    for box in boxes:
        assert box == BasicBox.make(dec.ambient, {s: (f, g) for s, f, g in box.constraints})
        assert box_contains(box, limit)
        coords = [s for s, _f, _g in box.constraints]
        assert len(coords) <= 3 and all(0 <= s < max_coord for s in coords)
        for s, f, g in box.constraints:
            value = set(limit.coordinate(s))
            assert set(f) <= value and set(g) <= extras - value
    return boxes


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_neighborhoods_keep_their_specification(kind):
    for depth in [*range(1, 14), 40]:
        dec = build(kind, depth)
        assert check_neighborhood_spec(dec, 0) != check_neighborhood_spec(dec, 1)
        for seed in range(2, 4):
            check_neighborhood_spec(dec, seed)


def test_neighborhoods_of_hand_built_limits_keep_their_specification():
    ambient = ProductDescriptor((2, 1), 2)
    pieces = [piece("P0", BasicBox.make(ambient, {0: (Point.of(0), EMPTY)}))]
    # the second limit holds the extra elements 2 and 3 at some coordinates
    for limit in (INSIDE_LIMIT, ProductPoint((Point.of(2, 3), Point.of(0), Point.of(1, 2)),
                                             Point.of(3))):
        dec = hand_built(pieces, ambient, limit)
        drawn = set()
        for seed in range(40):
            drawn |= {c for box in check_neighborhood_spec(dec, seed) for c in box.constraints}
        assert {s for s, _f, _g in drawn} == set(range(ambient.explicit_len + dec.depth + 1))


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_every_one_coordinate_neighborhood_constraint_is_drawn(kind):
    dec = build(kind, 2)
    extras = ground_of(dec)[len(dec.witnesses):]
    admissible = set()
    for s in range(dec.ambient.explicit_len + 3):
        value = dec.limit_point.coordinate(s)
        pool = [e for e in extras if e not in value]
        admissible |= {(s, Point(f), Point(g))
                       for i in range(len(value) + 1) for f in combinations(value, i)
                       for j in range(len(pool) + 1) for g in combinations(pool, j)
                       if f or g}
    drawn = {constraint for seed in range(20)
             for box in limit_neighborhood_boxes(dec, 300, seed)
             for constraint in box.constraints}
    assert drawn == admissible


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
