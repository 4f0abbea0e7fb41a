import random
from itertools import combinations, product as iter_product

import pytest
from hypothesis import given, strategies as st

from sigmaprod.clopen import (
    BasicBox,
    BoxIndex,
    ClopenSet,
    box_complement,
    box_contains,
    box_intersect,
    box_is_empty,
    box_reduce,
    box_subset,
    format_box,
    parse_box,
    preimage_under_union,
    union_membership_cover,
    _constraints_meet,
)
from sigmaprod.ground import (
    EMPTY,
    BudgetExceeded,
    Point,
    ProductDescriptor,
    ProductPoint,
    materialize,
    union_fiber,
)

SIGMA1 = ProductDescriptor.single(1)
SIGMA2 = ProductDescriptor.single(2)
SIGMA3 = ProductDescriptor.single(3)


def single_box(n, f, g):
    return BasicBox.make(ProductDescriptor.single(n), {0: (Point(f), Point(g))})


def box_index(ambient, boxes):
    """The index of a family of boxes: no levels, each box a level-0 member."""
    return BoxIndex(ambient, (), [(0, b.constraints) for b in boxes])


def test_emptiness_examples():
    assert box_is_empty(single_box(2, (0,), (0,)))          # F meets G
    assert box_is_empty(single_box(1, (0, 1), ()))          # |F| over the bound
    assert not box_is_empty(BasicBox.full(SIGMA3))          # whole space


def test_emptiness_matches_enumeration():
    # declared nonempty (constraints within {0..4}) must have a member over
    # 6 elements; declared empty must have none over any ground up to 8
    rng = random.Random(1)
    subsets = [tuple(rng.sample(range(5), rng.randint(0, 3))) for _ in range(40)]
    for n in (1, 2, 3):
        desc = ProductDescriptor.single(n)
        for f in subsets[:20]:
            for g in subsets[20:]:
                box = single_box(n, f, g)
                member_at = {
                    size: any(box_contains(box, x) for x in materialize(desc, size))
                    for size in (6, 8)
                }
                if box_is_empty(box):
                    assert not member_at[6] and not member_at[8]
                else:
                    assert member_at[6]


def test_contains_examples():
    box = single_box(3, (0,), (1,))
    assert box_contains(box, ProductPoint((Point.of(0, 2),)))
    assert not box_contains(box, ProductPoint((Point.of(0, 1),)))
    # a constraint on coordinate 7 sees the tail value beyond the prefix
    tail_desc = ProductDescriptor((), 2)
    far = BasicBox.make(tail_desc, {7: (Point.of(0), EMPTY)})
    x = ProductPoint((Point.of(0), Point.of(0), Point.of(0)))
    assert not box_contains(far, x)


def test_intersect_examples():
    a = single_box(2, (0,), ())
    b = single_box(2, (), (1,))
    assert box_intersect(a, b) == single_box(2, (0,), (1,))
    both = box_intersect(single_box(1, (0,), ()), single_box(1, (1,), ()))
    assert box_is_empty(both)  # forced two elements into a 1-bounded factor
    assert box_intersect(a, BasicBox.full(SIGMA2)) == a
    with pytest.raises(ValueError):
        box_intersect(a, single_box(3, (0,), ()))


def test_intersect_agrees_with_conjunction():
    rng = random.Random(2)
    for n, k in [(1, 2), (2, 2), (2, 3)]:
        desc = ProductDescriptor.power(n, k)
        points = materialize(desc, 4)
        for _ in range(25):
            boxes = []
            for _b in range(2):
                constraints = {}
                for s in rng.sample(range(k), rng.randint(0, k)):
                    f = Point(tuple(rng.sample(range(4), rng.randint(0, 2))))
                    g = Point(tuple(rng.sample(range(4), rng.randint(0, 2))))
                    constraints[s] = (f, g)
                boxes.append(BasicBox.make(desc, constraints))
            inter = box_intersect(boxes[0], boxes[1])
            for x in points:
                expected = box_contains(boxes[0], x) and box_contains(boxes[1], x)
                assert box_contains(inter, x) == expected


def test_reduce_examples():
    assert box_reduce(single_box(3, (0,), (1,))).descriptor == SIGMA2
    tail_desc = ProductDescriptor((2,), 1)
    assert box_reduce(BasicBox.full(tail_desc)).descriptor == tail_desc
    assert box_reduce(single_box(2, (0, 1), ())).descriptor == ProductDescriptor.single(0)
    with pytest.raises(ValueError):
        box_reduce(single_box(1, (0, 1), ()))


def test_reduce_witness_is_bijective():
    # the constrained elements sit above the fresh ones, so the witness image
    # must be exactly the enumeration of the reduced space over the fresh part
    box = BasicBox.make(
        ProductDescriptor.power(2, 2),
        {0: (Point.of(2), Point.of(3)), 1: (EMPTY, Point.of(2, 3))},
    )
    red = box_reduce(box)
    assert red.descriptor == ProductDescriptor((1, 2))
    members = [x for x in materialize(box.ambient, 4) if box_contains(box, x)]
    image = {red.transform(x) for x in members}
    assert image == set(materialize(red.descriptor, 2))
    assert len(image) == len(members)
    for x in members:
        assert red.restore(red.transform(x)) == x
    # a point whose coordinate 0 misses F = {2} has no image
    for x in materialize(box.ambient, 4):
        if 2 not in x.coordinate(0):
            with pytest.raises(ValueError, match=r"^point .* not in the reduced box$"):
                red.transform(x)


def placement_boxes(k, f, g, placements):
    """The clopen set that placements of F's elements into k slots stand for:
    slot p[i] gets ({F[i]}, G) and every other coordinate ({}, G).  ``f``,
    ``g`` and the placements may be points and tuples or a document's lists."""
    domain, g = ProductDescriptor.power(1, k), Point(g)
    boxes = []
    for p in placements:
        constraints = {c: (EMPTY, g) for c in range(k)}
        constraints.update((slot, (Point.of(el), g)) for el, slot in zip(f, p))
        boxes.append(BasicBox.make(domain, constraints))
    return ClopenSet(domain, tuple(boxes))


def decoded_preimage(box, k):
    return placement_boxes(k, *box.constraint_at(0), preimage_under_union(box, k))


def tuple_preimage(box, k):
    """The preimage as ``preimage_under_union`` built it before it returned
    placements: one box per k-tuple of the union map's fiber over F, each
    coordinate c constrained by (x[c], G)."""
    f, g = box.constraint_at(0)
    domain = ProductDescriptor.power(1, k)
    return ClopenSet(domain, tuple(BasicBox(domain, tuple((c, p, g) for c, p in enumerate(x)))
                                   for x in union_fiber([Point.of(el) for el in f], k)))


def test_preimage_structure_matches_derived_example():
    box = single_box(2, (0,), (1,))
    assert preimage_under_union(box, 2) == ((0,), (1,))
    expected = (
        BasicBox.make(ProductDescriptor.power(1, 2),
                      {0: (Point.of(0), Point.of(1)), 1: (EMPTY, Point.of(1))}),
        BasicBox.make(ProductDescriptor.power(1, 2),
                      {0: (EMPTY, Point.of(1)), 1: (Point.of(0), Point.of(1))}),
    )
    assert decoded_preimage(box, 2).boxes == expected


def test_preimage_of_full_box_is_full():
    assert preimage_under_union(BasicBox.full(SIGMA2), 2) == ((),)
    assert decoded_preimage(BasicBox.full(SIGMA2), 2).boxes == (
        BasicBox.full(ProductDescriptor.power(1, 2)),)


def test_preimage_of_two_forced_elements():
    assert preimage_under_union(single_box(2, (0, 1), ()), 2) == ((0, 1), (1, 0))


def test_preimage_charges_its_placements_before_building():
    # k!/(k - |F|)! placements, 4 * 3 here, each |F| + 1 = 3 units
    box = single_box(4, (0, 1), (5,))
    assert len(preimage_under_union(box, 4, budget=36)) == 12
    with pytest.raises(BudgetExceeded) as info:
        preimage_under_union(box, 4, budget=35)
    assert info.value.needed == 36
    # F = {} is one empty placement, one unit at any k
    assert preimage_under_union(single_box(10 ** 6, (), (1,)), 10 ** 6, budget=1) == ((),)


def union_of(x):
    out = EMPTY
    for s in range(len(x.prefix)):
        out = out | x.coordinate(s)
    return out


def test_preimage_membership_equivalence():
    # oracle: x is in the preimage exactly when the union of x lies in the box
    rng = random.Random(3)
    for k in (1, 2, 3, 4):
        desc = ProductDescriptor.power(1, k)
        domain = materialize(desc, 3)
        cases = [((0,), (1,)), ((0, 1), ()), ((), (2,)), ((), ()), ((2,), (0, 1))]
        cases += [
            (tuple(rng.sample(range(3), rng.randint(0, 2))),
             tuple(rng.sample(range(3), rng.randint(0, 2))))
            for _ in range(10)
        ]
        for f, g in cases:
            box = single_box(k, f, g)
            if box_is_empty(box):
                continue
            pre = decoded_preimage(box, k)
            for x in domain:
                y = union_of(x)
                in_box = set(f) <= set(y) and not (set(g) & set(y))
                assert pre.contains(x) == in_box


def test_placements_decode_to_the_tuple_boxes():
    # every F and G over the ground {0..3}, so over every ground of at most 4
    # elements; membership on every point for k <= 3, on a seeded sample above
    rng = random.Random(5)
    subsets = [Point(c) for m in range(5) for c in combinations(range(4), m)]
    for k in range(1, 6):
        points = materialize(ProductDescriptor.power(1, k), 4)
        if k > 3:
            points = rng.sample(points, 60)
        for f in subsets:
            for g in subsets:
                box = single_box(k, f, g)
                if box_is_empty(box):
                    continue
                pre = decoded_preimage(box, k)
                assert pre.boxes == tuple_preimage(box, k).boxes, (k, f, g)
                for x in points:
                    y = union_of(x)
                    assert pre.contains(x) == (f.issubset(y) and g.isdisjoint(y)), (k, f, g, x)


def test_union_membership_cover():
    full = ClopenSet(SIGMA1, (BasicBox.full(SIGMA1),))
    witness = union_membership_cover(full)
    assert witness.index == 0 and witness.space == SIGMA1

    cover = ClopenSet(SIGMA1, (single_box(1, (), (0,)), single_box(1, (0,), ())))
    witness = union_membership_cover(cover)
    assert witness.index == 0
    assert witness.witness == single_box(1, (), (0,))
    assert witness.space == SIGMA1  # the G-only box reduces to the whole space

    no_cover = ClopenSet(SIGMA1, (single_box(1, (0,), ()),))
    with pytest.raises(ValueError):
        union_membership_cover(no_cover)


def test_box_subset_symbolic():
    assert box_subset(single_box(2, (0,), (1,)), single_box(2, (0,), ()))
    assert not box_subset(single_box(2, (0,), ()), single_box(2, (0,), (1,)))
    # a filled-to-the-bound F excuses any extra G
    assert box_subset(single_box(2, (0, 1), ()), single_box(2, (0,), (2,)))
    assert box_subset(single_box(1, (0, 1), ()), single_box(1, (5,), ()))  # empty side


def test_box_subset_matches_enumeration():
    # over a ground comfortably larger than the constraint elements, the
    # symbolic verdict must coincide with pointwise containment
    rng = random.Random(13)
    desc = ProductDescriptor.power(2, 2)
    points = materialize(desc, 6)
    for _ in range(60):
        boxes = []
        for _b in range(2):
            constraints = {}
            for s in rng.sample(range(2), rng.randint(0, 2)):
                f = Point(tuple(rng.sample(range(4), rng.randint(0, 2))))
                g = Point(tuple(rng.sample(range(4), rng.randint(0, 2))))
                constraints[s] = (f, g)
            boxes.append(BasicBox.make(desc, constraints))
        b1, b2 = boxes
        enumerated = all(
            box_contains(b2, x) for x in points if box_contains(b1, x)
        )
        assert box_subset(b1, b2) == enumerated


def test_box_complement_is_pointwise_complement():
    box = single_box(2, (0,), (1,))
    comp = box_complement(box)
    for x in materialize(SIGMA2, 4):
        assert comp.contains(x) == (not box_contains(box, x))


def test_box_text_round_trip():
    desc = ProductDescriptor((2,), 1)
    box = BasicBox.make(desc, {0: (Point.of(1, 3), Point.of(2)), 2: (EMPTY, Point.of(0))})
    assert parse_box(format_box(box)) == box
    with pytest.raises(ValueError):
        parse_box("[0: F={1}] oops")


def test_parse_box_merges_repeated_coordinates():
    box = parse_box("[0: F={1} G={}; 0: F={} G={1}] @ 3")
    assert box.constraints == ((0, Point.of(1), Point.of(1)),)
    assert box_is_empty(box)
    assert parse_box("[2: F={0} G={}; 0: F={} G={4}; 2: F={1} G={3}] @ 2^w") == \
        BasicBox.make(ProductDescriptor.omega_power(2),
                      {0: (EMPTY, Point.of(4)), 2: (Point.of(0, 1), Point.of(3))})


def merged_constraints(ambient, constraints):
    """The merge path of ``BasicBox``: each coordinate checked against the
    ambient, repeated ones united, sorted, trivial ones dropped."""
    merged = {}
    for coord, f, g in constraints:
        if not ambient.has_coordinate(coord):
            raise ValueError(f"coordinate {coord} outside ambient")
        f0, g0 = merged.get(coord, (EMPTY, EMPTY))
        merged[coord] = (f0 | f, g0 | g)
    return tuple((coord, *merged[coord]) for coord in sorted(merged) if any(merged[coord]))


def test_basic_box_takes_canonical_constraints_as_built():
    rng = random.Random(16)
    ambients = [ProductDescriptor((2, 2)), ProductDescriptor((1,), 2),
                ProductDescriptor((), 3), ProductDescriptor()]
    subsets = [Point(rng.sample(range(4), rng.randint(0, 2))) for _ in range(12)]
    seen = {"canonical": 0, "merged": 0, "error": 0}
    for _trial in range(3000):
        ambient = rng.choice(ambients)
        if rng.random() < 0.4:
            # strictly increasing, nontrivial, inside the ambient: taken as built
            width = ambient.explicit_len if ambient.omega_tail is None else 6
            coords = sorted(rng.sample(range(width), rng.randint(0, min(3, width))))
            constraints = tuple((c, Point.of(rng.randint(0, 5)), rng.choice(subsets))
                                for c in coords)
        else:
            # repeated, unsorted, trivial, negative and out-of-ambient coordinates
            constraints = tuple((rng.randint(-1, 3), rng.choice(subsets), rng.choice(subsets))
                                for _ in range(rng.randint(0, 4)))
        try:
            want = merged_constraints(ambient, constraints)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                BasicBox(ambient, constraints)
            assert str(info.value) == str(exc)
            seen["error"] += 1
            continue
        box = BasicBox(ambient, constraints)
        assert type(box.constraints) is tuple and box.constraints == want
        assert all(type(c) is tuple for c in box.constraints)
        seen["canonical" if want == constraints else "merged"] += 1
    assert min(seen.values()) > 200, seen
    # a list of constraints is read once and kept as a tuple either way
    assert BasicBox(SIGMA3, [(0, Point.of(1), EMPTY)]).constraints == ((0, Point.of(1), EMPTY),)
    assert BasicBox(SIGMA3, iter([(0, Point.of(1), EMPTY)])).constraints == \
        ((0, Point.of(1), EMPTY),)


_small_sets = st.frozensets(st.integers(0, 4), max_size=4).map(lambda s: Point(tuple(s)))


@given(st.integers(0, 3), _small_sets, _small_sets, _small_sets, _small_sets)
def test_constraints_meet_agrees_with_intersection(bound, f1, g1, f2, g2):
    desc = ProductDescriptor.single(bound)
    b1 = BasicBox.make(desc, {0: (f1, g1)})
    b2 = BasicBox.make(desc, {0: (f2, g2)})
    meet = _constraints_meet(f1, g1, f2, g2, bound)
    assert meet == (not box_is_empty(box_intersect(b1, b2)))
    # the elements all lie below 5, so a ground of 5 decides it pointwise
    assert meet == any(box_contains(b1, x) and box_contains(b2, x)
                       for x in materialize(desc, 5))


def test_box_index_matches_the_pairwise_and_per_box_answers():
    # families with shared constraints, over a product with a one-point
    # factor and a tail
    rng = random.Random(8)
    desc = ProductDescriptor((1, 0, 2), 1)
    points = materialize(desc, 3, depth=4)

    def random_box():
        constraints = {}
        for s in rng.sample(range(5), rng.randint(0, 3)):
            f = Point(tuple(rng.sample(range(2), rng.randint(0, 2))))
            g = Point(tuple(rng.sample(range(2), rng.randint(0, 1))))
            constraints[s] = (f, g)
        return BasicBox.make(desc, constraints)

    for _ in range(60):
        boxes = [random_box() for _ in range(rng.randint(0, 12))]
        boxes = [b for b in boxes if not box_is_empty(b)]
        index = box_index(desc, boxes)
        assert index.meeting_pairs() == [
            (a, b) for a in range(len(boxes)) for b in range(a + 1, len(boxes))
            if not box_is_empty(box_intersect(boxes[a], boxes[b]))
        ]
        for x in points:
            assert index.containing(x) == [
                i for i, b in enumerate(boxes) if box_contains(b, x)]
        for other in (random_box() for _ in range(5)):
            assert index.not_within(other) == [
                i for i, b in enumerate(boxes) if not box_subset(b, other)]
    # a later box repeating an earlier constraint still clashes with the
    # boxes in between
    inside, outside = single_box(2, (0,), ()), single_box(2, (), (0,))
    assert box_index(SIGMA2, [inside, outside, inside]).meeting_pairs() == [(0, 2)]
    with pytest.raises(ValueError, match="^coordinate 1 outside ambient$"):
        box_index(SIGMA2, [BasicBox.make(desc, {1: (EMPTY, Point.of(0))})])
    with pytest.raises(ValueError, match="^box 1 of the family is empty$"):
        box_index(SIGMA2, [inside, single_box(2, (0,), (0,))])
    with pytest.raises(ValueError):
        box_index(desc, []).containing(ProductPoint((Point.of(0, 1),)))


def test_box_index_refuses_members_that_are_not_in_level_form():
    pin, miss = (0, Point.of(0), EMPTY), (1, EMPTY, Point.of(1))
    ambient = ProductDescriptor((), 2)
    assert BoxIndex(ambient, (pin,), [(1, (miss,)), (0, (pin,))]).size == 2
    for levels, members in [
        ((pin,), [(2, ())]),  # a level past the last level constraint
        ((pin,), [(-1, ())]),
        ((pin,), [(1, ((0, EMPTY, Point.of(1)),))]),  # own constraint at a pinned coordinate
        ((), [(0, (miss, pin))]),  # own constraints out of order
        ((), [(0, ((0, EMPTY, EMPTY),))]),  # a trivial constraint
        ((miss, pin), [(0, ())]),  # level constraints out of order
    ]:
        with pytest.raises(ValueError):
            BoxIndex(ambient, levels, members)


def test_box_index_masks_match_the_per_box_answers():
    # the masks behind containing, not_within and the decomposition checks
    rng = random.Random(9)
    desc = ProductDescriptor((1, 0, 2), 1)
    values = sorted({x.coordinate(s) for x in materialize(desc, 3, depth=4) for s in range(5)})

    def random_box():
        constraints = {}
        for s in rng.sample(range(5), rng.randint(0, 3)):
            f = Point(tuple(rng.sample(range(2), rng.randint(0, 2))))
            g = Point(tuple(rng.sample(range(2), rng.randint(0, 1))))
            constraints[s] = (f, g)
        return BasicBox.make(desc, constraints)

    def mask(indices):
        return sum(1 << i for i in indices)

    for _ in range(60):
        boxes = [b for b in (random_box() for _ in range(rng.randint(0, 12)))
                 if not box_is_empty(b)]
        index = box_index(desc, boxes)
        for s in range(6):
            parts = [b.constraint_at(s) for b in boxes]
            for value in values:
                assert index.admitted(s, value) == mask(
                    i for i, (f, g) in enumerate(parts)
                    if set(f) <= set(value) and set(g).isdisjoint(value))
        for s in range(-1, 6):
            assert index.constrained_after(s) == mask(
                i for i, b in enumerate(boxes) if b.max_constrained_coord() > s)
        for other in (random_box() for _ in range(5)):
            assert index.not_within_mask(other) == mask(index.not_within(other)) == mask(
                i for i, b in enumerate(boxes) if not box_subset(b, other))
