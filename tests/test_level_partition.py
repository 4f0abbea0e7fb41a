"""The level proof of a decomposition, and the checks that answer from it.

``check_level_partition`` is checked against brute force over truncated
products: every point of the product over the named elements, cut past the
last level, must lie in exactly one of the pieces and the remainder R_(L + 1)
of the points that agree with the limit up to L = len(levels).  Each witness
it reports is confirmed by the point it names.  A decomposition the levels
prove answers disjointness, sampled membership and cofiniteness without the
``BoxIndex``; those answers are compared with the route off the proof on
the same pieces and on their box form, and mutated decompositions must fall
back to that route, answering as brute force does.  The membership walk's
mask test and the neighbourhood draw are compared with the decoding walk,
the ``piece_for_point`` route and the ``randrange`` draw, by the 32-bit
words drawn and the generator's final state, and the disjointness charge
counted from the level shapes with ``decompose_charges`` and with the
index's own.
"""

import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from sigmaprod import classification
from sigmaprod.classification import (
    CofinitenessReport,
    Decomposition,
    DecompositionPiece,
    MembershipReport,
    check_level_partition,
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
from sigmaprod.cli import dispatch
from sigmaprod.clopen import BasicBox, BoxIndex, box_contains, box_reduce
from sigmaprod.ground import EMPTY, Budget, BudgetExceeded, Point, ProductDescriptor, ProductPoint

from test_decomposition_checks import (
    KINDS,
    build,
    check_answers,
    cofinite_oracle,
    decode_oracle,
    eager,
    ground_of,
    index_route,
    membership_oracle,
    outcome,
    pairs_oracle,
    random_box,
    releveled,
)

SWEEP_KINDS = [(m, n) for n in range(1, 5) for m in range(n)] + [("K", e) for e in (0, 3)]


def built(kind, depth):
    if kind[0] == "K":
        return decompose_classif_k(element=kind[1], depth=depth)
    return decompose_absorb_small(*kind, depth=depth)


def index_charge(dec):
    """The units ``BoxIndex.meeting_pairs`` charges over a new index of
    ``dec``'s pieces."""
    meter = Budget(10 ** 9)
    BoxIndex(dec.ambient, dec.levels, [(p.level, p.own) for p in dec.pieces]).meeting_pairs(meter)
    return meter.spent


def neighborhoods(dec, seed):
    """Drawn neighbourhoods of the limit, and boxes that miss it, up to two
    coordinates past the depth."""
    rng = random.Random(seed)
    boxes = limit_neighborhood_boxes(dec, 15, seed)
    for _ in range(10):
        s = rng.randrange(dec.ambient.explicit_len + dec.depth + 2)
        boxes.append(BasicBox(dec.ambient, ((s, EMPTY, Point.of(rng.choice(dec.witnesses))),)))
    return boxes


def answers(dec, seed):
    """Disjointness and the units it charges, the membership report or the
    error raised instead, and the cofiniteness report."""
    meter = Budget(10 ** 9)
    return (check_pairwise_disjoint(dec, meter), meter.spent,
            outcome(check_sample_membership, dec, 100, seed),
            check_limit_cofinite(dec, neighborhoods(dec, seed)))


@pytest.mark.parametrize("kind", SWEEP_KINDS, ids=str)
def test_the_level_route_answers_as_the_index_route(kind):
    for depth in [*range(1, 14), 40]:
        dec = built(kind, depth)
        assert dec.level_partition is None
        for seed in (depth, depth + 100, 7):
            level = answers(dec, seed)
            assert level == answers(index_route(dec), seed) == answers(eager(dec), seed)
            assert level[0] == [] and level[2].ok
        assert "index" not in vars(dec)
        assert level[1] == index_charge(dec)


@pytest.mark.parametrize("kind", [*KINDS, "hand"], ids=str)
def test_the_mask_walk_draws_as_the_plain_route(kind, counted):
    # the points of a built decomposition end at its last level, so the mask
    # walk draws them, and the box form draws each point whole for
    # piece_for_point.  Those of the hand-built one, of one level, reach
    # past its last level at depths 5 and 12, where both sides take the
    # plain route
    limit = ProductPoint((Point.of(2, 3), Point.of(0, 1)), Point.of(2, 3))
    for depth in (1, 2, 5, 12):
        if kind == "hand":
            dec = proved_hand_built(ProductDescriptor((), 2), limit, 1, depth)
        else:
            dec = build(kind, depth)
        for seed in range(3):
            drawn_alike(counted, check_sample_membership,
                        lambda dec, *args: check_sample_membership(index_route(eager(dec)), *args),
                        dec, 100, seed)


# ---------------------------------------------------------------------------
# brute force over truncated products


def named(dec):
    """The elements the levels, the pieces and the limit up to L name."""
    top = len(dec.levels)
    elements = {e for p in dec.pieces for _s, f, g in p[2] for e in (*f, *g)}
    elements.update(e for t in range(top + 1) for e in dec.limit_point.coordinate(t))
    return sorted(elements)


def holders(dec, boxes, x):
    """The labels of the pieces holding ``x``, then "rest" when it agrees
    with the limit up to L."""
    top = len(dec.levels)
    where = [p.label for p, box in zip(dec.pieces, boxes) if box_contains(box, x)]
    if all(x.coordinate(t) == dec.limit_point.coordinate(t) for t in range(top + 1)):
        where.append("rest")
    return where


def brute_force(dec):
    """The first point of the product over the named elements, with values
    past L empty, that lies in no piece and not in the remainder, or in
    several of them; None when there is none."""
    top, ambient = len(dec.levels), dec.ambient
    ground = named(dec)
    values = [[Point(c) for k in range(ambient.bound_at(t) + 1) for c in combinations(ground, k)]
              for t in range(top + 1)]
    boxes = [p.box for p in dec.pieces]
    for coords in product(*values):
        x = ProductPoint(coords, EMPTY)
        where = holders(dec, boxes, x)
        if len(where) != 1:
            return x, where
    return None


def confirm(dec, witness):
    """The point the witness names: the limit below its level, S there and
    the empty set past it.  It must lie in no piece and outside R_(level + 1)
    ("uncovered"), or in two of them ("overlap")."""
    kind, level, held = witness
    limit = dec.limit_point
    x = ProductPoint(tuple(limit.coordinate(t) for t in range(level)) + (held,), EMPTY)
    assert len(held) <= dec.ambient.bound_at(level)
    pieces = [p.label for p in dec.pieces if box_contains(p.box, x)]
    rest = held == limit.coordinate(level)  # x lies in R_(level + 1)
    if kind == "uncovered":
        assert not pieces and not rest
    else:
        assert len(pieces) + rest >= 2


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_a_built_decomposition_is_proved_as_brute_force_finds(kind):
    for depth in (1, 2):
        dec = build(kind, depth)
        assert check_level_partition(dec) is None
        assert brute_force(dec) is None


@pytest.mark.parametrize("m, n", [(0, 1), (0, 3), (2, 3), (1, 4), (5, 30), (0, 100)])
def test_each_level_shape_is_searched_once_in_2n_plus_1_nodes(m, n):
    # absorb_small has the shape of coordinate 0 when m > 0 and the periodic
    # one; classif_K has one.  So the nodes do not grow with the depth
    for depth in (1, 2, 40):
        meter = Budget(10 ** 9)
        assert check_level_partition(decompose_absorb_small(m, n, depth), meter) is None
        assert meter.spent == (2 * m + 1 if m else 0) + 2 * n + 1
    meter = Budget(3)
    assert check_level_partition(decompose_classif_k(4, 1999), meter) is None
    assert meter.spent == 3
    with pytest.raises(BudgetExceeded):
        check_level_partition(decompose_absorb_small(m, n, 3), 2 * n)


def mutants(dec):
    """(name, mutant) for the four mutations of ``dec``, whose last level
    before the top holds the pieces mutated: a dropped piece, a miss that
    avoids one more element, a miss moved one coordinate on, and a limit
    whose value at the top level no longer fills its bound."""
    offset, witnesses = dec.ambient.explicit_len, dec.witnesses
    parts = [(p.label, p.level, p.own) for p in dec.pieces]
    target = len(parts) - 2 * len(witnesses)
    label, level, ((s, f, g),) = parts[target]
    assert level == s == offset + dec.depth - 2
    extra = Point.of(max(witnesses) + 1)
    yield "dropped", releveled(dec, dec.levels, parts[:target] + parts[target + 1:])
    yield "widened", releveled(dec, dec.levels, parts[:target] + [(label, level, ((s, f, g | extra),))]
                               + parts[target + 1:])
    yield "shifted", releveled(dec, dec.levels, parts[:target] + [(label, level, ((s + 1, f, g),))]
                               + parts[target + 1:])
    top = len(dec.levels)
    limit = dec.limit_point
    prefix = tuple(limit.coordinate(t) for t in range(top)) + (Point(witnesses[:-1]),)
    yield "unfilled", Decomposition(dec.kind, dec.ambient, dec.levels, dec.pieces,
                                    ProductPoint(prefix, limit.tail_value), witnesses, dec.depth)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_each_mutant_is_caught_and_falls_back_to_the_index(kind, monkeypatch):
    dec = build(kind, 3)
    seen = {}
    for name, mutant in mutants(dec):
        found = check_level_partition(mutant)
        seen[name] = found[0]
        if found[0] == "refused":
            assert found[1] is not None and isinstance(found[2], str)
        else:
            confirm(mutant, found)
            assert found[1] == len(dec.levels) - 1
        assert brute_force(mutant) is not None  # every mutation breaks the partition
        # the checks take the route off the proof, and answer as the box form does
        assert mutant.level_partition == found
        built_index = []
        init = BoxIndex.__init__

        def spied(index, *args):
            built_index.append(args)
            init(index, *args)

        monkeypatch.setattr(BoxIndex, "__init__", spied)
        for seed in range(3):
            assert check_answers(mutant, seed) == check_answers(eager(mutant), seed)
            # and as brute force does: the scan of every sampled point, and
            # box_subset per piece constrained past each box
            assert outcome(check_sample_membership, mutant, 100, seed) == \
                outcome(membership_oracle, mutant, 100, seed)
            boxes = neighborhoods(mutant, seed)
            assert list(check_limit_cofinite(mutant, boxes).violations) == \
                cofinite_oracle(mutant, boxes)
        monkeypatch.setattr(BoxIndex, "__init__", init)
        assert built_index
    assert seen == {"dropped": "uncovered", "widened": "uncovered", "shifted": "refused",
                    "unfilled": "refused"}


def level_blocks(rng, elements, limit_value, bound):
    """The own (F, G) of a random partition of the values within ``bound``
    into subcubes over ``elements``: each branch decides a random element,
    and the branch of ``limit_value`` is decided to the end, where the pin
    takes its place.  A subcube that holds no value within the bound is left
    out."""
    blocks = []

    def grow(todo, f, g, on_path):
        if len(f) > bound:
            return
        if not todo or (not on_path and (f or g) and rng.random() < 0.35):
            if not on_path:
                blocks.append((Point(f), Point(g)))
            return
        e = rng.choice(sorted(todo))
        grow(todo - {e}, f | {e}, g, on_path and e in limit_value)
        grow(todo - {e}, f, g | {e}, on_path and e not in limit_value)

    grow(frozenset(elements), frozenset(), frozenset(), True)
    rng.shuffle(blocks)
    return blocks


def random_level_decomposition(rng):
    """A hand-built decomposition in level form over 1-3 levels of bound
    1-2 over three elements, its pieces a random partition at each level,
    often mutated: a piece dropped, a G widened or an F narrowed."""
    bound = rng.randint(1, 2)
    ambient = ProductDescriptor((), bound)
    top = rng.randint(0, 2)
    values = [Point(rng.sample(range(3), bound)) for _ in range(top + 1)]
    limit = ProductPoint(tuple(values), values[-1])
    levels = tuple((t, values[t], EMPTY) for t in range(top))
    parts = []
    for t, value in enumerate(values):
        for f, g in level_blocks(rng, range(3), set(value), bound):
            parts.append((t, f, g))
    if parts and rng.random() < 0.6:
        j = rng.randrange(len(parts))
        t, f, g = parts[j]
        mutated = rng.choice([None, (t, f, g | Point.of(rng.randrange(3))),
                              (t, f - Point(f[:1]), g)])
        if mutated is None or mutated[1] or mutated[2]:
            parts[j:j + 1] = [mutated] if mutated else []
    pieces = []
    for j, (t, f, g) in enumerate(parts):
        own = ((t, f, g),)
        box = BasicBox(ambient, levels[:t] + own)
        if box_contains(box, limit) or not f + g:
            continue
        try:
            claimed = box_reduce(box).descriptor
        except ValueError:  # the mutation emptied it
            continue
        pieces.append(DecompositionPiece(f"P{j}", ambient, own, claimed, t, levels))
    return Decomposition("hand", ambient, levels, tuple(pieces), limit, (0, 1, 2), top + 1)


def test_random_level_decompositions_are_proved_as_brute_force_finds():
    rng = random.Random(47)
    seen = {}
    for trial in range(150):
        dec = random_level_decomposition(rng)
        found = check_level_partition(dec)
        kind = found[0] if found else "proved"
        seen[kind] = seen.get(kind, 0) + 1
        if found is None:
            assert brute_force(dec) is None
        elif kind != "refused":
            confirm(dec, found)
            assert brute_force(dec) is not None
        if trial % 5 == 0:
            for seed in range(2):
                assert answers(dec, seed) == answers(index_route(dec), seed)
        assert answers(dec, 0)[1] == index_charge(dec)
    assert set(seen) == {"proved", "uncovered", "overlap"}, seen
    assert seen["proved"] >= 30


def test_a_partition_whose_search_passes_its_bound_is_left_to_the_index():
    # a partition of the values of bound 1 over the elements 0, 1, 3, 4, 5,
    # with the pin {5}: the search decides 3 first, and in its branch walks
    # the elements it forces out, past 1 + 2 * 7 nodes
    ambient = ProductDescriptor.omega_power(1)
    limit = ProductPoint((), Point.of(5))
    pieces = [DecompositionPiece(label, ambient, ((0, Point(f), Point(g)),),
                                 ProductDescriptor((), 1) if not f else
                                 ProductDescriptor((0,), 1))
              for label, f, g in [("P0", (3,), (0, 1, 4)), ("P1", (), (3, 5))]]
    dec = Decomposition("hand", ambient, (), tuple(pieces), limit, (0, 1, 3, 4, 5), 3)
    assert check_level_partition(dec) == ("refused", 0, "the search at level 0 passes 15 nodes")
    assert brute_force(dec) is None
    assert check_pairwise_disjoint(dec) == pairs_oracle(dec) == []
    # past coordinate 0 the points agree with the limit, in no piece
    report = check_sample_membership(dec, 200, 1)
    assert report == membership_oracle(dec, 200, 1)
    assert report.in_piece and report.at_limit and report.unresolved
    boxes = limit_neighborhood_boxes(dec, 20, 1)
    assert list(check_limit_cofinite(dec, boxes).violations) == cofinite_oracle(dec, boxes)


def test_decompositions_outside_level_form_are_refused():
    dec = build((1, 2), 3)
    assert check_level_partition(decompose_countable((1, 1))) == \
        ("refused", 0, "piece P(0,{0}) is not one constraint at coordinate 0")
    assert check_level_partition(decompose_countable((2,))) == \
        ("refused", 0, "the limit's value at 0 does not fill the bound 2")
    assert check_level_partition(decompose_countable((0,))) is None
    # a countable partition is refused by the samplers (its depth counts
    # elements), but its cofiniteness answers as brute force does, on the
    # proved (0,) too
    violated = False
    for ks in [(1, 1), (2,), (0,), (1, 2, 0)]:
        countable = decompose_countable(ks, 1)
        for seed in range(3):
            rng = random.Random(seed)
            boxes = [random_box(rng, countable.ambient, len(ks)) for _ in range(20)]
            violations = check_limit_cofinite(countable, boxes).violations
            assert list(violations) == cofinite_oracle(countable, boxes)
            violated = violated or bool(violations)
    assert violated
    # a level that pins another value than the limit's
    moved = ProductPoint((dec.limit_point.coordinate(0), Point.of(0, 5)), Point.of(0, 1))
    assert check_level_partition(Decomposition(
        dec.kind, dec.ambient, dec.levels, dec.pieces, moved, dec.witnesses, dec.depth)) == \
        ("refused", 1, "level 1 does not pin coordinate 1 to the limit's value")
    # levels that skip a coordinate
    gap = ((0,) + dec.levels[0][1:], (2,) + dec.levels[1][1:])
    skipping = releveled(dec, gap, [("B'(0)", 0, dec.pieces[0].own)])
    assert check_level_partition(skipping) == \
        ("refused", 1, "level 1 does not pin coordinate 1 to the limit's value")
    # a last level past a product without a tail
    single = ProductDescriptor((2,))
    pinned = Decomposition("hand", single, ((0, Point.of(0, 1), EMPTY),), (),
                           ProductPoint((Point.of(0, 1),)), (0, 1), 1)
    assert check_level_partition(pinned) == \
        ("refused", None, "coordinate 1, past the last level, outside ambient")


# ---------------------------------------------------------------------------
# the CLI and the refusals


@pytest.mark.parametrize("argv", [
    ["--kind", "classif_K", "--depth", "12"],
    ["--kind", "classif_K", "--element", "5", "--depth", "1", "--samples", "0", "--boxes", "0"],
    ["--kind", "absorb_small", "--m", "0", "--n", "3", "--depth", "40"],
    ["--kind", "absorb_small", "--m", "2", "--n", "3", "--depth", "9", "--samples", "300"],
    ["--kind", "absorb_small", "--m", "1", "--n", "4", "--depth", "1", "--boxes", "40"],
], ids=" ".join)
def test_a_decompose_request_builds_no_index(argv, monkeypatch):
    calls = []
    init = BoxIndex.__init__

    def spied(index, *args):
        calls.append(args)
        init(index, *args)

    monkeypatch.setattr(BoxIndex, "__init__", spied)
    code, payload = dispatch(["decompose", *argv])
    assert code == 0 and payload["checks"]["pairwise_disjoint"]
    assert payload["checks"]["membership"]["ok"] and payload["checks"]["limit_cofinite"]["ok"]
    assert calls == []
    # the spy sees the index that locating a point builds
    piece_for_point(build((1, 2), 2), ProductPoint((), EMPTY))
    assert len(calls) == 1


def proved_hand_built(ambient, limit, top, depth):
    """Levels 0 .. top over ``ambient``, whose bound is 2 at each of them:
    at each coordinate t, where the limit's value is {a, b}, a < b, the
    pieces missing a, and holding a but not b, with {a, b} as the pin."""
    levels = tuple((t, limit.coordinate(t), EMPTY) for t in range(top))
    pieces = []
    for t in range(top + 1):
        a, b = limit.coordinate(t)
        for f, g in ((EMPTY, Point.of(a)), (Point.of(a), Point.of(b))):
            box = BasicBox(ambient, levels[:t] + ((t, f, g),))
            pieces.append(DecompositionPiece(f"P({t},{len(f)})", ambient, ((t, f, g),),
                                             box_reduce(box).descriptor, t, levels))
    return Decomposition("hand", ambient, levels, tuple(pieces), limit, (0, 1), depth)


def test_a_point_narrower_than_the_limits_prefix_is_located_where_it_leaves_the_limit():
    # the limit holds its tail value {2, 3} at coordinate 0 and {0, 1} at 1,
    # the last level: a point of width 0 holds the tail value everywhere, so
    # it agrees with the limit at 0 and lies in the piece of level 1 missing 0
    ambient = ProductDescriptor((), 2)
    limit = ProductPoint((Point.of(2, 3), Point.of(0, 1)), Point.of(2, 3))
    for depth in (1, 2, 3):
        dec = proved_hand_built(ambient, limit, 1, depth)
        assert dec.level_partition is None
        for seed in range(3):
            report = check_sample_membership(dec, 60, seed)
            assert report == membership_oracle(dec, 60, seed)
            assert report == check_sample_membership(index_route(dec), 60, seed)
    assert check_sample_membership(proved_hand_built(ambient, limit, 1, 1), 5, 0) == \
        MembershipReport(5, 5, 0, ())


def test_the_index_walk_goes_on_while_its_one_piece_is_constrained_further():
    # after coordinate 0 a point missing 0 there is admitted by P0 alone,
    # which also constrains coordinate 1: locating it must read it there
    ambient = ProductDescriptor.omega_power(2)
    boxes = [BasicBox(ambient, ((0, EMPTY, Point.of(0)), (1, Point.of(0), EMPTY))),
             BasicBox(ambient, ((0, Point.of(0), EMPTY),))]
    pieces = [DecompositionPiece(f"P{j}", ambient, box.constraints, box_reduce(box).descriptor)
              for j, box in enumerate(boxes)]
    dec = Decomposition("hand", ambient, (), tuple(pieces), ProductPoint((), Point.of(0, 1)),
                        (0, 1), 3)
    assert dec.level_partition[0] == "refused"
    unresolved = 0
    for seed in range(4):
        report = check_sample_membership(dec, 60, seed)
        assert report == membership_oracle(dec, 60, seed)
        unresolved += len(report.unresolved)
    assert unresolved


def test_a_proved_decomposition_keeps_every_refusal(monkeypatch):
    dec = build((1, 2), 3)
    assert dec.level_partition is None
    other = BasicBox(ProductDescriptor.omega_power(2), ((0, EMPTY, Point.of(0)),))
    for boxes in ([other], limit_neighborhood_boxes(dec, 3, 0) + [other]):
        with pytest.raises(ValueError, match="^cannot compare boxes over different ambients$"):
            check_limit_cofinite(dec, boxes)
    assert check_limit_cofinite(dec, []) == CofinitenessReport(0, ())
    # refused before any generator is made
    drawn = []
    monkeypatch.setattr(classification.random, "Random", lambda seed: drawn.append(seed))
    for fn, what in ((check_sample_membership, "samples"), (limit_neighborhood_boxes, "boxes")):
        with pytest.raises(ValueError, match=rf"^{what} must be non-negative$"):
            fn(dec, -1, 0)
    # the limit's value {0, 1} at coordinate 1 passes the bound 1 there, past
    # the one level, which proves the partition
    outside = proved_hand_built(ProductDescriptor((2, 1), 2), ProductPoint((), Point.of(0, 1)),
                                0, 2)
    assert outside.level_partition is None
    for fn in (check_sample_membership, limit_neighborhood_boxes):
        with pytest.raises(ValueError, match=r"^point \( tail=\{0,1\}\) outside ambient"):
            fn(outside, 5, 0)
    # a product without a tail: the points of depth 2 reach coordinate 2
    finite = proved_hand_built(ProductDescriptor((2, 2)),
                               ProductPoint((Point.of(0, 1), Point.of(0, 1))), 1, 2)
    assert finite.level_partition is None
    with pytest.raises(ValueError, match=r"^coordinate 2 outside ambient$"):
        check_sample_membership(finite, 5, 0)
    assert drawn == []
    monkeypatch.undo()
    shallow = proved_hand_built(finite.ambient, finite.limit_point, 1, 1)
    report = check_sample_membership(shallow, 50, 0)
    assert report == check_sample_membership(index_route(shallow), 50, 0)
    assert report.ok and report.total == 50 and report.at_limit
    assert isinstance(report, MembershipReport)


# ---------------------------------------------------------------------------
# the mask walk, the box draw and the charge from the level shapes, each
# against the code it replaced


@pytest.fixture
def counted(monkeypatch):
    """From now on, the bit counts of the ``getrandbits`` calls every
    ``random.Random`` makes, in order, and the generators made."""
    counted = SimpleNamespace(calls=[], made=[])

    class Counted(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            counted.made.append(self)

        def getrandbits(self, k):
            counted.calls.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(classification.random, "Random", Counted)
    return counted


def drawn_alike(counted, fn, oracle, *args):
    """``fn(*args)`` and ``oracle(*args)`` return equal answers through
    ``getrandbits`` calls that take as many 32-bit words, a call of k bits
    taking ceil(k / 32), and leave their generator in the same state;
    returns the answer.  A walk that skips a point's unread codes in one
    call and one that draws each of them are drawn alike."""
    def run(draw):
        counted.calls.clear()
        counted.made.clear()
        answer = draw(*args)
        (rng,) = counted.made
        return answer, sum(-(-k // 32) for k in counted.calls), rng.getstate()

    answer = run(fn)
    assert answer == run(oracle)
    return answer[0]


def decoding_level_walk(dec, count, seed):
    """The membership walk of a decomposition its levels prove, decoding
    every drawn code into a value and comparing it with the limit's: a point
    first off the limit at t <= len(levels) lies in one piece and skips its
    unread codes in one call, and one first off it further on in none."""
    ambient, limit, depth = dec.ambient, dec.limit_point, dec.depth
    explicit, top, tail = ambient.explicit_len, len(dec.levels), limit.tail_value
    getrandbits = random.Random(seed).getrandbits
    ground = ground_of(dec)
    size = len(ground) + 1
    words = 32 * ((size + 31) // 32)
    coords = [None] * (explicit + depth - 1)
    in_piece = at_limit = 0
    unresolved = []
    for _ in range(count):
        width = getrandbits(depth.bit_length())
        while width >= depth:
            width = getrandbits(depth.bit_length())
        width += explicit
        first = None
        for s in range(width):
            value = decode_oracle(getrandbits(size), ground, limit.coordinate(s),
                                  ambient.bound_at(s))
            if first is None and value != limit.coordinate(s):
                first = s
                if s <= top:
                    in_piece += 1
                    getrandbits(words * (width - 1 - s))
                    break
            coords[s] = value
        else:
            if first is None:
                if width >= len(limit.prefix):
                    at_limit += 1
                    continue
                first = next(t for t in range(width, len(limit.prefix))
                             if limit.prefix[t] != tail)
            if first <= top:
                in_piece += 1
            else:
                unresolved.append(ProductPoint(coords[:width], tail))
    return MembershipReport(count, in_piece, at_limit, tuple(unresolved))


@pytest.mark.parametrize("kind", SWEEP_KINDS, ids=str)
def test_the_mask_walk_draws_and_answers_as_the_decoding_walk(kind, counted, monkeypatch):
    for depth in [*range(1, 14), 40]:
        dec = built(kind, depth)
        for seed in (depth, 7):
            drawn_alike(counted, check_sample_membership, decoding_level_walk, dec, 100, seed)
    # over a ground of distinct elements no code up to the last level is
    # decoded, and no value is built; also where the points reach the
    # coordinate of the last pieces, past the levels, as the hand-built
    # ones of one level do at depth 3
    limit = ProductPoint((Point.of(2, 3), Point.of(0, 1)), Point.of(2, 3))
    decs = [built(kind, depth) for depth in (1, 12)]
    decs.append(proved_hand_built(ProductDescriptor((), 2), limit, 1, 3))
    assert all(dec.level_partition is None for dec in decs)
    made = []
    monkeypatch.setattr(classification, "Point", lambda *args: made.append(args))
    for dec in decs:
        assert check_sample_membership(dec, 100, 5).ok
    assert made == []


@pytest.mark.parametrize("m, n, witnesses", [
    (1, 3, (7, 2, 5)), (0, 4, (3, 2, 1, 0)), (2, 3, (9, 0, 4)), (1, 30, tuple(range(60, 0, -2))),
    # codes of G + 1 = n + 3 bits: 32, 33, 64 and 65
    (0, 29, None), (1, 30, None), (0, 61, None), (1, 62, None),
], ids=str)
def test_the_mask_walk_over_unsorted_witnesses_and_wide_codes(m, n, witnesses, counted):
    for depth in (1, 4, 10):
        dec = decompose_absorb_small(m, n, depth, witnesses)
        assert dec.level_partition is None
        for seed in range(3):
            drawn_alike(counted, check_sample_membership, decoding_level_walk, dec, 60, seed)


def test_the_mask_walk_over_hand_built_level_forms(counted):
    # the proved ones among the random level forms, over other witnesses and
    # depths: (5,) leaves every value of the limit outside the ground, (1,)
    # leaves 0 out, (2, 0, 1) is unsorted and (0, 0, 2) repeats an element;
    # a depth past top + 2 draws points wider than the coordinates 0 .. top
    # of the levels, off the limit only past them and in no piece.  The mask
    # walk takes the variants of depth top + 1 and top + 2 over a ground of
    # distinct elements, the plain route the others, and every report is the
    # brute force's too
    rng = random.Random(47)
    proved = unresolved = 0
    for _ in range(150):
        dec = random_level_decomposition(rng)
        if dec.level_partition is not None:
            continue
        proved += 1
        top = len(dec.levels)
        for witnesses, depth in (((0, 1, 2), top + 1), ((2, 0, 1), top + 3), ((1,), top + 2),
                                 ((5,), top + 2), ((0, 0, 2), top + 3), ((0, 0, 2), top + 1)):
            variant = Decomposition(dec.kind, dec.ambient, dec.levels, dec.pieces,
                                    dec.limit_point, witnesses, depth)
            assert variant.level_partition is None
            for seed in range(2):
                report = drawn_alike(counted, check_sample_membership, decoding_level_walk,
                                     variant, 40, seed)
                assert report == membership_oracle(variant, 40, seed)
                unresolved += len(report.unresolved)
                boxes = neighborhoods(variant, seed)
                assert list(check_limit_cofinite(variant, boxes).violations) == \
                    cofinite_oracle(variant, boxes)
    assert proved >= 30 and unresolved


def randrange_boxes(dec, count, seed):
    """The neighbourhood boxes with their coordinates drawn by
    ``Random.randrange`` and each F and G built as a new ``Point``."""
    rng = random.Random(seed)
    ambient, limit = dec.ambient, dec.limit_point
    extras = ground_of(dec)[len(dec.witnesses):]
    max_coord = ambient.explicit_len + dec.depth + 1
    boxes = []
    for _ in range(count):
        constraints = []
        for s in sorted({rng.randrange(max_coord) for _ in range(rng.getrandbits(2))}):
            value = limit.coordinate(s)
            pool = [e for e in extras if e not in value]
            mask = rng.getrandbits(len(value))
            f = Point([e for j, e in enumerate(value) if mask >> j & 1]) if mask else EMPTY
            mask = rng.getrandbits(len(pool))
            g = Point([e for j, e in enumerate(pool) if mask >> j & 1]) if mask else EMPTY
            if f or g:
                constraints.append((s, f, g))
        boxes.append(BasicBox(ambient, tuple(constraints)))
    return boxes


def texts(draw):
    """``draw`` with each box it returns written as text."""
    return lambda *args: [str(box) for box in draw(*args)]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_the_box_draw_matches_randrange(k, counted):
    # max_coord, the coordinates drawn from, at 2^k - 1, 2^k and 2^k + 1;
    # m = 1 has one explicit factor, and the hand-built decomposition none,
    # at any depth, so at depth 0 it draws from a single coordinate
    limit = ProductPoint((Point.of(2, 3), Point.of(0, 1)), Point.of(2, 3))
    hand = proved_hand_built(ProductDescriptor((), 2), limit, 1, 1)
    for max_coord in (2 ** k - 1, 2 ** k, 2 ** k + 1):
        decs = [built(kind, max_coord - explicit - 1)
                for kind, explicit in (((0, 2), 0), ((1, 3), 1), (("K", 3), 0))
                if max_coord - explicit - 1 >= 1]
        decs.append(Decomposition("hand", hand.ambient, hand.levels, hand.pieces, limit, (0, 1),
                                  max_coord - 1))
        for dec in decs:
            for seed in range(25):
                for count in (0, 1, 12):
                    drawn_alike(counted, texts(limit_neighborhood_boxes), texts(randrange_boxes),
                                dec, count, seed)


def test_boxes_over_no_coordinate_are_refused():
    # explicit factors 0 and depth -1 leave no coordinate to draw: refused
    # before any draw, where the draw would never end
    limit = ProductPoint((Point.of(2, 3), Point.of(0, 1)), Point.of(2, 3))
    dec = proved_hand_built(ProductDescriptor((), 2), limit, 1, -1)
    assert limit_neighborhood_boxes(dec, 0, 0) == []
    with pytest.raises(ValueError, match="^boxes need a coordinate below depth"):
        limit_neighborhood_boxes(dec, 1, 0)


def test_the_level_charge_is_the_index_charge_of_the_built_partition():
    for n in range(1, 6):
        for m in range(n):
            for depth in range(1, 41):
                dec = decompose_absorb_small(m, n, depth)
                meter = Budget(10 ** 9)
                assert check_pairwise_disjoint(dec, meter) == []
                assert meter.spent == classification.decompose_charges(m, n, depth, 0)[2]
                if depth in (1, 2, 9, 40):
                    assert meter.spent == index_charge(dec)
                assert "index" not in vars(dec)
    for depth in (1, 2, 40):
        dec = decompose_classif_k(3, depth)
        meter = Budget(10 ** 9)
        check_pairwise_disjoint(dec, meter)
        assert meter.spent == classification.decompose_charges(0, 1, depth, 0)[2]


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_the_mutants_are_charged_once_as_the_index_charges(kind):
    for name, mutant in mutants(build(kind, 3)):
        meter = Budget(10 ** 9)
        check_pairwise_disjoint(mutant, meter)
        assert meter.spent == index_charge(mutant), name
        with pytest.raises(BudgetExceeded):
            check_pairwise_disjoint(mutant, meter.spent - 1 if meter.spent else -1)


def test_the_proof_and_the_charge_share_one_pass_over_the_levels(monkeypatch):
    shapes = classification._level_shapes
    calls = []

    def counted_shapes(dec):
        calls.append(dec)
        return shapes(dec)

    monkeypatch.setattr(classification, "_level_shapes", counted_shapes)
    dec = decompose_absorb_small(1, 3, 12)
    hand = by_hand(dec)  # only the constructor hands over its shapes
    for built in (dec, hand):
        for _ in range(2):
            assert check_pairwise_disjoint(built) == []
            assert check_level_partition(built) is None
    assert calls == [hand]
    assert dec.level_shapes == hand.level_shapes


def built_with(kind, depth, witnesses, budget):
    """The constructor's partition of ``kind`` over ``witnesses`` (None for
    the default), its element for ``"K"``."""
    if kind == "K":
        return decompose_classif_k(witnesses, depth, budget)
    return decompose_absorb_small(*kind, depth, witnesses, budget)


def by_hand(dec):
    """The same fields through the dataclass alone: nothing handed over."""
    return Decomposition(dec.kind, dec.ambient, dec.levels, dec.pieces, dec.limit_point,
                         dec.witnesses, dec.depth)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_a_warm_memo_builds_what_a_cold_one_builds(kind, cold_schemas):
    # the default witnesses and a permutation of them; K's default element and another
    variants = (0, 5) if kind == "K" else (None, tuple(range(kind[1]))[::-1])
    for depth in (*range(1, 14), 40):
        for witnesses in variants:
            builds = []
            for warm in (False, True):
                if not warm:
                    cold_schemas.cache_clear()
                hits = cold_schemas.cache_info().hits
                meter = Budget(10 ** 9)
                dec = built_with(kind, depth, witnesses, meter)
                assert cold_schemas.cache_info().hits == hits + warm
                with pytest.raises(BudgetExceeded) as info:
                    built_with(kind, depth, witnesses, meter.spent - 1)
                assert info.value.needed == meter.spent
                builds.append((dec, decomposition_to_json(dec), meter.spent))
            assert builds[0] == builds[1], (depth, witnesses)
            # what the constructor hands over is what the proof finds by hand
            hand = by_hand(dec)
            assert vars(dec)["level_shapes"] == classification._level_shapes(hand)
            assert vars(dec)["level_partition"] is check_level_partition(hand) is None


def test_a_failing_type_check_is_not_kept(monkeypatch, cold_schemas):
    reduced = []

    def failing(box, budget=None):
        reduced.append(box)
        raise ValueError("the box is empty")

    monkeypatch.setattr(classification, "box_reduce", failing)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^piece B'\(0\): claimed type does not match"):
            decompose_absorb_small(1, 3, 4)
    assert len(reduced) == 2 and cold_schemas.cache_info().currsize == 0
    monkeypatch.undo()
    dec = decompose_absorb_small(1, 3, 4)
    assert cold_schemas.cache_info().currsize == 1
    # a warm key reduces no box, at any depth; a cold one reduces B'(0), the
    # small set, the 3 misses and the full set once each
    counted = []
    monkeypatch.setattr(classification, "box_reduce",
                        lambda box: counted.append(box) or box_reduce(box))
    assert decompose_absorb_small(1, 3, 4) == dec
    decompose_absorb_small(1, 3, 40)
    assert counted == []
    cold_schemas.cache_clear()
    decompose_absorb_small(1, 3, 40)
    decompose_absorb_small(1, 3, 9)
    assert len(counted) == 6


def test_the_full_set_is_checked_from_depth_2_on(monkeypatch, cold_schemas):
    # a reduction that refuses the full set alone, which no piece carries at
    # depth 1: depth 1 and depth 2 are two keys, and only depth 2 is refused
    def refusing_the_full_set(box, *args):
        if box.constraints[0][1] == Point.of(0, 1, 2):
            raise ValueError("the box is empty")
        return box_reduce(box, *args)

    monkeypatch.setattr(classification, "box_reduce", refusing_the_full_set)
    for _ in range(2):
        assert decompose_absorb_small(0, 3, 1).pieces
        with pytest.raises(ValueError, match=r"^piece A\(1,0\): claimed type does not match"):
            decompose_absorb_small(0, 3, 2)
    assert cold_schemas.cache_info().currsize == 1


def test_the_memo_keeps_each_witness_type(cold_schemas):
    # 1, True and 1.0 are one key to an lru_cache: only int witnesses are kept
    elements = (1, True, 1.0)
    alone = []
    for element in elements:
        cold_schemas.cache_clear()
        alone.append(repr(decomposition_to_json(decompose_classif_k(element, 3))))
    assert len(set(alone)) == 3
    assert [repr(decomposition_to_json(decompose_classif_k(element, 3)))
            for element in elements] == alone
    assert cold_schemas.cache_info().currsize == 1


def test_the_memo_stays_bounded(cold_schemas):
    for element in range(10000):
        decompose_classif_k(element, 1)
    info = cold_schemas.cache_info()
    assert info.misses == 10000 and info.currsize <= info.maxsize == 256


def test_a_last_level_without_pieces_carries_no_pin_in_the_charge(counted):
    # coordinate 1 has bound 0, so the limit's value {} alone partitions it:
    # both pieces lie at level 0, and with none above it the index holds no
    # level constraint there.  Its two own constraints of 1 and 2 elements
    # cost (2 - 1)·3.  Every code picks {} at coordinate 1, which the walk
    # tests with an empty mask
    ambient = ProductDescriptor((2,), 0)
    levels = ((0, Point.of(0, 1), EMPTY),)
    pieces = []
    for label, f, g in (("P0", EMPTY, Point.of(0)), ("P1", Point.of(0), Point.of(1))):
        box = BasicBox(ambient, ((0, f, g),))
        pieces.append(DecompositionPiece(label, ambient, ((0, f, g),),
                                         box_reduce(box).descriptor, 0, levels))
    dec = Decomposition("hand", ambient, levels, tuple(pieces),
                        ProductPoint((Point.of(0, 1),), EMPTY), (0, 1), 2)
    assert dec.level_partition is None and brute_force(dec) is None
    meter = Budget(10 ** 9)
    assert check_pairwise_disjoint(dec, meter) == []
    assert meter.spent == index_charge(dec) == 3
    for seed in range(3):
        report = drawn_alike(counted, check_sample_membership, decoding_level_walk, dec, 60, seed)
        assert report.ok and report.at_limit
