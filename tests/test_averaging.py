import dataclasses
import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product as iter_product

import pytest

from sigmaprod.averaging import (
    ExplicitOperator,
    RaoCheck,
    UnionMap,
    apply_union,
    build_operator,
    enumerate_L,
    fiber_map,
    locality_profile,
    product_operator,
    restrict_operator,
)
from sigmaprod.ground import EMPTY, Budget, BudgetExceeded, Point, enumerate_sigma_points

A, B, C = Point.of(0), Point.of(1), Point.of(2)


def brute_force_L(y, k, ground_size):
    """Independent oracle: filter all k-tuples of at-most-singletons."""
    singles = enumerate_sigma_points(1, ground_size)
    out = []
    for x in iter_product(singles, repeat=k):
        union = EMPTY
        ok = True
        for i, xi in enumerate(x):
            for xj in x[i + 1:]:
                if len(xi) and xi == xj:
                    ok = False
            union = union | xi
        if ok and union == y:
            out.append(x)
    return out


def test_apply_union_examples():
    assert apply_union((A, A)) == A
    assert apply_union((A, B, EMPTY)) == Point.of(0, 1)
    assert apply_union((EMPTY, EMPTY, EMPTY)) == EMPTY
    with pytest.raises(ValueError):
        apply_union((Point.of(0, 1),))


def test_union_map_object():
    p = UnionMap(2, 3)
    assert p((A, B)) == Point.of(0, 1)
    assert p.operator().check().ok
    with pytest.raises(ValueError):
        p((A,))
    with pytest.raises(ValueError):
        UnionMap(0, 3)


def test_enumerate_L_examples():
    fiber = enumerate_L(Point.of(0, 1), 2)
    assert set(fiber) == {(A, B), (B, A)}
    assert len(fiber) == 2
    assert enumerate_L(EMPTY, 3) == ((EMPTY, EMPTY, EMPTY),)
    assert len(enumerate_L(Point.of(0, 1), 3)) == 6
    with pytest.raises(ValueError):
        enumerate_L(Point.of(0, 1, 2), 2)


def test_enumerate_L_matches_brute_force_and_closed_form():
    for k in range(1, 7):
        for size in range(k + 1):
            y = Point(tuple(range(size)))
            fiber = enumerate_L(y, k)
            assert len(fiber) == math.factorial(k) // math.factorial(k - size)
            if k <= 4:
                assert set(fiber) == set(brute_force_L(y, k, max(size, 1)))


def test_operator_row_values_k2():
    op = build_operator(2, 2)
    f = {x: Fraction(1 if x[0] == A else 0) for x in op.domain}
    result = op.apply(f)
    assert result[A] == Fraction(1, 2)
    assert result[Point.of(0, 1)] == Fraction(1, 2)
    assert result[EMPTY] == 0


def test_operator_axioms_exact():
    for k in (1, 2, 3):
        for g in (1, 2, 3):
            report = build_operator(k, g).check()
            assert report.ok, (k, g, report)


def test_operator_inverts_composition():
    op = build_operator(2, 3)
    for z in op.codomain:
        g = {y: Fraction(3, 7) if y == z else Fraction(0) for y in op.codomain}
        f = {x: g[apply_union(x)] for x in op.domain}
        assert op.apply(f) == g


def test_constant_function_averages_to_constant():
    op = build_operator(3, 2)
    ones = {x: Fraction(1) for x in op.domain}
    assert set(op.apply(ones).values()) == {Fraction(1)}


def test_row_support_is_exactly_the_disjoint_fiber():
    rows = build_operator(3, 3).explicit().rows
    for y, row in rows.items():
        support = {x for x, _w in row}
        assert support == set(enumerate_L(y, 3))
        assert sum(w for _x, w in row) == 1
        assert all(w > 0 for _x, w in row)


def test_fiber_map_examples():
    assert fiber_map(A, Point.of(0, 1), 2).fiber_size == 1
    assert fiber_map(EMPTY, A, 3).fiber_size == 3
    assert fiber_map(A, A, 2).fiber_size == 1
    with pytest.raises(ValueError):
        fiber_map(Point.of(5), A, 2)


def test_fiber_map_uniformity_all_nested_pairs():
    for k in range(1, 6):
        for size2 in range(k + 1):
            y2 = Point(tuple(range(size2)))
            for size1 in range(size2 + 1):
                y1 = Point(tuple(range(size1)))
                fm = fiber_map(y1, y2, k)
                assert len(enumerate_L(y2, k)) == fm.fiber_size * len(enumerate_L(y1, k))


def test_product_operator_of_one_is_itself():
    op = build_operator(2, 2)
    assert product_operator([op]) is op


def test_product_operator_tensors_weights():
    op1 = build_operator(1, 1)
    op2 = build_operator(1, 2)
    prod = product_operator([op1, op2])
    for (y1, y2) in prod.codomain:
        weights = dict(prod.rows[(y1, y2)])
        for (x1, w1) in op1.explicit().rows[y1]:
            for (x2, w2) in op2.explicit().rows[y2]:
                assert weights[(x1, x2)] == w1 * w2
    assert prod.check().ok


def test_restrict_operator():
    op = build_operator(2, 2)
    assert restrict_operator(op, list(op.codomain)) == op.explicit()
    point_mass = restrict_operator(op, [EMPTY])
    assert point_mass.rows[EMPTY] == (((EMPTY, EMPTY), Fraction(1)),)
    some = restrict_operator(op, [EMPTY, Point.of(0, 1)])
    assert some.check().ok
    with pytest.raises(ValueError):
        restrict_operator(op, [])


def test_ground_restriction_consistency():
    big = build_operator(2, 4).explicit()
    small = build_operator(2, 2).explicit()
    small_domain = set(small.domain)
    for y in small.codomain:
        restricted = tuple((x, w) for x, w in big.rows[y] if x in small_domain)
        assert restricted == small.rows[y]


def test_locality_constant_function():
    op = build_operator(2, 3)
    profile = locality_profile(op, EMPTY)
    assert profile.passed
    # with F empty every tuple has the same pattern, so rows are constant on it
    for dist in profile.table.values():
        assert set(dist.values()) == {Fraction(1)}


def test_locality_table_example():
    op = build_operator(2, 4)
    profile = locality_profile(op, A)
    assert profile.passed
    # the function [0 in first coordinate] averages to 1/2 on {0} and {0,b},
    # and to 0 on sets avoiding 0; keys (y & F, |y|) capture exactly that
    def averaged(y):
        dist = profile.table[(y & A, len(y))]
        return sum(w for pattern, w in dist.items() if pattern[0] == A)

    assert averaged(A) == Fraction(1, 2)
    assert averaged(Point.of(0, 1)) == Fraction(1, 2)
    assert averaged(Point.of(1, 2)) == 0
    assert averaged(Point.of(1, 3)) == 0


def test_locality_passes_small_scales():
    from itertools import combinations

    f_sets = [c for size in range(3) for c in combinations(range(4), size)]
    for k in (1, 2, 3):
        op = build_operator(k, 4)
        for f_els in f_sets:
            assert locality_profile(op, Point(f_els)).passed


def test_locality_rejects_non_union_operators():
    prod = product_operator([build_operator(1, 1), build_operator(1, 1)])
    with pytest.raises(ValueError):
        locality_profile(prod, A)


def test_restrict_operator_support_check_survives_optimized_mode():
    # a row supported off its own fiber loses all support on restriction;
    # the check is an explicit raise, so it holds under ``python -O`` too
    code = (
        "from fractions import Fraction\n"
        "from sigmaprod.averaging import ExplicitOperator, restrict_operator\n"
        "op = ExplicitOperator({'a': 'y', 'b': 'z'},\n"
        "                      {'y': (('b', Fraction(1)),), 'z': (('a', Fraction(1)),)})\n"
        "try:\n"
        "    restrict_operator(op, ['y'])\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: a row lost all support")


# ---------------------------------------------------------------------------
# the operator build and check against the per-tuple versions they replaced


def test_build_operator_takes_ground_zero_and_rejects_a_negative_ground():
    # ground 0 is the one-point space; a negative one used to leak a KeyError
    op = build_operator(3, 0)
    assert op.codomain == (EMPTY,) and tuple(op.domain) == ((EMPTY,) * 3,)
    assert op.rows[EMPTY] == ((),)
    assert op.explicit().rows[EMPTY] == (((EMPTY,) * 3, Fraction(1)),)
    for ground_size in (-1, -3):
        message = f"ground_size must be non-negative, got {ground_size}"
        with pytest.raises(ValueError, match=message):
            build_operator(3, ground_size)


def oracle_build(k, ground_size):
    """The per-tuple build the placement form replaced: the whole domain as a
    surjection dict, and each row's fiber as weighted k-tuples."""
    singletons = [Point.of(el) for el in range(ground_size)]
    codomain = enumerate_sigma_points(k, ground_size)
    by_mask = {sum(1 << el for el in y): y for y in codomain}
    coords = [(EMPTY, 0)] + [(p, 1 << el) for el, p in enumerate(singletons)]
    prefixes = [((), 0)]
    for _ in range(k - 1):
        prefixes = [(x + (p,), mask | bit) for x, mask in prefixes for p, bit in coords]
    surjection = {x + (p,): by_mask[mask | bit] for x, mask in prefixes for p, bit in coords}
    rows = {}
    for y in codomain:
        fiber = []
        for placement in permutations(range(k), len(y)):
            x = [EMPTY] * k
            for el, slot in zip(y, placement):
                x[slot] = singletons[el]
            fiber.append(tuple(x))
        w = Fraction(1, len(fiber))
        rows[y] = tuple((x, w) for x in fiber)
    return ExplicitOperator(surjection, rows)


def oracle_decode(op):
    """The explicit operator a placement operator stands for: row y gives
    1/len(row) to each k-tuple a placement puts the elements of y at."""
    rows = {}
    for y, row in op.rows.items():
        terms = {}
        for placement in row:
            x = [EMPTY] * op.k
            for el, slot in zip(y, placement):
                x[slot] = Point.of(el)
            terms[tuple(x)] = Fraction(1, len(row))
        rows[y] = tuple(terms.items())
    return ExplicitOperator(oracle_build(op.k, op.ground_size).surjection, rows)


def test_build_operator_matches_the_per_tuple_build():
    rng = random.Random(36)
    for k in range(1, 5):
        for g in range(6):
            op, oracle = build_operator(k, g), oracle_build(k, g)
            assert op.codomain == oracle.codomain
            assert len(op.domain) == len(oracle.domain) == (g + 1) ** k
            assert tuple(op.domain) == oracle.domain
            assert all(x in op.domain for x in oracle.domain)
            assert all(op.rows[y] is op.placements[len(y)] for y in op.codomain)
            # the decoded rows and the surjection
            assert op.explicit() == oracle_decode(op) == oracle
            f = {x: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for x in oracle.domain}
            assert op.apply(f) == oracle.apply(f)
            assert op.check() == oracle_check(oracle) == RaoCheck(True, True, True, True)


def test_the_domain_holds_only_its_k_tuples():
    domain = build_operator(2, 3).domain
    outside = [(A,), (A, B, C), (A, Point.of(3)), (Point.of(-1), A), (Point.of(0, 1), EMPTY),
               ((0,), EMPTY), [A, B], "ab"]
    assert not any(x in domain for x in outside)
    assert (C, EMPTY) in domain and len(domain) == 16
    # past the largest int len() returns, a product is refused by the budget
    big = build_operator(70, 1)
    assert big.domain_size == 2 ** 70
    with pytest.raises(BudgetExceeded) as info:
        product_operator([big, build_operator(1, 1)])
    assert info.value.needed == 2 ** 71


def test_build_operator_charges_its_codomain_and_placements(monkeypatch):
    b = Budget(10 ** 6)
    op = build_operator(5, 17, budget=b)
    assert b.spent == 9402 + 326
    assert len(op.codomain) == 9402 and sum(map(len, op.placements)) == 326
    # neither the build nor the check walks the 18^5 domain
    monkeypatch.setattr(type(op.domain), "__iter__", lambda _self: pytest.fail("domain built"))
    assert build_operator(5, 17).check().ok


def test_product_restrict_and_locality_give_the_per_tuple_answers():
    for k, g in ((1, 2), (2, 2), (2, 3), (3, 2)):
        op, oracle = build_operator(k, g), oracle_build(k, g)
        other = build_operator(1, 1)
        assert product_operator([op, other]) == product_operator([oracle, other.explicit()])
        some = [y for i, y in enumerate(op.codomain) if i % 2 == 0]
        assert restrict_operator(op, some) == restrict_operator(oracle, some)
        for f_set in (EMPTY, A, Point.of(0, 1)):
            assert locality_profile(op, f_set) == locality_profile(oracle, f_set)
        for y in op.codomain:
            fm = fiber_map(EMPTY, y, k)
            assert tuple(fm.assignment) == tuple(x for x, _w in oracle.rows[y])


def oracle_check(op):
    """The check that tallied each row's weight per image point."""
    unital = positive = section = fiber_supported = True
    for y in op.codomain:
        total = Fraction(0)
        by_image = {}
        for x, w in op.rows[y]:
            total += w
            if w <= 0:
                positive = False
            z = op.surjection[x]
            by_image[z] = by_image.get(z, Fraction(0)) + w
            if z != y:
                fiber_supported = False
        if total != 1:
            unital = False
        if by_image != {y: Fraction(1)}:
            section = False
    return RaoCheck(unital, positive, section, fiber_supported)


def with_row(op, y, terms):
    return dataclasses.replace(op, rows={**op.rows, y: tuple(terms)})


def test_check_matches_the_oracle_on_broken_operators():
    op = build_operator(2, 2).explicit()
    on_a = [(A, EMPTY), (EMPTY, A)]          # the fiber of {0}
    broken = {
        "zero weight": with_row(op, A, zip(on_a, (Fraction(1), Fraction(0)))),
        "negative weight": with_row(op, A, zip(on_a, (Fraction(3, 2), Fraction(-1, 2)))),
        "sum not one": with_row(op, A, zip(on_a, (Fraction(1, 2), Fraction(1, 3)))),
        "off the fiber": with_row(op, A, [((A, EMPTY), Fraction(1, 2)),
                                          ((B, EMPTY), Fraction(1, 2))]),
        "empty row": with_row(op, A, []),
    }
    expected = {
        "zero weight": RaoCheck(True, False, True, True),
        "negative weight": RaoCheck(True, False, True, True),
        "sum not one": RaoCheck(False, True, False, True),
        "off the fiber": RaoCheck(True, True, False, False),
        "empty row": RaoCheck(False, True, False, True),
    }
    for name, bad in broken.items():
        assert bad.check() == oracle_check(bad) == expected[name], name


def test_check_matches_the_oracle_on_unequal_weights():
    # a hand-built operator over plain labels, with unequal and integer weights
    skew = ExplicitOperator(
        {"a": "y", "b": "y", "c": "z"},
        {"y": (("a", Fraction(1, 3)), ("b", Fraction(2, 3))), "z": (("c", 1),)})
    prod = product_operator([skew, build_operator(2, 2)])
    restricted = restrict_operator(prod, [("y", EMPTY), ("y", A), ("z", Point.of(0, 1))])
    for op in (skew, prod, restricted, restrict_operator(skew, ["y"])):
        assert op.check() == oracle_check(op)
        assert op.check().ok
    assert {w for _x, w in prod.rows[("y", A)]} == {Fraction(1, 6), Fraction(1, 3)}


def with_placements(op, j, row):
    placements = list(op.placements)
    placements[j] = tuple(row)
    return dataclasses.replace(op, placements=tuple(placements))


def test_check_matches_the_oracle_on_broken_placements():
    op = build_operator(4, 4)
    pairs = op.placements[2]                 # the rows of the points of size 2
    broken = {
        # (0, 0) puts both elements in slot 0, so the k-tuple holds only the second
        "repeated slot": with_placements(op, 2, ((0, 0),) + pairs[1:]),
        # a uniform measure on part of each fiber still passes every axiom
        "dropped placement": with_placements(op, 2, pairs[1:]),
        "duplicated placement": with_placements(op, 2, pairs + pairs[:1]),
        "empty row": with_placements(op, 0, ()),
        # placements of one slot put only the first element of y
        "row of a smaller size": with_placements(op, 2, op.placements[1]),
        # placements of three slots put y's two elements at each pair twice
        "row of a larger size": with_placements(op, 2, op.placements[3]),
    }
    expected = {
        "repeated slot": RaoCheck(True, True, False, False),
        "dropped placement": RaoCheck(True, True, True, True),
        "duplicated placement": RaoCheck(False, True, False, True),
        "empty row": RaoCheck(False, True, False, True),
        "row of a smaller size": RaoCheck(True, True, False, False),
        "row of a larger size": RaoCheck(False, True, False, True),
    }
    for name, bad in broken.items():
        assert bad.check() == oracle_check(oracle_decode(bad)) == expected[name], name
        assert bad.explicit().check() == bad.check(), name


def test_check_builds_no_codomain():
    # the codomain is built only when read: avg check at k = 1 over
    # 1,999,000 elements built 2 * 10^6 points it never looked at
    op = build_operator(3, 4)
    assert op.check().ok
    assert "codomain" not in vars(op)
    assert op.codomain == tuple(enumerate_sigma_points(3, 4))
    assert vars(op)["codomain"] is op.codomain
