import math
import random
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, strategies as st

from sigmaprod.ground import Budget, BudgetExceeded
from sigmaprod.uec import (
    BinaryArray,
    SignedVector,
    _MAX_TAIL_LEVELS,
    _best_preimage,
    _tail_table,
    best_phi_preimage,
    embed_u,
    in_L0,
    level_bounds,
    level_weight,
    phi,
    phi_preimage,
    phi_preimage_head,
    pipeline_check,
    support_counts,
    truncation_tail,
    weight_digits,
)


def weight_partial_sum(levels: int) -> Fraction:
    """Oracle: the sum of r_n for n < levels, 1 - (2/3)^levels exactly."""
    return 1 - Fraction(2, 3) ** levels


def test_weight_series():
    for levels in range(1, 41):
        total = sum(level_weight(n) for n in range(levels))
        assert total == weight_partial_sum(levels) == 1 - truncation_tail(levels)
    for n in range(200):
        assert level_weight(n) == Fraction(1, 3) * Fraction(2, 3) ** n
        assert truncation_tail(n) == Fraction(2, 3) ** n
    weights = [level_weight(n) for n in range(10)]
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_level_bounds():
    table = level_bounds(6)
    assert table.m == (3, 4, 6, 10, 15, 22)
    # oracle: floor of the reciprocal weight
    for n, bound in enumerate(table.m):
        assert bound <= 1 / level_weight(n) < bound + 1
    assert all(a <= b for a, b in zip(table.m, table.m[1:]))


def test_embed_u_examples():
    x = SignedVector.from_dict({0: Fraction(1, 2), 1: Fraction(-1, 5)})
    assert embed_u(x) == SignedVector.from_dict(
        {(0, "a"): Fraction(1, 2), (1, "b"): Fraction(1, 5)})
    assert embed_u(SignedVector()) == SignedVector()
    assert embed_u(SignedVector.from_dict({3: -1})) == SignedVector.from_dict(
        {(3, "b"): 1})
    with pytest.raises(ValueError):
        embed_u(SignedVector.from_dict({0: 1, 1: Fraction(1, 2)}))


def test_embed_u_preserves_l1_and_injective():
    rng = random.Random(4)
    seen = {}
    for _ in range(200):
        support = rng.sample(range(6), rng.randint(0, 4))
        raw = {}
        weight_left = Fraction(1)
        for label in support:
            num = rng.randint(-3, 3)
            den = rng.randint(4, 9) * max(len(support), 1)
            value = Fraction(num, den)
            raw[label] = value
            weight_left -= abs(value)
        if weight_left < 0:
            continue
        x = SignedVector.from_dict(raw)
        u = embed_u(x)
        assert u.l1() == x.l1()
        assert u.is_nonnegative()
        if u in seen:
            assert seen[u] == x
        seen[u] = x


def test_phi_examples():
    assert phi((1, 0, 0), 5) == Fraction(1, 3)
    assert phi((1, 0, 1), 3) == Fraction(13, 27)
    for levels in (1, 5, 12):
        assert phi((1,) * levels, levels) == weight_partial_sum(levels)
    with pytest.raises(ValueError):
        phi((2,), 1)


def test_phi_preimage_examples():
    assert (0, 0, 0) in phi_preimage(0, 3)
    assert (1, 0) in phi_preimage(Fraction(1, 3), 2)
    assert phi_preimage(Fraction(1, 2), 12)
    with pytest.raises(ValueError):
        phi_preimage(2, 3)


def test_phi_preimage_matches_brute_force():
    for levels in (1, 3, 6, 8):
        tol = truncation_tail(levels)
        for target in (Fraction(0), Fraction(1, 3), Fraction(1, 2),
                       Fraction(7, 11), Fraction(1)):
            expected = tuple(
                bits for bits in iter_product((0, 1), repeat=levels)
                if abs(phi(bits, levels) - target) <= tol
            )
            assert phi_preimage(target, levels) == expected
            assert expected  # never empty on [0, 1]


def test_best_preimage_prefers_exact_hits():
    assert best_phi_preimage(Fraction(1, 3), 4) == (1, 0, 0, 0)
    assert best_phi_preimage(Fraction(1), 5) == (1, 1, 1, 1, 1)
    assert best_phi_preimage(Fraction(0), 5) == (0, 0, 0, 0, 0)


def test_support_counts_examples():
    x = BinaryArray(((0, 0), (1, 0), (2, 2)))
    assert support_counts(x) == {0: 2, 2: 1}
    assert support_counts(BinaryArray()) == {}
    assert support_counts(BinaryArray(((0, 0), (1, 0), (2, 0))))[0] == 3
    # a bool level read as 0 or 1 and encoded as "False" or "True"
    for bits in [((0, True), (1, 1)), ((0, False),)]:
        with pytest.raises(ValueError, match="levels are non-negative integers"):
            BinaryArray(bits)


def test_in_L0_boundary():
    three = BinaryArray(((0, 0), (1, 0), (2, 0)))
    cert = in_L0(three)
    assert cert.member and cert.total == 1
    four = BinaryArray(((0, 0), (1, 0), (2, 0), (3, 0)))
    cert = in_L0(four)
    assert not cert.member and cert.total == Fraction(4, 3)
    assert in_L0(BinaryArray()).member


bits_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 6)), max_size=12
).map(lambda bits: BinaryArray(tuple(bits)))


@given(bits_strategy)
def test_in_L0_downward_closed(array):
    cert = in_L0(array)
    if cert.member:
        for bit in array.bits:
            assert in_L0(array.without(bit)).member


@given(bits_strategy)
def test_L0_members_respect_level_bounds(array):
    # r_n * N_n <= 1 forces N_n <= floor(1/r_n)
    if in_L0(array).member:
        counts = support_counts(array)
        if counts:
            table = level_bounds(max(counts) + 1)
            for n, c in counts.items():
                assert c <= table.m[n]


def test_pipeline_zero_point():
    report = pipeline_check([SignedVector()], 8)
    point = report.points[0]
    assert point.bits == BinaryArray()
    assert point.strict_l0 and point.within_tolerance
    assert point.l0_total == 0


def test_pipeline_one_third_point():
    vec = SignedVector.from_dict({7: Fraction(1, 3)})
    report = pipeline_check([vec], 8)
    point = report.points[0]
    assert point.bits == BinaryArray(((7, 0),))
    assert point.l0_total == Fraction(1, 3)
    assert point.strict_l0


def test_pipeline_full_coordinate_boundary():
    vec = SignedVector.from_dict({2: 1})
    levels = 10
    report = pipeline_check([vec], levels)
    point = report.points[0]
    assert point.bits == BinaryArray(tuple((2, n) for n in range(levels)))
    assert point.l0_total == weight_partial_sum(levels) <= 1
    assert point.strict_l0 and point.bounds_ok


def test_pipeline_composes_with_the_positive_split():
    x = SignedVector.from_dict({0: Fraction(1, 3), 1: Fraction(-1, 4)})
    report = pipeline_check([embed_u(x)], 10)
    assert report.ok
    point = report.points[0]
    assert point.vector.support() == ((0, "a"), (1, "b"))


def test_pipeline_rejects_points_outside_positive_ball():
    with pytest.raises(ValueError):
        pipeline_check([SignedVector.from_dict({0: Fraction(-1, 2)})], 6)
    with pytest.raises(ValueError):
        pipeline_check([SignedVector.from_dict({0: 1, 1: 1})], 6)


def test_pipeline_stage_log_documents_the_chain():
    report = pipeline_check([SignedVector()], 5)
    stages = [s["stage"] for s in report.stages]
    assert stages == ["union-maps", "product", "restriction", "level-decoding"]
    assert report.stages[0]["bounds"] == [3, 4, 6, 10, 15]


# ---------------------------------------------------------------------------
# the scaled-integer search against the rational search it replaced


def fraction_preimage_search(target, levels, stop=None):
    """The rational depth-first search: (solutions, visited nodes).  With
    ``stop`` the nodes at that depth are tested but not expanded, and the
    solutions are the prefixes that pass."""
    tol = truncation_tail(levels)
    stop = levels if stop is None else stop
    solutions = []
    visited = 0
    stack = [(0, Fraction(0), ())]
    while stack:
        n, acc, bits = stack.pop()
        visited += 1
        remaining = truncation_tail(n) - tol if n < levels else Fraction(0)
        if acc - target > tol or target - acc - remaining > tol:
            continue
        if n == stop:
            solutions.append(bits)
            continue
        stack.append((n + 1, acc + level_weight(n), bits + (1,)))
        stack.append((n + 1, acc, bits + (0,)))
    return tuple(solutions), visited


def split_charge(target, levels, listed=0):
    """What one split search below 64 levels charges: its 2^t tail table
    entries, the nodes the rational search visits down to the head depth
    levels - t (one unit each), and the solutions it lists."""
    t = min(levels // 2, _MAX_TAIL_LEVELS)
    return 2 ** t + fraction_preimage_search(target, levels, stop=levels - t)[1] + listed


def weight_table_charge(levels):
    """What ``level_bounds`` charges: an upper bound on the digits of its r column."""
    return math.ceil((math.log10(2) * (levels - 1) + math.log10(3) * (levels + 1))
                     * levels / 2) + 2 * levels


def exhaustive_best(target, levels):
    """Minimum over all 2^levels vectors by (|error|, bits)."""
    values = [Fraction(0)]
    for n in range(levels):
        w = level_weight(n)
        values = [v + bit * w for v in values for bit in (0, 1)]
    # values are in lexicographic bit order, so the first minimum wins ties
    errors = [abs(v - target) for v in values]
    index = errors.index(min(errors))
    return tuple(int(b) for b in format(index, f"0{levels}b"))


def seeded_targets(levels, count, seed=7):
    rng = random.Random(seed * 100 + levels)
    return [Fraction(rng.randint(0, den), den)
            for den in (rng.randint(1, 60) for _ in range(count))]


def oracle_values(solutions, levels):
    """(phi(bits), bits) for each of the rational search's ``solutions``."""
    weights = [level_weight(n) for n in range(levels)]
    return [(sum(w for w, bit in zip(weights, bits) if bit), bits) for bits in solutions]


def halfway_target(target, levels):
    """The midpoint of two consecutive phi values within (2/3)^levels of
    ``target``: no phi value lies between them, so it is a halfway tie."""
    solutions, _visited = fraction_preimage_search(target, levels)
    values = sorted(value for value, _bits in oracle_values(solutions, levels))
    return (values[0] + values[1]) / 2 if len(values) > 1 else None


def oracle_best(target, levels, solutions):
    """The least (|error|, bits) among the rational search's ``solutions``."""
    return min((abs(value - target), bits) for value, bits in oracle_values(solutions, levels))[1]


def test_preimage_search_matches_the_rational_search():
    for levels in range(1, 21):
        seeded = seeded_targets(levels, 6 if levels <= 12 else 3)
        targets = seeded + [Fraction(0), Fraction(1)]
        ties = (halfway_target(target, levels) for target in seeded[:3])
        targets += [tie for tie in ties if tie is not None]
        for index, target in enumerate(targets):
            expected, _visited = fraction_preimage_search(target, levels)
            assert phi_preimage(target, levels) == expected
            for limit in (0, 1, 3, len(expected) + 2):
                assert phi_preimage_head(target, levels, limit) == (len(expected),
                                                                    expected[:limit])
            # the exhaustive minimum for every seeded target up to L = 16 and
            # every target up to L = 10; the oracle's solutions elsewhere
            exhaustive = levels <= 10 or (levels <= 16 and index < len(seeded))
            best = (exhaustive_best(target, levels) if exhaustive
                    else oracle_best(target, levels, expected))
            assert best_phi_preimage(target, levels) == best
            assert _best_preimage(target, levels, 10 ** 9)[1] == phi(best, levels) - target


def test_best_preimage_breaks_halfway_ties_lexicographically():
    # 1/6 lies halfway between phi((0,)) = 0 and phi((1,)) = 1/3
    assert best_phi_preimage(Fraction(1, 6), 1) == (0,)
    # 5/18 lies halfway between phi((0, 1)) = 2/9 and phi((1, 0)) = 1/3
    assert best_phi_preimage(Fraction(5, 18), 2) == (0, 1)
    assert exhaustive_best(Fraction(5, 18), 2) == (0, 1)
    for levels in (3, 8, 11, 16):
        for target in seeded_targets(levels, 4, seed=13):
            tie = halfway_target(target, levels)
            if tie is not None:
                solutions, _visited = fraction_preimage_search(tie, levels)
                assert best_phi_preimage(tie, levels) == oracle_best(tie, levels, solutions)


def test_preimage_search_charges_the_same_nodes():
    # the table's 2^t entries, the head nodes, then each listed solution
    for levels in (1, 4, 9, 13):
        for target in seeded_targets(levels, 4, seed=11):
            expected, _visited = fraction_preimage_search(target, levels)
            listing = split_charge(target, levels, len(expected))
            search = split_charge(target, levels)
            assert phi_preimage(target, levels, budget=listing) == expected
            assert best_phi_preimage(target, levels, budget=search) in expected
            for fn, charge in ((phi_preimage, listing), (best_phi_preimage, search)):
                with pytest.raises(BudgetExceeded) as info:
                    fn(target, levels, budget=charge - 1)
                assert info.value.needed == charge


def test_preimage_head_counts_all_and_keeps_the_first():
    for levels in (1, 6, 12):
        for target in seeded_targets(levels, 4, seed=5):
            expected, _visited = fraction_preimage_search(target, levels)
            for limit in (0, 1, 3, len(expected) + 2):
                charge = split_charge(target, levels, min(limit, len(expected)))
                count, first = phi_preimage_head(target, levels, limit, budget=charge)
                assert count == len(expected) and first == expected[:limit]
                with pytest.raises(BudgetExceeded) as info:
                    phi_preimage_head(target, levels, limit, budget=charge - 1)
                assert info.value.needed == charge
    with pytest.raises(ValueError, match="limit must be non-negative"):
        phi_preimage_head(Fraction(1, 2), 4, -1)


def test_a_request_charges_the_same_with_a_cold_or_warm_table():
    point = SignedVector.from_dict({0: Fraction(1, 3), 1: Fraction(2, 7)})
    runs = (lambda b: phi_preimage_head(Fraction(5, 11), 14, 20, b),
            lambda b: pipeline_check([point], 12, b))
    for run in runs:
        _tail_table.cache_clear()
        cold, warm = Budget(10 ** 6), Budget(10 ** 6)
        run(cold)
        assert _tail_table.cache_info().misses == 1  # the table was built here
        run(warm)
        assert _tail_table.cache_info().misses == 1
        assert cold.spent == warm.spent > 0


def test_tail_table_is_sorted_by_sum_with_distinct_sums():
    for t in range(9):
        sums, tails = _tail_table(t)
        assert sorted(tails) == list(range(2 ** t))
        assert list(sums) == sorted(set(sums))
        for s, c in zip(sums, tails):
            bits = format(c, f"0{t}b") if t else ""
            assert s == sum(2 ** m * 3 ** (t - 1 - m) for m, b in enumerate(bits) if b == "1")


def test_preimage_rejects_levels_below_one():
    for levels in (0, -1):
        for search in (phi_preimage, best_phi_preimage):
            with pytest.raises(ValueError, match="need at least one level"):
                search(Fraction(1, 2), levels)


def test_pipeline_errors_are_exact():
    rng = random.Random(3)
    for levels in (1, 5, 9):
        points = [SignedVector.from_dict({label: Fraction(rng.randint(0, 4), 16)
                                          for label in range(rng.randint(1, 4))})
                  for _ in range(5)]
        for point in pipeline_check(points, levels).points:
            for _label, value, bits, err in point.per_coordinate:
                assert err == phi(bits, levels) - value
                assert bits == best_phi_preimage(value, levels)


def test_pipeline_charges_one_budget_for_the_run():
    levels = 8
    values = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    costs = [split_charge(v, levels) for v in values]
    # the weight table and the search of every coordinate share one total
    total = weight_table_charge(levels) + sum(costs)
    point = SignedVector.from_dict(dict(enumerate(values)))
    pipeline_check([point], levels, budget=total)
    with pytest.raises(BudgetExceeded) as info:
        pipeline_check([point], levels, budget=total - 1)
    assert info.value.needed == total
    # the budget runs across points too, not per point
    singles = [SignedVector.from_dict({0: v}) for v in values]
    pipeline_check(singles, levels, budget=total)
    assert costs[0] == max(costs)
    with pytest.raises(BudgetExceeded) as info:
        pipeline_check(singles, levels, budget=weight_table_charge(levels) + costs[0])
    # the second point runs out at its first charge, the 2^4 table entries
    assert info.value.needed == weight_table_charge(levels) + costs[0] + 2 ** 4


# ---------------------------------------------------------------------------
# the integer level sums against the Fraction sums they replaced


def fraction_phi(bits, levels):
    """phi as one Fraction(2, 3) ** n weight per set bit among the first ``levels``."""
    return sum((Fraction(1, 3) * Fraction(2, 3) ** n
                for n, bit in enumerate(bits[:levels]) if bit), Fraction(0))


def fraction_certificate(counts):
    """``(member, total)`` of level counts, summed one Fraction at a time."""
    total = sum((Fraction(1, 3) * Fraction(2, 3) ** n * c for n, c in counts.items()),
                Fraction(0))
    return total <= 1, total


def test_phi_matches_the_rational_sum():
    rng = random.Random(23)
    for levels in range(1, 201):
        for length in (levels, rng.randint(0, levels + 3)):
            bits = tuple(rng.randint(0, 1) for _ in range(length))
            assert phi(bits, levels) == fraction_phi(bits, levels)
        assert phi((0,) * levels, levels) == 0
        assert phi((1,) * levels, levels) == fraction_phi((1,) * levels, levels)


def test_phi_charges_the_digits_of_its_set_levels():
    bits = (1, 0, 1, 1, 0, 0, 1)
    needed = sum(weight_digits(n) for n in (0, 2, 3, 6))
    budget = Budget(needed)
    assert phi(bits, 7, budget) == fraction_phi(bits, 7) and budget.spent == needed
    with pytest.raises(BudgetExceeded) as info:
        phi(bits, 7, needed - 1)
    assert info.value.needed == needed
    # bits past the level count are neither read nor charged
    assert phi(bits, 2, weight_digits(0)) == Fraction(1, 3)


def test_in_L0_matches_the_rational_certificate():
    rng = random.Random(29)
    members = set()
    for _ in range(80):
        low = [rng.randint(0, 3) for _ in range(rng.randint(0, 9))]
        high = rng.sample(range(5001), rng.randint(0, 4))
        array = BinaryArray(tuple((rng.randrange(6), n) for n in low + high))
        counts = support_counts(array)
        cert = in_L0(array, 10 ** 9)
        assert (cert.member, cert.total) == fraction_certificate(counts)
        assert cert.counts == counts
        members.add(cert.member)
    assert members == {True, False}
    # exactly 1, then one bit past it at level 5000
    three = ((0, 0), (1, 0), (2, 0))
    assert in_L0(BinaryArray(three), 10 ** 9).member
    assert not in_L0(BinaryArray(three + ((0, 5000),)), 10 ** 9).member


def test_pipeline_certificate_matches_the_rational_one():
    rng = random.Random(31)
    seen = set()
    for levels in (1, 2, 3, 5, 9, 14):
        points = [{label: Fraction(1, 4) for label in range(4)},
                  {0: Fraction(1, 2), 1: Fraction(1, 2)}, {0: 1}]
        for _ in range(6):
            size = rng.randint(1, 4)
            points.append({label: Fraction(rng.randint(0, 12), 12 * size)
                           for label in range(size)})
        bound = [math.floor(1 / (Fraction(1, 3) * Fraction(2, 3) ** n)) for n in range(levels)]
        for w in pipeline_check(points, levels).points:
            counts = {}
            for _label, _value, bits, _err in w.per_coordinate:
                for n, bit in enumerate(bits):
                    counts[n] = counts.get(n, 0) + bit
            strict, total = fraction_certificate(counts)
            slack = Fraction(2, 3) ** levels * len(w.vector.coords)
            assert (w.l0_total, w.strict_l0) == (total, strict)
            assert w.within_tolerance == (total <= 1 + slack)
            assert w.bounds_ok == all(counts.get(n, 0) <= bound[n] for n in range(levels))
            assert w.level_counts == {n: c for n, c in counts.items() if c}
            seen.add((w.strict_l0, w.within_tolerance, w.bounds_ok))
    # every outcome of the three checks that can occur does occur
    assert {(True, True, True), (False, True, True), (False, True, False)} <= seen
    # a total of exactly 1 is strictly inside; eight coordinates of 1/8 at two
    # levels overshoot the slack of one coordinate but not that of eight
    exact = pipeline_check([{label: Fraction(1, 3) for label in range(3)}], 4).points[0]
    assert exact.l0_total == 1 and exact.strict_l0
    eighths = pipeline_check([{label: Fraction(1, 8) for label in range(8)}], 2).points[0]
    assert 1 + Fraction(4, 9) < eighths.l0_total == Fraction(16, 9)
    assert eighths.within_tolerance and not eighths.bounds_ok


def test_level_bounds_charges_the_float_digit_bound_or_more():
    for levels in range(1, 5001):
        with pytest.raises(BudgetExceeded) as info:
            level_bounds(levels, 1)  # charged before any weight is built
        if levels <= 75:
            assert info.value.needed == weight_table_charge(levels)
        else:
            assert info.value.needed >= weight_table_charge(levels)
    # the closed form is the sum of the rounded-up logarithms, rounded up once
    for levels in (1, 2, 76, 300, 5000):
        exact = sum(n * Fraction(30103, 10 ** 5) + (n + 1) * Fraction(47713, 10 ** 5) + 2
                    for n in range(levels))
        with pytest.raises(BudgetExceeded) as info:
            level_bounds(levels, 1)
        assert info.value.needed == math.ceil(exact)


def test_head_nodes_cost_more_units_from_64_levels():
    # a head node works on ints of about 1.6·levels bits: 1 + levels // 64
    # units; the levels - t + 1 nodes of one root-to-leaf path are charged
    # before the search, so past 1000 levels they alone exceed the room
    room = 1000
    for levels in (63, 64, 127, 128, 1000, 100000):
        unit = 1 + levels // 64
        t = min(levels // 2, _MAX_TAIL_LEVELS)
        with pytest.raises(BudgetExceeded) as info:
            best_phi_preimage(Fraction(1, 2), levels, budget=2 ** t + room)
        assert info.value.needed == 2 ** t + unit * max(levels - t + 1, room // unit + 1)
