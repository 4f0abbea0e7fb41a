import math
import random
from itertools import combinations

import pytest

from sigmaprod.deltasystem import (
    NeighborhoodSpec,
    SetFamily,
    common_point_witness,
    extract_delta_system,
    free_transversal,
    is_delta_system,
    neighborhood_emptiness_bound,
)
from sigmaprod.ground import EMPTY, Budget, BudgetExceeded, Point


def fam(*sets, labels=None):
    labels = labels or list(range(len(sets)))
    return SetFamily.from_pairs((lab, Point(s)) for lab, s in zip(labels, sets))


def brute_force_max_petals(family):
    """Oracle: check every subfamily of size at least 2 against the predicate."""
    best = min(len(family), 1)
    members = list(family.members)
    for size in range(2, len(members) + 1):
        for combo in combinations(members, size):
            ok, _root = is_delta_system([s for _l, s in combo])
            if ok:
                best = max(best, size)
    return best


def test_predicate():
    ok, root = is_delta_system([Point.of(1, 2), Point.of(1, 3), Point.of(1, 4)])
    assert ok and root == Point.of(1)
    ok, root = is_delta_system([Point.of(1, 2), Point.of(3, 4)])
    assert ok and root == EMPTY
    ok, _ = is_delta_system([Point.of(1, 2), Point.of(2, 3), Point.of(1, 3)])
    assert not ok
    ok, _ = is_delta_system([Point.of(1), Point.of(1, 2), Point.of(1, 3)])
    assert not ok  # unequal cardinalities


def test_extract_common_element():
    result = extract_delta_system(fam((1, 2), (1, 3), (1, 4)), 3)
    assert result.ok and result.max_petals == 3
    assert result.system.root == Point.of(1)
    assert result.system.petal_size == 2


def test_extract_disjoint_family():
    result = extract_delta_system(fam((1, 2), (3, 4), (5, 6)), 3)
    assert result.ok and result.system.root == EMPTY


def test_extract_nine_two_sets_always_succeed():
    # threshold oracle: 2! * (3-1)^2 = 8, so any 9 distinct pairs suffice
    assert 2 * 2 ** 2 == 8 < 9
    rng = random.Random(5)
    for _ in range(30):
        pairs = set()
        while len(pairs) < 9:
            pairs.add(tuple(sorted(rng.sample(range(8), 2))))
        result = extract_delta_system(fam(*sorted(pairs)), 3)
        assert result.ok and result.max_petals >= 3


def test_extract_requires_two_petals():
    with pytest.raises(ValueError):
        extract_delta_system(fam((1, 2)), 1)


def test_extract_failure_certificate():
    # chain of overlapping pairs: max delta-subsystem has 2 petals
    result = extract_delta_system(fam((1, 2), (2, 3), (1, 3)), 3)
    assert not result.ok
    assert result.max_petals == 2


def test_exact_matches_brute_force():
    rng = random.Random(6)
    for trial in range(25):
        n_members = rng.randint(2, 9)
        sets = [tuple(rng.sample(range(7), rng.randint(0, 3))) for _ in range(n_members)]
        family = fam(*sets)
        result = extract_delta_system(family, 2)
        assert result.method == "exact"
        assert result.max_petals == brute_force_max_petals(family)
        if result.ok:
            petals = [family.get(lab) for lab in result.system.petal_labels]
            ok, root = is_delta_system(petals)
            assert ok and root == result.system.root


def test_greedy_path_on_large_families():
    rng = random.Random(7)
    pairs = set()
    while len(pairs) < 30:
        pairs.add(tuple(sorted(rng.sample(range(12), 2))))
    result = extract_delta_system(fam(*sorted(pairs)), 3)
    assert result.method == "greedy"
    assert result.ok and result.max_petals >= 3


def test_threshold_guarantees_success():
    # classical bound: more than s! * (p-1)^s distinct s-sets always contain a
    # p-petal system; exercised through both the exact and the greedy path
    rng = random.Random(12)
    cases = [(2, 3), (2, 4), (3, 3), (3, 4)]
    for s, p in cases:
        threshold = math.factorial(s) * (p - 1) ** s
        universe = max(3 * s * p, 12)
        for _ in range(125):
            sets = set()
            while len(sets) <= threshold:
                sets.add(tuple(sorted(rng.sample(range(universe), s))))
            result = extract_delta_system(fam(*sorted(sets)), p)
            assert result.ok and result.max_petals >= p, (s, p)


def test_free_transversal_no_constraints():
    constraints = {lab: EMPTY for lab in range(1, 11)}
    result = free_transversal(constraints, 3)
    assert result.labels == (1, 2, 3)


def test_free_transversal_successor_constraints():
    # greedy simulation oracle: 1 is taken, 2 is excluded by G_1, 3 is taken,
    # 4 excluded by G_3, 5 taken
    constraints = {lab: Point.of(lab + 1) for lab in range(1, 11)}
    result = free_transversal(constraints, 3)
    assert result.labels == (1, 3, 5)


def test_free_transversal_exhaustion():
    constraints = {1: EMPTY, 2: EMPTY}
    result = free_transversal(constraints, 3)
    assert not result.ok and result.blocked_at == 2


def test_free_transversal_respects_root():
    constraints = {lab: EMPTY for lab in range(1, 6)}
    result = free_transversal(constraints, 3, forbidden_root=Point.of(1, 2))
    assert result.labels == (3, 4, 5)


def empty_spec(k, g_labels, h_labels):
    blank = tuple(EMPTY for _ in range(k + 1))
    return NeighborhoodSpec(
        k,
        tuple((lab, blank) for lab in g_labels),
        tuple((lab, blank) for lab in h_labels),
    )


def test_witness_all_empty_constraints():
    spec = empty_spec(1, g_labels=range(100, 104), h_labels=range(4))
    result = common_point_witness(spec, 1, 1)
    assert result.ok
    assert result.lambda0 == 100          # first unexcluded side-one label
    assert result.s_labels == result.m_labels == (0, 1, 2, 3)
    assert all(nonempty and witnessed for _f, nonempty, witnessed in result.checks)


def test_witness_with_successor_exclusions():
    k = 1
    side_h = []
    for mu in range(6):
        side_h.append((mu, (EMPTY, Point.of(mu + 1))))
    spec = NeighborhoodSpec(
        k,
        tuple((lab, (EMPTY, EMPTY)) for lab in range(100, 103)),
        tuple(side_h),
    )
    result = common_point_witness(spec, 1, 1)
    assert result.ok
    # the selected labels never exclude one another
    for mu in result.s_labels:
        for mu2 in result.s_labels:
            assert mu2 != mu + 1


def test_witness_exhaustion_certificate():
    spec = empty_spec(1, g_labels=[50], h_labels=[0, 1])
    result = common_point_witness(spec, 2, 1)   # needs n+1 = 3 labels
    assert not result.ok
    assert result.failed_stage == "s-size"


def test_witness_with_fewer_than_two_side_two_labels():
    # no delta-system to extract: the one label is used as it is, under an empty root
    budget = Budget(10 ** 6)
    result = common_point_witness(empty_spec(1, g_labels=[100], h_labels=[7]), 0, 1, budget)
    assert result.ok and result.root == EMPTY
    assert result.m_labels == result.s_labels == (7,)
    assert [f for f, _nonempty, _witnessed in result.checks] == [(7,)]
    assert budget.spent == 1  # the one 1-subset, and no petal search
    result = common_point_witness(empty_spec(1, g_labels=[100], h_labels=[]), 0, 1)
    assert not result.ok and result.failed_stage == "thinning"
    assert result.root == EMPTY and result.m_labels == ()


def test_witness_validates_spec_shape():
    with pytest.raises(ValueError):
        NeighborhoodSpec(1, ((0, (Point.of(0), EMPTY)),), ())
    with pytest.raises(ValueError):
        NeighborhoodSpec(1, ((0, (EMPTY,)),), ())


def test_emptiness_bound_examples():
    singles = {1: Point.of(10), 2: Point.of(11)}
    cert = neighborhood_emptiness_bound(singles, 1)
    assert cert.forced_empty and cert.total_min == 2
    cert = neighborhood_emptiness_bound(singles, 2)
    assert not cert.forced_empty   # |F| = n gives no contradiction
    doubles = {1: Point.of(10, 11), 2: Point.of(12, 13)}
    cert = neighborhood_emptiness_bound(doubles, 3)
    assert cert.forced_empty and cert.total_min == 4
    with pytest.raises(ValueError):
        neighborhood_emptiness_bound({1: Point.of(0), 2: Point.of(0)}, 1)
    with pytest.raises(ValueError):
        neighborhood_emptiness_bound({1: EMPTY}, 1)


def test_exact_extraction_charges_its_search_nodes():
    family = fam((1, 2), (1, 3), (1, 4), (2, 5), (6, 7))
    budget = Budget(10 ** 6)
    expected = extract_delta_system(family, 2)
    assert extract_delta_system(family, 2, budget) == expected
    spent = budget.spent
    assert spent > 0
    assert extract_delta_system(family, 2, spent) == expected
    with pytest.raises(BudgetExceeded) as info:
        extract_delta_system(family, 2, spent - 1)
    assert info.value.needed == spent
    # the greedy fallback beyond the exact limit charges nothing
    wide = fam(*((i, 100 + i) for i in range(30)))
    budget = Budget(1)
    assert extract_delta_system(wide, 2, budget).method == "greedy"
    assert budget.spent == 0
