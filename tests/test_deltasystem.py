import math
import random
import time
from itertools import combinations

import pytest

from sigmaprod.cli import dispatch
from sigmaprod.deltasystem import (
    EXACT_SEARCH_LIMIT,
    DeltaSystem,
    ExtractionResult,
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


def pairwise_is_delta_system(sets) -> tuple:
    """Oracle: the definition, one common intersection over every pair."""
    sets = list(sets)
    if len(sets) < 2:
        return True, EMPTY
    if len({len(s) for s in sets}) != 1:
        return False, None
    root = sets[0] & sets[1]
    for a, b in combinations(sets, 2):
        if (a & b) != root:
            return False, None
    return True, root


def list_max_disjoint(cands) -> tuple:
    """Oracle: branch and bound testing each petal against the list of the
    chosen petals; ``(labels, nodes)``."""
    best: list = []
    nodes = 0

    def extend(idx, chosen_petals, chosen_labels):
        nonlocal best, nodes
        nodes += 1
        if len(chosen_labels) + (len(cands) - idx) <= len(best):
            return
        if idx == len(cands):
            if len(chosen_labels) > len(best):
                best = list(chosen_labels)
            return
        label, petal = cands[idx]
        if all(petal.isdisjoint(p) for p in chosen_petals):
            chosen_petals.append(petal)
            chosen_labels.append(label)
            extend(idx + 1, chosen_petals, chosen_labels)
            chosen_petals.pop()
            chosen_labels.pop()
        extend(idx + 1, chosen_petals, chosen_labels)

    extend(0, [], [])
    return best, nodes


def list_exact(members) -> tuple:
    """Oracle: ``((count, root, labels, size), nodes)`` of the exact search
    over every cardinality class and every pairwise root."""
    if members:
        first_label, first_set = members[0]
        best = (1, EMPTY, (first_label,), len(first_set))
    else:
        best = (0, EMPTY, (), 0)
    total = 0
    by_size: dict = {}
    for label, s in members:
        by_size.setdefault(len(s), []).append((label, s))
    for size in sorted(by_size):
        group = by_size[size]
        roots = []
        for (_l1, a), (_l2, b) in combinations(group, 2):
            if a & b not in roots:
                roots.append(a & b)
        for root in roots:
            cands = [(label, s - root) for label, s in group if root.issubset(s)]
            labels, nodes = list_max_disjoint(cands)
            total += nodes
            if len(labels) > best[0]:
                best = (len(labels), root, tuple(labels), size)
    return best, total


def petals_list_greedy(cands, petal_size) -> tuple:
    """Oracle: the recursive root-bucketing greedy over a list of petals, and
    the units it reads: the total size of the sets at each level, once per
    pass (the disjoint scan, and above the last level the frequency count and
    the filter)."""
    units = sum(len(s) for _label, s in cands)
    chosen: list = []
    petals: list = []
    for label, s in cands:
        if all(s.isdisjoint(p) for p in petals):
            petals.append(s)
            chosen.append(label)
    best = (len(chosen), EMPTY, tuple(chosen))
    if petal_size == 0:
        return best, units
    freq: dict = {}
    for _label, s in cands:
        for el in s:
            freq[el] = freq.get(el, 0) + 1
    el = min(freq, key=lambda e: (-freq[e], repr(e)))
    sub = [(label, s - Point.of(el)) for label, s in cands if el in s]
    (count, root, labels), below = petals_list_greedy(sub, petal_size - 1)
    if count > best[0]:
        best = (count, root | Point.of(el), labels)
    return best, 3 * units + below


def oracle_extract(family, p) -> tuple:
    """``(result, units)`` as ``extract_delta_system`` answers and charges,
    from the oracles: exact-search nodes, or the sets each greedy level reads."""
    members = list(family.members)
    nodes = 0
    if len(members) <= EXACT_SEARCH_LIMIT:
        (count, root, labels, size), nodes = list_exact(members)
        method = "exact"
    else:
        by_size: dict = {}
        for label, s in members:
            by_size.setdefault(len(s), []).append((label, s))
        count, root, labels, size = 0, EMPTY, (), 0
        for sz in sorted(by_size):
            (c, r, ls), units = petals_list_greedy(by_size[sz], sz)
            nodes += units
            if c > count:
                count, root, labels, size = c, r, ls, sz
        method = "greedy"
    if count >= p:
        petals = [family.get(label) for label in labels]
        assert pairwise_is_delta_system(petals) == (True, root)
        return ExtractionResult(DeltaSystem(root, labels, size), count, method), nodes
    return ExtractionResult(None, count, method), nodes


def brute_force_max_petals(family):
    """Oracle: check every subfamily of size at least 2 against the definition."""
    best = min(len(family), 1)
    members = list(family.members)
    for size in range(2, len(members) + 1):
        for combo in combinations(members, size):
            ok, _root = pairwise_is_delta_system([s for _l, s in combo])
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
            ok, root = pairwise_is_delta_system(petals)
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
    # and the other way round: 2's own set holds the picked 1, 4's the picked 3
    constraints = {lab: Point.of(lab - 1) for lab in range(1, 11)}
    assert free_transversal(constraints, 3).labels == (1, 3, 5)


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
    # the greedy fallback beyond the exact limit charges the sets each level
    # reads, once per pass: the 30 pairs three times, then three times {100}
    # left of the one pair holding 0, then {} once
    wide = fam(*((i, 100 + i) for i in range(30)))
    budget = Budget(183)
    assert extract_delta_system(wide, 2, budget).method == "greedy"
    assert budget.spent == 3 * 60 + 3 * 1
    with pytest.raises(BudgetExceeded) as info:
        extract_delta_system(wide, 2, 182)
    assert info.value.needed == 183


def seeded_family(rng, n_members):
    """Random sets over a small universe, some replaced by a planted system of
    short petals around a root of negative elements."""
    universe = rng.randint(3, 40)
    sizes = rng.sample(range(5), rng.randint(1, 3))
    sets = [rng.sample(range(universe), min(rng.choice(sizes), universe))
            for _ in range(n_members)]
    root = list(range(-rng.randint(0, 3), 0))
    fresh = universe
    for i in rng.sample(range(n_members), min(n_members, rng.randint(0, 8))):
        sets[i] = root + list(range(fresh, fresh + rng.randint(0, 2)))
        fresh += len(sets[i]) - len(root)
    labels = rng.sample(range(10 * n_members), n_members)
    return fam(*sets, labels=labels)


def test_predicate_matches_the_pairwise_definition():
    rng = random.Random(21)
    for _ in range(400):
        root = rng.sample(range(5), rng.randint(0, 2))
        universe = rng.randint(1, 30)
        sizes = rng.sample(range(4), rng.choice((1, 1, 1, 2)))
        sets = [Point(root + rng.sample(range(5, 5 + universe), min(rng.choice(sizes), universe)))
                for _ in range(rng.randint(0, 8))]
        if len(sets) > 2 and root and rng.random() < 0.25:
            # the same size, but without the root's first element
            sets[-1] = Point([e for e in sets[-1] if e != root[0]] + [99])
        assert is_delta_system(sets) == pairwise_is_delta_system(sets), sets


def dense_family(rng, n_members):
    """Many 2- and 3-sets over a few elements: the greedy goes below its first
    level, and ties in element frequency pick its root."""
    universe = rng.randint(6, 14)
    return fam(*(rng.sample(range(universe), rng.randint(2, 3)) for _ in range(n_members)))


def test_extraction_matches_the_list_searches():
    # same answer, order of labels, root and charge (exact-search nodes, or
    # the sets each greedy level reads) as the petals-list searches, on both
    # sides of the exact limit
    rng = random.Random(22)
    for trial in range(240):
        if trial % 3 == 0:
            family = seeded_family(rng, rng.randint(2, EXACT_SEARCH_LIMIT))
        elif trial % 3 == 1:
            family = seeded_family(rng, rng.randint(EXACT_SEARCH_LIMIT + 1, 400))
        else:
            family = dense_family(rng, rng.randint(EXACT_SEARCH_LIMIT + 1, 400))
        p = rng.randint(2, 6)
        expected, nodes = oracle_extract(family, p)
        budget = Budget(10 ** 9)
        assert extract_delta_system(family, p, budget) == expected
        assert budget.spent == nodes


def test_greedy_finishes_on_many_disjoint_singletons(tmp_path):
    # 4,000 members used to take 10.7 s: every petal was tested against every
    # petal chosen before it, and so was the final predicate
    family = tmp_path / "family.txt"
    family.write_text("".join(f"{i}: {{{i}}}\n" for i in range(4000)))
    started = time.monotonic()
    code, payload = dispatch(["ds", "extract", "--family", str(family), "--petals", "2"])
    assert time.monotonic() - started < 1
    assert code == 0 and payload["method"] == "greedy" and payload["max_petals"] == 4000
    assert payload["root"] == []


def test_greedy_root_can_be_deeper_than_the_recursion_limit():
    # the greedy used to recurse once per root element, so a root of 1,050
    # elements ended in an "internal" RecursionError
    core = tuple(range(1050))
    family = fam(*(core + (2000 + i,) for i in range(EXACT_SEARCH_LIMIT + 1)))
    # its passes read about 21 * 1051**2 / 2 elements, past the default budget
    result = extract_delta_system(family, 2, 10 ** 8)
    assert result.method == "greedy" and result.max_petals == EXACT_SEARCH_LIMIT + 1
    assert result.system.root == Point(core)
