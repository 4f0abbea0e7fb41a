"""Delta-system extraction and the constructive neighborhood combinatorics.

A delta-system here is a family of equal-size finite sets whose pairwise
intersections all coincide (the root).  Uncountability hypotheses are
replaced by explicit finite thresholds: extraction is exact up to a size
limit and falls back to the classical greedy root-bucketing argument beyond,
always reporting the best petal count found.  Tie-breaking follows family
order everywhere, so every construction is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .ground import (
    DEFAULT_BUDGET,
    EMPTY,
    Budget,
    Point,
    ProductDescriptor,
    ProductPoint,
)
from .clopen import BasicBox, box_contains, box_is_empty

EXACT_SEARCH_LIMIT = 20


@dataclass(frozen=True)
class SetFamily:
    """Finitely many labeled finite sets; labels distinct, order significant."""

    members: tuple = ()

    def __post_init__(self):
        labels = [label for label, _s in self.members]
        if len(labels) != len(set(labels)):
            raise ValueError("family labels must be distinct")
        object.__setattr__(
            self, "members", tuple((label, s) for label, s in self.members)
        )

    @classmethod
    def from_pairs(cls, pairs) -> "SetFamily":
        return cls(tuple(pairs))

    def get(self, label) -> Point:
        for lab, s in self.members:
            if lab == label:
                return s
        raise KeyError(label)

    def labels(self) -> tuple:
        return tuple(label for label, _s in self.members)

    def __len__(self):
        return len(self.members)


def is_delta_system(sets) -> tuple:
    """Check the predicate; returns (ok, root).

    Equal cardinality throughout and one common pairwise intersection: every
    set holds ``root = sets[0] & sets[1]``, and no element outside the root
    lies in two sets, which one count of the elements outside the root shows.
    Families with fewer than two members qualify trivially (empty root).
    """
    sets = list(sets)
    if len(sets) < 2:
        return True, EMPTY
    if len({len(s) for s in sets}) != 1:
        return False, None
    root = sets[0] & sets[1]
    in_root = set(root)
    outside = [e for s in sets for e in s if e not in in_root]
    if len(outside) == len(sets) * (len(sets[0]) - len(root)) == len(set(outside)):
        return True, root
    return False, None


@dataclass(frozen=True)
class DeltaSystem:
    root: Point
    petal_labels: tuple
    petal_size: int


@dataclass(frozen=True)
class ExtractionResult:
    system: DeltaSystem | None
    max_petals: int
    method: str

    @property
    def ok(self) -> bool:
        return self.system is not None


def _max_disjoint(petals) -> tuple:
    """``(indices, nodes)``: the largest sub-list of the int masks ``petals``
    with pairwise disjoint bits, as indices into it, and the nodes of the
    search that found it.

    Branch and bound in list order; the first maximum found wins, so the
    outcome is deterministic.  A petal is tested against the one mask of the
    bits the chosen petals use.  The search is depth first over an explicit
    stack, taking each fitting petal before leaving it out.
    """
    best: list = []
    chosen: list = []
    used = 0
    nodes = 0
    end = len(petals)
    # an index idx to visit the node at, or ~idx to take petals[idx] back out
    stack = [0]
    while stack:
        idx = stack.pop()
        if idx < 0:
            used ^= petals[~idx]
            chosen.pop()
            continue
        nodes += 1
        if len(chosen) + (end - idx) <= len(best):
            continue
        if idx == end:
            best = list(chosen)  # longer than best, or the bound above returned
            continue
        petal = petals[idx]
        stack.append(idx + 1)  # leaving it out, visited last
        if not used & petal:
            used |= petal
            chosen.append(idx)
            stack.append(~idx)
            stack.append(idx + 1)
    return best, nodes


def _extract_exact(group, budget: Budget) -> tuple:
    """``(count, root, labels)``: the best delta-system of one cardinality
    class; try every candidate root (a pairwise intersection) and pack
    disjoint petals.  Sets are int masks, one bit per element in order of
    first appearance: a member holding the root is a candidate, and its petal
    is the rest of its bits.  The nodes of each root's search are charged to
    ``budget`` once it ends."""
    bit: dict = {}
    masks = []
    for _label, s in group:
        m = 0
        for e in s:
            m |= 1 << bit.setdefault(e, len(bit))
        masks.append(m)
    best, best_root, best_cands = [], 0, []
    for root in dict.fromkeys(a & b for a, b in combinations(masks, 2)):
        cands = [i for i, m in enumerate(masks) if m & root == root]
        picked, nodes = _max_disjoint([masks[i] ^ root for i in cands])
        budget.charge(nodes)
        if len(picked) > len(best):
            best, best_root, best_cands = picked, root, cands
    root = Point(e for e, i in bit.items() if best_root >> i & 1)
    return len(best), root, tuple(group[best_cands[i]][0] for i in best)


def _er_extract(cands, petal_size, budget: Budget) -> tuple:
    """Greedy root-bucketing: at each level take a maximal disjoint subfamily,
    then keep the sets holding the most frequent element, which joins the
    root, and drop it from them; the first level with the most petals wins.
    Finds a system of p petals whenever the family has more than
    s! * (p-1)^s distinct s-sets.  Each level is charged the size of its sets
    once per pass it makes over them: the disjoint scan, and below the last
    level the frequency count and the filter."""
    best = (0, EMPTY, ())
    root: list = []
    for level in range(petal_size + 1):
        passes = 1 if level == petal_size else 3
        budget.charge(passes * sum(len(s) for _label, s in cands))
        chosen: list = []
        used: set = set()
        for label, s in cands:
            if used.isdisjoint(s):
                used.update(s)
                chosen.append(label)
        if len(chosen) > best[0]:
            best = (len(chosen), Point(root), tuple(chosen))
        if level == petal_size:
            return best
        freq: dict = {}
        for _label, s in cands:
            for el in s:
                freq[el] = freq.get(el, 0) + 1
        el = min(freq, key=lambda e: (-freq[e], repr(e)))
        root.append(el)
        cands = [(label, [e for e in s if e != el]) for label, s in cands if el in s]


def extract_delta_system(fam: SetFamily, p: int,
                         budget: Budget | int = DEFAULT_BUDGET) -> ExtractionResult:
    """Search for a delta-system with at least p petals among subfamilies.

    Exact (maximal) for families up to ``EXACT_SEARCH_LIMIT`` members, greedy
    root-bucketing beyond; both charge their work to ``budget``.  On failure
    the result still reports the best petal count found.
    """
    if p < 2:
        raise ValueError("need at least two petals")
    budget = Budget.of(budget)
    by_size: dict = {}
    for label, s in fam.members:
        by_size.setdefault(len(s), []).append((label, s))
    exact = len(fam) <= EXACT_SEARCH_LIMIT
    best = (0, EMPTY, (), 0)
    if exact and fam.members:
        # a lone member of its size has no pairwise root to search
        first_label, first_set = fam.members[0]
        best = (1, EMPTY, (first_label,), len(first_set))
    for size in sorted(by_size):
        group = by_size[size]
        found = _extract_exact(group, budget) if exact else _er_extract(group, size, budget)
        if found[0] > best[0]:
            best = (*found, size)
    count, root, labels, size = best
    method = "exact" if exact else "greedy"
    if count >= p:
        sets = dict(fam.members)
        ok, check_root = is_delta_system([sets[label] for label in labels])
        if not (ok and check_root == root):
            raise AssertionError("extracted family fails the predicate")
        return ExtractionResult(DeltaSystem(root, labels, size), count, method)
    return ExtractionResult(None, count, method)


@dataclass(frozen=True)
class TransversalResult:
    labels: tuple | None
    blocked_at: int | None

    @property
    def ok(self) -> bool:
        return self.labels is not None


def _thin(labels, sets, root):
    """Yield, in order, each label outside ``root`` that lies in no earlier
    yielded label's set and whose own set holds no earlier yielded label."""
    in_root = set(root)
    picked: set = set()
    covered: set = set()
    for label in labels:
        s = sets[label]
        if label in in_root or label in covered or not picked.isdisjoint(s):
            continue
        picked.add(label)
        covered.update(s)
        yield label


def free_transversal(constraints, size: int, forbidden_root: Point = EMPTY) -> TransversalResult:
    """Greedily pick labels avoiding earlier constraint sets and vice versa.

    A picked label must not lie in any previously picked label's set, and its
    own set must avoid all previously picked labels.  Labels inside the
    forbidden root are skipped.  Fails with the count reached when the family
    runs dry.
    """
    chosen: list = []
    for label in _thin(constraints, constraints, forbidden_root):
        chosen.append(label)
        if len(chosen) == size:
            return TransversalResult(tuple(chosen), None)
    return TransversalResult(None, len(chosen))


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Exclusion data for two families of basic product neighborhoods.

    Side one pins its label in coordinate 0 and excludes ``g[j]`` in
    coordinate j; side two pins its label in coordinate 1 and excludes
    ``h[j]``.  Tuples have k+1 entries; a label never excludes itself from
    its own pinned coordinate.
    """

    k: int
    side_g: tuple = ()
    side_h: tuple = ()

    def __post_init__(self):
        for side, pinned in ((self.side_g, 0), (self.side_h, 1)):
            for label, sets in side:
                if len(sets) != self.k + 1:
                    raise ValueError(f"label {label}: expected {self.k + 1} exclusion sets")
                if label in sets[pinned]:
                    raise ValueError(f"label {label} excludes itself from coordinate {pinned}")
        if any(len({label for label, _s in side}) != len(side)
               for side in (self.side_g, self.side_h)):
            raise ValueError("labels must be distinct on each side")


@dataclass(frozen=True)
class CommonPointWitness:
    ok: bool
    lambda0: object
    s_labels: tuple
    m_labels: tuple
    root: Point | None
    checks: tuple
    failed_stage: str | None
    detail: str


def common_point_witness(spec: NeighborhoodSpec, n: int, k: int,
                         budget: Budget | int = DEFAULT_BUDGET) -> CommonPointWitness:
    """Find one side-one label and a large side-two set with all small joint
    intersections nonempty.

    Construction: refine side two to a delta-system of the coordinate-1
    exclusions, thin it to a mutually non-excluding sequence, pick a side-one
    label outside all coordinate-0 exclusions, and drop the side-two labels it
    excludes in coordinate 1.  Every (n+1)-subset F of the result then meets
    the side-one neighborhood in the nonempty box pinning {label} and F.
    """
    if k != spec.k:
        raise ValueError(f"spec was built for k={spec.k}, got k={k}")
    if k < 1:
        raise ValueError("need at least two coordinates (k >= 1)")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    budget = Budget.of(budget)
    g_all = dict(spec.side_g)
    h_all = dict(spec.side_h)
    h_sets = {label: sets[1] for label, sets in spec.side_h}
    fam = SetFamily.from_pairs(h_sets.items())
    if len(fam) >= 2:
        extraction = extract_delta_system(fam, 2, budget)
        if extraction.system is None:
            return CommonPointWitness(False, None, (), (), None, (), "delta-system",
                                      "no two-petal delta-system among the exclusions")
        root = extraction.system.root
        m1 = extraction.system.petal_labels
    else:
        root = EMPTY
        m1 = fam.labels()
    m_labels = tuple(_thin(m1, h_sets, root))
    if not m_labels:
        return CommonPointWitness(False, None, (), (), root, (), "thinning",
                                  "no mutually non-excluding side-two labels remain")
    h0_union = {e for label in m_labels for e in h_all[label][0]}
    lambda0 = next((label for label, _sets in spec.side_g if label not in h0_union), None)
    if lambda0 is None:
        return CommonPointWitness(False, None, (), m_labels, root, (), "lambda0-selection",
                                  "every side-one label is excluded in coordinate 0")
    g1 = g_all[lambda0][1]
    s_labels = tuple(label for label in m_labels if label not in g1)
    if len(s_labels) < n + 1:
        return CommonPointWitness(False, lambda0, s_labels, m_labels, root, (), "s-size",
                                  f"only {len(s_labels)} usable labels, need {n + 1}")
    ambient = ProductDescriptor.power(n + 1, k + 1)
    # each checked subset builds a box and a point over k + 1 coordinates
    budget.charge(math.comb(len(s_labels), n + 1) * (k + 1))
    checks = []
    all_ok = True
    for f_labels in combinations(s_labels, n + 1):
        exclusions = []
        for j in range(k + 1):
            i_j = g_all[lambda0][j]
            for mu in f_labels:
                i_j = i_j | h_all[mu][j]
            exclusions.append(i_j)
        f_point = Point(f_labels)
        constraints = {0: (Point.of(lambda0), exclusions[0]), 1: (f_point, exclusions[1])}
        for j in range(2, k + 1):
            constraints[j] = (EMPTY, exclusions[j])
        box = BasicBox.make(ambient, constraints)
        nonempty = not box_is_empty(box)
        member = ProductPoint((Point.of(lambda0), f_point) + (EMPTY,) * (k - 1))
        witnessed = nonempty and box_contains(box, member)
        checks.append((f_labels, nonempty, witnessed))
        all_ok = all_ok and witnessed
    detail = "all joint intersections witnessed" if all_ok else "some joint intersection failed"
    return CommonPointWitness(all_ok, lambda0, s_labels, m_labels, root,
                              tuple(checks), None if all_ok else "verification", detail)


@dataclass(frozen=True)
class CardinalityBound:
    total_min: int
    bound: int
    forced_empty: bool
    sizes: tuple


def neighborhood_emptiness_bound(assignments, n: int) -> CardinalityBound:
    """Certify that jointly containing pairwise disjoint nonempty sets overflows
    the coordinate bound: any common point holds at least the summed sizes."""
    sets = list(assignments.values())
    for s in sets:
        if len(s) == 0:
            raise ValueError("assigned sets must be nonempty")
    for a, b in combinations(sets, 2):
        if not a.isdisjoint(b):
            raise ValueError(f"assigned sets {a} and {b} overlap")
    sizes = tuple(len(s) for s in sets)
    total = sum(sizes)
    return CardinalityBound(total, n, total > n, sizes)
