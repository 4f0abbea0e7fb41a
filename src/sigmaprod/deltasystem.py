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

    Equal cardinality throughout and one common pairwise intersection.
    Families with fewer than two members qualify trivially (empty root).
    """
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


def _max_disjoint(cands) -> tuple:
    """``(labels, nodes)``: the largest sub-list of (label, petal) with pairwise
    disjoint petals, and the nodes of the search that found it.

    Branch and bound in list order; the first maximum found wins, so the
    outcome is deterministic.
    """
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


def _extract_exact(members, budget: Budget):
    """Best delta-system over all subfamilies: per cardinality class, try every
    candidate root (a pairwise intersection) and pack disjoint petals; the
    nodes of each root's search are charged to ``budget`` once it ends."""
    if members:
        first_label, first_set = members[0]
        best = (1, EMPTY, (first_label,), len(first_set))
    else:
        best = (0, EMPTY, (), 0)
    by_size: dict = {}
    for label, s in members:
        by_size.setdefault(len(s), []).append((label, s))
    for size in sorted(by_size):
        group = by_size[size]
        roots = []
        seen = set()
        for (_l1, a), (_l2, b) in combinations(group, 2):
            r = a & b
            if r not in seen:
                seen.add(r)
                roots.append(r)
        for root in roots:
            cands = [(label, s - root) for label, s in group if root.issubset(s)]
            labels, nodes = _max_disjoint(cands)
            budget.charge(nodes)
            if len(labels) > best[0]:
                best = (len(labels), root, tuple(labels), size)
    return best


def _er_extract(cands, petal_size):
    """Greedy root-bucketing: take a maximal disjoint subfamily, else recurse on
    the most frequent element.  Finds a system of p petals whenever the family
    has more than s! * (p-1)^s distinct s-sets."""
    chosen: list = []
    petals: list = []
    for label, s in cands:
        if all(s.isdisjoint(p) for p in petals):
            petals.append(s)
            chosen.append(label)
    best = (len(chosen), frozenset(), tuple(chosen))
    if petal_size == 0:
        return best
    freq: dict = {}
    for _label, s in cands:
        for el in s:
            freq[el] = freq.get(el, 0) + 1
    if freq:
        el = min(freq, key=lambda e: (-freq[e], repr(e)))
        sub = [(label, s - Point.of(el)) for label, s in cands if el in s]
        count, root, labels = _er_extract(sub, petal_size - 1)
        if count > best[0]:
            best = (count, root | {el}, labels)
    return best


def extract_delta_system(fam: SetFamily, p: int,
                         budget: Budget | int = DEFAULT_BUDGET) -> ExtractionResult:
    """Search for a delta-system with at least p petals among subfamilies.

    Exact (maximal) for families up to ``EXACT_SEARCH_LIMIT`` members, with
    the nodes of its searches charged to ``budget``; greedy root-bucketing
    beyond.  On failure the result still reports the best petal count found.
    """
    if p < 2:
        raise ValueError("need at least two petals")
    members = list(fam.members)
    if len(members) <= EXACT_SEARCH_LIMIT:
        count, root, labels, size = _extract_exact(members, Budget.of(budget))
        method = "exact"
    else:
        by_size: dict = {}
        for label, s in members:
            by_size.setdefault(len(s), []).append((label, s))
        count, root_set, labels, size = 0, frozenset(), (), 0
        for sz in sorted(by_size):
            c, r, ls = _er_extract(by_size[sz], sz)
            if c > count:
                count, root_set, labels, size = c, r, ls, sz
        root = Point(tuple(root_set))
        method = "greedy"
    if count >= p:
        petals = [fam.get(label) for label in labels]
        ok, check_root = is_delta_system(petals)
        if not (ok and check_root == root):
            raise AssertionError("extracted family fails the predicate")
        return ExtractionResult(DeltaSystem(root, tuple(labels), size), count, method)
    return ExtractionResult(None, count, method)


@dataclass(frozen=True)
class TransversalResult:
    labels: tuple | None
    blocked_at: int | None

    @property
    def ok(self) -> bool:
        return self.labels is not None


def free_transversal(constraints, size: int, forbidden_root: Point = EMPTY) -> TransversalResult:
    """Greedily pick labels avoiding earlier constraint sets and vice versa.

    A picked label must not lie in any previously picked label's set, and its
    own set must avoid all previously picked labels.  Labels inside the
    forbidden root are skipped.  Fails with the count reached when the family
    runs dry.
    """
    chosen: list = []
    union_so_far: set = set()
    for label in constraints:
        if label in forbidden_root:
            continue
        g = constraints[label]
        if label in union_so_far:
            continue
        if any(lab in g for lab in chosen):
            continue
        chosen.append(label)
        union_so_far.update(g)
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
        for label, sets in self.side_g:
            if len(sets) != self.k + 1:
                raise ValueError(f"label {label}: expected {self.k + 1} exclusion sets")
            if label in sets[0]:
                raise ValueError(f"label {label} excludes itself from coordinate 0")
        for label, sets in self.side_h:
            if len(sets) != self.k + 1:
                raise ValueError(f"label {label}: expected {self.k + 1} exclusion sets")
            if label in sets[1]:
                raise ValueError(f"label {label} excludes itself from coordinate 1")
        g_labels = [label for label, _s in self.side_g]
        h_labels = [label for label, _s in self.side_h]
        if len(set(g_labels)) != len(g_labels) or len(set(h_labels)) != len(h_labels):
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
    budget = Budget.of(budget)
    h_sets = {label: sets[1] for label, sets in spec.side_h}
    fam = SetFamily.from_pairs((label, h_sets[label]) for label, _s in spec.side_h)
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
    picked: list = []
    union_h: set = set()
    for label in m1:
        if label in root:
            continue
        if label in union_h:
            continue
        if any(lab in h_sets[label] for lab in picked):
            continue
        picked.append(label)
        union_h.update(h_sets[label])
    m_labels = tuple(picked)
    if not m_labels:
        return CommonPointWitness(False, None, (), (), root, (), "thinning",
                                  "no mutually non-excluding side-two labels remain")
    h0_union = set()
    h_all = {label: sets for label, sets in spec.side_h}
    for label in m_labels:
        h0_union.update(h_all[label][0])
    lambda0 = None
    g_all = {label: sets for label, sets in spec.side_g}
    for label, _sets in spec.side_g:
        if label not in h0_union:
            lambda0 = label
            break
    if lambda0 is None:
        return CommonPointWitness(False, None, (), m_labels, root, (), "lambda0-selection",
                                  "every side-one label is excluded in coordinate 0")
    g1 = g_all[lambda0][1]
    s_labels = tuple(label for label in m_labels if label not in g1)
    if len(s_labels) < n + 1:
        return CommonPointWitness(False, lambda0, s_labels, m_labels, root, (), "s-size",
                                  f"only {len(s_labels)} usable labels, need {n + 1}")
    ambient = ProductDescriptor.power(n + 1, k + 1)
    budget.charge(math.comb(len(s_labels), n + 1))
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
