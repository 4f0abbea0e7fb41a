"""Encoding pipeline from binary arrays onto the positive part of the l1 ball.

A level-weighted sum phi with weights r_n = (1/3)(2/3)^n maps 0/1 sequences
onto [0,1]; applied coordinatewise it maps binary arrays over ground x levels
onto [0,1]^ground.  The arrays whose image lands in the positive l1 ball are
exactly those with sum of r_n * (level-n support count) at most 1, which
bounds every level-n support by M_n = floor(1/r_n).  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .ground import DEFAULT_BUDGET, Budget, GroundElement


def level_weight(n: int) -> Fraction:
    """r_n = (1/3) * (2/3)^n; the weights sum to 1 over all levels."""
    return Fraction(1, 3) * Fraction(2, 3) ** n


def weight_partial_sum(levels: int) -> Fraction:
    """Sum of r_n for n < levels; equals 1 - (2/3)^levels exactly."""
    return 1 - Fraction(2, 3) ** levels


def truncation_tail(levels: int) -> Fraction:
    """The exact tail of the weight series beyond the first ``levels`` terms."""
    return Fraction(2, 3) ** levels


@dataclass(frozen=True)
class WeightTable:
    """Per-level weights r_n and support bounds M_n = floor(1/r_n)."""

    levels: int
    r: tuple
    m: tuple


def weight_digits(n: int) -> int:
    """An upper bound on the digits of r_n = 2^n / 3^(n + 1), written "p/q":
    n·log10 2 + (n + 1)·log10 3 + 2, rounded up.  The logarithms are rounded
    up to five places and the sum is taken in integers, so a level of any
    size can be charged."""
    return -(-(30103 * n + 47713 * (n + 1)) // 100_000) + 2


def level_bounds(levels: int, budget: Budget | int = DEFAULT_BUDGET) -> WeightTable:
    """The weights and bounds of the first ``levels`` levels.  The digits of
    the weights grow linearly with the level, so an upper bound on the digits
    of the whole r column, Σ_{n<levels} (n·log10 2 + (n + 1)·log10 3 + 2), is
    charged to ``budget`` before any weight is built."""
    if levels < 1:
        raise ValueError("need at least one level")
    Budget.of(budget).charge(
        math.ceil((math.log10(2) * (levels - 1) + math.log10(3) * (levels + 1))
                  * levels / 2) + 2 * levels)
    r = tuple(level_weight(n) for n in range(levels))
    m = tuple(math.floor(1 / w) for w in r)
    return WeightTable(levels, r, m)


@dataclass(frozen=True)
class SignedVector:
    """A finitely supported vector of rationals, keyed by hashable labels.

    Canonical form drops zero coordinates and sorts by label; values are
    coerced to Fraction.
    """

    coords: tuple = ()

    def __post_init__(self):
        canon = {}
        for label, value in self.coords:
            value = Fraction(value)
            if label in canon:
                raise ValueError(f"duplicate coordinate label {label!r}")
            if value:
                canon[label] = value
        object.__setattr__(self, "coords", tuple(sorted(canon.items())))

    @classmethod
    def from_dict(cls, mapping) -> "SignedVector":
        return cls(tuple(mapping.items()))

    def value(self, label) -> Fraction:
        for lab, val in self.coords:
            if lab == label:
                return val
        return Fraction(0)

    def l1(self) -> Fraction:
        return sum((abs(v) for _l, v in self.coords), Fraction(0))

    def support(self) -> tuple:
        return tuple(lab for lab, _v in self.coords)

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for _l, v in self.coords)


def embed_u(x: SignedVector) -> SignedVector:
    """Split a vector of the l1 ball into its positive and negative parts.

    Coordinate ``gamma`` goes to ``(gamma, 'a')`` when positive and to
    ``(gamma, 'b')`` with flipped sign when negative; the l1 sum is preserved
    and the map is injective.
    """
    if x.l1() > 1:
        raise ValueError(f"vector has l1 norm {x.l1()} > 1")
    out = {}
    for label, value in x.coords:
        if value > 0:
            out[(label, "a")] = value
        else:
            out[(label, "b")] = -value
    return SignedVector.from_dict(out)


def phi(bits, levels: int) -> Fraction:
    """Weighted sum of the first ``levels`` bits; lies in [0, 1 - (2/3)^levels]."""
    if levels < 1:
        raise ValueError("need at least one level")
    total = Fraction(0)
    for n, bit in enumerate(bits):
        if n >= levels:
            break
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        if bit:
            total += level_weight(n)
    return total


class _PreimageSearch:
    """Every 0/1 vector of the given length mapping within (2/3)^levels of target.

    Iterating yields each solution's bits, as an int whose most significant
    of ``levels`` bits is level 0 (``_bit_tuple`` turns it into the bit
    vector), with its error phi(bits) - target times ``scale``, and keeps no
    solution after yielding it; its nodes are counted locally and charged to
    ``budget`` once, at the end or when they pass the room left.  For one
    level count the ints compare like the bit vectors, so a node extends its
    bits by a shift instead of copying a tuple.

    For target p/q everything is scaled by q * 3^L into integers: tolerance
    (2/3)^L is q * 2^L and weight n is q * 2^n * 3^(L-1-n).  A node at depth n
    carries d = scaled target - scaled partial sum and its reach
    q * 2^n * 3^(L-n) (the weights still to come plus the tolerance); it is
    kept iff -tolerance <= d <= reach, the exact rational interval test.
    Depth first in lexicographic bit order on an explicit stack, so the
    solutions come in the order of the exhaustive enumeration and the depth is
    not bounded by the interpreter's recursion limit.
    """

    def __init__(self, target, levels: int, budget: Budget | int):
        if levels < 1:
            raise ValueError("need at least one level")
        target = Fraction(target)
        if target < 0 or target > 1:
            raise ValueError(f"target {target} outside [0, 1]")
        self.target = target
        self.levels = levels
        self.budget = Budget.of(budget)
        self.scale = target.denominator * 3 ** levels

    def __iter__(self):
        room = self.budget.limit - self.budget.spent
        tolerance = self.target.denominator << self.levels
        low = -tolerance
        visited = 0
        stack = [(self.target.numerator * 3 ** self.levels, self.scale, 0)]
        while stack:
            d, reach, bits = stack.pop()
            visited += 1
            if visited > room:
                self.budget.charge(visited)  # raises
            if not low <= d <= reach:
                continue
            if reach == tolerance:  # a leaf: no weight is left to come
                yield bits, -d
                continue
            weight = reach // 3
            reach = weight + weight
            bits <<= 1
            # the 1-branch goes on first so the 0-branch is searched first
            stack.append((d - weight, reach, bits | 1))
            stack.append((d, reach, bits))
        self.budget.charge(visited)


_BIT_OF_DIGIT = {"0": 0, "1": 1}


def _bit_tuple(bits: int, levels: int) -> tuple:
    """The 0/1 vector, level 0 first, of a search's int-coded bits."""
    return tuple(map(_BIT_OF_DIGIT.__getitem__, format(bits, f"0{levels}b")))


def phi_preimage(target, levels: int, budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """All 0/1 vectors of the given length mapping within (2/3)^levels of target.

    In lexicographic bit order, equal to the exhaustive enumeration; never
    empty for targets in [0, 1].
    """
    return tuple(_bit_tuple(bits, levels)
                 for bits, _err in _PreimageSearch(target, levels, budget))


def phi_preimage_head(target, levels: int, limit: int,
                      budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """``(count, first)``: how many vectors ``phi_preimage`` lists, and the
    first ``limit`` of them; the others are counted, not kept."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    solutions = iter(_PreimageSearch(target, levels, budget))
    first = tuple(_bit_tuple(bits, levels) for bits, _err in islice(solutions, limit))
    return len(first) + sum(1 for _solution in solutions), first


def _best_preimage(target, levels: int, budget: Budget | int) -> tuple:
    """``(bits, error)`` for the best preimage; see ``best_phi_preimage``.

    The minimum is a running one, so only the best solution so far is kept.
    """
    search = _PreimageSearch(target, levels, budget)
    _abs_err, bits, err = min((abs(err), bits, err) for bits, err in search)
    return _bit_tuple(bits, levels), Fraction(err, search.scale)


def best_phi_preimage(target, levels: int, budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """The preimage vector minimizing the error, ties broken lexicographically."""
    return _best_preimage(target, levels, budget)[0]


@dataclass(frozen=True)
class BinaryArray:
    """A finitely supported 0/1 array over (ground element, level) pairs."""

    bits: tuple = ()

    def __post_init__(self):
        canon = set()
        for element, level in self.bits:
            if not isinstance(level, int) or level < 0:
                raise ValueError(f"levels are non-negative integers, got {level!r}")
            canon.add((element, level))
        object.__setattr__(self, "bits", tuple(sorted(canon)))

    def without(self, bit) -> "BinaryArray":
        return BinaryArray(tuple(b for b in self.bits if b != bit))

    def row(self, element: GroundElement) -> tuple:
        return tuple(level for el, level in self.bits if el == element)

    def __len__(self):
        return len(self.bits)


def support_counts(x: BinaryArray) -> dict:
    """Per-level support count N_n, only the nonzero levels."""
    counts: dict = {}
    for _element, level in x.bits:
        counts[level] = counts.get(level, 0) + 1
    return dict(sorted(counts.items()))


@dataclass(frozen=True)
class L0Certificate:
    member: bool
    total: Fraction
    counts: dict


def in_L0(x: BinaryArray, budget: Budget | int = DEFAULT_BUDGET) -> L0Certificate:
    """Membership in the l1-ball preimage: sum of r_n * N_n(x) at most 1.
    ``weight_digits`` of each distinct level is charged to ``budget`` before
    any weight is built."""
    counts = support_counts(x)
    Budget.of(budget).charge(sum(map(weight_digits, counts)))
    return _certificate(counts, {n: level_weight(n) for n in counts})


def _certificate(counts: dict, weights) -> L0Certificate:
    """The certificate of the level counts, with r_n read from ``weights[n]``."""
    total = sum((weights[n] * c for n, c in counts.items()), Fraction(0))
    return L0Certificate(total <= 1, total, counts)


@dataclass(frozen=True)
class PointWitness:
    vector: SignedVector
    bits: BinaryArray
    per_coordinate: tuple
    l0_total: Fraction
    strict_l0: bool
    within_tolerance: bool
    level_counts: dict
    bounds_ok: bool


@dataclass(frozen=True)
class PipelineReport:
    levels: int
    tolerance_per_coordinate: Fraction
    table: WeightTable
    points: tuple
    stages: tuple

    @property
    def ok(self) -> bool:
        return all(p.within_tolerance for p in self.points)


def pipeline_check(points, levels: int, budget: Budget | int = DEFAULT_BUDGET) -> PipelineReport:
    """Exhibit binary-array preimages for finitely many points of the positive ball.

    Per point: a best coordinatewise preimage at the given truncation, its
    level counts against the M_n bounds, and the weighted-sum certificate,
    accepted up to the exact truncation slack (support size times (2/3)^levels).
    The weight table and the searches of all coordinates of all points are
    charged to the one budget.
    The stage log documents the factored surjection chain that carries an
    averaging operator at every finite scale.
    """
    budget = Budget.of(budget)
    table = level_bounds(levels, budget)
    tol = truncation_tail(levels)
    witnesses = []
    for vec in points:
        if not isinstance(vec, SignedVector):
            vec = SignedVector.from_dict(vec)
        if not vec.is_nonnegative():
            raise ValueError(f"point {vec} has a negative coordinate; not in the positive ball")
        if vec.l1() > 1:
            raise ValueError(f"point {vec} has l1 norm above 1; not in the positive ball")
        all_bits = []
        per_coordinate = []
        for label, value in vec.coords:
            bits, err = _best_preimage(value, levels, budget)
            per_coordinate.append((label, value, bits, err))
            all_bits.extend((label, n) for n, bit in enumerate(bits) if bit)
        array = BinaryArray(tuple(all_bits))
        # every level is below ``levels``, so the charged table has its weight
        cert = _certificate(support_counts(array), table.r)
        slack = tol * len(vec.coords)
        bounds_ok = all(cert.counts.get(n, 0) <= table.m[n] for n in range(levels))
        witnesses.append(PointWitness(
            vector=vec,
            bits=array,
            per_coordinate=tuple(per_coordinate),
            l0_total=cert.total,
            strict_l0=cert.member,
            within_tolerance=cert.total <= 1 + slack,
            level_counts=cert.counts,
            bounds_ok=bounds_ok,
        ))
    stages = (
        {
            "stage": "union-maps",
            "map": "per level n, M_n-tuples of at-most-singletons onto the M_n-bounded space",
            "bounds": list(table.m),
            "operator": "uniform averaging over disjoint-support fibers; exact axioms",
        },
        {
            "stage": "product",
            "map": "product over levels of the union maps",
            "operator": "product rows are products of factor rows; axioms preserved",
        },
        {
            "stage": "restriction",
            "map": "restrict to the preimage of the encoded compact inside the bounded product",
            "operator": "rows filtered to the preimage and renormalized; axioms preserved",
        },
        {
            "stage": "level-decoding",
            "map": "coordinatewise weighted bit sum onto the positive part of the l1 ball",
            "operator": "averaging operator for the decoding map taken as given upstream",
        },
    )
    return PipelineReport(levels, tol, table, tuple(witnesses), stages)
