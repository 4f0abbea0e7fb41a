"""Encoding pipeline from binary arrays onto the positive part of the l1 ball.

A level-weighted sum phi with weights r_n = (1/3)(2/3)^n maps 0/1 sequences
onto [0,1]; applied coordinatewise it maps binary arrays over ground x levels
onto [0,1]^ground.  The arrays whose image lands in the positive l1 ball are
exactly those with sum of r_n * (level-n support count) at most 1, which
bounds every level-n support by M_n = floor(1/r_n).  All arithmetic is exact:
r_n = 2^n / 3^(n + 1), so a weighted sum over the first L levels is an
integer over 3^L, and sums are compared as such integers.
"""

from __future__ import annotations

import functools
import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .ground import DEFAULT_BUDGET, Budget

# log10 2 and log10 3 rounded up to five places, in units of 10^-5
_LOG10_2, _LOG10_3 = 30103, 47713


def level_weight(n: int) -> Fraction:
    """r_n = (1/3) * (2/3)^n = 2^n / 3^(n + 1); the weights sum to 1 over all levels."""
    return Fraction(1 << n, 3 ** (n + 1))


def truncation_tail(levels: int) -> Fraction:
    """The exact tail (2/3)^levels of the weight series beyond the first ``levels`` terms."""
    return Fraction(1 << levels, 3 ** levels)


def weight_partial_sum(levels: int) -> Fraction:
    """Sum of r_n for n < levels; equals 1 - (2/3)^levels exactly."""
    return 1 - truncation_tail(levels)


def _level_sum(counts: dict, levels: int) -> int:
    """Σ c_n·2^n·3^(levels-1-n) over ``counts`` (level n -> c_n, each n below
    ``levels``): the weighted sum Σ c_n·r_n times 3^levels, an integer."""
    return sum((c << n) * 3 ** (levels - 1 - n) for n, c in counts.items())


@dataclass(frozen=True)
class WeightTable:
    """Per-level support bounds M_n = floor(1/r_n); the weights r_n are built when read."""

    levels: int
    m: tuple

    @property
    def r(self) -> tuple:
        return tuple(map(level_weight, range(self.levels)))


def weight_digits(n: int) -> int:
    """An upper bound on the digits of r_n = 2^n / 3^(n + 1), written "p/q":
    n·log10 2 + (n + 1)·log10 3 + 2, rounded up.  The logarithms are rounded
    up to five places and the sum is taken in integers, so a level of any
    size can be charged."""
    return -(-(_LOG10_2 * n + _LOG10_3 * (n + 1)) // 100_000) + 2


def level_bounds(levels: int, budget: Budget | int = DEFAULT_BUDGET) -> WeightTable:
    """The table of the first ``levels`` levels, whose r column is built when
    read.  The digits of the weights grow linearly with the level, so an upper
    bound on the digits of that column, Σ_{n<levels} (n·log10 2 + (n + 1)·log10 3
    + 2), is charged to ``budget`` first, with the logarithms of
    ``weight_digits`` and the whole sum rounded up once."""
    if levels < 1:
        raise ValueError("need at least one level")
    digits = _LOG10_2 * (levels * (levels - 1) // 2) + _LOG10_3 * (levels * (levels + 1) // 2)
    Budget.of(budget).charge(-(-digits // 100_000) + 2 * levels)
    return WeightTable(levels, tuple(3 ** (n + 1) >> n for n in range(levels)))


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


def phi(bits, levels: int, budget: Budget | int = DEFAULT_BUDGET) -> Fraction:
    """Weighted sum of the first ``levels`` bits; lies in [0, 1 - (2/3)^levels].
    ``weight_digits`` of each set level is charged to ``budget`` before the sum."""
    if levels < 1:
        raise ValueError("need at least one level")
    ones = []
    for n, bit in zip(range(levels), bits):
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        if bit:
            ones.append(n)
    Budget.of(budget).charge(sum(map(weight_digits, ones)))
    top = ones[-1] + 1 if ones else 0  # scale by 3^top, not by 3^levels
    return Fraction(_level_sum(dict.fromkeys(ones, 1), top), 3 ** top)


_MAX_TAIL_LEVELS = 16


@functools.cache
def _tail_table(t: int) -> tuple:
    """``(sums, tails)``: the 2^t sums s = Σ_m c_m·2^m·3^(t-1-m) of the 0/1
    vectors c of length t, ascending, and beside each its c as an int whose
    most significant of t bits is c_0.  The sums are distinct: if two vectors
    last differ at m, their sums differ by ±2^m·3^(t-1-m) modulo 3^(t-m).
    Built on first use for each t, never at import."""
    sums = [0]
    for m in range(t):
        weight = 2 ** m * 3 ** (t - 1 - m)
        sums = [s + c for s in sums for c in (0, weight)]
    tails = sorted(range(len(sums)), key=sums.__getitem__)
    return tuple(sums[c] for c in tails), tuple(tails)


class _SplitSearch:
    """The 0/1 vectors of the given length mapping within (2/3)^levels of
    target, by the meet-in-the-middle split of Horowitz and Sahni: a pruned
    search over the first a levels (the head) and one sorted table of the sums
    of the last t = min(levels // 2, 16) levels (the tail).

    For target p/q everything is scaled by q * 3^L into integers: tolerance
    (2/3)^L is q * 2^L and weight n is q * 2^n * 3^(L-1-n), so a tail's sum is
    u * s with u = q * 2^a and s in ``_tail_table(t)``.  A head node at depth
    n carries d = scaled target - scaled partial sum and its reach
    q * 2^n * 3^(L-n) (the weights still to come plus the tolerance); it is
    kept iff -tolerance <= d <= reach, the exact rational interval test.
    Depth first in lexicographic bit order on an explicit stack, so the head
    leaves (depth a) come in the order of the exhaustive enumeration and the
    depth is not bounded by the interpreter's recursion limit.  At a leaf the
    solving tails are exactly those with ceil(d/u) - 2^t <= s <= floor(d/u) +
    2^t, a range [lo, hi) of the table.

    A vector is an int whose most significant of ``levels`` bits is level 0;
    for one level count the ints compare like the bit vectors.  The search
    charges ``budget`` 2^t for the table, cached or not, then 1 + levels // 64
    units per head node, as a node's ints have about 1.6·levels bits.  A
    solution always exists, so the a + 1 nodes of one path from the root to a
    head leaf are charged before any scaled int is built; the nodes beyond
    them are counted locally and charged once, at the end or when they pass
    the room left.
    """

    def __init__(self, target, levels: int, budget: Budget | int):
        if levels < 1:
            raise ValueError("need at least one level")
        target = Fraction(target)
        if target < 0 or target > 1:
            raise ValueError(f"target {target} outside [0, 1]")
        self.budget = budget = Budget.of(budget)
        self.t = t = min(levels // 2, _MAX_TAIL_LEVELS)
        budget.charge(1 << t)
        self.unit = 1 + levels // 64
        self.path = self.unit * (levels - t + 1)
        budget.charge(self.path)
        self.sums, self.tails = _tail_table(t)
        q = target.denominator
        self.u = q << (levels - t)
        self.scale = q * 3 ** levels
        self.root = target.numerator * 3 ** levels
        self.tolerance = q << levels

    def _leaves(self):
        """``(head bits, d)`` of every kept head leaf, in bit order; the
        visited head nodes past the prepaid path are charged when the search
        ends."""
        budget, unit = self.budget, self.unit
        room = budget.limit - budget.spent
        low = -self.tolerance
        leaf_reach = self.u * 3 ** self.t
        visited = -self.path
        stack = [(self.root, self.scale, 0)]
        while stack:
            d, reach, bits = stack.pop()
            visited += unit
            if visited > room:
                budget.charge(visited)  # raises
            if not low <= d <= reach:
                continue
            if reach == leaf_reach:
                yield bits, d
                continue
            weight = reach // 3
            reach = weight + weight
            bits <<= 1
            # the 1-branch goes on first so the 0-branch is searched first
            stack.append((d - weight, reach, bits | 1))
            stack.append((d, reach, bits))
        budget.charge(visited)

    def solutions(self, limit: int | None) -> tuple:
        """``(count, first)``: how many solutions there are, and the first
        ``limit`` of them (all when ``limit`` is None) in lexicographic order;
        the listed ones are charged to the budget before any is built.  Only
        the ranges holding those first ones are kept."""
        sums, u, t = self.sums, self.u, self.t
        width = 1 << t
        count = 0
        ranges = []
        for head, d in self._leaves():
            lo = bisect_left(sums, -(-d // u) - width)
            hi = bisect_right(sums, d // u + width)
            if lo < hi and (limit is None or count < limit):
                ranges.append((head << t, lo, hi))
            count += hi - lo
        listed = count if limit is None else min(count, limit)
        self.budget.charge(listed)
        first = []
        for head, lo, hi in ranges:
            tails = heapq.nsmallest(listed - len(first), self.tails[lo:hi])
            first.extend(head | tail for tail in tails)
        return count, first

    def best(self) -> tuple:
        """``(bits, error * scale)`` minimizing (|error|, bits).  At each leaf
        only the sums just below and just above d/u can be nearest; sums are
        distinct, so a tie within a leaf is the halfway one, and the bits
        decide it as they do across leaves."""
        sums, tails, u, t = self.sums, self.tails, self.u, self.t
        last = len(sums) - 1
        best = None
        for head, d in self._leaves():
            i = bisect_right(sums, d // u)
            for j in (max(i - 1, 0), min(i, last)):
                err = u * sums[j] - d
                candidate = (abs(err), head << t | tails[j], err)
                if best is None or candidate < best:
                    best = candidate
        _abs_err, bits, err = best
        return bits, err


_BIT_OF_DIGIT = {"0": 0, "1": 1}


def _bit_tuple(bits: int, levels: int) -> tuple:
    """The 0/1 vector, level 0 first, of a search's int-coded bits."""
    return tuple(map(_BIT_OF_DIGIT.__getitem__, format(bits, f"0{levels}b")))


def phi_preimage(target, levels: int, budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """All 0/1 vectors of the given length mapping within (2/3)^levels of target.

    In lexicographic bit order, equal to the exhaustive enumeration; never
    empty for targets in [0, 1].  Each listed vector is charged to ``budget``
    on top of the search.
    """
    _count, first = _SplitSearch(target, levels, budget).solutions(None)
    return tuple(_bit_tuple(bits, levels) for bits in first)


def phi_preimage_head(target, levels: int, limit: int,
                      budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """``(count, first)``: how many vectors ``phi_preimage`` lists, and the
    first ``limit`` of them; the others are counted, not listed or charged."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    count, first = _SplitSearch(target, levels, budget).solutions(limit)
    return count, tuple(_bit_tuple(bits, levels) for bits in first)


def _best_preimage(target, levels: int, budget: Budget | int) -> tuple:
    """``(bits, error)`` for the best preimage; see ``best_phi_preimage``."""
    search = _SplitSearch(target, levels, budget)
    bits, err = search.best()
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
            if type(level) is not int or level < 0:
                raise ValueError(f"levels are non-negative integers, got {level!r}")
            canon.add((element, level))
        object.__setattr__(self, "bits", tuple(sorted(canon)))

    def without(self, bit) -> "BinaryArray":
        return BinaryArray(tuple(b for b in self.bits if b != bit))

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
    top = max(counts, default=-1) + 1
    total, scale = _level_sum(counts, top), 3 ** top
    return L0Certificate(total <= scale, Fraction(total, scale), counts)


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
    scale = 3 ** levels
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
        counts = support_counts(array)
        total = _level_sum(counts, levels)
        witnesses.append(PointWitness(
            vector=vec,
            bits=array,
            per_coordinate=tuple(per_coordinate),
            l0_total=Fraction(total, scale),
            strict_l0=total <= scale,
            within_tolerance=total <= scale + (len(vec.coords) << levels),
            level_counts=counts,
            bounds_ok=all(c <= table.m[n] for n, c in counts.items()),
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
    return PipelineReport(levels, truncation_tail(levels), table, tuple(witnesses), stages)
