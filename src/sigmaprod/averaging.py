"""Exact averaging operators for the union map on tuples of at-most-singletons.

The union map sends a k-tuple of sets of size at most one to their union.
Averaging a function uniformly over the disjoint-support fiber L(y) of each
point y gives a positive unital operator that is a one-sided inverse of
composition with the union map.  Everything here is finite-scale and exact:
weights are rationals, the three operator axioms are checked as equalities.

Operators are generic over their index sets, so products and restrictions of
union operators are again operators of the same class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .ground import (
    DEFAULT_BUDGET,
    EMPTY,
    Budget,
    Point,
    enumerate_sigma_points,
    union_fiber,
)
# bound by this name in bench/tracing.py
from .encode import operator_to_json  # noqa: F401


def apply_union(xs) -> Point:
    """Union of a tuple of coordinates, each of size at most one."""
    result = EMPTY
    for x in xs:
        if len(x) > 1:
            raise ValueError(f"coordinate {x} has more than one element")
        result = result | x
    return result


@dataclass(frozen=True)
class UnionMap:
    """The k-fold union surjection over a finite ground set."""

    k: int
    ground_size: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.ground_size < 1:
            raise ValueError("ground_size must be at least 1")

    def __call__(self, xs) -> Point:
        if len(xs) != self.k:
            raise ValueError(f"expected a {self.k}-tuple, got {len(xs)} coordinates")
        return apply_union(xs)

    def operator(self, budget: Budget | int = DEFAULT_BUDGET) -> "AveragingOperator":
        return build_operator(self.k, self.ground_size, budget)


def enumerate_L(y: Point, k: int) -> tuple:
    """The fiber L(y): the k-tuples hitting each element of y exactly once.

    Count is k! / (k - |y|)!: an injective placement of the elements of y
    into the k coordinate slots.
    """
    if len(y) > k:
        raise ValueError(f"|y|={len(y)} exceeds k={k}: the fiber is empty")
    return union_fiber([Point.of(el) for el in y], k)


@dataclass(frozen=True)
class RaoCheck:
    unital: bool
    positive: bool
    section: bool
    fiber_supported: bool

    @property
    def ok(self) -> bool:
        return self.unital and self.positive and self.section and self.fiber_supported


@dataclass(frozen=True)
class AveragingOperator:
    """A finite-scale averaging operator for a surjection between index sets.

    ``surjection[x]`` is the image of the domain index x, and ``rows[y]`` a
    rational probability measure on the fiber of y; the keys of the two maps,
    in order, are the domain and the codomain.  Applying the operator to a
    function integrates each row.  Rows with positive weights summing to one,
    supported exactly on the fibers, give all three axioms: unitality,
    positivity, and inverting composition with the surjection.
    """

    surjection: dict
    rows: dict

    @property
    def domain(self) -> tuple:
        return tuple(self.surjection)

    @property
    def codomain(self) -> tuple:
        return tuple(self.rows)

    def apply(self, f: dict) -> dict:
        """Integrate ``f`` (a full vector on the domain) against every row."""
        return {y: sum((w * f[x] for x, w in row), Fraction(0)) for y, row in self.rows.items()}

    def check(self) -> RaoCheck:
        """Test the axioms on every term of every row; weights are rationals.

        A row is unital when its weights, summed exactly over the row's
        common denominator, make one.  A row passes ``section`` when all its
        terms lie on its fiber and it is unital (then composing with the
        surjection gives back the value at its point), so over all rows
        ``section`` is the conjunction of the other two tests.
        """
        unital = positive = fiber_supported = True
        surjection = self.surjection
        for y, row in self.rows.items():
            ratios = [w.as_integer_ratio() for _x, w in row]
            den = math.lcm(*(d for _n, d in ratios))
            if sum(n * (den // d) for n, d in ratios) != den:
                unital = False
            if not all(n > 0 for n, _d in ratios):
                positive = False
            for x, _w in row:
                z = surjection[x]
                if z is not y and z != y:
                    fiber_supported = False
        return RaoCheck(unital, positive, unital and fiber_supported, fiber_supported)


def build_operator(k: int, ground_size: int,
                   budget: Budget | int = DEFAULT_BUDGET) -> AveragingOperator:
    """The averaging operator of the k-fold union map over a finite ground set.

    Row y carries uniform weight 1/|L(y)| on the disjoint-support fiber L(y).
    Charges its (ground_size + 1)^k domain tuples to ``budget``, computing
    the power only up to the room left (``Budget.charge_power``), and then
    the ground_size // 64 words of the element mask each of them is keyed by.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if ground_size < 0:
        raise ValueError(f"ground_size must be non-negative, got {ground_size}")
    budget = Budget.of(budget)
    budget.charge_power(ground_size + 1, k)
    budget.charge((ground_size + 1) ** k * (ground_size // 64))
    singletons = [Point.of(el) for el in range(ground_size)]
    codomain = enumerate_sigma_points(k, ground_size)
    # the (k - 1)-coordinate prefixes are built together with the bitmask of
    # their elements, and the last coordinate's bit picks each image among the
    # codomain points; the rows reuse the same EMPTY and singletons, so looking
    # a term up in the surjection compares its coordinates by identity
    by_mask = {sum(1 << el for el in y): y for y in codomain}
    coords = [(EMPTY, 0)] + [(p, 1 << el) for el, p in enumerate(singletons)]
    prefixes = [((), 0)]
    for _ in range(k - 1):
        prefixes = [(x + (p,), mask | bit) for x, mask in prefixes for p, bit in coords]
    surjection = {x + (p,): by_mask[mask | bit] for x, mask in prefixes for p, bit in coords}
    rows = {}
    for y in codomain:
        fiber = union_fiber([singletons[el] for el in y], k)
        w = Fraction(1, len(fiber))
        rows[y] = tuple((x, w) for x in fiber)
    return AveragingOperator(surjection, rows)


@dataclass(frozen=True)
class FiberMap:
    """The coordinatewise trace map from L(y') onto L(y) for nested y inside y'."""

    y: Point
    y_prime: Point
    k: int
    assignment: dict
    fiber_size: int


def fiber_map(y: Point, y_prime: Point, k: int) -> FiberMap:
    """Map each tuple of L(y') to its coordinatewise intersection with y.

    Verified onto with all fibers of one size n, so |L(y')| = n * |L(y)|.
    """
    if not y.issubset(y_prime):
        raise ValueError(f"{y} is not a subset of {y_prime}")
    big = enumerate_L(y_prime, k)
    small = enumerate_L(y, k)
    assignment = {}
    counts: dict = {}
    for x in big:
        image = tuple(coord & y for coord in x)
        assignment[x] = image
        counts[image] = counts.get(image, 0) + 1
    if set(counts) != set(small):
        raise AssertionError("trace map is not onto L(y)")
    sizes = set(counts.values())
    if len(sizes) != 1:
        raise AssertionError(f"fibers have unequal sizes {sorted(sizes)}")
    n = sizes.pop()
    if len(big) != n * len(small):
        raise AssertionError(f"|L(y')| = {len(big)} is not {n} times |L(y)| = {len(small)}")
    return FiberMap(y, y_prime, k, assignment, n)


def product_operator(ops, budget: Budget | int = DEFAULT_BUDGET) -> AveragingOperator:
    """Operator for the product surjection; rows are products of factor rows."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one factor operator")
    if len(ops) == 1:
        return ops[0]
    Budget.of(budget).charge(max(math.prod(len(op.surjection) for op in ops),
                                 math.prod(len(op.rows) for op in ops)))
    surjection = {
        xs: tuple(op.surjection[x] for op, x in zip(ops, xs))
        for xs in iter_product(*(op.surjection for op in ops))
    }
    rows = {}
    for ys in iter_product(*(op.rows for op in ops)):
        support = [((), Fraction(1))]
        for op, y in zip(ops, ys):
            support = [
                (xs + (x,), w * wx) for xs, w in support for x, wx in op.rows[y]
            ]
        rows[ys] = tuple(support)
    return AveragingOperator(surjection, rows)


def restrict_operator(op: AveragingOperator, m) -> AveragingOperator:
    """Restrict to a nonempty set of codomain points, renormalizing each row.

    Rows already live on fibers, so for the union operator the filtering is
    vacuous; the renormalization form is kept because it is what makes the
    construction closed under restriction at finite scale.
    """
    m_set = set(m)
    if not m_set:
        raise ValueError("restriction target must be nonempty")
    if not m_set.issubset(op.rows):
        raise ValueError("restriction target must be a subset of the codomain")
    surjection = {x: y for x, y in op.surjection.items() if y in m_set}
    rows = {}
    for y in [y for y in op.rows if y in m_set]:
        kept = [(x, w) for x, w in op.rows[y] if op.surjection[x] in m_set]
        if not kept:
            raise AssertionError("a row lost all support; the surjection was not onto the target")
        total = sum(w for _x, w in kept)
        rows[y] = tuple((x, w / total) for x, w in kept)
    return AveragingOperator(surjection, rows)


@dataclass(frozen=True)
class LocalityProfile:
    """Verdict for the locality law of a union operator.

    For functions that only read which coordinates meet F, the averaged value
    at y depends only on the pair (y & F, |y|); ``table`` holds one pattern
    distribution per such key.
    """

    passed: bool
    table: dict
    conflicts: tuple


def locality_profile(op: AveragingOperator, f_set: Point) -> LocalityProfile:
    if not all(isinstance(c, Point) for c in next(iter(op.surjection), ())):
        raise ValueError("locality profiles are defined for union-map operators")
    table: dict = {}
    conflicts = []
    for y, row in op.rows.items():
        dist: dict = {}
        for x, w in row:
            pattern = tuple(coord & f_set for coord in x)
            dist[pattern] = dist.get(pattern, Fraction(0)) + w
        key = (y & f_set, len(y))
        if key in table:
            if table[key] != dist:
                conflicts.append((key, y))
        else:
            table[key] = dist
    return LocalityProfile(not conflicts, table, tuple(conflicts))
