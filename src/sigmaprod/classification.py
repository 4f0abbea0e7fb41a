"""Homeomorphism classification of products of sigma spaces, with witnesses.

Over an uncountable ground set, the invariants are the omega-threshold i
(largest index whose space occurs omega-many times) and the exponents above
it; everything at or below i is absorbed.  Products with finitely many
factors are decided completely; when positive exponents occur cofinally and
the omega-threshold is finite, mismatches are an open question and the
verdict says so rather than guessing.

For a countable ground set the finite products are countable compacta,
classified by the derivation index of the iterated derived-set operation;
the infinite products are all homeomorphic.

The decomposition constructors emit the clopen partitions behind the
absorption rules, with per-piece boxes, reduced types and the single limit
point, so every claim is machine-checkable.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .ground import (
    DEFAULT_BUDGET,
    EMPTY,
    OMEGA,
    Budget,
    Point,
    ProductDescriptor,
    ProductPoint,
    TauSequence,
    TauValue,
    i_of,
    is_omega,
    j_of,
    type_signature,
)
from .clopen import (
    BasicBox,
    BoxIndex,
    ClopenSet,
    box_complement,
    box_contains,
    box_intersect,
    box_is_empty,
    box_reduce,
)
# bound by this name in bench/tracing.py
from .encode import decomposition_to_json  # noqa: F401

HOMEOMORPHIC = "HOMEOMORPHIC"
NOT_HOMEOMORPHIC = "NOT_HOMEOMORPHIC"
OPEN = "OPEN"

OPEN_QUESTION = (
    "both sequences have positive exponents cofinally but a finite "
    "omega-threshold, and they disagree above it; whether such products are "
    "homeomorphic is an open question (the simplest instance: the product of "
    "the n-bounded spaces over all n >= 1 versus over all n >= 2)"
)

OPEN_QUESTION_ONE_SATURATED = (
    "one sequence is omega-saturated (every bound occurs omega-many times "
    "after absorption) while the other has a finite omega-threshold and "
    "positive exponents cofinally above it; whether such products are "
    "homeomorphic is an open question"
)


@dataclass(frozen=True)
class NormalForm:
    """Absorbed shape of an exponent sequence.

    ``i`` is the omega-threshold; entries at or below it are absorbed into
    the omega power of the i-bounded space.  ``upper_entries`` plus
    ``upper_tail`` record the exponents above i verbatim (all finite there; a
    positive tail means cofinally many positive exponents).
    """

    i: TauValue
    upper_entries: tuple = ()
    upper_tail: int = 0

    def __post_init__(self):
        if is_omega(self.i):
            if self.upper_entries or self.upper_tail:
                raise ValueError("nothing survives above an infinite omega-threshold")
            return
        if not isinstance(self.upper_tail, int) or self.upper_tail < 0:
            raise ValueError("the upper tail must be a finite non-negative integer")
        canon = []
        prev = self.i
        for n, v in self.upper_entries:
            if n <= self.i:
                raise ValueError(f"entry index {n} not above threshold {self.i}")
            if n <= prev:
                raise ValueError("entry indices must be strictly increasing")
            prev = n
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"exponent above the threshold must be finite, got {v!r}")
            if v != self.upper_tail:
                canon.append((n, v))
        object.__setattr__(self, "upper_entries", tuple(canon))

    @property
    def max_entry_index(self) -> int:
        return self.upper_entries[-1][0] if self.upper_entries else 0


@lru_cache(maxsize=None)
def normal_form(tau: TauSequence) -> NormalForm:
    """Drop everything the omega power absorbs; keep the upper part verbatim."""
    i = i_of(tau)
    if is_omega(i):
        return NormalForm(OMEGA)
    entries = tuple((n, v) for n, v in tau.entries if n > i)
    return NormalForm(i, entries, tau.tail)


class ClassificationVerdict(NamedTuple):
    outcome: str
    rule: str
    detail: str


# verdicts whose text does not depend on the sequences, shared by every call
OMEGA_SATURATED = ClassificationVerdict(
    HOMEOMORPHIC, "omega-saturated",
    "every bound occurs omega-many times after absorption; all such products "
    "are homeomorphic")
FINITE_SUPPORT_INVARIANTS = ClassificationVerdict(
    HOMEOMORPHIC, "finite-support-invariants",
    "complete classification for finitely supported sequences: equal "
    "omega-thresholds and identical exponents above them")
ABSORPTION_NORMAL_FORM = ClassificationVerdict(
    HOMEOMORPHIC, "absorption-normal-form",
    "equal omega-thresholds and identical exponents above them; the lower "
    "factors are absorbed")
UPPER_EXPONENTS = ClassificationVerdict(
    NOT_HOMEOMORPHIC, "upper-exponents",
    "some exponent above the common omega-threshold differs; it is recoverable "
    "from maximal embeddable powers inside clopen sets")
OPEN_VERDICT = ClassificationVerdict(OPEN, "open-question", OPEN_QUESTION)
OPEN_VERDICT_ONE_SATURATED = ClassificationVerdict(
    OPEN, "open-question", OPEN_QUESTION_ONE_SATURATED)
COUNTABLE_INFINITE_PRODUCT = ClassificationVerdict(
    HOMEOMORPHIC, "countable-infinite-product",
    "both are perfect totally disconnected metrizable compacta; all infinite "
    "products over a countable ground set are homeomorphic")
COUNTABLE_VERSUS_PERFECT = ClassificationVerdict(
    NOT_HOMEOMORPHIC, "countable-versus-perfect",
    "a countable compactum cannot be homeomorphic to a perfect one")


class _Invariants:
    """Everything ``classify`` reads of one sequence, computed once.

    ``i`` and ``j`` are the text forms ("w" for omega) of the omega-threshold
    and the support bound, interned so that sequences share them; they
    compare like the values and read as the verdicts print them.  With
    ``upper`` and ``tail``, the exponents above i, they make up the normal
    form.  ``index`` is the derivation index 1 + sum of n * v of a finite
    product (finitely many nontrivial factors) and None otherwise.
    """

    __slots__ = ("i", "j", "upper", "tail", "saturated", "j_finite", "index")

    def __init__(self, tau: TauSequence):
        nf = normal_form(tau)
        j = j_of(tau)
        self.i = sys.intern(str(nf.i))
        self.j = sys.intern(str(j))
        self.upper = nf.upper_entries
        self.tail = nf.upper_tail
        self.saturated = is_omega(nf.i)
        self.j_finite = not is_omega(j)
        finite = tau.tail == 0 and not any(is_omega(v) for _n, v in tau.entries)
        self.index = 1 + sum(n * v for n, v in tau.entries) if finite else None


def _invariants(tau: TauSequence) -> _Invariants:
    """The invariants of ``tau``, kept on the object itself: they live as long
    as the sequence does, and a new sequence object computes its own."""
    try:
        return tau._invariants
    except AttributeError:
        inv = _Invariants(tau)
        # not a dataclass field: equality, hashing and repr ignore it
        object.__setattr__(tau, "_invariants", inv)
        return inv


def classify(tau: TauSequence, tau2: TauSequence,
             gamma: str = "uncountable") -> ClassificationVerdict:
    """Decide whether two products of sigma spaces are homeomorphic.

    ``gamma`` selects the ground-set regime.  Over an uncountable ground set
    the decision follows the absorption normal form, the invariance of the
    largest embeddable bound, and the completely decided finite-support case;
    in the undecided regime the verdict is OPEN.  Over a countable ground set
    finite products compare by derivation index and infinite products are all
    homeomorphic.
    """
    if gamma not in ("uncountable", "countable"):
        raise ValueError(f"gamma must be 'uncountable' or 'countable', got {gamma!r}")
    a, b = _invariants(tau), _invariants(tau2)
    if gamma == "countable":
        if a.index is not None and b.index is not None:
            if a.index == b.index:
                return ClassificationVerdict(
                    HOMEOMORPHIC, "countable-derivation-index",
                    f"both countable compacta have derivation index {a.index} "
                    "and a single point at the last stage")
            return ClassificationVerdict(
                NOT_HOMEOMORPHIC, "countable-derivation-index",
                f"derivation indices differ: {a.index} versus {b.index}")
        if a.index is None and b.index is None:
            return COUNTABLE_INFINITE_PRODUCT
        return COUNTABLE_VERSUS_PERFECT
    if a.i == b.i and a.upper == b.upper and a.tail == b.tail:
        if a.saturated:
            return OMEGA_SATURATED
        if a.j_finite:
            return FINITE_SUPPORT_INVARIANTS
        return ABSORPTION_NORMAL_FORM
    if a.j != b.j:
        return ClassificationVerdict(
            NOT_HOMEOMORPHIC, "largest-embeddable-bound",
            f"the largest n whose space embeds differs: {a.j} versus {b.j}")
    if a.j_finite:
        if a.i != b.i:
            return ClassificationVerdict(
                NOT_HOMEOMORPHIC, "omega-threshold",
                f"omega-thresholds differ: {a.i} versus {b.i} (largest bound "
                "embeddable into every clopen set)")
        return UPPER_EXPONENTS
    if a.saturated or b.saturated:
        return OPEN_VERDICT_ONE_SATURATED
    return OPEN_VERDICT


# ---------------------------------------------------------------------------
# derived-set engine (countable ground set, finite products)


@dataclass(frozen=True)
class SpaceExpression:
    """Formal finite union of degree vectors inside a fixed product.

    A vector v denotes the subspace where coordinate s has at most v[s]
    elements; the derived set decrements one positive coordinate at a time.
    """

    bounds: tuple
    terms: tuple = ()

    def __post_init__(self):
        bounds = tuple(self.bounds)
        terms = []
        for v in sorted(set(tuple(t) for t in self.terms)):
            if len(v) != len(bounds):
                raise ValueError("term length must match the number of coordinates")
            if any(d < 0 or d > b for d, b in zip(v, bounds)):
                raise ValueError(f"term {v} violates the degree bounds {bounds}")
            terms.append(v)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def full(cls, bounds) -> "SpaceExpression":
        bounds = tuple(bounds)
        return cls(bounds, (bounds,))

    @property
    def is_empty(self) -> bool:
        return not self.terms

    @property
    def point_count(self) -> TauValue:
        """How many points the terms denote over a countably infinite ground
        set: a term with a positive degree denotes infinitely many, and the
        all-zero term the one point whose coordinates are all empty."""
        if any(any(v) for v in self.terms):
            return OMEGA
        return len(self.terms)


def cb_derivative(expr: SpaceExpression) -> SpaceExpression:
    """Derived set: full-degree points are isolated, so each term loses one
    from one positive coordinate; the derivative of a union is the union."""
    derived = set()
    for v in expr.terms:
        for s, d in enumerate(v):
            if d > 0:
                derived.add(v[:s] + (d - 1,) + v[s + 1:])
    return SpaceExpression(expr.bounds, tuple(derived))


def cb_invariants(ks, budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """Iterate the derived-set engine from the full product.

    Returns (first empty derivative index, point count of the last nonempty
    stage); the last stage is always the single all-zero vector.  Each
    stage's term count is charged to ``budget`` before its derivative is
    taken.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one factor")
    if any(not isinstance(k, int) or k < 0 for k in ks):
        raise ValueError("factor bounds must be non-negative integers")
    budget = Budget.of(budget)
    expr = SpaceExpression.full(ks)
    steps = 0
    last = expr
    while not expr.is_empty:
        budget.charge(len(expr.terms))
        last = expr
        expr = cb_derivative(expr)
        steps += 1
    if last.terms != ((0,) * len(ks),):
        raise AssertionError(f"last nonempty stage is {last.terms}, not the all-zero vector")
    return steps, last.point_count


# ---------------------------------------------------------------------------
# invariant recovery from embeddability profiles


def max_power_embeddable(n: int, nf: NormalForm) -> TauValue:
    """Largest k with the n-bounded space to the k embeddable into the best
    clopen set avoiding the (n+1)-bounded space: omega at or below the
    threshold, else the sum of the exponents from n up."""
    if n < 1:
        raise ValueError("bounds are indexed from 1")
    if is_omega(nf.i) or n <= nf.i:
        return OMEGA
    if nf.upper_tail > 0:
        return OMEGA
    return sum(v for m, v in nf.upper_entries if m >= n)


def embeddability_profile(nf: NormalForm, up_to: int | None = None) -> dict:
    """The map n -> max_power_embeddable(n, nf) for n = 1..up_to."""
    if up_to is None:
        base = nf.max_entry_index if not is_omega(nf.i) else 0
        i_part = 0 if is_omega(nf.i) else nf.i
        up_to = max(base, i_part, 0) + 1
    return {n: max_power_embeddable(n, nf) for n in range(1, up_to + 1)}


def recover_tau(profile: dict) -> NormalForm:
    """Rebuild a normal form from its embeddability profile by downward induction.

    Expects the profile of a normal form with finite support above the
    threshold (keys 1..max contiguous); an all-omega profile recovers the
    omega-saturated form.  Inconsistent profiles are rejected at the first
    failing index.
    """
    if not profile:
        raise ValueError("profile must be nonempty")
    keys = sorted(profile)
    if keys != list(range(1, len(keys) + 1)):
        raise ValueError("profile keys must be contiguous from 1")
    top = len(keys)
    omega_indices = [n for n in keys if is_omega(profile[n])]
    i = max(omega_indices, default=0)
    for n in range(1, i):
        if not is_omega(profile[n]):
            raise ValueError(f"inconsistent profile at index {n}: finite below an "
                             "omega value")
    if omega_indices and i == top:
        return NormalForm(OMEGA)
    entries = []
    for n in range(i + 1, top + 1):
        here = profile[n]
        after = profile[n + 1] if n + 1 <= top else 0
        if is_omega(here):
            raise ValueError(f"inconsistent profile at index {n}: omega above the "
                             "threshold")
        if here < after:
            raise ValueError(f"inconsistent profile at index {n}: profile increases")
        v = here - after
        if v:
            entries.append((n, v))
    return NormalForm(i, tuple(entries), 0)


# ---------------------------------------------------------------------------
# decomposition witnesses


@dataclass(frozen=True)
class DecompositionPiece:
    """A clopen piece with its box and verified reduced type."""

    label: str
    box: BasicBox
    claimed_type: ProductDescriptor

    def __post_init__(self):
        # box_reduce raises ValueError on an empty box
        if box_reduce(self.box).descriptor != self.claimed_type:
            raise ValueError(f"piece {self.label}: claimed type does not match the "
                             "box reduction")


@dataclass(frozen=True)
class Decomposition:
    kind: str
    ambient: ProductDescriptor
    pieces: tuple
    limit_point: ProductPoint
    witnesses: tuple
    depth: int

    @cached_property
    def index(self) -> BoxIndex:
        """Per-coordinate constraint index of the piece boxes, built on first use."""
        return BoxIndex(self.ambient, tuple(p.box for p in self.pieces))


def decompose_absorb_small(m: int, n: int, depth: int = 6,
                           witnesses: tuple | None = None,
                           budget: Budget | int = DEFAULT_BUDGET) -> Decomposition:
    """Clopen partition of (m-bounded space) x (n-bounded space)^omega minus one point.

    With m = 0 this is the partition of the omega power itself.  The pieces
    index the first witness element missing from the first non-full omega
    coordinate; their only limit point is the constant witness-set sequence.
    The pieces' coordinate constraints, counted before any is built, are
    charged to ``budget``.
    """
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    if m < 0 or depth < 1:
        raise ValueError("m must be non-negative and depth positive")
    if witnesses is None:
        witnesses = tuple(range(n))
    witnesses = tuple(witnesses)
    if len(witnesses) != n or len(set(witnesses)) != n:
        raise ValueError(f"need {n} distinct witness elements")
    offset = 1 if m > 0 else 0
    # B'(j) carries one constraint, A/B(k, i) carries k + 1 + offset
    Budget.of(budget).charge(m + n * (depth * (depth - 1) // 2 + depth * (1 + offset)))
    full_set = Point(witnesses)
    small_set = Point(witnesses[:m])
    # (F, G) at the first coordinate that misses witness i, shared by every piece
    misses = [(Point(witnesses[:i]), Point.of(witnesses[i])) for i in range(n)]
    ambient = ProductDescriptor((m,) if m > 0 else (), n)
    pieces = []
    for j in range(m):
        box = BasicBox(ambient, ((0, *misses[j]),))
        pieces.append(DecompositionPiece(
            f"B'({j})", box, ProductDescriptor((m - j,), n)))
    prefix_label = "B" if m > 0 else "A"
    # the small coordinate and the first k omega coordinates are pinned to a
    # full set, a single point each
    pinned = ((0, small_set, EMPTY),) if m > 0 else ()
    for k in range(depth):
        pinned_types = (0,) * (offset + k)
        for i in range(n):
            box = BasicBox(ambient, pinned + ((offset + k, *misses[i]),))
            pieces.append(DecompositionPiece(
                f"{prefix_label}({k},{i})", box,
                ProductDescriptor(pinned_types + (n - i,), n)))
        pinned += ((offset + k, full_set, EMPTY),)
    prefix = (small_set,) if m > 0 else ()
    limit = ProductPoint(prefix, full_set)
    return Decomposition(f"absorb_small({m},{n})", ambient, tuple(pieces),
                         limit, witnesses, depth)


def decompose_classif_k(element: int = 0, depth: int = 6,
                        budget: Budget | int = DEFAULT_BUDGET) -> Decomposition:
    """Clopen partition of the omega power of the 1-bounded space minus the
    constant-singleton sequence: piece t pins the witness into the first t
    coordinates and out of the next.  The pieces' coordinate constraints,
    counted before any is built, are charged to ``budget``."""
    if depth < 1:
        raise ValueError("depth must be positive")
    # piece K(t + 1) carries t + 1 constraints
    Budget.of(budget).charge(depth * (depth + 1) // 2)
    ambient = ProductDescriptor.omega_power(1)
    single = Point.of(element)
    pieces = []
    pinned = ()
    for t in range(depth):
        box = BasicBox(ambient, pinned + ((t, EMPTY, single),))
        pieces.append(DecompositionPiece(
            f"K({t + 1})", box, ProductDescriptor((0,) * t, 1)))
        pinned += ((t, single, EMPTY),)
    limit = ProductPoint((), single)
    return Decomposition("classif_K", ambient, tuple(pieces), limit,
                         (element,), depth)


def check_pairwise_disjoint(dec: Decomposition) -> list:
    """Symbolically empty pairwise intersections; returns the offending pairs."""
    return [(dec.pieces[a].label, dec.pieces[b].label)
            for a, b in dec.index.meeting_pairs()]


def piece_for_point(dec: Decomposition, x: ProductPoint):
    """The unique piece containing x, the string "limit", or None if x lies
    beyond the materialized depth."""
    if x == dec.limit_point:
        return "limit"
    hits = [dec.pieces[i].label for i in dec.index.containing(x)]
    if len(hits) > 1:
        raise AssertionError(f"point {x} lies in several pieces: {hits}")
    return hits[0] if hits else None


def sample_decomposition_points(dec: Decomposition, count: int, seed: int,
                                extra_elements: int = 2) -> list:
    """Seeded eventually-constant points with prefix within the materialized
    depth and the limit tail, so membership is decidable from the pieces."""
    rng = random.Random(seed)
    base = max(dec.witnesses) + 1 if dec.witnesses else 0
    ground = list(dec.witnesses) + [base + t for t in range(extra_elements)]
    explicit = dec.ambient.explicit_len
    widest = explicit + dec.depth - 1
    limit = dec.limit_point
    # per coordinate: the limit point's value and the largest sample size
    limit_values = [limit.coordinate(s) for s in range(widest)]
    caps = [min(dec.ambient.bound_at(s), len(ground)) for s in range(widest)]
    # positions in ``ground`` draw the same random numbers as its elements;
    # each tuple of positions, as drawn, is turned into a point once
    positions = range(len(ground))
    drawn: dict = {}
    points = []
    for _ in range(count):
        width = rng.randint(explicit, widest)
        coords = []
        for s in range(width):
            if rng.random() < 0.5:
                coords.append(limit_values[s])
            else:
                size = rng.randint(0, caps[s])
                if not size:  # sampling nothing draws nothing
                    coords.append(EMPTY)
                    continue
                picked = tuple(rng.sample(positions, size))
                value = drawn.get(picked)
                if value is None:
                    value = drawn[picked] = Point(tuple(ground[j] for j in picked))
                coords.append(value)
        points.append(ProductPoint(tuple(coords), limit.tail_value))
    return points


@dataclass(frozen=True)
class MembershipReport:
    total: int
    in_piece: int
    at_limit: int
    unresolved: tuple

    @property
    def ok(self) -> bool:
        return not self.unresolved and self.in_piece + self.at_limit == self.total


def check_sample_membership(dec: Decomposition, count: int, seed: int) -> MembershipReport:
    in_piece = 0
    at_limit = 0
    unresolved = []
    for x in sample_decomposition_points(dec, count, seed):
        where = piece_for_point(dec, x)
        if where == "limit":
            at_limit += 1
        elif where is None:
            unresolved.append(x)
        else:
            in_piece += 1
    return MembershipReport(count, in_piece, at_limit, tuple(unresolved))


def limit_neighborhood_boxes(dec: Decomposition, count: int, seed: int,
                             extra_elements: int = 2) -> list:
    """Seeded basic boxes around the limit point (F inside each coordinate
    value, G clear of it)."""
    rng = random.Random(seed)
    base = max(dec.witnesses) + 1 if dec.witnesses else 0
    extras = [base + t for t in range(extra_elements)]
    max_coord = dec.ambient.explicit_len + dec.depth + 1
    boxes = []
    for _ in range(count):
        n_constraints = rng.randint(0, 3)
        coords = rng.sample(range(max_coord), min(n_constraints, max_coord))
        constraints = {}
        for s in sorted(coords):
            value = list(dec.limit_point.coordinate(s))
            f = Point(tuple(rng.sample(value, rng.randint(0, len(value)))))
            g_pool = [e for e in extras if e not in value]
            g = Point(tuple(rng.sample(g_pool, rng.randint(0, len(g_pool)))))
            constraints[s] = (f, g)
        box = BasicBox.make(dec.ambient, constraints)
        if not box_contains(box, dec.limit_point):
            raise AssertionError(f"neighborhood {box} misses the limit point")
        boxes.append(box)
    return boxes


@dataclass(frozen=True)
class CofinitenessReport:
    boxes: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_limit_cofinite(dec: Decomposition, boxes) -> CofinitenessReport:
    """Each neighborhood of the limit must contain every piece that starts
    beyond the neighborhood's last constrained coordinate."""
    boxes = list(boxes)
    violations = []
    for box in boxes:
        cutoff = box.max_constrained_coord()
        for i in dec.index.not_within(box):
            piece = dec.pieces[i]
            if piece.box.max_constrained_coord() > cutoff:
                violations.append((str(box), piece.label))
    return CofinitenessReport(len(boxes), tuple(violations))


# ---------------------------------------------------------------------------
# product embedding and retraction witnesses


def embed_product_into_sigma(xs, ks) -> Point:
    """Tag each coordinate's elements with the (1-based) factor index and unite.

    Injective; the image has at most sum(ks) elements inside the tagged union
    of the ground sets.
    """
    xs = tuple(xs)
    ks = tuple(ks)
    if len(xs) != len(ks):
        raise ValueError("one bound per coordinate required")
    tagged = []
    for idx, (x, k) in enumerate(zip(xs, ks), start=1):
        if len(x) > k:
            raise ValueError(f"coordinate {idx} has {len(x)} elements, bound {k}")
        tagged.extend((el, idx) for el in x)
    return Point(tuple(tagged))


def split_tagged_point(y: Point, nfactors: int) -> tuple:
    """Inverse of the tagged union: separate elements by their factor tag."""
    coords = [[] for _ in range(nfactors)]
    for el, idx in y:
        coords[idx - 1].append(el)
    return tuple(Point(tuple(c)) for c in coords)


@dataclass(frozen=True)
class RetractWitness:
    """The 1-bounded space copied as the clopen set of supersets of k-1 fixed
    elements inside the k-bounded space, with the retraction onto it."""

    k: int
    fixed: Point
    clopen_image: BasicBox

    def embed(self, x: Point) -> Point:
        if len(x) > 1:
            raise ValueError(f"domain points have at most one element, got {x}")
        if not x.isdisjoint(self.fixed):
            raise ValueError(f"domain points avoid the fixed elements, got {x}")
        return x | self.fixed

    def project(self, y: Point) -> Point:
        if not self.fixed.issubset(y):
            raise ValueError(f"{y} is outside the clopen image")
        return y - self.fixed

    def retract(self, y: Point) -> Point:
        if len(y) > self.k:
            raise ValueError(f"{y} exceeds the bound {self.k}")
        return y if self.fixed.issubset(y) else self.fixed

    def box_preimage(self, b: BasicBox) -> ClopenSet:
        """Continuity witness: the retraction preimage of a box as a finite
        union of boxes (its trace on the image, plus the whole complement when
        the box catches the collapse point)."""
        if b.ambient != self.clopen_image.ambient:
            raise ValueError("box must live over the codomain")
        boxes = []
        inside = box_intersect(b, self.clopen_image)
        if not box_is_empty(inside):
            boxes.append(inside)
        f, g = b.constraint_at(0)
        if f.issubset(self.fixed) and self.fixed.isdisjoint(g):
            boxes.extend(box_complement(self.clopen_image).boxes)
        return ClopenSet(b.ambient, tuple(boxes))


def retract_witness(k: int, fixed: Point) -> RetractWitness:
    if len(fixed) != k - 1:
        raise ValueError(f"need exactly {k - 1} fixed elements, got {len(fixed)}")
    ambient = ProductDescriptor.single(k)
    image = BasicBox.make(ambient, {0: (fixed, EMPTY)})
    return RetractWitness(k, fixed, image)
