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
    is_omega,
    point_in_ambient,
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
    _bits,
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
        # type() is int, not isinstance: a bool would read as 1 but print as true
        if type(self.i) is not int or self.i < 0:
            raise ValueError(f"the threshold must be a non-negative integer or OMEGA, "
                             f"got {self.i!r}")
        if type(self.upper_tail) is not int or self.upper_tail < 0:
            raise ValueError("the upper tail must be a finite non-negative integer")
        canon = []
        prev = self.i
        for n, v in self.upper_entries:
            if type(n) is not int:
                raise ValueError(f"entry index must be an integer, got {n!r}")
            if n <= self.i:
                raise ValueError(f"entry index {n} not above threshold {self.i}")
            if n <= prev:
                raise ValueError("entry indices must be strictly increasing")
            prev = n
            if type(v) is not int or v < 0:
                raise ValueError(f"exponent above the threshold must be finite, got {v!r}")
            if v != self.upper_tail:
                canon.append((n, v))
        object.__setattr__(self, "upper_entries", tuple(canon))

    @property
    def max_entry_index(self) -> int:
        return self.upper_entries[-1][0] if self.upper_entries else 0


# keeps nothing: the decorator stays only for bench/run.py and tests/test_bench_bindings.py
@lru_cache(maxsize=0)
def normal_form(tau: TauSequence) -> NormalForm:
    """Drop everything the omega power absorbs; keep the upper part verbatim.
    Built from the invariants kept on ``tau``."""
    inv = tau._invariants or _invariants(tau)
    if inv.saturated:
        return NormalForm(OMEGA)
    return NormalForm(inv.threshold, inv.upper, inv.tail)


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
    """Everything ``classify`` reads of one sequence, computed in one walk over
    its entries.

    ``i`` and ``j`` are the text forms ("w" for omega) of the omega-threshold
    and the support bound, interned so that sequences share them; they
    compare like the values and read as the verdicts print them.  With
    ``upper`` and ``tail``, the exponents above i, they make up the normal
    form, whose threshold value is ``threshold``.  ``index`` is the
    derivation index 1 + sum of n * v of a finite product (finitely many
    nontrivial factors) and None otherwise.
    """

    __slots__ = ("i", "j", "threshold", "upper", "tail", "saturated", "j_finite", "index")

    def __init__(self, tau: TauSequence):
        entries, tail = tau.entries, tau.tail
        if is_omega(tail):
            # every bound occurs omega-many times: nothing survives absorption
            self.i = self.j = "w"
            self.threshold = OMEGA
            self.upper, self.tail = (), 0
            self.saturated, self.j_finite, self.index = True, False, None
            return
        k = cut = weight = 0  # cut: just past the last omega entry, whose index is i
        for n, v in entries:
            k += 1
            if isinstance(v, int):
                weight += n * v
            else:
                cut = k
        if cut:
            self.threshold = entries[cut - 1][0]
            self.i = sys.intern(str(self.threshold))
        else:
            self.threshold, self.i = 0, "0"
        # the entries are those that differ from the tail, so over a zero
        # tail the last one is the last positive exponent
        finite_tail = tail == 0
        if not finite_tail:
            self.j = "w"
        elif entries:
            self.j = sys.intern(str(entries[-1][0]))
        else:
            self.j = "0"
        self.upper, self.tail = entries[cut:], tail
        self.saturated, self.j_finite = False, finite_tail
        self.index = 1 + weight if finite_tail and not cut else None


def _invariants(tau: TauSequence) -> _Invariants:
    """Compute the invariants of ``tau`` and keep them on the object itself:
    they live as long as the sequence does, and a new sequence object computes
    its own.  Callers read ``tau._invariants`` first, None until this ran."""
    inv = _Invariants(tau)
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
    # the kept invariants, read inline: this is the hot path of a batch
    a = tau._invariants or _invariants(tau)
    b = tau2._invariants or _invariants(tau2)
    # verdicts built by tuple.__new__, skipping the NamedTuple's Python-level __new__
    if gamma == "uncountable":
        # equal normal forms have equal support bounds, so j decides first
        if a.j != b.j:
            return tuple.__new__(ClassificationVerdict, (
                NOT_HOMEOMORPHIC, "largest-embeddable-bound",
                f"the largest n whose space embeds differs: {a.j} versus {b.j}"))
        if a.i == b.i and a.upper == b.upper and a.tail == b.tail:
            if a.saturated:
                return OMEGA_SATURATED
            if a.j_finite:
                return FINITE_SUPPORT_INVARIANTS
            return ABSORPTION_NORMAL_FORM
        if a.j_finite:
            if a.i != b.i:
                return tuple.__new__(ClassificationVerdict, (
                    NOT_HOMEOMORPHIC, "omega-threshold",
                    f"omega-thresholds differ: {a.i} versus {b.i} (largest bound "
                    "embeddable into every clopen set)"))
            return UPPER_EXPONENTS
        if a.saturated or b.saturated:
            return OPEN_VERDICT_ONE_SATURATED
        return OPEN_VERDICT
    if gamma != "countable":
        raise ValueError(f"gamma must be 'uncountable' or 'countable', got {gamma!r}")
    if a.index is not None and b.index is not None:
        if a.index == b.index:
            return tuple.__new__(ClassificationVerdict, (
                HOMEOMORPHIC, "countable-derivation-index",
                f"both countable compacta have derivation index {a.index} "
                "and a single point at the last stage"))
        return tuple.__new__(ClassificationVerdict, (
            NOT_HOMEOMORPHIC, "countable-derivation-index",
            f"derivation indices differ: {a.index} versus {b.index}"))
    if a.index is None and b.index is None:
        return COUNTABLE_INFINITE_PRODUCT
    return COUNTABLE_VERSUS_PERFECT


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


def _derive(terms) -> set:
    """Derived set of a union of terms: each loses one from one positive coordinate."""
    return {v[:s] + (d - 1,) + v[s + 1:] for v in terms for s, d in enumerate(v) if d > 0}


def cb_derivative(expr: SpaceExpression) -> SpaceExpression:
    """Derived set: full-degree points are isolated; the derivative of a union is the union."""
    return SpaceExpression(expr.bounds, tuple(_derive(expr.terms)))


def cb_invariants(ks, budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """Iterate the derived-set engine from the full product.

    Returns (first empty derivative index, point count of the last nonempty
    stage); the last stage is always the single all-zero vector.  Before a
    stage's derivative is taken, the entries it builds are charged to
    ``budget``: len(ks) for each positive coordinate of each term.
    """
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one factor")
    if any(type(k) is not int or k < 0 for k in ks):
        raise ValueError("factor bounds must be non-negative integers")
    budget = Budget.of(budget)
    terms = {ks}
    steps = 0
    while terms:
        budget.charge(len(ks) * sum(len(v) - v.count(0) for v in terms))
        last = terms
        terms = _derive(terms)
        steps += 1
    if last != {(0,) * len(ks)}:
        raise AssertionError(f"last nonempty stage is {tuple(sorted(last))}, "
                             "not the all-zero vector")
    return steps, len(last)


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
    The pieces' coordinate constraints and the elements of the distinct
    ones, counted before any is built, are charged to ``budget``.
    """
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    if m < 0 or depth < 1:
        raise ValueError("m must be non-negative and depth positive")
    if witnesses is not None:
        witnesses = tuple(witnesses)
        if len(witnesses) != n or len(set(witnesses)) != n:
            raise ValueError(f"need {n} distinct witness elements")
    prefix_label = "B" if m > 0 else "A"
    return _absorb_small(f"absorb_small({m},{n})", m, n, depth, witnesses,
                         lambda k, i: f"{prefix_label}({k},{i})", budget)


def decompose_classif_k(element: int = 0, depth: int = 6,
                        budget: Budget | int = DEFAULT_BUDGET) -> Decomposition:
    """Clopen partition of the omega power of the 1-bounded space minus the
    constant-singleton sequence: piece t pins the witness into the first t
    coordinates and out of the next.  It is ``decompose_absorb_small(0, 1,
    depth, (element,))`` with piece A(t, 0) named K(t + 1)."""
    if depth < 1:
        raise ValueError("depth must be positive")
    return _absorb_small("classif_K", 0, 1, depth, (element,),
                         lambda t, _i: f"K({t + 1})", budget)


def _absorb_small(kind: str, m: int, n: int, depth: int, witnesses: tuple | None,
                  label, budget: Budget | int) -> Decomposition:
    """The partition of ``decompose_absorb_small`` for checked arguments;
    ``label(k, i)`` names the piece that pins k omega coordinates to the full
    witness set and misses witness i in the next.  Witnesses None stands for
    0 .. n - 1, built only once the charge has passed."""
    offset = 1 if m > 0 else 0
    # B'(j) carries one constraint and A/B(k, i) k + 1 + offset; the distinct ones
    # hold n(n + 1)/2 elements in the misses, n in the full set and m in the small set
    Budget.of(budget).charge(m + n * (depth * (depth - 1) // 2 + depth * (1 + offset))
                             + n * (n + 1) // 2 + n + m)
    if witnesses is None:
        witnesses = tuple(range(n))
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
    # box_reduce works coordinate by coordinate, so an A/B piece's box is
    # nonempty and of its claimed type exactly when each of its constraints is.
    # Each distinct one is checked alone, once, naming the first piece that
    # carries it: the small set at 0, and the misses and the full set at the
    # first omega coordinate, whose bound n every omega coordinate shares
    checks = [(offset, f, g, n - i, label(0, i)) for i, (f, g) in enumerate(misses)]
    if m > 0:
        checks.insert(0, (0, small_set, EMPTY, 0, label(0, 0)))
    if depth > 1:
        checks.append((offset, full_set, EMPTY, 0, label(1, 0)))
    for s, f, g, bound, name in checks:
        box = BasicBox(ambient, ((s, f, g),))
        try:
            ok = (box.constraints == ((s, f, g),)
                  and box_reduce(box).descriptor.bound_at(s) == bound)
        except ValueError:  # the box is empty
            ok = False
        if not ok:
            raise ValueError(f"piece {name}: claimed type does not match the "
                             "box reduction")
    # piece (k, i) is the pinned prefix plus miss i at s, of type 0^s x (n - i);
    # the canonical form drops a last factor equal to the tail
    pinned = ((0, small_set, EMPTY),) if m > 0 else ()
    for k in range(depth):
        s = offset + k
        zeros = (0,) * s
        for i, (f, g) in enumerate(misses):
            pieces.append(_prechecked(
                DecompositionPiece, label=label(k, i),
                box=_prechecked(BasicBox, ambient=ambient, constraints=pinned + ((s, f, g),)),
                claimed_type=_prechecked(ProductDescriptor, omega_tail=n,
                                         factors=zeros + ((n - i,) if i else ()))))
        pinned += ((s, full_set, EMPTY),)
    prefix = (small_set,) if m > 0 else ()
    limit = ProductPoint(prefix, full_set)
    return Decomposition(kind, ambient, tuple(pieces), limit, witnesses, depth)


def _prechecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as given,
    without running its ``__post_init__``: for values already checked and in
    canonical form."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        # as the dataclass's own __init__ does, which keeps the instance's
        # attributes in the class's compact shared layout
        object.__setattr__(obj, name, value)
    return obj


def check_pairwise_disjoint(dec: Decomposition,
                            budget: Budget | int = DEFAULT_BUDGET) -> list:
    """Symbolically empty pairwise intersections; returns the offending pairs.
    The constraint comparisons are charged to ``budget`` as
    ``BoxIndex.meeting_pairs`` counts them."""
    return [(dec.pieces[a].label, dec.pieces[b].label)
            for a, b in dec.index.meeting_pairs(budget)]


def piece_for_point(dec: Decomposition, x: ProductPoint):
    """The unique piece containing x, the string "limit", or None if x lies
    beyond the materialized depth."""
    if x == dec.limit_point:
        return "limit"
    hits = [dec.pieces[i].label for i in dec.index.containing(x)]
    if len(hits) > 1:
        raise AssertionError(f"point {x} lies in several pieces: {hits}")
    return hits[0] if hits else None


_EXTRA_ELEMENTS = 2  # elements past the witnesses that samples and neighborhoods draw


def sample_decomposition_points(dec: Decomposition, count: int, seed: int,
                                extra_elements: int = _EXTRA_ELEMENTS) -> list:
    """Seeded eventually-constant points with prefix within the materialized
    depth and the limit tail, so membership is decidable from the pieces.

    The draws are those of ``random.Random(seed)``'s ``randint`` for the width
    and each size and of ``sample``'s pool branch for the elements, which is
    the branch ``sample`` takes whenever the ground has at most 21 elements.
    """
    tail = dec.limit_point.tail_value
    return [ProductPoint(coords, tail)
            for coords in _drawn_prefixes(dec, count, seed, extra_elements)]


def _drawn_prefixes(dec: Decomposition, count: int, seed: int,
                    extra_elements: int = _EXTRA_ELEMENTS):
    """The coordinates of each point of ``sample_decomposition_points``, as
    drawn: a fresh list of the values at coordinates 0 .. explicit + width - 1,
    past which the point takes the limit's tail value.  Each value is the
    limit point's at its coordinate or has at most min(bound, ground size)
    elements."""
    if count < 0:
        raise ValueError("samples must be non-negative")
    rng = random.Random(seed)
    getrandbits, draw = rng.getrandbits, rng.random
    base = max(dec.witnesses) + 1 if dec.witnesses else 0
    ground = list(dec.witnesses) + [base + t for t in range(extra_elements)]
    explicit = dec.ambient.explicit_len
    widths = dec.depth  # prefix widths explicit .. explicit + depth - 1
    if count and widths < 1:  # no width could be drawn
        raise ValueError("sampling needs a positive depth")
    widest = explicit + widths - 1
    limit = dec.limit_point
    # per coordinate: the limit point's value and the largest sample size
    limit_values = [limit.coordinate(s) for s in range(widest)]
    caps = [min(dec.ambient.bound_at(s), len(ground)) for s in range(widest)]
    # positions in ``ground`` draw the same random numbers as its elements;
    # each tuple of positions, as drawn, is turned into a point once
    n = len(ground)
    positions = list(range(n))
    # each draw below is Random._randbelow_with_getrandbits(b), uniform in
    # range(b) for b > 0: getrandbits(b.bit_length()) until it falls below b.
    # Past the width's, every b is at most n + 1, its bit length read here
    bits = [b.bit_length() for b in range(n + 2)]
    width_bits = widths.bit_length()
    drawn: dict = {}
    for _ in range(count):
        width = getrandbits(width_bits)
        while width >= widths:
            width = getrandbits(width_bits)
        coords = []
        for s in range(explicit + width):
            if draw() < 0.5:
                coords.append(limit_values[s])
                continue
            b = caps[s] + 1
            size = getrandbits(bits[b])
            while size >= b:
                size = getrandbits(bits[b])
            if not size:  # sampling nothing draws nothing
                coords.append(EMPTY)
                continue
            # a partial Fisher-Yates shuffle of the positions
            pool = positions[:]
            picked = []
            for i in range(n - 1, n - 1 - size, -1):
                j = getrandbits(bits[i + 1])
                while j > i:
                    j = getrandbits(bits[i + 1])
                picked.append(pool[j])
                pool[j] = pool[i]
            picked = tuple(picked)
            value = drawn.get(picked)
            if value is None:
                value = drawn[picked] = Point(tuple(ground[j] for j in picked))
            coords.append(value)
        yield coords


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
    """Locate each point of ``sample_decomposition_points(dec, count, seed)``
    as ``piece_for_point`` does, from its coordinates as drawn: the point is
    built only when it lies in no piece or in several."""
    if count < 0:
        raise ValueError("samples must be non-negative")
    ambient, limit = dec.ambient, dec.limit_point
    tail = limit.tail_value
    limit_len = len(limit.prefix)
    limit_values = [limit.coordinate(s) for s in range(ambient.explicit_len + dec.depth - 1)]
    # a drawn value is the limit's or within its bound, so the points lie in
    # the ambient when the limit does; if not (a hand-built decomposition),
    # each point that is not the limit is checked as ``piece_for_point`` does
    check_each = not point_in_ambient(ambient, limit)
    locate = dec.index.locator()
    in_piece = 0
    at_limit = 0
    unresolved = []
    for coords in _drawn_prefixes(dec, count, seed):
        width = len(coords)
        if width >= limit_len and coords == limit_values[:width]:
            at_limit += 1
            continue
        if check_each and not point_in_ambient(ambient, ProductPoint(coords, tail)):
            raise ValueError(f"point {ProductPoint(coords, tail)} outside ambient {ambient}")
        hits = locate(coords, tail)
        if not hits:
            unresolved.append(ProductPoint(coords, tail))
        elif hits & (hits - 1):
            labels = [dec.pieces[i].label for i in _bits(hits)]
            raise AssertionError(f"point {ProductPoint(coords, tail)} lies in several "
                                 f"pieces: {labels}")
        else:
            in_piece += 1
    return MembershipReport(count, in_piece, at_limit, tuple(unresolved))


def limit_neighborhood_boxes(dec: Decomposition, count: int, seed: int) -> list:
    """Seeded basic boxes around the limit point (F inside each coordinate
    value, G clear of it)."""
    if count < 0:
        raise ValueError("boxes must be non-negative")
    rng = random.Random(seed)
    base = max(dec.witnesses) + 1 if dec.witnesses else 0
    extras = [base + t for t in range(_EXTRA_ELEMENTS)]
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
    index = dec.index
    violations = []
    for box in boxes:
        # the pieces not inside that are constrained past the box's last coordinate
        outside = (index.not_within_mask(box)
                   & index.constrained_after(box.max_constrained_coord()))
        if outside:
            text = str(box)
            violations.extend((text, dec.pieces[i].label) for i in _bits(outside))
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
