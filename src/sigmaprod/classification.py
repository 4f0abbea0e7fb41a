"""Homeomorphism classification of products of sigma spaces, with witnesses.

Over an uncountable ground set, the invariants are the omega-threshold i
(largest index whose space occurs omega-many times) and the exponents above
it; everything at or below i is absorbed.  Products with finitely many
factors are decided completely; when positive exponents occur cofinally and
the omega-threshold is finite, mismatches are an open question and the
verdict says so rather than guessing.

For a countable ground set the finite products are countable compacta,
classified by their derivation index 1 + sum of n * v, which the clopen
partition of ``decompose_countable`` proves by induction; the infinite
products are all homeomorphic.

The decomposition constructors emit the clopen partitions behind the
absorption rules, by levels: the pinned constraints once, and each piece as
its level, its own constraints and its reduced type, with the single limit
point, so every claim is machine-checkable.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, repeat
from operator import itemgetter

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
    box_intersect,
    box_is_empty,
    box_reduce,
    box_subset,
    _admits,
)
# bound by this name in bench/tracing.py
from .encode import decomposition_to_json  # noqa: F401
from .encode import integer as _writable

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


ClassificationVerdict = namedtuple("ClassificationVerdict", "outcome rule detail")


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


# the detail text of the uncountable verdicts that name the two values differing
_DIFFERING_VALUES = {
    "largest-embeddable-bound": "the largest n whose space embeds differs: {} versus {}",
    "omega-threshold": "omega-thresholds differ: {} versus {} (largest bound "
                       "embeddable into every clopen set)",
}


@lru_cache(maxsize=1024)
def _values_differ(rule: str, a: str, b: str) -> ClassificationVerdict:
    """The NOT_HOMEOMORPHIC verdict of ``rule`` for the text values a and b,
    one shared object per key while the key stays in the memo."""
    return ClassificationVerdict(NOT_HOMEOMORPHIC, rule, _DIFFERING_VALUES[rule].format(a, b))


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


# the invariants of every sequence with an omega tail, whatever its entries
_SATURATED = _Invariants(TauSequence((), OMEGA))


def _invariants(tau: TauSequence) -> _Invariants:
    """Compute the invariants of ``tau`` and keep them on the object itself:
    they live as long as the sequence does, and a new sequence object computes
    its own, except that every omega-tail sequence shares ``_SATURATED``.
    Callers read ``tau._invariants`` first, None until this ran."""
    inv = _SATURATED if is_omega(tau.tail) else _Invariants(tau)
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
    homeomorphic.  Verdicts are immutable, and a call may return the object an
    earlier call returned.
    """
    # the kept invariants, read inline: this is the hot path of a batch
    a = tau._invariants or _invariants(tau)
    b = tau2._invariants or _invariants(tau2)
    if gamma == "uncountable":
        # equal normal forms have equal support bounds, so j decides first
        if a.j != b.j:
            return _values_differ("largest-embeddable-bound", a.j, b.j)
        if a.i == b.i and a.upper == b.upper and a.tail == b.tail:
            if a.saturated:
                return OMEGA_SATURATED
            if a.j_finite:
                return FINITE_SUPPORT_INVARIANTS
            return ABSORPTION_NORMAL_FORM
        if a.j_finite:
            if a.i != b.i:
                return _values_differ("omega-threshold", a.i, b.i)
            return UPPER_EXPONENTS
        if a.saturated or b.saturated:
            return OPEN_VERDICT_ONE_SATURATED
        return OPEN_VERDICT
    if gamma != "countable":
        raise ValueError(f"gamma must be 'uncountable' or 'countable', got {gamma!r}")
    if a.index is not None and b.index is not None:
        # built by tuple.__new__, skipping the namedtuple's Python-level __new__
        try:
            if a.index == b.index:
                return tuple.__new__(ClassificationVerdict, (
                    HOMEOMORPHIC, "countable-derivation-index",
                    f"both countable compacta have derivation index {a.index} "
                    "and a single point at the last stage"))
            return tuple.__new__(ClassificationVerdict, (
                NOT_HOMEOMORPHIC, "countable-derivation-index",
                f"derivation indices differ: {a.index} versus {b.index}"))
        except ValueError:  # an index the interpreter will not write as text
            _writable(max(a.index, b.index))  # raises OutputTooLarge
            raise
    if a.index is None and b.index is None:
        return COUNTABLE_INFINITE_PRODUCT
    return COUNTABLE_VERSUS_PERFECT


# ---------------------------------------------------------------------------
# derivation index (countable ground set, finite products)


def _factor_bounds(ks) -> tuple:
    """``ks`` as a tuple, refused when empty or holding a bool or a negative."""
    ks = tuple(ks)
    if not ks:
        raise ValueError("need at least one factor")
    if any(type(k) is not int or k < 0 for k in ks):
        raise ValueError("factor bounds must be non-negative integers")
    return ks


def cb_invariants(ks, budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """(1 + sum(ks), 1): the derivation index of the product of the sigma_k over
    a countable ground set, and the point count of its last stage, as the
    partition of ``decompose_countable`` proves them by induction on sum(ks).
    Charges ``budget`` one unit per factor."""
    ks = _factor_bounds(ks)
    Budget.of(budget).charge(len(ks))
    return 1 + sum(ks), 1


# ---------------------------------------------------------------------------
# invariant recovery from embeddability profiles


def max_power_embeddable(n: int, nf: NormalForm) -> TauValue:
    """Largest k with the n-bounded space to the k embeddable into the best
    clopen set avoiding the (n+1)-bounded space: omega at or below the
    threshold, else the sum of the exponents from n up."""
    if n < 1:
        raise ValueError("bounds are indexed from 1")
    if is_omega(nf.i) or n <= nf.i or nf.upper_tail > 0:
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


class DecompositionPiece(tuple):
    """A clopen piece with its verified reduced type, stored as the tuple
    (label, ambient, own, type, level, levels).  Its box carries the first
    ``level`` constraints of ``levels``, its decomposition's level
    constraints, plus its ``own`` constraints past them; ``type`` is its
    reduced type in the form of ``ProductDescriptor.run_length``.  The box
    and the type's descriptor ``claimed_type`` are built only when read.
    Calling the class checks the piece; a piece built by hand is level 0 and
    carries all its constraints as its own."""

    __slots__ = ()

    def __new__(cls, label: str, ambient: ProductDescriptor, own: tuple,
                claimed_type: ProductDescriptor, level: int = 0, levels: tuple = ()):
        if not 0 <= level <= len(levels):
            raise ValueError(f"piece {label}: level {level} outside 0 .. {len(levels)}")
        constraints = levels[:level] + own
        box = BasicBox(ambient, constraints)
        if box.constraints != constraints:
            raise ValueError(f"piece {label}: own constraints must be nontrivial, "
                             "at increasing coordinates past its level's")
        # box_reduce raises ValueError on an empty box
        if box_reduce(box).descriptor != claimed_type:
            raise ValueError(f"piece {label}: claimed type does not match the "
                             "box reduction")
        return tuple.__new__(cls, (label, ambient, own, claimed_type.run_length(), level,
                                   levels))

    label = property(itemgetter(0))
    ambient = property(itemgetter(1))
    own = property(itemgetter(2))
    type = property(itemgetter(3))
    level = property(itemgetter(4))
    levels = property(itemgetter(5))

    @property
    def claimed_type(self) -> ProductDescriptor:
        zeros, rest, tail = self[3]
        return ProductDescriptor((0,) * zeros + rest, tail)

    @property
    def box(self) -> BasicBox:
        return BasicBox(self[1], self[5][:self[4]] + self[2])

    def __getnewargs__(self) -> tuple:
        # a copy or an unpickled piece is built through the checks again
        return self[0], self[1], self[2], self.claimed_type, self[4], self[5]

    def __repr__(self) -> str:
        return f"DecompositionPiece{tuple.__repr__(self)}"


@dataclass(frozen=True)
class Decomposition:
    """A clopen partition of ``ambient`` minus ``limit_point``.  ``levels``
    holds the level constraints at increasing coordinates, and ``pieces``
    the checked pieces, each sharing this ambient and these levels."""

    kind: str
    ambient: ProductDescriptor
    levels: tuple
    pieces: tuple
    limit_point: ProductPoint
    witnesses: tuple
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        ambient, levels = self.ambient, self.levels
        for p in self.pieces:
            if not isinstance(p, DecompositionPiece):
                raise TypeError(f"{p!r} is not a DecompositionPiece")
            # p[1] and p[5], its ambient and levels, read without a property call
            if not ((p[1] is ambient or p[1] == ambient) and (p[5] is levels or p[5] == levels)):
                raise ValueError(f"piece {p.label} does not share the decomposition's "
                                 "ambient and levels")

    @cached_property
    def index(self) -> BoxIndex:
        """Per-coordinate constraint index of the pieces, built on first use."""
        return BoxIndex(self.ambient, self.levels, map(_LEVEL_OWN, self.pieces))

    @cached_property
    def level_partition(self):
        """``check_level_partition`` of this decomposition: None when the
        levels prove the partition, and then the disjointness, sampled
        membership and cofiniteness checks answer from the levels without
        building ``index``.  The constructors' partitions are handed it,
        proved once per process for each (kind, m, n, witnesses) and kept in
        the bounded memo of ``_level_schema``; any other decomposition runs
        the proof on first use.  The size of the levels bounds its search, so no budget is
        charged."""
        return check_level_partition(self, sys.maxsize)

    @cached_property
    def level_shapes(self):
        """``_level_shapes``, run once for the proof and the disjointness
        charge; the constructors' partitions are handed theirs."""
        return _level_shapes(self)


_LEVEL_OWN = itemgetter(4, 2)  # a piece's (level, own), the member form of BoxIndex


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
    0 .. n - 1, built only once the charge has passed.  The parts that do not
    depend on the depth come from ``_level_schema``, and the decomposition
    is handed its level shapes and its proof, as ``_level_shapes`` and
    ``check_level_partition`` would find them."""
    offset = 1 if m > 0 else 0
    Budget.of(budget).charge(decompose_charges(m, n, depth, 0)[0])
    if witnesses is None:
        witnesses = tuple(range(n))
    names = (*(label(0, i) for i in range(n)), label(1, 0))
    # the memo keys int witnesses alone: it would take 1, 1.0 and True for one
    schema = (_level_schema if all(type(w) is int for w in witnesses)
              else _level_schema.__wrapped__)(m, n, witnesses, names, depth > 1)
    ambient, full_set = schema.ambient, schema.full_set
    # piece (k, i) pins the first offset + k coordinates: the small set at 0,
    # then the full set at each omega coordinate before its own
    levels = (((0, schema.small_set, EMPTY),) if m > 0 else ()) + tuple(
        (offset + k, full_set, EMPTY) for k in range(depth - 1))
    dec = Decomposition(kind, ambient, levels,
                        _partition_pieces(ambient, levels, m, n, offset, depth, schema.misses,
                                          label),
                        schema.limit, witnesses, depth)
    shapes = {schema.first: [0]} if m > 0 else {}
    shapes[schema.periodic] = list(range(offset, offset + depth))
    # what the cached properties would store on first use
    vars(dec).update(level_shapes=shapes, level_partition=schema.proof)
    return dec


_Schema = namedtuple("_Schema", "ambient misses full_set small_set limit first periodic proof")


@lru_cache(maxsize=256)
def _level_schema(m: int, n: int, witnesses: tuple, names: tuple, deep: bool) -> _Schema:
    """What the partition of ``_absorb_small`` over (m, n, witnesses) holds at
    every depth, checked and proved once per key: the ambient, the misses
    (F, G) at the first coordinate that misses witness i, the full and the
    small set, the limit point, the level shapes (bound, blocks) of
    coordinate 0 (None when m = 0) and of every omega coordinate, and the
    answer of ``check_level_partition``, whose levels lie in those two
    shapes.  ``names`` are label(0, i) for each witness i, then label(1, 0),
    the pieces the type checks name; the full set at the first omega
    coordinate is checked when ``deep``, the depth being past 1.  A failed
    check raises, so the memo holds only keys whose checks passed."""
    offset = 1 if m > 0 else 0
    full_set = Point(witnesses)
    small_set = Point(witnesses[:m])
    misses = tuple((Point(witnesses[:i]), Point.of(witnesses[i])) for i in range(n))
    ambient = ProductDescriptor((m,) if m > 0 else (), n)
    # box_reduce works coordinate by coordinate, so a piece's box is nonempty
    # and of its claimed type exactly when each of its constraints is.  Each
    # distinct one is checked alone, once, naming the first piece that carries
    # it: the B'(j) misses and the small set at 0, and the misses and the full
    # set at the first omega coordinate, whose bound n every omega coordinate shares
    checks = [(0, f, g, m - j, f"B'({j})") for j, (f, g) in enumerate(misses[:m])]
    if m > 0:
        checks.append((0, small_set, EMPTY, 0, names[0]))
    checks += [(offset, f, g, n - i, names[i]) for i, (f, g) in enumerate(misses)]
    if deep:
        checks.append((offset, full_set, EMPTY, 0, names[n]))
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
    limit = ProductPoint((small_set,) if m > 0 else (), full_set)
    # the blocks of a level: its pieces' own (F, G) in piece order, then its pin
    first = (m, (*misses[:m], (small_set, EMPTY))) if m > 0 else None
    periodic = (n, (*misses, (full_set, EMPTY)))
    shapes = {first: [0], periodic: [offset]} if m > 0 else {periodic: [offset]}
    return _Schema(ambient, misses, full_set, small_set, limit, first, periodic,
                   _prove(shapes, Budget(sys.maxsize)))


def _partition_pieces(ambient: ProductDescriptor, levels: tuple, m: int, n: int,
                      offset: int, depth: int, misses: tuple, label) -> tuple:
    """The pieces of ``_absorb_small``, filled through ``tuple.__new__``:
    the caller's check of each distinct constraint checks them.  B'(j) is
    level 0 with miss j at coordinate 0, of type (m - j) x n^omega; (k, i)
    is level s = offset + k plus miss i at s, of type 0^s x (n - i), where
    the canonical form drops a last factor equal to the tail n."""
    rows = [(f"B'({j})", ambient, ((0, f, g),), (0, (m - j,), n), 0, levels)
            for j, (f, g) in enumerate(misses[:m])]
    rests = [(n - i,) if i else () for i in range(n)]
    rows += [(label(k, i), ambient, ((s, f, g),), (s, rests[i], n), s, levels)
             for k, s in enumerate(range(offset, offset + depth))
             for i, (f, g) in enumerate(misses)]
    return tuple(map(tuple.__new__, repeat(DecompositionPiece), rows))


def decompose_charges(m: int, n: int, depth: int, samples: int) -> tuple:
    """The units a ``decompose`` request charges, in the order it charges
    them, for the partition of ``decompose_absorb_small(m, n, depth)`` (of
    ``decompose_classif_k`` with m = 0, n = 1): building it, drawing
    ``samples`` points from it, and ``check_pairwise_disjoint`` on it.  All
    three follow from (m, n, depth), so the whole charge can be tried before
    any piece is built.  The disjointness check charges the comparisons
    ``BoxIndex.meeting_pairs`` would make, counted from the level shapes,
    although the levels prove the partition and none is made; with the
    building charge it bounds the proof's nodes, 2k + 1 for each level
    shape over k witnesses."""
    offset = 1 if m > 0 else 0
    # B'(j) carries one constraint and A/B(k, i) k + 1 + offset; the distinct ones
    # hold n(n + 1)/2 elements in the misses, n in the full set and m in the small set
    misses = n * (n + 1) // 2
    build = m + n * (depth * (depth - 1) // 2 + depth * (1 + offset)) + misses + n + m
    # each point costs its widest prefix plus its tail, one unit per 64-bit
    # word of each coordinate's code of G + 1 bits, G = n + _EXTRA_ELEMENTS
    sampling = samples * (offset + depth) * (1 + (n + _EXTRA_ELEMENTS) // 64)
    # BoxIndex.meeting_pairs would charge (g - 1)·Σ(|F| + |G|) per coordinate
    # over its g distinct constraints: at 0 the m misses B'(j) and the small set,
    # at each omega coordinate the n misses and, but at the last, the full set
    comparisons = (m * (m * (m + 1) // 2 + m) + (depth - 1) * n * (misses + n)
                   + (n - 1) * misses)
    return build, sampling, comparisons


def decompose_countable(ks, window: int = 4,
                        budget: Budget | int = DEFAULT_BUDGET) -> Decomposition:
    """Clopen partition of X minus its all-empty point ``ProductPoint()``, for
    X the product of the sigma_k, k in ``ks``, over the naturals, through the
    elements below ``window``.

    Piece P(a, S), for an element a and a nonempty set S of the coordinates
    with k_s > 0, constrains each s in S by ({a}, {0, ..., a - 1}) and every
    other s by ({}, {0, ..., a}): its points have least element a over all
    coordinates, held by exactly those in S.  So the pieces split X minus the
    all-empty point into basic boxes, and ``box_reduce`` checks each type,
    the product of the sigma_{k_s - [s in S]}.  Split by the first nonempty
    coordinate they would not be clopen: "x_s is empty" is not open.

    Induction on sum(ks) gives X the derivation index 1 + sum(ks) and the
    all-empty point as its last stage; with sum(ks) = 0 there are no pieces
    and X is that point.  A piece's type has the smaller sum sum(ks) - |S|,
    largest at |S| = 1, which every level holds.  R_a = {x : every x_s
    misses 0, ..., a - 1} holds every piece of level a or more, and the R_a
    are a neighbourhood base at the all-empty point, so the last stages of
    infinitely many top pieces accumulate there alone.

    Points whose least element is ``window`` or more lie in no piece, and
    the window is stored as the depth, so the samplers refuse the partition.
    The n(a + 1) elements of the constraints of a piece of level a, over n
    factors, are all charged to ``budget`` before any piece is built."""
    ks = _factor_bounds(ks)
    if type(window) is not int or window < 1:
        raise ValueError("the window must be a positive integer")
    positive = [s for s, k in enumerate(ks) if k]
    Budget.of(budget).charge(((1 << len(positive)) - 1) * len(ks) * window * (window + 1) // 2)
    subsets = [(Point(c), ProductDescriptor(tuple(k - (s in c) for s, k in enumerate(ks))))
               for size in range(1, len(positive) + 1) for c in combinations(positive, size)]
    ambient = ProductDescriptor(ks)
    pieces = []
    for a in range(window):
        at, below, upto = Point.of(a), Point(range(a)), Point(range(a + 1))
        for held, claimed in subsets:
            own = tuple((s, at, below) if s in held else (s, EMPTY, upto) for s in range(len(ks)))
            pieces.append(DecompositionPiece(f"P({a},{held})", ambient, own, claimed))
    return Decomposition("countable", ambient, (), pieces, ProductPoint(),
                         tuple(range(window)), window)


def check_level_partition(dec: Decomposition, budget: Budget | int = DEFAULT_BUDGET):
    """Prove, level by level, that the pieces and the remainder past the last
    level partition the ambient; returns None, a witness ("uncovered" or
    "overlap", level, S), or ("refused", level or None, reason) for a
    decomposition outside level form.

    Level form: level t pins coordinate t to the limit's value (t, limit_t,
    {}) for t below L = len(levels), each piece's own constraints are one
    constraint at its level's coordinate, and the limit's value fills the
    bound at every coordinate t <= L.  Past the last pin, at L, the limit's
    value plays the pin.  Then R_t = {x : x_s = limit_s for s < t} holds
    every piece of level t or more, and the R_t are a neighbourhood base at
    the limit.  The blocks of level t are its pieces' own constraints and
    its pin.  If every value at coordinate t satisfies exactly one block, R_t
    is split into its pieces and R_(t + 1); by induction on t the pieces are
    pairwise disjoint, and with the remainder R_(L + 1) they cover the
    ambient.  A value satisfies (F, G) by its trace S on the elements the
    blocks name, and over an infinite ground set every such S with |S| at
    most the bound is the trace of a value.  So the check asks, of each
    distinct (bound, blocks) shape, whether every such S satisfies exactly
    one block; a witness names its first level and S.  The constructors emit
    the same shape at every level past their offset, so one check per shape
    proves the partition at every depth, the infinite one included.

    The search decides the named elements in order of first appearance, in
    or out, cuts a branch once the bound is full, and settles it once no
    block still alive names an undecided element; states are memoised on
    (element, count, alive blocks).  One unit per node is charged to
    ``budget``.  A level whose search passes 1 + 2·Σ(|F| + |G|) nodes over
    its blocks is refused: the constructors' levels over n witnesses take
    2n + 1."""
    meter = Budget.of(budget)
    shapes = dec.level_shapes
    if isinstance(shapes, tuple):
        return shapes
    return _prove(shapes, meter)


def _prove(shapes: dict, meter: Budget):
    """``check_level_partition`` over the level shapes ``shapes``, each with
    its levels: None, or the witness at the first level of the first shape
    that fails."""
    for (bound, blocks), levels in shapes.items():
        witness = _one_block_each(bound, blocks, meter)
        if witness is not None:
            kind, held = witness
            t = levels[0]  # the first level of the shape
            if kind == "refused":
                return kind, t, f"the search at level {t} passes {held} nodes"
            return kind, t, held
    return None


def _level_shapes(dec: Decomposition):
    """{(bound, blocks): its levels t, ascending} over t = 0 .. len(levels),
    in order of first level, where the blocks of level t are its pieces' own
    (F, G) in piece order then its pin; or the refusal of
    ``check_level_partition``."""
    levels, limit, ambient = dec.levels, dec.limit_point, dec.ambient
    top = len(levels)
    if not ambient.has_coordinate(top):
        return "refused", None, f"coordinate {top}, past the last level, outside ambient"
    own = [[] for _ in range(top + 1)]
    for p in dec.pieces:
        constraints, level = p[2], p[4]
        if len(constraints) != 1 or constraints[0][0] != level:
            return ("refused", level,
                    f"piece {p[0]} is not one constraint at coordinate {level}")
        own[level].append(constraints[0][1:])
    shapes: dict = {}
    for t, blocks in enumerate(own):
        value, bound = limit.coordinate(t), ambient.bound_at(t)
        if t < top and levels[t] != (t, value, EMPTY):
            return "refused", t, f"level {t} does not pin coordinate {t} to the limit's value"
        if len(value) != bound:
            return "refused", t, f"the limit's value at {t} does not fill the bound {bound}"
        blocks.append((value, EMPTY))
        shapes.setdefault((bound, tuple(blocks)), []).append(t)
    return shapes


def _one_block_each(bound: int, blocks: tuple, meter: Budget):
    """None when every set S of the elements ``blocks`` name, |S| <= bound,
    satisfies exactly one block (F inside S, G outside); else ("uncovered"
    or "overlap", S) for the first S found, or ("refused", nodes) once the
    search passes its node bound.  An explicit-stack depth-first search,
    trying each element out before in."""
    elements = list(dict.fromkeys(e for f, g in blocks for e in (*f, *g)))
    position = {e: j for j, e in enumerate(elements)}
    needs_in = [0] * len(elements)  # element -> mask of the blocks whose F holds it
    needs_out = [0] * len(elements)  # element -> mask of the blocks whose G holds it
    for b, (f, g) in enumerate(blocks):
        for e in f:
            needs_in[position[e]] |= 1 << b
        for e in g:
            needs_out[position[e]] |= 1 << b
    # naming[j]: the blocks naming an element at position j or later
    naming = [0] * (len(elements) + 1)
    for j in range(len(elements) - 1, -1, -1):
        naming[j] = naming[j + 1] | needs_in[j] | needs_out[j]
    cap = 1 + 2 * sum(len(f) + len(g) for f, g in blocks)
    nodes = 0
    seen = set()
    stack = [(0, 0, (1 << len(blocks)) - 1, 0)]  # (element, count in, alive, mask of S)
    while stack:
        j, count, alive, held = stack.pop()
        if (j, count, alive) in seen:
            continue
        seen.add((j, count, alive))
        nodes += 1
        if nodes > cap:
            return "refused", cap
        meter.charge(1)
        if not alive & naming[j]:
            # the alive blocks are decided: S, and S with any of the
            # undecided elements, satisfies exactly them
            if not alive or alive & (alive - 1):
                return ("overlap" if alive else "uncovered",
                        Point(e for k, e in enumerate(elements) if held >> k & 1))
            continue
        if count < bound:
            stack.append((j + 1, count + 1, alive & ~needs_out[j], held | 1 << j))
        stack.append((j + 1, count, alive & ~needs_in[j], held))
    return None


def check_pairwise_disjoint(dec: Decomposition,
                            budget: Budget | int = DEFAULT_BUDGET) -> list:
    """Symbolically empty pairwise intersections; returns the offending pairs.
    The constraint comparisons are charged to ``budget`` as
    ``BoxIndex.meeting_pairs`` counts them, before any is made.  When the
    levels prove the partition (``check_level_partition``) no pair meets and
    none is compared; the units are counted per distinct level shape, from
    its pieces' own constraints and its pin while a piece lies above it."""
    if dec.level_partition is not None:
        pieces = dec.pieces
        return [(pieces[a].label, pieces[b].label) for a, b in dec.index.meeting_pairs(budget)]
    shapes = dec.level_shapes
    # the last level holding a piece: a level without one has its pin alone
    last = max((levels[-1] for (_bound, blocks), levels in shapes.items() if len(blocks) > 1),
               default=0)
    units = 0
    for (_bound, blocks), levels in shapes.items():
        size = sum(len(f) + len(g) for f, g in blocks)
        pinned = bisect_left(levels, last)  # the levels that carry their pin
        # without the pin (V, {}) a level has one constraint and |V| elements fewer
        units += (pinned * (len(blocks) - 1) * size
                  + (len(levels) - pinned) * (len(blocks) - 2) * (size - len(blocks[-1][0])))
    Budget.of(budget).charge(units)
    return []


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


def _sample_ground(dec: Decomposition) -> list:
    """The elements sampled values are drawn from: the witnesses, then
    ``_EXTRA_ELEMENTS`` more past the largest of them."""
    base = max(dec.witnesses) + 1 if dec.witnesses else 0
    return [*dec.witnesses, *range(base, base + _EXTRA_ELEMENTS)]


def _refuse_unsampleable(dec: Decomposition, count: int, what: str, beyond: int) -> None:
    """Refuse, before any draw, ``count`` draws that reach ``beyond``
    coordinates past the explicit factors: a negative count, a partition of
    ``decompose_countable``, a coordinate the ambient lacks, or a limit
    point outside the ambient.  A drawn value is the limit's or within its
    coordinate's bound, so past these checks every drawn point and box lies
    in the ambient."""
    if count < 0:
        raise ValueError(f"{what} must be non-negative")
    if dec.kind == "countable":
        # its points past the window lie in no piece, and its product has no tail
        raise ValueError("cannot sample a countable decomposition: its depth counts "
                         "elements, not coordinates")
    ambient, limit = dec.ambient, dec.limit_point
    if beyond > 0 and ambient.omega_tail is None:
        raise ValueError(f"coordinate {ambient.explicit_len} outside ambient")
    if not point_in_ambient(ambient, limit):
        raise ValueError(f"point {limit} outside ambient {ambient}")


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
    """Draw ``count`` seeded eventually-constant points, with prefix within
    the materialized depth and the limit tail, and locate each as
    ``piece_for_point`` does, after ``_refuse_unsampleable``.

    A point draws its width, the coordinates before the limit's tail, as
    ``Random.randrange(depth)`` past the explicit factors does, then one
    code per coordinate in order.  Over the G elements of ``_sample_ground``
    a code is one ``getrandbits(G + 1)`` draw: bit 0 set picks the limit
    point's value, with probability 1/2; otherwise bits 1 .. G pick a
    subset of the ground, cut to the first min(bound, size) of its elements
    in ground order.  Every value within the coordinate's bound is
    reachable.

    When the levels prove the partition (``check_level_partition``), the
    ground repeats no element and no point reaches past coordinate
    len(levels), that of the last pieces, a point first off the limit at a
    coordinate t lies in one piece, of level t.  Over a ground of distinct elements the limit's value V at t fills
    the bound, so a code picks V exactly when bit 0 is set or its bits
    1 .. p are V's, p the ground position of V's last element (no code
    picks a V outside the ground): one mask test per code, and no value is
    built.  The point is decided at its first code off the limit and draws
    the 32-bit words of its unread codes in one call, which moves the
    generator on as their draws would.  Every other decomposition draws
    each point whole and locates it with ``piece_for_point``."""
    _refuse_unsampleable(dec, count, "samples", dec.depth - 1)
    ambient, limit, depth = dec.ambient, dec.limit_point, dec.depth
    if count and depth < 1:  # no width could be drawn
        raise ValueError("sampling needs a positive depth")
    explicit = ambient.explicit_len
    getrandbits = random.Random(seed).getrandbits
    ground = _sample_ground(dec)
    size = len(ground) + 1
    tail = limit.tail_value
    width_bits = depth.bit_length()
    widest = explicit + depth - 1  # the coordinates a point can draw
    top = len(dec.levels)
    position = {e: j for j, e in enumerate(ground, 1)}
    walk = (dec.level_partition is None and widest <= top + 1
            and len(position) == len(ground))
    if walk:
        words = 32 * ((size + 31) // 32)  # the bits of the 32-bit words a code takes
        limit_len = len(limit.prefix)
        pinned = (limit.prefix + (tail,) * widest)[:widest]  # the limit's values
        found: dict = {}  # V -> (the mask of bits 1 .. p, V's bits)
        for value in set(pinned):
            places = [position.get(e) for e in value]
            found[value] = ((0, 1) if None in places else
                            ((2 << max(places, default=0)) - 2, sum(1 << j for j in places)))
        tests = [found[value] for value in pinned]
    else:
        bounds = [ambient.bound_at(s) for s in range(widest)]
    in_piece = 0
    at_limit = 0
    unresolved = []
    for _ in range(count):
        # Random._randbelow_with_getrandbits(depth): getrandbits(bit length)
        # until it falls below depth
        width = getrandbits(width_bits)
        while width >= depth:
            width = getrandbits(width_bits)
        width += explicit
        if not walk:
            coords = []
            for s in range(width):
                code = getrandbits(size)
                if code & 1:
                    coords.append(limit.coordinate(s))
                else:
                    picked = [e for j, e in enumerate(ground, 1) if code >> j & 1]
                    coords.append(Point(picked[:bounds[s]]))
            x = ProductPoint(coords, tail)
            where = piece_for_point(dec, x)
            if where == "limit":
                at_limit += 1
            elif where is None:
                unresolved.append(x)
            else:
                in_piece += 1
            continue
        for s in range(width):
            low, want = tests[s]
            code = getrandbits(size)
            if not code & 1 and code & low != want:  # in one piece, of level s
                in_piece += 1
                getrandbits(words * (width - 1 - s))  # the codes left unread
                break
        else:
            # the point agrees with the limit up to its width and holds the
            # tail value from there on
            if width >= limit_len:
                at_limit += 1
            elif next(t for t in range(width, limit_len) if limit.prefix[t] != tail) <= top:
                in_piece += 1
            else:
                unresolved.append(ProductPoint(pinned[:width], tail))
    return MembershipReport(count, in_piece, at_limit, tuple(unresolved))


def limit_neighborhood_boxes(dec: Decomposition, count: int, seed: int) -> list:
    """Seeded basic boxes around the limit point.

    Each box constrains up to three distinct coordinates below depth + 2
    past the explicit factors, each drawn as ``Random.randrange`` draws it.
    At each, F is the part of the limit's value picked by a ``getrandbits``
    mask, and G the part of the extra elements outside that value picked by
    another, so the box contains the limit by construction."""
    beyond = dec.depth + 1
    _refuse_unsampleable(dec, count, "boxes", beyond)
    getrandbits = random.Random(seed).getrandbits
    ambient, limit = dec.ambient, dec.limit_point
    extras = _sample_ground(dec)[len(dec.witnesses):]
    max_coord = ambient.explicit_len + beyond
    if count and max_coord < 1:
        raise ValueError("boxes need a coordinate below depth + 2 past the explicit factors")
    coord_bits = max_coord.bit_length()
    pools: dict = {}  # a value of the limit's -> the extras outside it
    new = tuple.__new__  # F and G are picked in order from a sorted value or pool
    boxes = []
    for _ in range(count):
        drawn = set()
        for _ in range(getrandbits(2)):
            # Random.randrange(max_coord): getrandbits(bit length) until below it
            s = getrandbits(coord_bits)
            while s >= max_coord:
                s = getrandbits(coord_bits)
            drawn.add(s)
        constraints = []
        for s in sorted(drawn):
            value = limit.coordinate(s)
            pool = pools.get(value)
            if pool is None:
                pool = pools[value] = [e for e in extras if e not in value]
            mask = getrandbits(len(value))
            f = new(Point, [e for j, e in enumerate(value) if mask >> j & 1]) if mask else EMPTY
            mask = getrandbits(len(pool))
            g = new(Point, [e for j, e in enumerate(pool) if mask >> j & 1]) if mask else EMPTY
            if f or g:
                constraints.append((s, f, g))
        boxes.append(BasicBox(ambient, tuple(constraints)))
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
    beyond the neighborhood's last constrained coordinate.

    When the levels prove the partition (``check_level_partition``), a piece
    of level t lies in R_t, the points that agree with the limit below t.  So
    a box containing the limit, constrained up to coordinate c, contains
    every piece of level past c, and a box missing it meets none of them:
    those are its violations, and no other piece is constrained past c.
    Otherwise each piece constrained past c is compared with the box by
    ``box_subset``."""
    boxes = list(boxes)
    ambient, pieces = dec.ambient, dec.pieces
    if any(box.ambient != ambient for box in boxes):
        raise ValueError("cannot compare boxes over different ambients")
    proved = dec.level_partition is None
    if proved:
        limit = dec.limit_point
    else:
        boxed = [(p[0], p.box) for p in pieces]
    violations = []
    for box in boxes:
        last = box.max_constrained_coord()
        if not proved:
            labels = [label for label, piece in boxed
                      if piece.max_constrained_coord() > last and not box_subset(piece, box)]
        elif all(_admits(f, g, limit.coordinate(s)) for s, f, g in box.constraints):
            continue
        else:
            labels = [p[0] for p in pieces if p[4] > last]
        if labels:
            text = str(box)
            violations.extend((text, label) for label in labels)
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
    """Inverse of ``embed_product_into_sigma``: separate the elements of a
    tagged union by their (1-based) factor tag into ``nfactors`` points."""
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
