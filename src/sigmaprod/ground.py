"""Ground model shared by every other module.

Ground elements are ints, negative ones included.  An uncountable ground
set is never approximated by a large enumeration: finite truncations take an
explicit ``ground_size`` argument and the symbolic modules (the clopen box
algebra, the classification rules) carry the infinite case.

``OMEGA`` is a distinguished marker ordered above every integer, with
sup-style arithmetic (``OMEGA + k == OMEGA``).  All types here are immutable
values; every operation is pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache, total_ordering
from itertools import combinations, permutations, product as iter_product

GroundElement = int

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed the configured size budget.

    ``needed`` is None when it has more digits than the interpreter writes as
    text (``sys.get_int_max_str_digits()``), so the error can always be written.
    """

    def __init__(self, needed: int, budget: int):
        try:
            size = str(needed)
        except ValueError:
            needed, size = None, f"over {sys.get_int_max_str_digits()} digits"
        super().__init__(f"enumeration of size {size} exceeds budget {budget}")
        self.needed = needed
        self.budget = budget


class Budget:
    """A running total of enumerated units against ``limit``, charged by every
    enumeration before it runs; one meter spans all the calls of a request."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    @classmethod
    def of(cls, budget: Budget | int) -> Budget:
        return budget if isinstance(budget, Budget) else cls(budget)

    def charge(self, units: int) -> None:
        needed = self.spent + units
        if needed > self.limit:
            raise BudgetExceeded(needed, self.limit)  # and charges nothing
        self.spent = needed

    def charge_power(self, base: int, exp: int) -> None:
        """Charge base ** exp units without computing a power past the room
        left: it is multiplied up only until it passes the room, and then the
        partial power, a lower bound, is the charge that raises."""
        units = 1
        if base < 2:
            units = base ** exp
        else:
            room = self.limit - self.spent
            for _ in range(exp):
                units *= base
                if units > room:
                    break
        self.charge(units)

    def charge_sum(self, terms) -> None:
        """Charge the sum of ``terms``, non-negative ints, without adding up
        terms past the room left: once the running sum passes the room, that
        partial sum, a lower bound, is the charge that raises."""
        units = 0
        room = self.limit - self.spent
        for term in terms:
            units += term
            if units > room:
                break
        self.charge(units)


@total_ordering
class Omega:
    """The first infinite ordinal as a marker value (singleton ``OMEGA``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "w"

    def __eq__(self, other):
        return isinstance(other, Omega)

    def __hash__(self):
        return hash(Omega)

    def __lt__(self, other):
        if isinstance(other, (int, Omega)):
            return False
        return NotImplemented

    def __add__(self, other):
        return self

    __radd__ = __add__


OMEGA = Omega()

TauValue = int | Omega


def is_omega(value) -> bool:
    return isinstance(value, Omega)


def _check_tau_value(value):
    # type() is int, not isinstance: a bool would read as 1 but print as True
    if not is_omega(value) and (type(value) is not int or value < 0):
        raise ValueError(f"value must be a non-negative integer or OMEGA, got {value!r}")


class Point(tuple):
    """A finite subset of the ground set: the tuple of its elements, sorted."""

    __slots__ = ()

    def __new__(cls, elements=()):
        return super().__new__(cls, sorted(set(elements)))

    @classmethod
    def of(cls, *elements) -> "Point":
        return cls(elements)

    def __or__(self, other: "Point") -> "Point":
        return Point(self + other)

    def __and__(self, other: "Point") -> "Point":
        keep = set(other)
        return Point(e for e in self if e in keep)

    def __sub__(self, other: "Point") -> "Point":
        drop = set(other)
        return Point(e for e in self if e not in drop)

    def isdisjoint(self, other: "Point") -> bool:
        return set(self).isdisjoint(other)

    def issubset(self, other: "Point") -> bool:
        return set(self).issubset(other)

    def __str__(self):
        return "{" + ",".join(map(str, self)) + "}"


EMPTY = Point()


def _without_trailing(entries: tuple, tail) -> tuple:
    """``entries`` without its trailing run of entries equal to ``tail``:
    the cut is found first and sliced once, so a long run is linear."""
    end = len(entries)
    while end and entries[end - 1] == tail:
        end -= 1
    return entries[:end]


@dataclass(frozen=True)
class ProductDescriptor:
    """A finite or countable product of sigma factors, each given by its bound.

    The factor with bound n is the space of all subsets of the ground set
    with at most n elements (n = 0 is the one-point space of the empty set).
    ``factors`` lists the bounds of the explicit coordinates; ``omega_tail``
    (optional) is a bound repeated omega-many times after them.  Canonical
    form drops trailing explicit factors equal to the tail, so descriptors
    compare by the space they denote.
    """

    factors: tuple = ()
    omega_tail: int | None = None

    def __post_init__(self):
        factors = tuple(self.factors)
        tail = () if self.omega_tail is None else (self.omega_tail,)
        for n in factors + tail:
            if type(n) is not int or n < 0:
                raise ValueError(f"factor bound must be a non-negative integer, got {n!r}")
        if tail:
            factors = _without_trailing(factors, self.omega_tail)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def single(cls, n: int) -> "ProductDescriptor":
        return cls((n,))

    @classmethod
    def power(cls, n: int, k: int) -> "ProductDescriptor":
        return cls((n,) * k)

    @classmethod
    def omega_power(cls, n: int) -> "ProductDescriptor":
        return cls((), n)

    @property
    def explicit_len(self) -> int:
        return len(self.factors)

    def has_coordinate(self, s: int) -> bool:
        return s >= 0 and (s < len(self.factors) or self.omega_tail is not None)

    def bound_at(self, s: int) -> int:
        if s < 0:
            raise IndexError(f"negative coordinate {s}")
        if s < len(self.factors):
            return self.factors[s]
        if self.omega_tail is not None:
            return self.omega_tail
        raise IndexError(f"coordinate {s} outside a product with {len(self.factors)} factors")

    def run_length(self) -> tuple:
        """(zeros, rest, tail): the leading zero factors, the factors after
        them and the tail; ``(0,) * zeros + rest`` gives the factors back."""
        factors = self.factors
        zeros = factors.count(0)
        if 0 in factors[zeros:]:  # a zero after a positive factor
            zeros = next(s for s, n in enumerate(factors) if n)
        return zeros, factors[zeros:], self.omega_tail


def type_signature(desc: ProductDescriptor) -> ProductDescriptor:
    """Descriptor modulo homeomorphism-preserving rewrites: one-point factors
    drop out and the order of the explicit factors is irrelevant."""
    return ProductDescriptor(tuple(sorted(n for n in desc.factors if n > 0)), desc.omega_tail)


@dataclass(frozen=True)
class ProductPoint:
    """A point of a product, as a finite prefix plus an eventually-constant tail.

    Coordinate ``s`` is ``prefix[s]`` when present and ``tail_value`` beyond.
    Canonical form drops trailing prefix entries equal to the tail value.
    """

    prefix: tuple = ()
    tail_value: Point = EMPTY

    def __post_init__(self):
        object.__setattr__(self, "prefix", _without_trailing(tuple(self.prefix), self.tail_value))

    def coordinate(self, s: int) -> Point:
        if s < 0:
            raise IndexError(f"negative coordinate {s}")
        if s < len(self.prefix):
            return self.prefix[s]
        return self.tail_value

    def __str__(self):
        coords = ",".join(str(p) for p in self.prefix)
        return f"({coords} tail={self.tail_value})"


def point_in_ambient(desc: ProductDescriptor, x: ProductPoint) -> bool:
    """Do the coordinates of ``x`` respect the bounds of ``desc``?"""
    factors, tail, prefix = desc.factors, desc.omega_tail, x.prefix
    if tail is None:
        if x.tail_value != EMPTY or len(prefix) > len(factors):
            return False
    elif len(x.tail_value) > tail:
        return False
    # the explicit factors bound the first coordinates, the tail the rest;
    # an explicit coordinate past the prefix holds the tail value
    for pt, bound in zip(prefix, factors):
        if len(pt) > bound:
            return False
    for pt in prefix[len(factors):]:
        if len(pt) > tail:
            return False
    tail_size = len(x.tail_value)
    for bound in factors[len(prefix):]:
        if tail_size > bound:
            return False
    return True


@lru_cache(maxsize=1024)
def _entry(idx: int, val: TauValue) -> tuple:
    """The (index, value) pair, one shared object per pair while it stays in
    the memo.  Called only on checked values: the memo's keys treat 1, True
    and 1.0 alike, so an unchecked call could store or return a bool."""
    return idx, val


@dataclass(frozen=True, slots=True)
class TauSequence:
    """Exponent sequence: ``value_at(n)`` copies of the n-th sigma space, n >= 1.

    Stored sparsely as (index, value) entries over an eventually-constant
    tail; canonical form drops entries equal to the tail.  Equal entries of
    separately built sequences are one shared pair.
    """

    entries: tuple = ()
    tail: TauValue = 0
    # where classification keeps the sequence's invariants once computed;
    # equality, hashing and repr ignore it
    _invariants: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_tau_value(self.tail)
        canon = []
        prev = 0
        for idx, val in self.entries:
            if type(idx) is not int or idx < 1:
                raise ValueError(f"tau indices start at 1, got {idx!r}")
            if idx <= prev:
                raise ValueError("tau indices must be strictly increasing")
            prev = idx
            _check_tau_value(val)
            if val != self.tail:
                canon.append(_entry(idx, val))
        object.__setattr__(self, "entries", tuple(canon))

    @classmethod
    def from_values(cls, values, tail: TauValue = 0) -> "TauSequence":
        return cls(tuple((i + 1, v) for i, v in enumerate(values)), tail)

    def value_at(self, n: int) -> TauValue:
        for idx, val in self.entries:
            if idx == n:
                return val
        return self.tail

    @property
    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def __str__(self):
        return format_tau(self)


def i_of(tau: TauSequence) -> TauValue:
    """Supremum of the indices where the sequence equals omega (0 if none)."""
    if is_omega(tau.tail):
        return OMEGA
    return max((idx for idx, val in tau.entries if is_omega(val)), default=0)


def j_of(tau: TauSequence) -> TauValue:
    """Supremum of the indices where the sequence is positive (0 if none)."""
    if is_omega(tau.tail) or tau.tail != 0:
        return OMEGA
    return max((idx for idx, val in tau.entries if val != 0), default=0)


def sigma_point_count(n: int, ground_size: int) -> int:
    """Number of subsets of a ground set of ``ground_size`` with at most n elements."""
    return sum(math.comb(ground_size, m) for m in range(min(n, ground_size) + 1))


def enumerate_sigma_points(n: int, ground_size: int) -> list:
    """All points of the n-bounded space over ``{0..ground_size-1}``, by size then lex."""
    points = []
    for m in range(min(n, ground_size) + 1):
        for combo in combinations(range(ground_size), m):
            points.append(Point(combo))
    return points


def union_fiber(singletons: list, k: int, placements=None) -> tuple:
    """The k-tuples holding ``singletons[i]`` in slot ``p[i]`` and EMPTY elsewhere,
    one for each placement p of ``placements``.  By default these are all the
    injective placements, in ``permutations`` order, and the k-tuples are the
    fiber of the k-fold union map over the union of ``singletons``."""
    if placements is None:
        placements = permutations(range(k), len(singletons))
    tuples = []
    for placement in placements:
        coords = [EMPTY] * k
        for single, slot in zip(singletons, placement):
            coords[slot] = single
        tuples.append(tuple(coords))
    return tuple(tuples)


def materialize(desc: ProductDescriptor, ground_size: int, depth: int | None = None,
                budget: Budget | int = DEFAULT_BUDGET) -> list:
    """Enumerate the product over ``{0..ground_size-1}``.

    Omega-tail coordinates are materialized up to ``depth`` (with the tail
    value empty beyond); for finite products ``depth`` is irrelevant beyond
    the explicit factors.  The result size is the product over materialized
    coordinates of the per-factor point counts, charged to ``budget``.
    """
    if ground_size < 1:
        raise ValueError("ground_size must be at least 1")
    explicit = len(desc.factors)
    if depth is None:
        depth = explicit
    if depth < explicit:
        raise ValueError(f"depth {depth} below the explicit factor count {explicit}")
    width = depth if desc.omega_tail is not None else explicit
    bounds = [desc.bound_at(s) for s in range(width)]
    total = 1
    for b in bounds:
        total *= sigma_point_count(b, ground_size)
    Budget.of(budget).charge(total)
    per_coord = [enumerate_sigma_points(b, ground_size) for b in bounds]
    return [ProductPoint(combo) for combo in iter_product(*per_coord)]


# ---------------------------------------------------------------------------
# text forms


def read_int(token: str, signed: bool = True) -> int | None:
    """The int that ``token`` writes when it is ASCII digits, after one "-" when
    ``signed``, and has no more digits than the interpreter converts
    (``sys.get_int_max_str_digits()``); None otherwise.  The one reader of
    integers in inline text, so each parser refuses both kinds of token with
    its own malformed-text message; ``int()`` alone also reads "+1", "1_0" and
    other scripts' digits."""
    digits = token.removeprefix("-") if signed else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # past the interpreter's digit limit
        return None


def parse_point(text: str) -> Point:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"malformed point {text!r}, expected e.g. {{0,3,7}}")
    inner = text[1:-1].strip()
    if not inner:
        return EMPTY
    elements = [read_int(tok.strip()) for tok in inner.split(",")]
    if None in elements:
        raise ValueError(f"malformed point {text!r}: elements must be integers")
    return Point(elements)


def _parse_tau_value(token: str) -> TauValue:
    token = token.strip()
    if token == "w":
        return OMEGA
    value = read_int(token, signed=False)
    if value is None:
        raise ValueError(f"bad tau entry {token!r} (expected digits or 'w')")
    return value


def parse_tau(text: str) -> TauSequence:
    """Parse ``entry(,entry)* [tail=0|c|w]``; the empty string is the zero sequence."""
    text = text.strip()
    tail: TauValue = 0
    if "tail=" in text:
        head, _, tail_tok = text.rpartition("tail=")
        tail = _parse_tau_value(tail_tok)
        text = head.strip().rstrip(",").strip()
    if not text:
        return TauSequence((), tail)
    values = [_parse_tau_value(tok) for tok in text.split(",")]
    return TauSequence.from_values(values, tail)


def format_tau(tau: TauSequence) -> str:
    """Every index up to the last entry, the gaps filled with the tail."""
    tail = "w" if is_omega(tau.tail) else str(tau.tail)
    parts = []
    for idx, val in tau.entries:
        parts += [tail] * (idx - 1 - len(parts))
        parts.append("w" if is_omega(val) else str(val))
    head = ",".join(parts)
    return (head + " " if head else "") + f"tail={tail}"


def format_descriptor(desc: ProductDescriptor) -> str:
    parts = [str(n) for n in desc.factors]
    if desc.omega_tail is not None:
        parts.append(f"{desc.omega_tail}^w")
    return "x".join(parts) if parts else "()"


def format_constraint(s: int, f: Point, g: Point) -> str:
    return f"{s}: F={f} G={g}"


def parse_descriptor(text: str) -> ProductDescriptor:
    text = text.strip()
    if text == "()":
        return ProductDescriptor()
    factors = []
    tail = None
    tokens = text.split("x")
    for pos, tok in enumerate(tokens):
        tok = tok.strip()
        if tok.endswith("^w"):
            if pos != len(tokens) - 1:
                raise ValueError(f"malformed descriptor {text!r}: tail must come last")
            bound = tail = read_int(tok[:-2].strip())
        else:
            bound = read_int(tok, signed=False)
            factors.append(bound)
        if bound is None:
            raise ValueError(f"malformed descriptor {text!r}")
    return ProductDescriptor(tuple(factors), tail)
