"""Ground model shared by every other module.

Ground elements are interned non-negative integers.  An uncountable ground
set is never approximated by a large enumeration: finite truncations take an
explicit ``ground_size`` argument and the symbolic modules (the clopen box
algebra, the classification rules) carry the infinite case.

``OMEGA`` is a distinguished marker ordered above every integer, with
sup-style arithmetic (``OMEGA + k == OMEGA``).  All types here are immutable
values; every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product as iter_product

GroundElement = int

DEFAULT_BUDGET = 2_000_000


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed the configured size budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration of size {needed} exceeds budget {budget}")
        self.needed = needed
        self.budget = budget


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

    def __le__(self, other):
        if isinstance(other, Omega):
            return True
        if isinstance(other, int):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, int):
            return True
        if isinstance(other, Omega):
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (int, Omega)):
            return True
        return NotImplemented

    def __add__(self, other):
        return self

    __radd__ = __add__


OMEGA = Omega()

TauValue = int | Omega


def is_omega(value) -> bool:
    return isinstance(value, Omega)


def _check_tau_value(value):
    if is_omega(value):
        return
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"value must be a non-negative integer or OMEGA, got {value!r}")


@dataclass(frozen=True)
class Point:
    """A finite subset of the ground set, stored canonically sorted."""

    elements: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(set(self.elements))))

    @classmethod
    def of(cls, *elements) -> "Point":
        return cls(elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, element):
        return element in self.elements

    def __or__(self, other: "Point") -> "Point":
        return Point(self.elements + other.elements)

    def __and__(self, other: "Point") -> "Point":
        keep = set(other.elements)
        return Point(tuple(e for e in self.elements if e in keep))

    def __sub__(self, other: "Point") -> "Point":
        drop = set(other.elements)
        return Point(tuple(e for e in self.elements if e not in drop))

    def isdisjoint(self, other: "Point") -> bool:
        return not set(self.elements) & set(other.elements)

    def issubset(self, other: "Point") -> bool:
        return set(self.elements) <= set(other.elements)

    def __str__(self):
        return "{" + ",".join(str(e) for e in self.elements) + "}"


EMPTY = Point()


@dataclass(frozen=True)
class SigmaFactor:
    """The space of all subsets of the ground set with at most ``n`` elements.

    ``n == 0`` is the one-point space consisting of the empty set.
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"factor bound must be a non-negative integer, got {self.n!r}")


# one shared factor per small bound: descriptors built from these compare
# their factors by identity before falling back to the dataclass equality
_SMALL_FACTORS = tuple(SigmaFactor(n) for n in range(64))


def sigma_factor(n: int) -> SigmaFactor:
    """The n-bounded factor, taken from the shared table when n is small."""
    if isinstance(n, int) and 0 <= n < len(_SMALL_FACTORS):
        return _SMALL_FACTORS[n]
    return SigmaFactor(n)


@dataclass(frozen=True)
class ProductDescriptor:
    """A finite or countable product of sigma factors.

    ``factors`` lists the explicit coordinates; ``omega_tail`` (optional) is a
    factor repeated omega-many times after them.  Canonical form drops
    trailing explicit factors equal to the tail factor, so descriptors compare
    by the space they denote.
    """

    factors: tuple = ()
    omega_tail: SigmaFactor | None = None

    def __post_init__(self):
        factors = tuple(self.factors)
        if not all(isinstance(f, SigmaFactor) for f in factors):
            raise ValueError("factors must be SigmaFactor instances")
        if self.omega_tail is not None:
            while factors and factors[-1] == self.omega_tail:
                factors = factors[:-1]
        object.__setattr__(self, "factors", factors)

    @classmethod
    def single(cls, n: int) -> "ProductDescriptor":
        return cls((sigma_factor(n),))

    @classmethod
    def power(cls, n: int, k: int) -> "ProductDescriptor":
        return cls((sigma_factor(n),) * k)

    @classmethod
    def omega_power(cls, n: int) -> "ProductDescriptor":
        return cls((), sigma_factor(n))

    @property
    def explicit_len(self) -> int:
        return len(self.factors)

    def has_coordinate(self, s: int) -> bool:
        return s >= 0 and (s < len(self.factors) or self.omega_tail is not None)

    def bound_at(self, s: int) -> int:
        if s < 0:
            raise IndexError(f"negative coordinate {s}")
        if s < len(self.factors):
            return self.factors[s].n
        if self.omega_tail is not None:
            return self.omega_tail.n
        raise IndexError(f"coordinate {s} outside a product with {len(self.factors)} factors")


@dataclass(frozen=True)
class ProductPoint:
    """A point of a product, as a finite prefix plus an eventually-constant tail.

    Coordinate ``s`` is ``prefix[s]`` when present and ``tail_value`` beyond.
    Canonical form drops trailing prefix entries equal to the tail value.
    """

    prefix: tuple = ()
    tail_value: Point = EMPTY

    def __post_init__(self):
        prefix = tuple(self.prefix)
        while prefix and prefix[-1] == self.tail_value:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)

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
    if desc.omega_tail is None:
        if x.tail_value != EMPTY or len(x.prefix) > len(desc.factors):
            return False
    else:
        if len(x.tail_value) > desc.omega_tail.n:
            return False
    for s, pt in enumerate(x.prefix):
        if len(pt) > desc.bound_at(s):
            return False
    return True


@dataclass(frozen=True)
class TauSequence:
    """Exponent sequence: ``value_at(n)`` copies of the n-th sigma space, n >= 1.

    Stored sparsely as (index, value) entries over an eventually-constant
    tail; canonical form drops entries equal to the tail.
    """

    entries: tuple = ()
    tail: TauValue = 0

    def __post_init__(self):
        _check_tau_value(self.tail)
        canon = []
        prev = 0
        for idx, val in self.entries:
            if not isinstance(idx, int) or idx < 1:
                raise ValueError(f"tau indices start at 1, got {idx!r}")
            if idx <= prev:
                raise ValueError("tau indices must be strictly increasing")
            prev = idx
            _check_tau_value(val)
            if val != self.tail:
                canon.append((idx, val))
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


def materialize(desc: ProductDescriptor, ground_size: int, depth: int | None = None,
                budget: int = DEFAULT_BUDGET) -> list:
    """Enumerate the product over ``{0..ground_size-1}``.

    Omega-tail coordinates are materialized up to ``depth`` (with the tail
    value empty beyond); for finite products ``depth`` is irrelevant beyond
    the explicit factors.  The result size is the product over materialized
    coordinates of the per-factor point counts, guarded by ``budget``.
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
    if total > budget:
        raise BudgetExceeded(total, budget)
    per_coord = [enumerate_sigma_points(b, ground_size) for b in bounds]
    return [ProductPoint(combo) for combo in iter_product(*per_coord)]


# ---------------------------------------------------------------------------
# text forms


def parse_point(text: str) -> Point:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"malformed point {text!r}, expected e.g. {{0,3,7}}")
    inner = text[1:-1].strip()
    if not inner:
        return EMPTY
    try:
        return Point(tuple(int(tok) for tok in inner.split(",")))
    except ValueError:
        raise ValueError(f"malformed point {text!r}: elements must be integers") from None


def _parse_tau_value(token: str) -> TauValue:
    token = token.strip()
    if token == "w":
        return OMEGA
    if token.isdigit():
        return int(token)
    raise ValueError(f"bad tau entry {token!r} (expected digits or 'w')")


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
    parts = []
    for n in range(1, tau.max_index + 1):
        v = tau.value_at(n)
        parts.append("w" if is_omega(v) else str(v))
    tail = "w" if is_omega(tau.tail) else str(tau.tail)
    head = ",".join(parts)
    return (head + " " if head else "") + f"tail={tail}"


def format_descriptor(desc: ProductDescriptor) -> str:
    parts = [str(f.n) for f in desc.factors]
    if desc.omega_tail is not None:
        parts.append(f"{desc.omega_tail.n}^w")
    return "x".join(parts) if parts else "()"


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
            tail = SigmaFactor(int(tok[:-2]))
        elif tok.isdigit():
            factors.append(SigmaFactor(int(tok)))
        else:
            raise ValueError(f"malformed descriptor {text!r}")
    return ProductDescriptor(tuple(factors), tail)


# ---------------------------------------------------------------------------
# JSON mirrors (used by the CLI; plain JSON-native values only)


def value_to_json(v: TauValue):
    return "w" if is_omega(v) else v


def point_to_json(p: Point) -> list:
    return list(p.elements)


def tau_to_json(tau: TauSequence) -> dict:
    return {
        "entries": [[idx, value_to_json(val)] for idx, val in tau.entries],
        "tail": value_to_json(tau.tail),
        "text": format_tau(tau),
    }


def descriptor_to_json(desc: ProductDescriptor) -> dict:
    return {
        "factors": [f.n for f in desc.factors],
        "omega_tail": desc.omega_tail.n if desc.omega_tail is not None else None,
        "text": format_descriptor(desc),
    }
