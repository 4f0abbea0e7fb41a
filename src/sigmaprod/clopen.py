"""Symbolic algebra of basic clopen boxes over products of sigma spaces.

A basic box constrains finitely many coordinates, each by a pair (F, G):
the coordinate must contain F and avoid G.  Emptiness, intersection,
containment and reduction are decided symbolically, i.e. for an infinite
ground set; finite enumeration is only ever a test oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .ground import (
    DEFAULT_BUDGET,
    EMPTY,
    Budget,
    Point,
    ProductDescriptor,
    ProductPoint,
    format_constraint,
    format_descriptor,
    parse_descriptor,
    parse_point,
    point_in_ambient,
    read_int,
    union_fiber,
)


@dataclass(frozen=True)
class BasicBox:
    """Finitely many coordinate constraints ``(s, F, G)`` over an ambient product.

    Unconstrained coordinates are absent; trivial constraints (both parts
    empty) are dropped, so the full box has no constraints at all.
    """

    ambient: ProductDescriptor
    constraints: tuple = ()

    def __post_init__(self):
        constraints = tuple(self.constraints)
        # canonical already: coordinates strictly increasing from 0 on, none
        # trivial, and the last inside the ambient (hence all of them)
        last = -1
        for coord, f, g in constraints:
            if coord <= last or not (f or g):
                break
            last = coord
        else:
            if last < 0 or self.ambient.has_coordinate(last):
                object.__setattr__(self, "constraints", constraints)
                return
        merged: dict[int, tuple[Point, Point]] = {}
        for coord, f, g in constraints:
            if coord in merged:
                f0, g0 = merged[coord]
                f, g = f0 | f, g0 | g
            merged[coord] = (f, g)
        coords = sorted(merged)
        # an ambient's coordinates are an initial segment of the naturals, so
        # the least and the greatest coordinate decide all of them
        has = self.ambient.has_coordinate
        if coords and not (has(coords[0]) and has(coords[-1])):
            bad = next(c for c, _f, _g in constraints if not has(c))
            raise ValueError(f"coordinate {bad} outside ambient")
        canon = []
        for coord in coords:
            f, g = merged[coord]
            if f or g:
                canon.append((coord, f, g))
        object.__setattr__(self, "constraints", tuple(canon))

    @classmethod
    def make(cls, ambient: ProductDescriptor, constraints: dict) -> "BasicBox":
        return cls(ambient, tuple((s, f, g) for s, (f, g) in constraints.items()))

    @classmethod
    def full(cls, ambient: ProductDescriptor) -> "BasicBox":
        return cls(ambient, ())

    def constraint_at(self, s: int) -> tuple:
        for coord, f, g in self.constraints:
            if coord == s:
                return (f, g)
        return (EMPTY, EMPTY)

    def max_constrained_coord(self) -> int:
        return self.constraints[-1][0] if self.constraints else -1

    def __str__(self):
        return format_box(self)


@dataclass(frozen=True)
class ClopenSet:
    """A finite union of basic boxes over a common ambient."""

    ambient: ProductDescriptor
    boxes: tuple = ()

    def __post_init__(self):
        for b in self.boxes:
            if b.ambient != self.ambient:
                raise ValueError("all boxes of a clopen set must share the ambient")

    def contains(self, x: ProductPoint) -> bool:
        return any(box_contains(b, x) for b in self.boxes)

    def __len__(self):
        return len(self.boxes)


def box_is_empty(b: BasicBox) -> bool:
    """Symbolic emptiness: some F meets its G, or some F exceeds its factor bound."""
    return _removed_parts(b) is None


def _removed_parts(b: BasicBox):
    """The (s, F) of each constraint with a nonempty F, in one pass over the
    constraints; None when the box is empty."""
    factors, tail = b.ambient.factors, b.ambient.omega_tail
    explicit = len(factors)
    removed = []
    for s, f, g in b.constraints:
        # a canonical box's coordinates lie inside the ambient
        if f:
            if len(f) > (factors[s] if s < explicit else tail):
                return None
            if g and not set(g).isdisjoint(f):
                return None
            removed.append((s, f))
    return removed


def box_contains(b: BasicBox, x: ProductPoint) -> bool:
    if not point_in_ambient(b.ambient, x):
        raise ValueError(f"point {x} outside ambient {b.ambient}")
    return all(_admits(f, g, x.coordinate(coord)) for coord, f, g in b.constraints)


def box_intersect(b1: BasicBox, b2: BasicBox) -> BasicBox:
    if b1.ambient != b2.ambient:
        raise ValueError("cannot intersect boxes over different ambients")
    return BasicBox(b1.ambient, b1.constraints + b2.constraints)


def box_subset(b1: BasicBox, b2: BasicBox) -> bool:
    """Is ``b1`` contained in ``b2``, symbolically over an infinite ground set?"""
    if b1.ambient != b2.ambient:
        raise ValueError("cannot compare boxes over different ambients")
    if box_is_empty(b1):
        return True
    for coord, f2, g2 in b2.constraints:
        f1, g1 = b1.constraint_at(coord)
        if not _constraint_within(f1, g1, f2, g2, b1.ambient.bound_at(coord)):
            return False
    return True


def _constraint_within(f1: Point, g1: Point, f2: Point, g2: Point, bound: int) -> bool:
    """Does the satisfiable constraint (F1, G1) at a coordinate imply (F2, G2)?

    Membership forces F2 inside F1, F1 clear of G2, and G2 avoided either
    because G1 already excludes it or because F1 fills the factor bound.
    """
    return (f2.issubset(f1) and f1.isdisjoint(g2)
            and (g2.issubset(g1) or len(f1) >= bound))


def _constraints_meet(f1: Point, g1: Point, f2: Point, g2: Point, bound: int) -> bool:
    """Can one coordinate value satisfy both (F1, G1) and (F2, G2)?

    Their conjunction is (F1 | F2, G1 | G2): the union of the F parts must
    miss both G parts and fit the factor bound.  Scans the element tuples
    instead of building the union.
    """
    common = 0
    for e in f1:
        if e in g1 or e in g2:
            return False
        if e in f2:
            common += 1
    for e in f2:
        if e in g1 or e in g2:
            return False
    return len(f1) + len(f2) - common <= bound


def _admits(f: Point, g: Point, value: Point) -> bool:
    """Does the coordinate value contain F and avoid G?"""
    for e in f:
        if e not in value:
            return False
    for e in g:
        if e in value:
            return False
    return True


def _bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BoxIndex:
    """Per-coordinate index of a family of nonempty boxes over one ambient.

    For each constrained coordinate it lists the distinct (F, G) constraints
    found there, each with a bitmask of the boxes that carry it (bit i is
    box i), plus the mask of the boxes left unconstrained there.  Queries
    about the whole family then compare a few distinct constraints per
    coordinate instead of building a box per pair or scanning every box.
    Every query answers in increasing box order.
    """

    def __init__(self, ambient: ProductDescriptor, boxes):
        self.ambient = ambient
        self.size = len(boxes)
        self.everything = (1 << self.size) - 1
        carriers: dict = {}  # (s, F, G) -> indices of the boxes that carry it
        for i, box in enumerate(boxes):
            if box.ambient is not ambient and box.ambient != ambient:
                raise ValueError("all boxes of an index must share the ambient")
            for constraint in box.constraints:
                members = carriers.get(constraint)
                if members is None:
                    carriers[constraint] = [i]
                else:
                    members.append(i)
        by_coord: dict = {}
        for (s, f, g), members in carriers.items():
            by_coord.setdefault(s, []).append((f, g, members))
        # coordinate -> (factor bound, mask of the boxes free there, mask of
        # the boxes constrained there or further on, [(F, G, mask, members), ...])
        self.coords = {}
        pending = 0
        # walk down from the last coordinate so that ``pending`` accumulates;
        # the order is put back to increasing at the end
        for s in sorted(by_coord, reverse=True):
            bound = ambient.bound_at(s)
            groups = []
            constrained = 0
            for f, g, members in by_coord[s]:
                mask = sum(map((1).__lshift__, members))
                constrained |= mask
                groups.append((f, g, mask, members))
                if not _constraints_meet(f, g, EMPTY, EMPTY, bound):
                    raise ValueError(f"box {members[0]} of the family is empty")
            pending |= constrained
            self.coords[s] = (bound, self.everything & ~constrained, pending, groups)
        self.coords = dict(reversed(self.coords.items()))
        self._constrained = list(self.coords)  # the constrained coordinates, ascending

    def meeting_pairs(self, budget: Budget | int = DEFAULT_BUDGET) -> list:
        """Pairs (a, b) with a < b of boxes that share a point, in lexicographic order.

        Two nonempty boxes are disjoint exactly when, at some coordinate both
        constrain, their two constraints admit no common value.  Each
        constraint is compared with every other one at its coordinate, so a
        coordinate with g distinct constraints costs (g - 1)·Σ(|F| + |G|)
        units, charged to ``budget`` before any comparison.
        """
        Budget.of(budget).charge(sum(
            (len(groups) - 1) * sum(len(f) + len(g) for f, g, _mask, _members in groups)
            for _bound, _free, _pending, groups in self.coords.values()))
        conflict = [0] * self.size
        for bound, _free, _pending, groups in self.coords.values():
            clashes = [0] * len(groups)
            for i, (f1, g1, mask1, _members) in enumerate(groups):
                for j in range(i + 1, len(groups)):
                    f2, g2, mask2, _ = groups[j]
                    if not _constraints_meet(f1, g1, f2, g2, bound):
                        clashes[i] |= mask2
                        clashes[j] |= mask1
            for (_f, _g, _mask, members), clash in zip(groups, clashes):
                if clash:
                    for a in members:
                        conflict[a] |= clash
        pairs = []
        for a in range(self.size):
            later = self.everything >> (a + 1) << (a + 1)
            pairs.extend((a, b) for b in _bits(later & ~conflict[a]))
        return pairs

    def admitted(self, s: int, value: Point) -> int:
        """Mask of the boxes that admit ``value`` at coordinate ``s``: those
        free there and those whose constraint there ``value`` satisfies."""
        entry = self.coords.get(s)
        if entry is None:
            return self.everything
        _bound, admitted, _pending, groups = entry
        for f, g, mask, _members in groups:
            if _admits(f, g, value):
                admitted |= mask
        return admitted

    def containing(self, x: ProductPoint) -> list:
        """Indices of the boxes that contain ``x``."""
        if not point_in_ambient(self.ambient, x):
            raise ValueError(f"point {x} outside ambient {self.ambient}")
        return list(_bits(self.locator()(x.prefix, x.tail_value)))

    def locator(self):
        """A function from a point's values at coordinates 0 .. w - 1 and its
        value past them to the mask of the boxes that contain it, without an
        ambient check.  It walks the constrained coordinates in order up to
        the first past which no remaining hit is constrained, and keeps each
        (coordinate, value) mask it reads, so that a caller locating many
        points reads each distinct value once."""
        everything, admitted = self.everything, self.admitted
        walk = [(s, pending, {}) for s, (_bound, _free, pending, _groups) in self.coords.items()]

        def locate(values, tail) -> int:
            hits = everything
            width = len(values)
            for s, pending, masks in walk:
                if not hits & pending:
                    break  # no later coordinate constrains a remaining hit
                value = values[s] if s < width else tail
                mask = masks.get(value)
                if mask is None:
                    mask = masks[value] = admitted(s, value)
                hits &= mask
            return hits

        return locate

    def constrained_after(self, s: int) -> int:
        """Mask of the boxes constrained at some coordinate past ``s``."""
        at = bisect_right(self._constrained, s)
        if at == len(self._constrained):
            return 0
        return self.coords[self._constrained[at]][2]

    def distinct_constraints(self):
        """Each distinct constraint as (s, F, G, indices of the boxes that
        carry it), coordinates ascending."""
        for s, (_bound, _free, _pending, groups) in self.coords.items():
            for f, g, _mask, members in groups:
                yield s, f, g, members

    def not_within(self, box: BasicBox) -> list:
        """Indices of the boxes not contained in ``box``."""
        return list(_bits(self.not_within_mask(box)))

    def not_within_mask(self, box: BasicBox) -> int:
        """Mask of the boxes not contained in ``box``."""
        if box.ambient != self.ambient:
            raise ValueError("cannot compare boxes over different ambients")
        inside = self.everything
        for s, f2, g2 in box.constraints:
            bound, free, _pending, groups = self.coords.get(
                s, (self.ambient.bound_at(s), self.everything, 0, ()))
            here = free if _constraint_within(EMPTY, EMPTY, f2, g2, bound) else 0
            for f1, g1, mask, _members in groups:
                if _constraint_within(f1, g1, f2, g2, bound):
                    here |= mask
            inside &= here
        return self.everything & ~inside


def box_complement(b: BasicBox) -> ClopenSet:
    """Lazy complement: one box per single violated requirement."""
    boxes = []
    for coord, f, g in b.constraints:
        for el in f:
            boxes.append(BasicBox.make(b.ambient, {coord: (EMPTY, Point.of(el))}))
        for el in g:
            boxes.append(BasicBox.make(b.ambient, {coord: (Point.of(el), EMPTY)}))
    return ClopenSet(b.ambient, tuple(boxes))


@dataclass(frozen=True)
class BoxReduction:
    """The homeomorphism type of a nonempty box plus the coordinatewise witness.

    ``removed`` records the F part stripped from each constrained coordinate;
    the witness map deletes it, and ``restore`` adds it back.
    """

    descriptor: ProductDescriptor
    removed: tuple

    def transform(self, x: ProductPoint) -> ProductPoint:
        if not all(f.issubset(x.coordinate(s)) for s, f in self.removed):
            raise ValueError(f"point {x} not in the reduced box")
        return self._walk(x, Point.__sub__)

    def restore(self, x: ProductPoint) -> ProductPoint:
        return self._walk(x, Point.__or__)

    def _walk(self, x: ProductPoint, step) -> ProductPoint:
        """``x`` with each coordinate s that lost F replaced by step(x_s, F)."""
        removed = dict(self.removed)
        coords = list(x.prefix)
        coords += [x.tail_value] * (max(removed, default=-1) + 1 - len(coords))
        for s, f in removed.items():
            coords[s] = step(coords[s], f)
        return ProductPoint(tuple(coords), x.tail_value)


def box_reduce(b: BasicBox, budget: Budget | int = DEFAULT_BUDGET) -> BoxReduction:
    """Descriptor of the box's homeomorphism type: each constrained coordinate drops
    |F| from its bound, the rest pass through.  One unit per coordinate up to the
    last constrained one is charged to ``budget`` first."""
    removed = _removed_parts(b)
    if removed is None:
        raise ValueError("cannot reduce an empty box")
    width = b.max_constrained_coord() + 1
    Budget.of(budget).charge(width)
    ambient = b.ambient
    # a coordinate past the explicit factors is constrained, so the tail exists
    factors = list(ambient.factors)
    factors += [ambient.omega_tail] * (width - len(factors))
    for s, f in removed:
        factors[s] -= len(f)
    return BoxReduction(ProductDescriptor(tuple(factors), ambient.omega_tail),
                        tuple(removed))


def preimage_under_union(b: BasicBox, k: int, budget: Budget | int = DEFAULT_BUDGET) -> ClopenSet:
    """Preimage of a box under the k-fold union map from k-tuples of at-most-singletons.

    One box per tuple x of the union map's fiber over F, constraining each
    coordinate c by (x[c], G): the receiving coordinate must contain its
    element (hence equals that singleton), and every coordinate avoids G.
    The k coordinates of each of the k!/(k - |F|)! placements are charged to
    ``budget`` before any box is built.
    """
    if b.ambient.omega_tail is not None or b.ambient.explicit_len != 1:
        raise ValueError("expected a box over a single factor")
    if b.ambient.bound_at(0) != k:
        raise ValueError(f"box ambient bound {b.ambient.bound_at(0)} does not match k={k}")
    if box_is_empty(b):
        raise ValueError("expected a nonempty box")
    f, g = b.constraint_at(0)
    Budget.of(budget).charge(math.perm(k, len(f)) * k)
    domain = ProductDescriptor.power(1, k)
    boxes = [BasicBox(domain, tuple((c, p, g) for c, p in enumerate(x)))
             for x in union_fiber([Point.of(el) for el in f], k)]
    return ClopenSet(domain, tuple(boxes))


@dataclass(frozen=True)
class CoverWitness:
    index: int
    witness: BasicBox
    space: ProductDescriptor


def union_membership_cover(target: ClopenSet) -> CoverWitness:
    """Pick the member of a covering union that contains the all-empty point.

    That member has no F constraints, so it reduces to the full ambient space
    (over the ground set minus its finitely many excluded elements), which is
    what ``space`` reports.
    """
    for index, box in enumerate(target.boxes):
        if all(len(f) == 0 for _s, f, _g in box.constraints):
            return CoverWitness(index, box, box_reduce(box).descriptor)
    raise ValueError("no member of the union contains the all-empty point; "
                     "the union does not cover the space")


# ---------------------------------------------------------------------------
# text forms


def format_box(b: BasicBox) -> str:
    inner = "; ".join(format_constraint(s, f, g) for s, f, g in b.constraints)
    return f"[{inner}] @ {format_descriptor(b.ambient)}"


def parse_box(text: str) -> BasicBox:
    text = text.strip()
    if "@" not in text:
        raise ValueError(f"malformed box {text!r}: missing '@ ambient'")
    head, _, amb = text.rpartition("@")
    ambient = parse_descriptor(amb)
    head = head.strip()
    if not (head.startswith("[") and head.endswith("]")):
        raise ValueError(f"malformed box {text!r}: constraints must be bracketed")
    inner = head[1:-1].strip()
    constraints = []
    if inner:
        for part in inner.split(";"):
            coord, _, rest = (tok.strip() for tok in part.partition(":"))
            coord = read_int(coord)
            if coord is None or not rest.startswith("F=") or " G=" not in rest:
                raise ValueError(f"malformed box constraint {part!r}")
            f_tok, _, g_tok = rest[2:].partition(" G=")
            constraints.append((coord, parse_point(f_tok), parse_point(g_tok)))
    # BasicBox merges repeated coordinates
    return BasicBox(ambient, tuple(constraints))
