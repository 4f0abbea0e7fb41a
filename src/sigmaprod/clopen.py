"""Symbolic algebra of basic clopen boxes over products of sigma spaces.

A basic box constrains finitely many coordinates, each by a pair (F, G):
the coordinate must contain F and avoid G.  Emptiness, intersection,
containment and reduction are decided symbolically, i.e. for an infinite
ground set; finite enumeration is only ever a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .ground import (
    DEFAULT_BUDGET,
    EMPTY,
    Budget,
    Point,
    ProductDescriptor,
    ProductPoint,
    format_descriptor,
    parse_descriptor,
    parse_point,
    point_in_ambient,
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
        merged: dict[int, tuple[Point, Point]] = {}
        for coord, f, g in self.constraints:
            if coord in merged:
                f0, g0 = merged[coord]
                f, g = f0 | f, g0 | g
            merged[coord] = (f, g)
        coords = sorted(merged)
        # an ambient's coordinates are an initial segment of the naturals, so
        # the least and the greatest coordinate decide all of them
        has = self.ambient.has_coordinate
        if coords and not (has(coords[0]) and has(coords[-1])):
            bad = next(c for c, _f, _g in self.constraints if not has(c))
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
    for coord, f, g in b.constraints:
        if not _constraints_meet(f, g, EMPTY, EMPTY, b.ambient.bound_at(coord)):
            return True
    return False


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
        by_coord: dict = {}
        for i, box in enumerate(boxes):
            if box.ambient != ambient:
                raise ValueError("all boxes of an index must share the ambient")
            for s, f, g in box.constraints:
                by_coord.setdefault(s, {}).setdefault((f, g), []).append(i)
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
            for (f, g), members in by_coord[s].items():
                mask = sum(1 << i for i in members)
                constrained |= mask
                groups.append((f, g, mask, members))
                if not _constraints_meet(f, g, EMPTY, EMPTY, bound):
                    raise ValueError(f"box {members[0]} of the family is empty")
            pending |= constrained
            self.coords[s] = (bound, self.everything & ~constrained, pending, groups)
        self.coords = dict(reversed(self.coords.items()))

    def meeting_pairs(self) -> list:
        """Pairs (a, b) with a < b of boxes that share a point, in lexicographic order.

        Two nonempty boxes are disjoint exactly when, at some coordinate both
        constrain, their two constraints admit no common value.
        """
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

    def containing(self, x: ProductPoint) -> list:
        """Indices of the boxes that contain ``x``."""
        if not point_in_ambient(self.ambient, x):
            raise ValueError(f"point {x} outside ambient {self.ambient}")
        hits = self.everything
        for s, (_bound, free, pending, groups) in self.coords.items():
            if not hits & pending:
                break  # no later coordinate constrains a remaining hit
            value = x.coordinate(s)
            for f, g, mask, _members in groups:
                if _admits(f, g, value):
                    free |= mask
            hits &= free
        return list(_bits(hits))

    def distinct_constraints(self):
        """Each distinct constraint as (s, F, G, indices of the boxes that
        carry it), coordinates ascending."""
        for s, (_bound, _free, _pending, groups) in self.coords.items():
            for f, g, _mask, members in groups:
                yield s, f, g, members

    def not_within(self, box: BasicBox) -> list:
        """Indices of the boxes not contained in ``box``."""
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
        return list(_bits(self.everything & ~inside))


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
        width = max([len(x.prefix)] + [s + 1 for s, _ in self.removed])
        coords = []
        for s in range(width):
            value = x.coordinate(s)
            for coord, f in self.removed:
                if coord == s:
                    if not f.issubset(value):
                        raise ValueError(f"point {x} not in the reduced box")
                    value = value - f
                    break
            coords.append(value)
        return ProductPoint(tuple(coords), x.tail_value)

    def restore(self, x: ProductPoint) -> ProductPoint:
        width = max([len(x.prefix)] + [s + 1 for s, _ in self.removed])
        coords = []
        for s in range(width):
            value = x.coordinate(s)
            for coord, f in self.removed:
                if coord == s:
                    value = value | f
                    break
            coords.append(value)
        return ProductPoint(tuple(coords), x.tail_value)


def box_reduce(b: BasicBox) -> BoxReduction:
    """Descriptor of the box's homeomorphism type: each constrained coordinate
    drops |F| from its bound; unconstrained coordinates and the tail pass through."""
    if box_is_empty(b):
        raise ValueError("cannot reduce an empty box")
    ambient = b.ambient
    # a coordinate past the explicit factors is constrained, so the tail exists
    factors = list(ambient.factors)
    factors += [ambient.omega_tail] * (b.max_constrained_coord() + 1 - len(factors))
    removed = []
    for s, f, _g in b.constraints:
        if f:
            removed.append((s, f))
            factors[s] -= len(f)
    return BoxReduction(ProductDescriptor(tuple(factors), ambient.omega_tail),
                        tuple(removed))


def preimage_under_union(b: BasicBox, k: int, budget: Budget | int = DEFAULT_BUDGET) -> ClopenSet:
    """Preimage of a box under the k-fold union map from k-tuples of at-most-singletons.

    One box per injective placement of the F elements into coordinates: the
    receiving coordinate must contain its element (hence equals that
    singleton), and every coordinate avoids G.  The placements, k!/(k - |F|)!
    of them, are charged to ``budget`` before any box is built.
    """
    if b.ambient.omega_tail is not None or b.ambient.explicit_len != 1:
        raise ValueError("expected a box over a single factor")
    if b.ambient.bound_at(0) != k:
        raise ValueError(f"box ambient bound {b.ambient.bound_at(0)} does not match k={k}")
    if box_is_empty(b):
        raise ValueError("expected a nonempty box")
    f, g = b.constraint_at(0)
    Budget.of(budget).charge(math.perm(k, len(f)))
    domain = ProductDescriptor.power(1, k)
    elements = list(f)
    boxes = []
    for placement in permutations(range(k), len(elements)):
        constraints = {}
        for coord in range(k):
            forced = [elements[i] for i, c in enumerate(placement) if c == coord]
            constraints[coord] = (Point(tuple(forced)), g)
        boxes.append(BasicBox.make(domain, constraints))
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


def format_constraint(s: int, f: Point, g: Point) -> str:
    return f"{s}: F={f} G={g}"


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
            coord_tok, _, rest = part.partition(":")
            coord = int(coord_tok.strip())
            rest = rest.strip()
            if not rest.startswith("F=") or " G=" not in rest:
                raise ValueError(f"malformed box constraint {part!r}")
            f_tok, _, g_tok = rest[2:].partition(" G=")
            constraints.append((coord, parse_point(f_tok), parse_point(g_tok)))
    # BasicBox merges repeated coordinates
    return BasicBox(ambient, tuple(constraints))
