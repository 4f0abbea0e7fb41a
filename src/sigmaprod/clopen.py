"""Symbolic algebra of basic clopen boxes over products of sigma spaces.

A basic box constrains finitely many coordinates, each by a pair (F, G):
the coordinate must contain F and avoid G.  Emptiness, intersection,
containment and reduction are decided symbolically, i.e. for an infinite
ground set; finite enumeration is only ever a test oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import permutations

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
    """Per-coordinate index of a family of nonempty boxes over one ambient,
    given by levels and members.

    ``levels`` holds constraints at strictly increasing coordinates.  Member
    i is a pair (level, own): its box carries the first ``level`` level
    constraints plus its ``own`` constraints, which lie past those at
    increasing coordinates.  A family of arbitrary boxes is the case
    levels = () with each member (0, box.constraints).

    For each constrained coordinate the index lists the distinct (F, G)
    constraints found there, each with a bitmask of the members that carry
    it (bit i is member i), plus the mask of the members left unconstrained
    there.  A level constraint is carried by every member above its level,
    so its mask is built from the members' levels and no member's
    constraints are walked for it.  Coordinates that list the same
    constraints in the same order share one tuple of them, so what depends
    only on the constraints and the bound is computed once per such tuple.
    Queries about the whole family then compare a few distinct constraints
    per coordinate instead of building a box per pair or scanning every box.
    Every query answers in increasing member order.
    """

    def __init__(self, ambient: ProductDescriptor, levels, members):
        self.ambient = ambient
        self.levels = levels = tuple(levels)
        self.members = members = tuple(members)
        self.size = len(members)
        self.everything = (1 << self.size) - 1
        last = -1
        for s, f, g in levels:
            if s <= last or not (f or g):
                raise ValueError("level constraints must be nontrivial, at increasing "
                                 "coordinates")
            last = s
        # s -> (F, G) -> mask of the members that carry it: the members' own
        # constraints in member order, then the level constraints
        by_coord: defaultdict = defaultdict(dict)
        at_level = [0] * (len(levels) + 1)  # level -> mask of the members at it
        for i, (level, own) in enumerate(members):
            if not 0 <= level <= len(levels):
                raise ValueError(f"member {i} has level {level}, outside 0 .. {len(levels)}")
            bit = 1 << i
            at_level[level] |= bit
            last = levels[level - 1][0] if level else -1
            for s, f, g in own:
                if s <= last or not (f or g):
                    raise ValueError(f"member {i}: own constraints must be nontrivial, at "
                                     "increasing coordinates past its level's")
                last = s
                carriers = by_coord[s]
                carriers[f, g] = carriers.get((f, g), 0) | bit
        above = 0  # the members above level t, for t from the last level down
        for t in range(len(levels) - 1, -1, -1):
            above |= at_level[t + 1]
            if above:
                s, f, g = levels[t]
                carriers = by_coord[s]
                carriers[f, g] = carriers.get((f, g), 0) | above
        # ``shapes[k]`` is the k-th distinct tuple of (F, G) a coordinate lists
        self.shapes = []
        shape_ids: dict = {}
        checked = set()  # (shape, bound) whose constraints are known satisfiable
        # coordinate -> (factor bound, mask of the members free there, mask of
        # the members constrained there or further on, shape, masks), where
        # ``masks[j]`` is the mask of the members carrying the shape's j-th
        self.coords = {}
        pending = 0
        # walk down from the last coordinate so that ``pending`` accumulates;
        # the order is put back to increasing at the end
        for s in sorted(by_coord, reverse=True):
            if not ambient.has_coordinate(s):
                raise ValueError(f"coordinate {s} outside ambient")
            bound = ambient.bound_at(s)
            carriers = by_coord[s]
            constraints, masks = tuple(carriers), list(carriers.values())
            shape = shape_ids.get(constraints)
            if shape is None:
                shape = shape_ids[constraints] = len(self.shapes)
                self.shapes.append(constraints)
            if (shape, bound) not in checked:
                for (f, g), mask in zip(constraints, masks):
                    if not _constraints_meet(f, g, EMPTY, EMPTY, bound):
                        raise ValueError(f"box {next(_bits(mask))} of the family is empty")
                checked.add((shape, bound))
            constrained = 0
            for mask in masks:
                constrained |= mask
            pending |= constrained
            self.coords[s] = (bound, self.everything & ~constrained, pending, shape, masks)
        self.coords = dict(reversed(self.coords.items()))
        self._constrained = list(self.coords)  # the constrained coordinates, ascending
        self._admitting: dict = {}  # (shape, value) -> positions of the constraints it satisfies

    def meeting_pairs(self, budget: Budget | int = DEFAULT_BUDGET) -> list:
        """Pairs (a, b) with a < b of members that share a point, in
        lexicographic order.

        Two nonempty boxes are disjoint exactly when, at some coordinate both
        constrain, their two constraints admit no common value.  Each
        constraint is compared with every other one at its coordinate, so a
        coordinate with g distinct constraints costs (g - 1)·Σ(|F| + |G|)
        units, charged to ``budget`` before any comparison; the comparisons
        themselves are made once per shape and bound.  A member then
        conflicts with whatever clashes with one of its constraints: the
        clashes of its level constraints accumulate level by level.
        """
        costs = [(len(shape) - 1) * sum(len(f) + len(g) for f, g in shape)
                 for shape in self.shapes]
        Budget.of(budget).charge(sum(costs[entry[3]] for entry in self.coords.values()))
        tables: dict = {}  # (shape, bound) -> per constraint, the other positions it meets
        clash: dict = {}  # (s, F, G) -> mask of the members clashing with it there
        for s, (bound, free, _pending, shape, masks) in self.coords.items():
            constraints = self.shapes[shape]
            table = tables.get((shape, bound))
            if table is None:
                table = tables[shape, bound] = [[] for _ in constraints]
                for j, (f1, g1) in enumerate(constraints):
                    for k in range(j + 1, len(constraints)):
                        f2, g2 = constraints[k]
                        if _constraints_meet(f1, g1, f2, g2, bound):
                            table[j].append(k)
                            table[k].append(j)
            # a member carries one constraint per coordinate, so the masks
            # here are disjoint: a constraint clashes with the members
            # constrained here but those carrying it or one that it meets
            constrained = self.everything ^ free
            for (f, g), mask, positions in zip(constraints, masks, table):
                mask ^= constrained
                for k in positions:
                    mask ^= masks[k]
                clash[s, f, g] = mask
        below = [0]  # level -> the clashes of the level constraints below it
        for constraint in self.levels:
            below.append(below[-1] | clash.get(constraint, 0))
        pairs = []
        for a, (level, own) in enumerate(self.members):
            conflict = below[level]
            for constraint in own:
                conflict |= clash[constraint]
            meeting = self.everything >> (a + 1) << (a + 1) & ~conflict
            if meeting:
                pairs.extend((a, b) for b in _bits(meeting))
        return pairs

    def admitted(self, s: int, value: Point) -> int:
        """Mask of the members that admit ``value`` at coordinate ``s``: those
        free there and those whose constraint there ``value`` satisfies.
        Which constraints of a shape ``value`` satisfies is decided once per
        index, for every coordinate that shares the shape."""
        entry = self.coords.get(s)
        if entry is None:
            return self.everything
        _bound, admitted, _pending, shape, masks = entry
        positions = self._admitting.get((shape, value))
        if positions is None:
            positions = self._admitting[shape, value] = [
                j for j, (f, g) in enumerate(self.shapes[shape]) if _admits(f, g, value)]
        for j in positions:
            admitted |= masks[j]
        return admitted

    def containing(self, x: ProductPoint) -> list:
        """Indices of the members that contain ``x``.  The constrained
        coordinates are walked in order up to the first past which no
        remaining member is constrained."""
        if not point_in_ambient(self.ambient, x):
            raise ValueError(f"point {x} outside ambient {self.ambient}")
        hits = self.everything
        for s, (_bound, _free, pending, _shape, _masks) in self.coords.items():
            if not hits & pending:
                break
            hits &= self.admitted(s, x.coordinate(s))
        return list(_bits(hits))

    def constrained_after(self, s: int) -> int:
        """Mask of the members constrained at some coordinate past ``s``."""
        at = bisect_right(self._constrained, s)
        if at == len(self._constrained):
            return 0
        return self.coords[self._constrained[at]][2]

    def not_within(self, box: BasicBox) -> list:
        """Indices of the members not contained in ``box``."""
        return list(_bits(self.not_within_mask(box)))

    def not_within_mask(self, box: BasicBox) -> int:
        """Mask of the members not contained in ``box``."""
        if box.ambient != self.ambient:
            raise ValueError("cannot compare boxes over different ambients")
        inside = self.everything
        for s, f2, g2 in box.constraints:
            bound, free, _pending, shape, masks = self.coords.get(
                s, (self.ambient.bound_at(s), self.everything, 0, None, ()))
            here = free if _constraint_within(EMPTY, EMPTY, f2, g2, bound) else 0
            if masks:
                for (f1, g1), mask in zip(self.shapes[shape], masks):
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


def preimage_under_union(b: BasicBox, k: int, budget: Budget | int = DEFAULT_BUDGET) -> tuple:
    """Preimage of a box (F, G) under the k-fold union map σ_1^k → σ_k, as the
    placements of F's elements into k slots, in ``permutations`` order.  Placement
    p stands for the box over σ_1^k constraining slot p[i] by ({F[i]}, G), F in
    sorted order, and every other coordinate by ({}, G).  The |F| + 1 units of
    each of the k!/(k - |F|)! placements are charged to ``budget`` first.
    """
    if b.ambient.omega_tail is not None or b.ambient.explicit_len != 1:
        raise ValueError("expected a box over a single factor")
    if b.ambient.bound_at(0) != k:
        raise ValueError(f"box ambient bound {b.ambient.bound_at(0)} does not match k={k}")
    if box_is_empty(b):
        raise ValueError("expected a nonempty box")
    size = len(b.constraint_at(0)[0])
    Budget.of(budget).charge(math.perm(k, size) * (size + 1))
    return tuple(permutations(range(k), size))


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
