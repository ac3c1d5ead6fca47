"""Computable left group actions on countable point sets.

A :class:`PointedAction` bundles an acting group, a total action function
and a basepoint.  Points are plain hashable values: group elements (for
translation actions), :class:`CosetPoint` (coset actions with canonical
representatives), :class:`PairPoint` (imprimitive wreath actions) and
small tuples for the built-in rule actions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from .groups import (
    CyclicInt,
    FreeAbelian,
    FreeGroup,
    FreeWord,
    Group,
    GroupElement,
    IntVector,
    ModVector,
    Perm,
    SymmetricGenSet,
    element_label,
)

Point = Any


class ActionError(Exception):
    """Base class for action-kernel errors."""


class UnsupportedSubgroupError(ActionError):
    """Subgroup specification outside the supported computable-coset cases."""


class UnknownRuleActionError(ActionError):
    """Requested built-in rule action does not exist."""


@dataclass(frozen=True, slots=True)
class CosetPoint:
    """Canonical coset representative plus a hashable key for the coset space."""

    rep: Any
    space_key: Any


@dataclass(frozen=True, slots=True)
class PairPoint:
    """Point of an imprimitive action: (leaf coordinate, position coordinate)."""

    leaf: Any
    pos: Any


@dataclass(frozen=True)
class PointedAction:
    """A computable left action of ``group`` with a distinguished basepoint."""

    group: Group
    act: Callable[[GroupElement, Point], Point]
    basepoint: Point
    label: str = ""

    def __str__(self):
        return self.label or f"action of {self.group}"


def point_label(p: Point) -> str:
    if isinstance(p, CosetPoint):
        return point_label(p.rep)
    if isinstance(p, PairPoint):
        return f"({point_label(p.leaf)}, {point_label(p.pos)})"
    if isinstance(p, (FreeWord, IntVector, CyclicInt, Perm, ModVector)):
        return element_label(p)
    from .wreath import WreathElement, wreath_label  # local import, avoids a cycle

    if isinstance(p, WreathElement):
        return wreath_label(p)
    if isinstance(p, tuple):
        return "(" + ",".join(point_label(x) for x in p) + ")"
    return str(p)


# ---------------------------------------------------------------------------
# translation actions


def translation_action(group: Group) -> PointedAction:
    """The group acting on itself by left multiplication, based at the identity."""
    return PointedAction(group, group.multiply, group.identity(),
                         label=f"{group} on itself")


def trivial_action(group: Group, point: Point = 0) -> PointedAction:
    """The action on a single point (wreath products over a singleton)."""
    return PointedAction(group, lambda g, x: x, point, label=f"{group} on a point")


# ---------------------------------------------------------------------------
# subgroup specifications and coset spaces


@dataclass(frozen=True)
class TrivialSubgroup:
    """The trivial subgroup of any family; cosets are the elements themselves."""


@dataclass(frozen=True)
class Sublattice:
    """Subgroup of Z^k spanned by integer basis vectors (nZ <= Z is the k=1 case)."""

    basis: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GeneratedSubgroup:
    """Subgroup of a finite group given by a generator list."""

    gens: tuple[GroupElement, ...]


SUPPORTED_SUBGROUPS = (
    "trivial subgroup of any family; Sublattice of Z^k given by a basis "
    "(nZ <= Z as the one-dimensional case); GeneratedSubgroup of a finite group"
)


def hermite_normal_form(basis: Iterable[tuple[int, ...]], width: int) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of an integer lattice basis.

    Returns echelon rows with positive pivots; entries above each pivot
    are reduced into [0, pivot).  The rows span the same lattice.
    """
    rows = [list(r) for r in basis if any(r)]
    for r in rows:
        if len(r) != width:
            raise UnsupportedSubgroupError(
                f"basis vector {tuple(r)} has length {len(r)}, expected {width}")
    done: list[list[int]] = []
    col = 0
    while rows and col < width:
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            col += 1
            continue
        # euclidean elimination in this column
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            reduced = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                r2 = [x - q * y for x, y in zip(r, p)]
                if r2[col] != 0:
                    reduced.append(r2)
                elif any(r2):
                    rest.append(r2)
            live = reduced
        pivot_row = live[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        # reduce entries above this pivot into [0, pivot)
        for r in done:
            q = r[col] // pivot_row[col]
            if q:
                r[:] = [x - q * y for x, y in zip(r, pivot_row)]
        done.append(list(pivot_row))
        rows = rest
        col += 1
    return tuple(tuple(r) for r in done)


def lattice_reduce(hnf: tuple[tuple[int, ...], ...], coords: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical representative of coords modulo the lattice spanned by hnf."""
    v = list(coords)
    for row in hnf:
        c = next(i for i, x in enumerate(row) if x != 0)
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return tuple(v)


def _mulclose(group: Group, gens: Iterable[GroupElement], cap: int) -> list[GroupElement]:
    """All products of the generators (and their inverses), in ``sort_key`` order."""
    seeds = []
    for g in gens:
        if not group.contains(g):
            raise UnsupportedSubgroupError(f"{g!r} is not an element of {group}")
        seeds.extend([g, group.inverse(g)])
    closure = orbit_of_point(translation_action(group), group.identity(), seeds, cap)
    if closure.truncated:
        raise UnsupportedSubgroupError(f"subgroup closure exceeded {cap} elements")
    return sorted(closure.points, key=group.sort_key)


class CosetSpace:
    """Left cosets gK with a canonical, decidable representative map."""

    def __init__(self, group: Group, spec):
        self.group = group
        self.spec = spec
        if isinstance(spec, TrivialSubgroup):
            self.key = (str(group), "trivial")
            self._reduce = lambda g: g
        elif isinstance(spec, Sublattice):
            if not isinstance(group, FreeAbelian):
                raise UnsupportedSubgroupError(
                    f"Sublattice requires a free abelian group; supported cases: "
                    f"{SUPPORTED_SUBGROUPS}")
            hnf = hermite_normal_form(spec.basis, group.rank)
            self.key = (str(group), "lattice", hnf)
            self._reduce = lambda g: IntVector(lattice_reduce(hnf, g.coords))
        elif isinstance(spec, GeneratedSubgroup):
            if group.order() is None:
                raise UnsupportedSubgroupError(
                    f"GeneratedSubgroup requires a finite group; supported cases: "
                    f"{SUPPORTED_SUBGROUPS}")
            members = _mulclose(group, spec.gens, cap=group.order())
            self.key = (str(group), "gen", tuple(members))
            mul = group.multiply
            self._members = members

            def reduce_finite(g):
                return min((mul(g, h) for h in members), key=group.sort_key)

            self._reduce = reduce_finite
        else:
            raise UnsupportedSubgroupError(
                f"unsupported subgroup spec {spec!r}; supported cases: "
                f"{SUPPORTED_SUBGROUPS}")

    def reduce(self, g: GroupElement) -> CosetPoint:
        return CosetPoint(self._reduce(g), self.key)

    def basepoint(self) -> CosetPoint:
        return self.reduce(self.group.identity())

    def act(self, g: GroupElement, p: CosetPoint) -> CosetPoint:
        return CosetPoint(self._reduce(self.group.multiply(g, p.rep)), self.key)


def coset_action(group: Group, subgroup_spec) -> PointedAction:
    """Action of the group on left cosets of the specified subgroup."""
    space = CosetSpace(group, subgroup_spec)
    return PointedAction(group, space.act, space.basepoint(),
                         label=f"{group} on cosets")


# ---------------------------------------------------------------------------
# built-in rule actions


def _cross_letter(letter: int, p: tuple[int, int]) -> tuple[int, int]:
    """One letter of the four-ray fixture acting on a point.

    Points are (ray, n) with ray in 0..3 and n >= 1, plus the core (0, 0).
    Letter 1 shifts the bi-infinite line ray0 <- core -> ray1, letter 2 the
    line ray2 <- core -> ray3; each is the identity on the other line.
    """
    d, n = p
    axis = 0 if abs(letter) == 1 else 2
    if n != 0 and d not in (axis, axis + 1):
        return p
    m = 0 if n == 0 else (-n if d == axis else n)
    m += 1 if letter > 0 else -1
    if m == 0:
        return (0, 0)
    return (axis, -m) if m < 0 else (axis + 1, m)


def _f2_four_ends() -> PointedAction:
    group = FreeGroup(2)

    def act(w: FreeWord, p: tuple[int, int]) -> tuple[int, int]:
        for letter in reversed(w.letters):
            p = _cross_letter(letter, p)
        return p

    return PointedAction(group, act, (0, 0),
                         label="F(2) on four rays glued at a core")


RULE_ACTIONS: dict[str, tuple[Callable[[], PointedAction], str]] = {
    "f2_four_ends": (
        _f2_four_ends,
        "transitive F(2)-action whose orbital graph is four one-ended rays "
        "joined at a single core vertex (4 ends); the two letters shift the "
        "two bi-infinite lines through the core",
    ),
}


def rule_action(name: str) -> PointedAction:
    """A named built-in action given by explicit edge rules."""
    try:
        builder, _ = RULE_ACTIONS[name]
    except KeyError:
        raise UnknownRuleActionError(
            f"unknown rule action {name!r}; known: {sorted(RULE_ACTIONS)}") from None
    return builder()


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitResult:
    points: frozenset[Point]
    truncated: bool

    def __len__(self) -> int:
        return len(self.points)


def orbit(action: PointedAction, gens: SymmetricGenSet, budget: int) -> OrbitResult:
    """BFS orbit of the basepoint, truncated at ``budget`` points."""
    if budget < 1:
        raise ActionError(f"orbit budget must be >= 1, got {budget}")
    return orbit_of_point(action, action.basepoint, gens.elements, budget)


def orbit_of_point(action: PointedAction, start: Point,
                   elements: Iterable[GroupElement], budget: int) -> OrbitResult:
    elements = tuple(elements)
    seen = {start}
    frontier = deque(seen)
    while frontier:
        x = frontier.popleft()
        for g in elements:
            y = action.act(g, x)
            if y not in seen:
                if len(seen) >= budget:
                    return OrbitResult(frozenset(seen), True)
                seen.add(y)
                frontier.append(y)
    return OrbitResult(frozenset(seen), False)


def check_action_axioms(action: PointedAction,
                        elements: Iterable[GroupElement],
                        points: Iterable[Point]) -> None:
    """Assert act(1, x) = x and act(g, act(h, x)) = act(g*h, x) on samples."""
    ident = action.group.identity()
    elements = tuple(elements)
    for x in points:
        if action.act(ident, x) != x:
            raise ActionError(f"identity axiom fails at {x!r}")
        for g in elements:
            for h in elements:
                lhs = action.act(g, action.act(h, x))
                rhs = action.act(action.group.multiply(g, h), x)
                if lhs != rhs:
                    raise ActionError(
                        f"compatibility fails: g={g!r} h={h!r} x={x!r}")
