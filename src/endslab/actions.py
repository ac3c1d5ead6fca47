"""Computable left group actions on countable point sets.

A :class:`PointedAction` bundles an acting group, the action's law
``step``, a basepoint and ``is_point``, the test of its point set.  Each
action states its law once: ``step`` trusts its operands, and the one
checked ``act``, the same for every action, rejects an element outside
the group and a value that fails ``is_point`` before it steps.  A ball
build (``balls.build_ball``) checks its generators and basepoint once and
then only steps, since every later point is a ``step`` result.

Points are plain hashable values: group elements (for translation
actions, and for coset actions, where a coset is its canonical
representative), :class:`PairPoint` (imprimitive wreath actions) and
small tuples for the built-in rule actions.  A point's label comes from
the acting group (``Group.label``), so an export labels a ball's points
with ``point_labels(points, ball.action.group.label)``.  A base value and
a rule-action point also label with no group at hand (``point_label``);
a pair point labels only through its wreath group.  Subgroup specs state
their coset laws, quotient specs their image, kernel and lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable, NamedTuple, Sequence

from .groups import (
    Cyclic,
    FreeAbelian,
    FreeGroup,
    Group,
    GroupElement,
    Perm,
    SymmetricGroup,
    Torus,
    check_members,
    make_gen_set,
    perm_parity,
)

Point = Any


class ActionError(Exception):
    """Base class for action-kernel errors."""


class UnsupportedSubgroupError(ActionError):
    """Subgroup specification outside the supported computable-coset cases."""


class UnknownRuleActionError(ActionError):
    """Requested built-in rule action does not exist."""


class PairPoint(NamedTuple):
    """Point of an imprimitive action: (leaf coordinate, position
    coordinate).  It equals and hashes as the plain pair, and its wreath
    group labels it ``(l, x)``.  A type of its own, because
    ``leaf_decomposition`` and ``WreathGroup.label`` tell it from a point
    of X, which may itself be a pair (a Z^2 point)."""

    leaf: Any
    pos: Any


def _any_point(p: Point) -> bool:
    """The point test of an action that accepts every value."""
    return True


@dataclass(frozen=True)
class PointedAction:
    """A computable left action of ``group`` with a distinguished basepoint.

    ``step`` is the law: it applies a member of ``group`` to a point of the
    action.  ``is_point`` tells the points from other values.
    """

    group: Group
    step: Callable[[GroupElement, Point], Point]
    basepoint: Point
    label: str = ""
    is_point: Callable[[Point], bool] = field(
        default=_any_point, repr=False, compare=False)

    def act(self, g: GroupElement, p: Point) -> Point:
        """``step`` behind a check of both operands."""
        check_members(self.group, (g,))
        check_point(self, p)
        return self.step(g, p)

    def __str__(self):
        return self.label or f"action of {self.group}"


def check_point(action: PointedAction, p: Point) -> None:
    """Raise ``ActionError`` unless ``p`` is a point of the action."""
    if not action.is_point(p):
        raise ActionError(f"{p!r} is not a point of {action}")


def point_labels(points: Iterable[Point],
                 label: Callable[[Point, dict], str]) -> list[str]:
    """``[label(p, {}) for p in points]``, in one labelling call: the
    points of one ball share most of their parts, such as the (head,
    entry) pairs of wreath elements, so a memo that lives for this call
    labels each shared part once.  ``label`` is a group's ``label``.  No
    state outlives it."""
    memo: dict = {}
    return [label(p, memo) for p in points]


# ---------------------------------------------------------------------------
# translation actions


def translation_action(group: Group) -> PointedAction:
    """The group acting on itself by left multiplication, based at the identity."""
    return PointedAction(group, group._mul, group.identity(),
                         f"{group} on itself", group.contains)


# ---------------------------------------------------------------------------
# subgroup specifications and coset actions


@dataclass(frozen=True)
class TrivialSubgroup:
    """The trivial subgroup of any family, generated by no elements."""

    gens: ClassVar[tuple[GroupElement, ...]] = ()

    def coset_law(self, group: Group):
        return lambda g: g


@dataclass(frozen=True)
class GeneratedSubgroup:
    """The subgroup that a generator list spans.  Its coset law is the
    lattice reduction on Z^k and the least product over its closure on a
    finite group."""

    gens: tuple[GroupElement, ...]

    def coset_law(self, group: Group):
        check_members(group, self.gens)
        if isinstance(group, FreeAbelian):
            hnf = hermite_normal_form(self.gens, group.rank)
            return lambda g: lattice_reduce(hnf, g)
        if group.order() is None:
            raise UnsupportedSubgroupError(f"GeneratedSubgroup requires Z^k or a finite "
                                           f"group; supported cases: {SUPPORTED_SUBGROUPS}")
        return group._min_product(tuple(_mulclose(group, self.gens)))


SUPPORTED_SUBGROUPS = (
    "trivial subgroup of any family; GeneratedSubgroup of Z^k (a lattice) "
    "or of a finite group"
)


def hermite_normal_form(basis: Sequence[tuple[int, ...]], width: int) -> tuple[tuple[int, ...], ...]:
    """Row-style Hermite normal form of an integer lattice basis.

    Returns echelon rows with positive pivots; entries above each pivot
    are reduced into [0, pivot).  The rows span the same lattice.
    """
    for r in basis:
        if len(r) != width:
            raise UnsupportedSubgroupError(
                f"basis vector {tuple(r)} has length {len(r)}, expected {width}")
    rows = [list(r) for r in basis if any(r)]
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


def _mulclose(group: Group, gens: Iterable[GroupElement]) -> list[GroupElement]:
    """All products of the generators (and their inverses) in a finite
    group, in their natural order."""
    # balls imports this module, so build_ball is looked up at call time
    from .balls import build_ball
    # the closure has at most order() points, so this build cannot overflow
    order = group.order()
    closure = build_ball(translation_action(group), make_gen_set(group, tuple(gens)),
                         order, order)
    return sorted(closure.points)


def coset_action(group: Group, subgroup_spec) -> PointedAction:
    """Action of the group on left cosets gK of the specified subgroup.

    The subgroup spec's ``coset_law`` gives the canonical representative
    map, which takes members only.  A coset is its canonical
    representative: a point is a member that the map fixes, so
    ``is_point`` refuses any other member of the coset.
    """
    if not hasattr(subgroup_spec, "coset_law"):
        raise UnsupportedSubgroupError(
            f"unsupported subgroup spec {subgroup_spec!r}; supported cases: "
            f"{SUPPORTED_SUBGROUPS}")
    reduce = subgroup_spec.coset_law(group)
    mul, contains = group._mul, group.contains

    def step(g: GroupElement, p: GroupElement) -> GroupElement:
        return reduce(mul(g, p))

    def is_point(p: Point) -> bool:
        return contains(p) and reduce(p) == p

    return PointedAction(group, step, reduce(group.identity()),
                         f"{group} on cosets", is_point)


# ---------------------------------------------------------------------------
# quotient specifications


class QuotientSpec:
    """A quotient map pi: G -> Q = G/N onto a finite group.  Each spec
    states its source G, its quotient Q with the element map, generators
    of the kernel N, and a lift of each element of Q to G."""

    def preimage(self, group: Group, subgroup_spec):
        """Subgroup spec over ``group`` for pi^-1(K), K <= Q given by
        generators: it is generated by N's generators and the lifts of K's."""
        source = self.source()
        if group != source:
            raise UnsupportedSubgroupError(f"{type(self).__name__} needs {source}")
        k_gens = getattr(subgroup_spec, "gens", None)
        if k_gens is None:
            raise UnsupportedSubgroupError(
                f"unsupported K spec {subgroup_spec!r} for quotient {self!r}")
        check_members(self.quotient()[0], k_gens)
        return GeneratedSubgroup(self.kernel_gens() + tuple(map(self.lift, k_gens)))


@dataclass(frozen=True)
class IntModQuotient(QuotientSpec):
    """Z -> Z/n."""

    n: int

    def source(self):
        return FreeAbelian(1)

    def quotient(self):
        return Cyclic(self.n), lambda g: g[0] % self.n

    def kernel_gens(self):
        return ((self.n,),)

    def lift(self, q):
        return (q,)


@dataclass(frozen=True)
class DiagonalLatticeQuotient(QuotientSpec):
    """Z^k -> Z/d1 x ... x Z/dk (quotient by the diagonal lattice)."""

    moduli: tuple[int, ...]

    def source(self):
        return FreeAbelian(len(self.moduli))

    def quotient(self):
        moduli = self.moduli
        return Torus(moduli), lambda g: tuple([c % m for c, m in zip(g, moduli)])

    def kernel_gens(self):
        k = len(self.moduli)
        return tuple(tuple(m if i == j else 0 for j in range(k))
                     for i, m in enumerate(self.moduli))

    def lift(self, q):
        return q


@dataclass(frozen=True)
class CyclicDivisorQuotient(QuotientSpec):
    """C(n) -> C(d) for d | n."""

    n: int
    d: int

    def source(self):
        return Cyclic(self.n)

    def quotient(self):
        quotient = Cyclic(self.d)
        if self.n % self.d != 0:
            raise UnsupportedSubgroupError(f"{self.d} does not divide {self.n}")
        return quotient, lambda g: g % self.d

    def kernel_gens(self):
        return (self.d % self.n,)

    def lift(self, q):
        return q


@dataclass(frozen=True)
class SignQuotient(QuotientSpec):
    """Sym(n) -> C(2) by parity."""

    n: int

    def source(self):
        return SymmetricGroup(self.n)

    def quotient(self):
        return Cyclic(2), perm_parity

    def kernel_gens(self):
        # the 3-cycles (i i+1 i+2) generate the alternating group
        return tuple(Perm((*range(i), i + 1, i + 2, i, *range(i + 3, self.n)))
                     for i in range(self.n - 2))

    def lift(self, q):
        # 1 lifts to (0 1), or to the identity in Sym(1), which has no odd element
        img = list(range(self.n))
        if q:
            img[:2] = img[1::-1]
        return Perm(img)


# ---------------------------------------------------------------------------
# built-in rule actions


def _cross_letter(axis: int, shift: int, p: tuple[int, int]) -> tuple[int, int]:
    """One letter of the four-ray fixture acting on a point.

    Points are (ray, n) with ray in 0..3 and n >= 1, plus the core (0, 0).
    The letter shifts by ``shift`` (+1 or -1) the bi-infinite line
    ray(axis) <- core -> ray(axis + 1), and is the identity on the other line.
    """
    d, n = p
    if n != 0 and d not in (axis, axis + 1):
        return p
    m = 0 if n == 0 else (-n if d == axis else n)
    m += shift
    if m == 0:
        return (0, 0)
    return (axis, -m) if m < 0 else (axis + 1, m)


# (axis, shift) of each F(2) letter code: a, A on the line of rays 0 and 1,
# b, B on the line of rays 2 and 3
_FOUR_RAY_MOVES = ((0, 1), (0, -1), (2, 1), (2, -1))


def _on_four_rays(p) -> bool:
    if p == (0, 0):
        return True
    return (type(p) is tuple and len(p) == 2 and p[0] in (0, 1, 2, 3)
            and type(p[1]) is int and p[1] >= 1)


def _f2_four_ends() -> PointedAction:
    group = FreeGroup(2)

    def step(w: bytes, p: tuple[int, int]) -> tuple[int, int]:
        for code in reversed(w):
            p = _cross_letter(*_FOUR_RAY_MOVES[code], p)
        return p

    return PointedAction(group, step, (0, 0), "F(2) on four rays glued at a core",
                         _on_four_rays)


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
