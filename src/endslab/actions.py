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

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterable, NamedTuple, Optional, Sequence

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
    action.  ``is_point`` tells the points from other values.  ``parity``,
    when set, colours the points by 0 and 1 with
    c(g.p) = c(p) xor ``group.parity(g)`` for every member g and point p,
    wherever the group states a parity (``Group.parity``); only a
    translation action sets it, to ``group.parity``.  With it, every
    edge of a generator of parity 1 joins two colours, so when all
    generators have parity 1 the orbital graph is bipartite by distance
    parity (``balls.bipartite_by_distance``): ``build_ball`` skips the
    lookups of the radius-R rows, and the ends sweep never reads them.
    ``replace(action, basepoint=...)`` keeps it, which is sound: c is
    stated on every point.
    """

    group: Group
    step: Callable[[GroupElement, Point], Point]
    basepoint: Point
    label: str = ""
    is_point: Callable[[Point], bool] = field(
        default=_any_point, repr=False, compare=False)
    parity: Optional[Callable[[Point], Optional[int]]] = field(
        default=None, repr=False, compare=False)

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
    """The group acting on itself by left multiplication, based at the
    identity; its points are coloured by the group's parity."""
    return PointedAction(group, group._mul, group.identity(),
                         f"{group} on itself", group.contains, group.parity)


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
    """The subgroup that a generator list spans.  Its coset law never
    lists the subgroup: on Z^k and on a torus it is the lattice reduction
    (the torus's lattice holds its moduli's diagonal too), on C(n) the
    residue mod the gcd of n and the generators, and on Sym(n) the greedy
    descent of a stabilizer chain (``chain_law``).  Each law gives the
    least member of the coset in the family's natural order."""

    gens: tuple[GroupElement, ...]

    def coset_law(self, group: Group):
        check_members(group, self.gens)
        if isinstance(group, FreeAbelian):
            return lattice_law(hermite_normal_form(self.gens, group.rank))
        if isinstance(group, Torus):
            diagonal = DiagonalLatticeQuotient(group.moduli).kernel_gens()
            return lattice_law(hermite_normal_form((*self.gens, *diagonal), len(group.moduli)))
        if isinstance(group, Cyclic):
            return math.gcd(group.modulus, *self.gens).__rmod__
        if isinstance(group, SymmetricGroup):
            return chain_law(stabilizer_chain(group, self.gens))
        raise UnsupportedSubgroupError(f"GeneratedSubgroup requires Z^k or a finite "
                                       f"group; supported cases: {SUPPORTED_SUBGROUPS}")


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


def lattice_law(hnf: tuple[tuple[int, ...], ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map coords -> canonical representative modulo the lattice
    spanned by hnf, with each row's pivot column found once."""
    pivots = tuple((next(i for i, x in enumerate(row) if x != 0), row) for row in hnf)

    def reduce(coords: tuple[int, ...]) -> tuple[int, ...]:
        v = list(coords)
        for c, row in pivots:
            q = v[c] // row[c]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    return reduce


def stabilizer_chain(group: SymmetricGroup,
                     gens: Sequence[Perm]) -> tuple[dict[int, Perm], ...]:
    """The transversals of a stabilizer chain of the subgroup K of Sym(n)
    that ``gens`` spans, on the base 0, 1, ..., n-1, by a deterministic
    Schreier-Sims (Sims 1970; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, ch. 4) from the generators, with no walk
    over K.

    Level i holds a map b -> u_b over the orbit of i under K_i, the
    stabilizer of 0..i-1 in K, with u_b in K_i and u_b(i) = b.  Only the
    levels whose orbit is not {i} are returned, so the product of the
    orbit lengths is |K|.
    """
    mul, inv, n = group._mul, group._inv, group.degree
    ident = group.identity()
    strong: list[list[Perm]] = [[] for _ in range(n)]
    transversals: list[dict[int, Perm]] = [{i: ident} for i in range(n)]
    # u_b^-1 for each entry u_b, for the sifts
    inverses: list[dict[int, Perm]] = [{i: ident} for i in range(n)]

    def sifts(level: int, h: Perm) -> bool:
        # h fixes 0..level-1; it is a product of transversal entries
        # exactly when stripping one entry per level leaves the identity
        for i in range(level, n):
            b = h[i]
            if b != i:
                u_inv = inverses[i].get(b)
                if u_inv is None:
                    return False
                h = mul(u_inv, h)
        return True

    def add(level: int, h: Perm) -> None:
        # h fixes 0..level-1: make it a strong generator of its level, close
        # the orbit of that level under the level's generators, and pass
        # every Schreier generator u_(s.b)^-1 s u_b one level down
        if sifts(level, h):
            return
        gens_i, trans_i, inv_i = strong[level], transversals[level], inverses[level]
        gens_i.append(h)
        todo = [mul(h, u) for u in trans_i.values()]
        while todo:
            t = todo.pop()
            b = t[level]
            if b in trans_i:
                add(level + 1, mul(inv_i[b], t))
            else:
                trans_i[b] = t
                inv_i[b] = inv(t)
                todo.extend(mul(s, t) for s in gens_i)

    for g in gens:
        add(0, g)
    return tuple(t for t in transversals if len(t) > 1)


def chain_law(chain: Sequence[dict[int, Perm]]) -> Callable[[Perm], Perm]:
    """The map g -> least member of gK, for K the subgroup of a stabilizer
    chain (``stabilizer_chain``).  The law descends greedily: at level i
    it takes the orbit point c with the least g[c] and replaces g by
    g u_c.  Greedy is exact, because g h is least in coordinate i among
    the members h that fix g's choices so far exactly when h(i) minimises
    g[h(i)], and those h with h(i) = c form the coset u_c K_(i+1).  A
    level's u_c applies as ``itemgetter(*u_c)``, which maps g to g u_c as
    a plain tuple (a level has two points or more, so n >= 2 and the getter
    returns a tuple), so a step costs O(n^2) whatever |K| is, and one Perm
    is built at the end."""
    levels = tuple((tuple(trans), {c: operator.itemgetter(*u) for c, u in trans.items()})
                   for trans in chain)

    def reduce(g: Perm) -> Perm:
        for points, getters in levels:
            best = points[0]
            low = g[best]
            for c in points:
                if g[c] < low:
                    best, low = c, g[c]
            g = getters[best](g)
        return tuple.__new__(Perm, g)

    return reduce


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
