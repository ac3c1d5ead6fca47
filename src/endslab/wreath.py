"""Restricted wreath products and their imprimitive actions.

An element is a pair (support, head): a finitely supported map
X -> base group (stored without identity values, as a frozenset of
items) together with a top-group element.  The top group permutes the
support coordinates through its action on X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .actions import (
    CosetSpace,
    PairPoint,
    Point,
    PointedAction,
    orbit_of_point,
    point_label,
    translation_action,
)
from .groups import (
    Group,
    GroupElement,
    GroupError,
    SymmetricGenSet,
    element_label,
)


class WreathError(GroupError):
    """Wreath-product construction or operation error."""


@dataclass(frozen=True, slots=True)
class WreathElement:
    """(support, head) with no identity values stored in the support."""

    support: frozenset  # frozenset of (Point, base GroupElement) pairs
    head: GroupElement


def wreath_label(a: WreathElement) -> str:
    if a.support:
        items = sorted(((point_label(p), element_label(v)) for p, v in a.support))
        sup = ",".join(f"{p}:{v}" for p, v in items)
    else:
        sup = "1"
    return f"({sup}; {element_label(a.head)})"


# points explored per orbit representative when checking that the
# representatives lie in distinct top-orbits
ORBIT_CHECK_BUDGET = 1000


class WreathGroup(Group):
    """base wr_X top, where X is the point set of ``top_action``.

    ``orbit_reps`` holds one chosen point per top-orbit; distinctness of
    the orbits is checked by a BFS from each representative but the last
    that looks for the later ones, under the top group's standard
    generators and up to ``ORBIT_CHECK_BUDGET`` points (orbit discovery on
    an infinite X is only semi-decidable, so the check is an upper bound,
    not a proof).
    """

    def __init__(self, base: Group, top: Group, top_action: PointedAction,
                 orbit_reps: Iterable[Point]):
        if top_action.group is not top and top_action.group != top:
            raise WreathError("top_action must be an action of the top group")
        self.base = base
        self.top = top
        self.top_action = top_action
        self.orbit_reps = tuple(orbit_reps)
        if not self.orbit_reps:
            raise WreathError("at least one orbit representative is required")
        gens = top.standard_gens()
        for i, rep in enumerate(self.orbit_reps[:-1]):
            reach = orbit_of_point(top_action, rep, gens.elements, ORBIT_CHECK_BUDGET)
            for other in self.orbit_reps[i + 1:]:
                if other in reach.points:
                    raise WreathError(
                        f"orbit representatives {rep!r} and {other!r} lie in the "
                        f"same top-orbit")

    def identity(self) -> WreathElement:
        return WreathElement(frozenset(), self.top.identity())

    def delta(self, point: Point, value: GroupElement) -> WreathElement:
        """The element supported at one point, with trivial head."""
        if not self.base.contains(value):
            raise WreathError(f"{value!r} is not a base-group element")
        if value == self.base.identity():
            return self.identity()
        return WreathElement(frozenset([(point, value)]), self.top.identity())

    def top_element(self, h: GroupElement) -> WreathElement:
        if not self.top.contains(h):
            raise WreathError(f"{h!r} is not a top-group element")
        return WreathElement(frozenset(), h)

    def contains(self, a) -> bool:
        if not isinstance(a, WreathElement):
            return False
        if not self.top.contains(a.head):
            return False
        return all(self.base.contains(v) and v != self.base.identity()
                   for _, v in a.support)

    def multiply(self, a: WreathElement, b: WreathElement) -> WreathElement:
        # (f, g)(f', g') = (f * (g.f'), g g') with (g.f')(x) = f'(g^-1 x),
        # i.e. the entry of f' at x moves to g.x.
        act = self.top_action.act
        mul = self.base.multiply
        ident = self.base.identity()
        combined = dict(a.support)
        for p, v in b.support:
            q = act(a.head, p)
            w = mul(combined[q], v) if q in combined else v
            if w == ident:
                combined.pop(q, None)
            else:
                combined[q] = w
        return WreathElement(frozenset(combined.items()),
                             self.top.multiply(a.head, b.head))

    def inverse(self, a: WreathElement) -> WreathElement:
        h_inv = self.top.inverse(a.head)
        act = self.top_action.act
        inv = self.base.inverse
        support = frozenset((act(h_inv, p), inv(v)) for p, v in a.support)
        return WreathElement(support, h_inv)

    def shift(self, h: GroupElement, a: WreathElement) -> WreathElement:
        """The top-group action on finitely supported maps: (h.f)(x) = f(h^-1 x)."""
        act = self.top_action.act
        return WreathElement(frozenset((act(h, p), v) for p, v in a.support),
                             a.head)

    def __str__(self):
        return f"{self.base} wr {self.top}"


def standard_wreath_gens(w: WreathGroup, base_gens: SymmetricGenSet,
                         top_gens: SymmetricGenSet) -> SymmetricGenSet:
    """Generators (delta at each orbit rep, per base generator) plus top generators."""
    elements: list[WreathElement] = []
    pairing: list[int] = []
    names: list[str] = []
    identity_idx: set[int] = set()
    for rep in w.orbit_reps:
        k = len(elements)
        for i, s in enumerate(base_gens.elements):
            elements.append(w.delta(rep, s))
            pairing.append(k + base_gens.pairing[i])
            names.append(f"d({point_label(rep)}:{base_gens.names[i]})")
            if i in base_gens.identity_indices:
                identity_idx.add(k + i)
    k = len(elements)
    for i, t in enumerate(top_gens.elements):
        elements.append(w.top_element(t))
        pairing.append(k + top_gens.pairing[i])
        names.append(f"h({top_gens.names[i]})")
        if i in top_gens.identity_indices:
            identity_idx.add(k + i)
    return SymmetricGenSet(tuple(elements), tuple(pairing), tuple(names),
                           frozenset(identity_idx))


def imprimitive_action(w: WreathGroup, orbit_rep: Point) -> PointedAction:
    """Action on (base element, orbit point) pairs:
    (f, h).(g, x) = (f(h.x) * g, h.x)."""
    if orbit_rep not in w.orbit_reps:
        raise WreathError(f"{orbit_rep!r} is not one of the chosen orbit representatives")
    act_top = w.top_action.act
    mul = w.base.multiply

    def act(a: WreathElement, p: PairPoint) -> PairPoint:
        x = act_top(a.head, p.pos)
        g = p.leaf
        for q, v in a.support:
            if q == x:
                g = mul(v, g)
                break
        return PairPoint(g, x)

    base_ident = w.base.identity()
    return PointedAction(w, act, PairPoint(base_ident, orbit_rep),
                         label=f"{w} imprimitive on {w.base} x orbit")


def imprimitive_coset_action(w: WreathGroup, subgroup_spec,
                             orbit_rep: Point) -> PointedAction:
    """Imprimitive action with the leaf coordinate replaced by cosets:
    (f, h).(gK, x) = (f(h.x) gK, h.x)."""
    if orbit_rep not in w.orbit_reps:
        raise WreathError(f"{orbit_rep!r} is not one of the chosen orbit representatives")
    space = CosetSpace(w.base, subgroup_spec)
    act_top = w.top_action.act

    def act(a: WreathElement, p: PairPoint) -> PairPoint:
        x = act_top(a.head, p.pos)
        leaf = p.leaf
        for q, v in a.support:
            if q == x:
                leaf = space.act(v, leaf)
                break
        return PairPoint(leaf, x)

    return PointedAction(w, act, PairPoint(space.basepoint(), orbit_rep),
                         label=f"{w} imprimitive on cosets x orbit")


def head_projection_action(w: WreathGroup) -> PointedAction:
    """Action on X through the head alone: (f, h).x = h.x.

    Its orbital graph is the Schreier graph of the wreath product with
    respect to the full base-sum subgroup; delta generators act trivially
    and only contribute loops.
    """
    act_top = w.top_action.act

    def act(a: WreathElement, x: Point) -> Point:
        return act_top(a.head, x)

    return PointedAction(w, act, w.top_action.basepoint,
                         label=f"{w} head projection")


def lamplighter(n: int) -> tuple[WreathGroup, SymmetricGenSet]:
    """C(n) wr Z with Z acting on itself; standard generators."""
    if n < 2:
        raise WreathError(f"lamplighter base order must be >= 2, got {n}")
    from .groups import Cyclic, FreeAbelian

    base = Cyclic(n)
    top = FreeAbelian(1)
    top_action = translation_action(top)
    w = WreathGroup(base, top, top_action, (top_action.basepoint,))
    gens = standard_wreath_gens(w, base.standard_gens(), top.standard_gens())
    return w, gens
