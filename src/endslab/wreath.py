"""Restricted wreath products and their imprimitive actions.

An element is a pair (support, head): a finitely supported map
X -> base group (stored without identity values, as a frozenset of
items) together with a top-group element.  The top group permutes the
support coordinates through its action on X, and the top action's
``is_point`` decides which values are points of X.  The trusted law
``_mul`` moves coordinates with the top action's ``step``.  Both
imprimitive actions pair a leaf action of the base group (on itself or
on cosets) with the top action; the head projection steps with the top
action alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Iterable

from .actions import (
    PairPoint,
    Point,
    PointedAction,
    check_point,
    coset_action,
    point_label,
    translation_action,
)
from .balls import BallOverflowError, build_ball
from .groups import (
    LABELS,
    Cyclic,
    FreeAbelian,
    Group,
    GroupElement,
    GroupError,
    SymmetricGenSet,
    check_members,
    element_label,
    frozen_value,
    trusted_constructor,
)


class WreathError(GroupError):
    """Wreath-product construction or operation error."""


@frozen_value
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


LABELS[WreathElement] = wreath_label
_raw_wreath = trusted_constructor(WreathElement)
_raw_pair = trusted_constructor(PairPoint)


# ball budget per orbit representative when checking that the
# representatives lie in distinct top-orbits
ORBIT_CHECK_BUDGET = 1000


class WreathGroup(Group):
    """base wr_X top, where top is the group of ``top_action`` and X its point set.

    ``orbit_reps`` holds one chosen point per top-orbit; distinctness of
    the orbits is checked by looking for the later representatives in the
    largest complete ball of at most ``ORBIT_CHECK_BUDGET`` points around
    each earlier one, under the top group's standard generators (orbit
    discovery on an infinite X is only semi-decidable, so the check is an
    upper bound, not a proof).

    ``contains`` checks the head, each support value, each support point
    with the top action's ``is_point``, and that no point appears twice;
    the inherited ``multiply``/``inverse`` check with it once per operand.
    A non-point rep or ``delta`` point is an ``ActionError``, and a
    non-member ``delta`` value or ``top_element`` a ``FamilyMismatchError``.
    """

    def __init__(self, base: Group, top_action: PointedAction,
                 orbit_reps: Iterable[Point]):
        self.base = base
        self.top = top = top_action.group
        self.top_action = top_action
        self._base_identity = base.identity()
        self._top_identity = top.identity()
        self.orbit_reps = tuple(orbit_reps)
        if not self.orbit_reps:
            raise WreathError("at least one orbit representative is required")
        for rep in self.orbit_reps:
            check_point(top_action, rep)
        gens = top.standard_gens()
        for i, rep in enumerate(self.orbit_reps[:-1]):
            at_rep = replace(top_action, basepoint=rep)
            try:
                reach = build_ball(at_rep, gens, ORBIT_CHECK_BUDGET, ORBIT_CHECK_BUDGET)
            except BallOverflowError as exc:
                reach = build_ball(at_rep, gens, exc.reached_radius, ORBIT_CHECK_BUDGET)
            for other in self.orbit_reps[i + 1:]:
                if other in reach.index:
                    raise WreathError(
                        f"orbit representatives {rep!r} and {other!r} lie in the "
                        f"same top-orbit")

    def identity(self) -> WreathElement:
        return WreathElement(frozenset(), self.top.identity())

    def delta(self, point: Point, value: GroupElement) -> WreathElement:
        """The element supported at one point, with trivial head."""
        check_point(self.top_action, point)
        check_members(self.base, (value,))
        if value == self.base.identity():
            return self.identity()
        return WreathElement(frozenset([(point, value)]), self.top.identity())

    def top_element(self, h: GroupElement) -> WreathElement:
        check_members(self.top, (h,))
        return WreathElement(frozenset(), h)

    def contains(self, a) -> bool:
        if not (isinstance(a, WreathElement) and self.top.contains(a.head)):
            return False
        base, ident = self.base, self._base_identity
        is_point = self.top_action.is_point
        # a support holds one value per point
        return len(dict(a.support)) == len(a.support) and all(
            base.contains(v) and v != ident and is_point(p) for p, v in a.support)

    def _mul(self, a: WreathElement, b: WreathElement) -> WreathElement:
        # (f, h)(f', h') = (f * (h.f'), h h') with (h.f')(x) = f'(h^-1 x):
        # the entry of f' at x moves to h.x, then f's entries multiply in
        # from the left.  A delta's head moves nothing, and a top generator
        # has no entries to multiply in.
        h = a.head
        if h == self._top_identity:
            moved, head = b.support, b.head
        else:
            step = self.top_action.step
            moved = [(step(h, p), v) for p, v in b.support]
            head = self.top._mul(h, b.head)
        if not a.support:
            return _raw_wreath(frozenset(moved), head)
        mul, ident = self.base._mul, self._base_identity
        combined = dict(moved)
        for p, v in a.support:
            w = mul(v, combined[p]) if p in combined else v
            if w == ident:
                del combined[p]
            else:
                combined[p] = w
        return _raw_wreath(frozenset(combined.items()), head)

    def _inv(self, a: WreathElement) -> WreathElement:
        h_inv = self.top._inv(a.head)
        step = self.top_action.step
        inv = self.base._inv
        return _raw_wreath(frozenset((step(h_inv, p), inv(v)) for p, v in a.support), h_inv)

    def standard_gens(self) -> SymmetricGenSet:
        """The image of the standard base generators under delta(rep, .) for
        each orbit rep, followed by the image of the standard top generators."""
        base_gens, top_gens = self.base.standard_gens(), self.top.standard_gens()

        def at(rep: Point) -> SymmetricGenSet:
            label = point_label(rep)
            return base_gens.image(partial(self.delta, rep), lambda n: f"d({label}:{n})")

        return reduce(operator.add, [*map(at, self.orbit_reps),
                                     top_gens.image(self.top_element, "h({})".format)])

    def __str__(self):
        return f"{self.base} wr {self.top}"


def _imprimitive(w: WreathGroup, orbit_rep: Point, leaf: PointedAction,
                 label: str) -> PointedAction:
    """(f, h).(l, x) = (f(h.x).l, h.x), moving x with the top action's
    ``step`` and l with the ``step`` of ``leaf``, an action of the base
    group; a point is a ``PairPoint`` of a leaf point and a point of X,
    and the basepoint is (leaf basepoint, ``orbit_rep``)."""
    if orbit_rep not in w.orbit_reps:
        raise WreathError(f"{orbit_rep!r} is not one of the chosen orbit representatives")
    top_step, is_pos = w.top_action.step, w.top_action.is_point
    leaf_step, is_leaf = leaf.step, leaf.is_point

    def step(a: WreathElement, p: PairPoint) -> PairPoint:
        x = top_step(a.head, p.pos)
        leaf_pt = p.leaf
        for q, v in a.support:
            if q == x:
                leaf_pt = leaf_step(v, leaf_pt)
                break
        return _raw_pair(leaf_pt, x)

    def is_point(p: Point) -> bool:
        return isinstance(p, PairPoint) and is_leaf(p.leaf) and is_pos(p.pos)

    return PointedAction(w, step, PairPoint(leaf.basepoint, orbit_rep), label, is_point)


def imprimitive_action(w: WreathGroup, orbit_rep: Point) -> PointedAction:
    """Action on (base element, orbit point) pairs:
    (f, h).(g, x) = (f(h.x) * g, h.x)."""
    return _imprimitive(w, orbit_rep, translation_action(w.base),
                        f"{w} imprimitive on {w.base} x orbit")


def imprimitive_coset_action(w: WreathGroup, subgroup_spec,
                             orbit_rep: Point) -> PointedAction:
    """Imprimitive action with the leaf coordinate replaced by cosets:
    (f, h).(gK, x) = (f(h.x) gK, h.x)."""
    return _imprimitive(w, orbit_rep, coset_action(w.base, subgroup_spec),
                        f"{w} imprimitive on cosets x orbit")


def head_projection_action(w: WreathGroup) -> PointedAction:
    """Action on X through the head alone: (f, h).x = h.x.

    Its orbital graph is the Schreier graph of the wreath product with
    respect to the full base-sum subgroup; delta generators act trivially
    and only contribute loops.
    """
    top_step = w.top_action.step
    return PointedAction(w, lambda a, x: top_step(a.head, x), w.top_action.basepoint,
                         f"{w} head projection", w.top_action.is_point)


def lamplighter(n: int) -> tuple[WreathGroup, SymmetricGenSet]:
    """C(n) wr Z with Z acting on itself; standard generators."""
    if n < 2:
        raise WreathError(f"lamplighter base order must be >= 2, got {n}")
    top_action = translation_action(FreeAbelian(1))
    w = WreathGroup(Cyclic(n), top_action, (top_action.basepoint,))
    return w, w.standard_gens()
