"""Restricted wreath products and their imprimitive actions.

The mathematical element is a pair (f, h): a finitely supported map
f: X -> base group and a top-group element h.  It is stored relative to
its head, as (r, h) with r(y) = f(h.y), without identity values and as a
frozenset of items; this is a bijection, so equality and hashing stay
canonical.  The top group permutes coordinates through its action on X,
and the top action's ``is_point`` decides which values are points of X.
The trusted law ``_mul`` moves the left operand's entries with the top
action's ``step``, so a top generator on the left moves nothing.  Both
imprimitive actions pair a leaf action of the base group (on itself or
on cosets) with the top action; the head projection steps with the top
action alone.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass, field, replace
from functools import partial, reduce
from typing import Callable, Iterable

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
    shared_label,
)


class WreathError(GroupError):
    """Wreath-product construction or operation error."""


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}")


def frozen_value(cls):
    """Refuse every assignment and deletion on a frozen slotted dataclass
    with ``FrozenInstanceError``: in CPython 3.11 its generated methods
    raise ``TypeError`` for a non-field name.  Constructors set slots with
    ``object.__setattr__`` or slot descriptors, which bypass both."""
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


@frozen_value
@dataclass(frozen=True, slots=True)
class WreathElement:
    """(r, h) for the element (f, h) with r(y) = f(h.y); ``support`` holds
    the entries of r, with no identity values.  ``top_step``, the step of
    the group's top action, lets the label render the absolute support f;
    it takes no part in equality or hashing."""

    support: frozenset  # frozenset of (Point, base GroupElement) pairs
    head: GroupElement
    top_step: Callable = field(compare=False, repr=False)


def wreath_label(a: WreathElement, memo: dict) -> str:
    """``(x:v,...; h)`` over the entries (x, v) of the absolute support f,
    each at x = h.y for an entry (y, v) of r.

    Elements of one ball share most (head, entry) pairs, so within one
    labelling call ``memo`` keeps the label pair of each entry under
    (h, entry) and each head label under h.  A pair's point label also
    depends on the top action, so each top action's ``step`` keeps its
    own pairs."""
    h, step = a.head, a.top_step
    shared = memo.get(step)
    if shared is None:
        shared = memo[step] = ({}, {})
    pairs, heads = shared
    head = heads.get(h)
    if head is None:
        head = heads[h] = shared_label(h, memo)
    if not a.support:
        return f"(1; {head})"
    items = []
    for entry in a.support:
        key = (h, entry)
        pair = pairs.get(key)
        if pair is None:
            y, v = entry
            pair = pairs[key] = (shared_label(step(h, y), memo), shared_label(v, memo))
        items.append(pair)
    items.sort()
    return "(" + ",".join([f"{p}:{v}" for p, v in items]) + f"; {head})"


LABELS[WreathElement] = wreath_label
_set_support, _set_head, _set_top_step = (
    getattr(WreathElement, name).__set__ for name in ("support", "head", "top_step"))


def _raw_wreath(support: frozenset, head: GroupElement, top_step: Callable) -> WreathElement:
    """The trusted constructor of a law result: it sets the three slots
    through their descriptors, which skip the frozen ``__setattr__``, and
    runs no check."""
    a = object.__new__(WreathElement)
    _set_support(a, support)
    _set_head(a, head)
    _set_top_step(a, top_step)
    return a


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
        self._top_step = top_action.step
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
        return WreathElement(frozenset(), self.top.identity(), self._top_step)

    def delta(self, point: Point, value: GroupElement) -> WreathElement:
        """The element supported at one point, with trivial head."""
        check_point(self.top_action, point)
        check_members(self.base, (value,))
        if value == self.base.identity():
            return self.identity()
        return WreathElement(frozenset([(point, value)]), self.top.identity(), self._top_step)

    def top_element(self, h: GroupElement) -> WreathElement:
        check_members(self.top, (h,))
        return WreathElement(frozenset(), h, self._top_step)

    def element(self, support: Iterable[tuple[Point, GroupElement]],
                head: GroupElement) -> WreathElement:
        """The member (f, head) whose absolute support f has the given
        (point, value) entries; a non-member is a ``FamilyMismatchError``
        and a non-point an ``ActionError``."""
        entries = tuple(support)
        check_members(self.top, (head,))
        for x, _ in entries:
            check_point(self.top_action, x)
        h_inv, step = self.top._inv(head), self._top_step
        a = WreathElement(frozenset((step(h_inv, x), v) for x, v in entries), head, step)
        check_members(self, (a,))
        return a

    def absolute_support(self, a: WreathElement) -> frozenset:
        """The (point, value) entries of f for the member a = (f, h)."""
        check_members(self, (a,))
        h, step = a.head, self._top_step
        return frozenset((step(h, y), v) for y, v in a.support)

    def contains(self, a) -> bool:
        if not (isinstance(a, WreathElement) and self.top.contains(a.head)):
            return False
        base, ident = self.base, self._base_identity
        is_point = self.top_action.is_point
        # a support holds one value per point
        return len(dict(a.support)) == len(a.support) and all(
            base.contains(v) and v != ident and is_point(p) for p, v in a.support)

    def _mul(self, a: WreathElement, b: WreathElement) -> WreathElement:
        # r_ab(y) = r_a(h_b.y) * r_b(y) and h_ab = h_a h_b: the entry of r_a
        # at z moves to h_b^-1.z, then multiplies into r_b from the left.
        # A top generator has no entries, so the product shares b's support
        # (and its cached hash); a delta's trivial head leaves b's head.
        h_a, h_b, step = a.head, b.head, self._top_step
        head = h_b if h_a == self._top_identity else self.top._mul(h_a, h_b)
        if not a.support:
            return _raw_wreath(b.support, head, step)
        h_b_inv = self.top._inv(h_b)
        mul, ident = self.base._mul, self._base_identity
        combined = dict(b.support)
        for z, v in a.support:
            y = step(h_b_inv, z)
            w = mul(v, combined[y]) if y in combined else v
            if w == ident:
                del combined[y]
            else:
                combined[y] = w
        return _raw_wreath(frozenset(combined.items()), head, step)

    def _inv(self, a: WreathElement) -> WreathElement:
        # r'(y) = r(h^-1.y)^-1: the entry (z, v) goes to (h.z, v^-1)
        h, step, inv = a.head, self._top_step, self.base._inv
        return _raw_wreath(frozenset((step(h, z), inv(v)) for z, v in a.support),
                           self.top._inv(h), step)

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
    """(f, h).(l, x) = (f(h.x).l, h.x) = (r(x).l, h.x): the step reads r
    at the old position x, moves l with the ``step`` of ``leaf``, an
    action of the base group, and x with the top action's ``step``; a
    point is a ``PairPoint`` of a leaf point and a point of X, and the
    basepoint is (leaf basepoint, ``orbit_rep``)."""
    if orbit_rep not in w.orbit_reps:
        raise WreathError(f"{orbit_rep!r} is not one of the chosen orbit representatives")
    top_step, is_pos = w.top_action.step, w.top_action.is_point
    leaf_step, is_leaf = leaf.step, leaf.is_point

    def step(a: WreathElement, p: PairPoint) -> PairPoint:
        leaf_pt, x = p
        for y, v in a.support:
            if y == x:
                leaf_pt = leaf_step(v, leaf_pt)
                break
        # tuple.__new__ skips the Python-level __new__ of the named tuple
        return tuple.__new__(PairPoint, (leaf_pt, top_step(a.head, x)))

    def is_point(p: Point) -> bool:
        return type(p) is PairPoint and is_leaf(p.leaf) and is_pos(p.pos)

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
