"""Restricted wreath products and their imprimitive actions.

The mathematical element is a pair (f, h): a finitely supported map
f: X -> base group and a top-group element h.  It is stored relative to
its head, as (r, h) with r(y) = f(h.y), without identity values and as a
frozenset of items; this is a bijection, so equality and hashing stay
canonical.  An element is a :class:`WreathElement`, a named tuple
(support, head), and a law result is built with ``tuple.__new__``, which
runs no check.  The top group permutes coordinates through its action on
X, and the top action's ``is_point`` decides which values are points of
X.  The trusted law ``_mul`` moves the left operand's entries with the
top action's ``step``, so a top generator on the left moves nothing.  An
element does not carry the top action, so its label comes from its
group (``WreathGroup.label``).  Both imprimitive actions pair a leaf
action of the base group (on itself or on cosets) with the top action;
the head projection steps with the top action alone.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, NamedTuple

from .actions import (
    PairPoint,
    Point,
    PointedAction,
    check_point,
    coset_action,
    translation_action,
)
from .groups import (
    Cyclic,
    FreeAbelian,
    Group,
    GroupElement,
    GroupError,
    SymmetricGenSet,
    check_members,
)


class WreathError(GroupError):
    """Wreath-product construction or operation error."""


class WreathElement(NamedTuple):
    """(r, h) for the element (f, h) with r(y) = f(h.y); ``support`` holds
    the entries of r, with no identity values.  A named tuple, so it hashes
    and compares in C and equals the plain pair (support, head); its group,
    which knows the top action, renders the absolute support f in labels."""

    support: frozenset  # frozenset of (Point, base GroupElement) pairs
    head: GroupElement


# builds a law result from its field tuple: it skips the Python-level
# __new__ of the named tuples, and checks nothing
_new = tuple.__new__


class WreathGroup(Group):
    """base wr_X top, where top is the group of ``top_action`` and X its
    point set; the standard deltas sit at the action's basepoint x0.

    ``contains`` checks the head, each support value, each support point
    with the top action's ``is_point``, and that no point appears twice;
    the inherited ``multiply``/``inverse`` check with it once per operand.
    A non-point basepoint or ``delta`` point is an ``ActionError``, and a
    non-member ``delta`` value or ``top_element`` a ``FamilyMismatchError``.
    """

    def __init__(self, base: Group, top_action: PointedAction):
        check_point(top_action, top_action.basepoint)
        self.base = base
        self.top = top = top_action.group
        self.top_action = top_action
        self._base_identity = base.identity()
        self._top_identity = top.identity()
        self._top_step = top_action.step
        self._states_parity = (base.parity(self._base_identity) is not None
                               and top.parity(self._top_identity) is not None)
        # (x0,): the bench's leaves requests read the hub position as orbit_reps[0]
        self.orbit_reps = (top_action.basepoint,)

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
        a = WreathElement(frozenset((step(h_inv, x), v) for x, v in entries), head)
        check_members(self, (a,))
        return a

    def absolute_support(self, a: WreathElement) -> frozenset:
        """The (point, value) entries of f for the member a = (f, h)."""
        check_members(self, (a,))
        h, step = a.head, self._top_step
        return frozenset((step(h, y), v) for y, v in a.support)

    def contains(self, a) -> bool:
        if not (type(a) is WreathElement and self.top.contains(a.head)):
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
        r_a, h_a = a
        r_b, h_b = b
        head = h_b if h_a == self._top_identity else self.top._mul(h_a, h_b)
        if not r_a:
            return _new(WreathElement, (r_b, head))
        h_b_inv, step = self.top._inv(h_b), self._top_step
        mul, ident = self.base._mul, self._base_identity
        combined = dict(r_b)
        for z, v in r_a:
            y = step(h_b_inv, z)
            w = mul(v, combined[y]) if y in combined else v
            if w == ident:
                del combined[y]
            else:
                combined[y] = w
        return _new(WreathElement, (frozenset(combined.items()), head))

    def _inv(self, a: WreathElement) -> WreathElement:
        # r'(y) = r(h^-1.y)^-1: the entry (z, v) goes to (h.z, v^-1)
        r, h = a
        step, inv = self._top_step, self.base._inv
        return _new(WreathElement, (frozenset((step(h, z), inv(v)) for z, v in r),
                                    self.top._inv(h)))

    def parity(self, a: WreathElement):
        """The top parity of the head plus the base parities of the support
        entries, when both factors state one: r holds the values of f, and
        a product's values are the products of its operands' values, so the
        sum is a homomorphism onto Z/2."""
        if not self._states_parity:
            return None
        base_parity = self.base.parity
        support, head = a
        return (self.top.parity(head) + sum([base_parity(v) for _, v in support])) & 1

    def label(self, a, memo: dict) -> str:
        """``(x:v,...; h)`` over the entries (x, v) of the absolute support f
        of a = (f, h), each at x = h.y for an entry (y, v) of r.  A point of
        the group's actions gets the labels of the factors, so the parts of
        a nested wreath product render too: a ``PairPoint`` (l, x) of an
        imprimitive action is ``(l, x)`` with l labelled by the base group,
        and any other value, a point of X, gets the top group's label.

        Elements of one ball share most (head, entry) pairs, so within one
        labelling call ``memo`` keeps each head label under (group, h) and
        the label pair of each entry under (group, h, entry): a pair's point
        label depends on the top action, so each group keeps its own."""
        if type(a) is PairPoint:
            return f"({self.base.label(a.leaf, memo)}, {self.top.label(a.pos, memo)})"
        if type(a) is not WreathElement:
            return self.top.label(a, memo)
        support, h = a
        head = memo.get((self, h))
        if head is None:
            if not self.top.contains(h):
                return self.top.label(a, memo)
            head = memo[self, h] = self.top.label(h, memo)
        if not support:
            return f"(1; {head})"
        items = []
        for entry in support:
            pair = memo.get((self, h, entry))
            if pair is None:
                y, v = entry
                pair = memo[self, h, entry] = (self.top.label(self._top_step(h, y), memo),
                                               self.base.label(v, memo))
            items.append(pair)
        items.sort()
        return "(" + ",".join([f"{p}:{v}" for p, v in items]) + f"; {head})"

    def standard_gens(self) -> SymmetricGenSet:
        """The image of the standard base generators under delta(x0, .),
        followed by the image of the standard top generators."""
        x0 = self.top_action.basepoint
        label = self.top.label(x0, {})
        deltas = self.base.standard_gens().image(partial(self.delta, x0),
                                                 lambda n: f"d({label}:{n})")
        return deltas + self.top.standard_gens().image(self.top_element, "h({})".format)

    def __str__(self):
        return f"{self.base} wr {self.top}"


def _imprimitive(w: WreathGroup, leaf: PointedAction, label: str) -> PointedAction:
    """(f, h).(l, x) = (f(h.x).l, h.x) = (r(x).l, h.x): the step reads r
    at the old position x, moves l with the ``step`` of ``leaf``, an
    action of the base group, and x with the top action's ``step``; a
    point is a ``PairPoint`` of a leaf point and a point of X, and the
    basepoint is (leaf basepoint, top basepoint x0)."""
    top_step, is_pos = w.top_action.step, w.top_action.is_point
    leaf_step, is_leaf = leaf.step, leaf.is_point

    def step(a: WreathElement, p: PairPoint) -> PairPoint:
        leaf_pt, x = p
        support, head = a
        for y, v in support:
            if y == x:
                leaf_pt = leaf_step(v, leaf_pt)
                break
        return _new(PairPoint, (leaf_pt, top_step(head, x)))

    def is_point(p: Point) -> bool:
        return type(p) is PairPoint and is_leaf(p.leaf) and is_pos(p.pos)

    return PointedAction(w, step, PairPoint(leaf.basepoint, w.top_action.basepoint),
                         label, is_point)


def imprimitive_action(w: WreathGroup) -> PointedAction:
    """Action on (base element, orbit point) pairs:
    (f, h).(g, x) = (f(h.x) * g, h.x)."""
    return _imprimitive(w, translation_action(w.base), f"{w} imprimitive on {w.base} x orbit")


def imprimitive_coset_action(w: WreathGroup, subgroup_spec) -> PointedAction:
    """Imprimitive action with the leaf coordinate replaced by cosets:
    (f, h).(gK, x) = (f(h.x) gK, h.x)."""
    return _imprimitive(w, coset_action(w.base, subgroup_spec),
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
    w = WreathGroup(Cyclic(n), top_action)
    return w, w.standard_gens()
