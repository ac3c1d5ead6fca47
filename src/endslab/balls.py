"""Finite balls of labeled orbital graphs.

A ball of radius R is the closed subgraph induced on all points at word
distance <= R from the basepoint: every edge with both endpoints inside
the ball is present, including edges between two boundary vertices.
The ball stores the graph as its labeled transition table u -> s_i.u;
the edge list, one edge per unordered generator pair {s, s^-1} labeled
by the smaller index of the pair, is derived from it.  A build, the
library's one walk over an action, checks its generators, basepoint and
budget once and then applies the action's law ``step``; it never calls
the derived ``act``, whose point test ``is_point`` every ball point passes.
The walk goes sphere by sphere, with -1 as the one mark of an unfilled
entry, and ends with a lookup-only pass over the radius-R rows for the
edges inside S_R.  It skips that pass when ``bipartite_by_distance``, the
one statement of that rule, holds: the action's point parity and an odd
parity of every generator then prove that no edge joins two points of
one sphere.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import ClassVar, Iterable

from .actions import PairPoint, Point, PointedAction, check_point, point_labels
from .groups import GroupElement, SymmetricGenSet, verify_gen_set

DEFAULT_VERTEX_BUDGET = 2_000_000


class BallError(Exception):
    """Base class for graph-ball errors."""


class BallOverflowError(BallError):
    """Vertex budget exceeded while materializing a ball."""

    def __init__(self, max_vertices: int, reached_radius: int):
        self.max_vertices = max_vertices
        self.reached_radius = reached_radius
        super().__init__(
            f"ball exceeded {max_vertices} vertices (completed radius "
            f"{reached_radius})")


class ArityMismatchError(BallError):
    """Generator count or pairing differs between two balls."""


@dataclass(frozen=True)
class GraphBall:
    """Radius-R portion of an orbital graph around a basepoint.

    Vertices are indexed in BFS discovery order, so index 0 is the
    basepoint and distances are non-decreasing along the index.

    ``table`` is the flat transition table, one row of |S| entries per
    vertex: ``table[u * len(gens) + i]`` is the index of s_i.u, or -1 when
    that point lies outside the ball; ``build_ball`` leaves no -1 in rows at
    distance < R, and ``simplify`` masks the edges it drops to -1.
    ``edges`` is derived from the table in O(n |S|) on every access, so
    code inside loops reads ``table``; ``witness`` and ``edge_order`` are
    cached on first read.  ``max_vertices`` is the ball's vertex budget.
    """

    action: PointedAction
    gens: SymmetricGenSet
    radius: int
    points: tuple[Point, ...]
    dist: tuple[int, ...]
    table: tuple[int, ...] = field(repr=False)
    index: dict = field(repr=False)
    max_vertices: int
    basepoint_index: ClassVar[int] = 0

    def __len__(self) -> int:
        return len(self.points)

    @property
    def sphere_sizes(self) -> tuple[int, ...]:
        """The growth series: entry r is the number of points at distance r,
        for r from 0 to the largest distance in the ball, which is less
        than R only when the orbit closed inside the ball.  Read off
        ``dist`` by bisection on every access."""
        dist = self.dist
        bounds = [bisect_left(dist, r) for r in range(dist[-1] + 2)]
        return tuple(map(operator.sub, bounds[1:], bounds[:-1]))

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """(u, v, label) by u, then label, for each entry (u, label) -> v
        whose label is the smaller of its pair, or an involution and u <= v."""
        pairing = self.gens.pairing
        ngens = len(pairing)
        table = self.table
        owners = [i for i, j in enumerate(pairing) if i <= j]
        return [(u, v, i) for u in range(len(self.points)) for i in owners
                if (v := table[u * ngens + i]) >= 0
                and (i < pairing[i] or (i == pairing[i] and u <= v))]

    @cached_property
    def witness(self) -> tuple[GroupElement, ...]:
        """``witness[v]`` is a group element mapping the basepoint to vertex v.

        Read off the table on first access.  The first entry (u, i) in row
        order that points to v is the one that discovered v (rows fill in
        label order, and an entry filled from its pair points to an earlier
        vertex), so w[u] is known and w[v] = s_i.w[u].  On a simplified
        ball that entry may carry a kept parallel label instead.  The
        generators are checked members, so the products are trusted.
        """
        group = self.action.group
        mul = group._mul
        elements = self.gens.elements
        ngens = len(elements)
        w = [group.identity()] + [None] * (len(self.points) - 1)
        for e, v in enumerate(self.table):
            if v >= 0 and w[v] is None:
                u, i = divmod(e, ngens)
                w[v] = mul(elements[i], w[u])
        return tuple(w)

    @cached_property
    def edge_order(self) -> tuple[tuple[int, ...], ...]:
        """``edge_order[u]`` holds row u's labels in the order their edges
        stand in ``edges``; an involution loop is one entry, any other two."""
        pairing = self.gens.pairing
        order = [[] for _ in self.points]
        for u, v, i in self.edges:
            order[u].append(i)
            if u != v or i != pairing[i]:
                order[v].append(pairing[i])
        shared = {}  # equal rows share one tuple, so few are kept
        return tuple([shared.setdefault(row, row) for row in map(tuple, order)])


def bipartite_by_distance(action: PointedAction, gens: SymmetricGenSet) -> bool:
    """Whether every ball of the action under these generators is bipartite
    by distance: the action states a point parity (``PointedAction.parity``)
    and every generator has group parity 1, so each edge changes the
    distance parity and joins two adjacent spheres.  ``build_ball`` then
    skips its radius-R lookups, and the ends sweep reads each sphere from
    the rows of the sphere before it."""
    group = action.group
    return action.parity is not None and all(group.parity(g) == 1 for g in gens.elements)


def build_ball(action: PointedAction, gens: SymmetricGenSet, radius: int,
               max_vertices: int = DEFAULT_VERTEX_BUDGET) -> GraphBall:
    """Materialize the exact radius-R ball of the orbital graph.

    ``verify_gen_set`` checks the generators and the pairing, which fills
    reverse transitions, once, and ``check_point`` the basepoint; then
    every point is the basepoint or a ``step`` result, so the build calls
    only ``step``.  An orbit of at most B points lies within radius B - 1,
    so a build at radius = budget = B holds the whole orbit or overflows.

    The build walks the spheres S_0 .. S_{R-1} one at a time, filling each
    row and appending the new points of the next sphere; -1 marks an entry
    not yet filled, and after the walk every -1 is a target outside the
    ball.  A radius-R row can then only reach S_{R-1}, whose rows already
    filled those entries from their pairs, or S_R, which a lookup pass
    over the radius-R rows finds.  That pass is skipped when the ball is
    ``bipartite_by_distance``: no edge then joins two points of S_R.
    """
    if max_vertices < 1:
        raise BallError(f"vertex budget must be >= 1, got {max_vertices}")
    if radius < 0:
        raise BallError(f"radius must be >= 0, got {radius}")
    verify_gen_set(action.group, gens)
    check_point(action, action.basepoint)
    step = action.step
    ngens = len(gens)
    unset_row = [-1] * ngens
    # (label, generator, label of its inverse) of each table column
    columns = tuple(zip(range(ngens), gens.elements, gens.pairing))

    points = [action.basepoint]
    index = {action.basepoint: 0}
    index_get = index.get
    index_setdefault = index.setdefault
    dist = [0]
    # Each geometric edge is stepped once: the paired reverse transition is
    # filled in for free, with no read first: an entry (v, j) is only ever
    # set to s_j.v, which is u here, so it is unset or already u (as on a
    # self-paired loop, or after a repeated column).  Each stepped point is
    # hashed once: an inner row inserts it with setdefault (a result of n,
    # the vertex count, means it is new), and a radius-R row only looks it
    # up, so no outside point enters the index.
    table = unset_row[:]
    n = 1
    start, end = 0, 1  # S_r is points[start:end]
    for r in range(radius):
        for u in range(start, end):
            pu = points[u]
            row = u * ngens
            for i, g, j in columns:
                if table[row + i] >= 0:
                    continue
                q = step(g, pu)
                v = index_setdefault(q, n)
                if v == n:
                    if n >= max_vertices:
                        raise BallOverflowError(max_vertices, r)
                    points.append(q)
                    table.extend(unset_row)
                    n += 1
                table[row + i] = v
                table[v * ngens + j] = u
        dist.extend(repeat(r + 1, n - end))
        start, end = end, n
        if start == end:  # the orbit closed inside the ball
            break

    if not bipartite_by_distance(action, gens):
        for u in range(start, end):
            pu = points[u]
            row = u * ngens
            for i, g, j in columns:
                if table[row + i] >= 0:
                    continue
                v = index_get(step(g, pu))
                if v is not None:
                    table[row + i] = v
                    table[v * ngens + j] = u

    return GraphBall(action=action, gens=gens, radius=radius,
                     points=tuple(points), dist=tuple(dist), table=tuple(table),
                     index=index, max_vertices=max_vertices)


# ---------------------------------------------------------------------------
# components


@dataclass(frozen=True)
class CutResult:
    """Connected components of the ball after deleting a vertex set.

    Components are sorted by their smallest vertex index; ``touching[c]``
    says whether component c contains a vertex at distance exactly R.
    """

    removed: frozenset[int]
    components: tuple[tuple[int, ...], ...]
    touching: tuple[bool, ...]


def check_indices(kind: str, indices: Iterable[int], n: int) -> None:
    """Raise ``BallError`` unless every vertex or generator index is in 0..n-1."""
    for i in indices:
        if not 0 <= i < n:
            raise BallError(f"{kind} index {i} out of range")


def delete_and_split(ball: GraphBall, removed: Iterable[int]) -> CutResult:
    """Components of the ball minus the given vertex indices, each found by
    a flood fill over the table rows from its smallest vertex."""
    removed_set = frozenset(removed)
    n = len(ball.points)
    check_indices("vertex", removed_set, n)
    table = ball.table
    ngens = len(ball.gens)
    # comp[v] is -1 until v is reached and -2 for a removed vertex; the extra
    # last entry makes a target outside the ball (-1) read as removed
    comp = [-1] * n + [-2]
    for v in removed_set:
        comp[v] = -2
    components = []
    for s in range(n):  # seeds run upward, so s is its component's smallest
        if comp[s] == -1:
            comp[s] = s
            members = [s]
            for u in members:  # the loop also walks the vertices it appends
                for v in table[u * ngens:(u + 1) * ngens]:
                    if comp[v] == -1:
                        comp[v] = s
                        members.append(v)
            members.sort()
            components.append(tuple(members))
    # dist is non-decreasing, so a component's last vertex is its farthest
    touching = tuple([ball.dist[c[-1]] == ball.radius for c in components])
    return CutResult(removed_set, tuple(components), touching)


def simplify(ball: GraphBall) -> GraphBall:
    """Drop loops and collapse parallel edges (first label kept), masking
    each dropped edge to -1 at both ends of the table."""
    pairing = ball.gens.pairing
    ngens = len(pairing)
    table = list(ball.table)
    seen: set[tuple[int, int]] = set()
    for u, v, g in ball.edges:
        key = (u, v) if u < v else (v, u)
        if u != v and key not in seen:
            seen.add(key)
            continue
        table[u * ngens + g] = -1
        table[v * ngens + pairing[g]] = -1
    return replace(ball, table=tuple(table))


# ---------------------------------------------------------------------------
# pointed labeled isomorphism


def pointed_labeled_isomorphic(a: GraphBall, b: GraphBall) -> bool:
    """Equality of basepoint-rooted BFS normal forms up to the common radius.

    Orbital graphs are deterministic under each generator, and both balls
    are BFS-ordered, so two balls are pointed-labeled isomorphic exactly
    when their vertex counts, distances and transition tables coincide
    after truncation to the common radius.
    """
    if len(a.gens) != len(b.gens) or a.gens.pairing != b.gens.pairing:
        raise ArityMismatchError(
            f"generator arity/pairing mismatch: {len(a.gens)}/{a.gens.pairing} "
            f"vs {len(b.gens)}/{b.gens.pairing}")
    r = min(a.radius, b.radius)
    na = bisect_left(a.dist, r + 1)
    if na != bisect_left(b.dist, r + 1) or a.dist[:na] != b.dist[:na]:
        return False
    rows = na * len(a.gens)

    def truncated(ball: GraphBall) -> list[int]:
        # a target beyond the common radius reads as outside the ball
        return [v if v < na else -1 for v in ball.table[:rows]]

    return truncated(a) == truncated(b)


# ---------------------------------------------------------------------------
# leaves (imprimitive actions)


def leaf_decomposition(ball: GraphBall) -> dict:
    """Partition the vertices of an imprimitive ball by leaf coordinate.

    Returns {leaf element: tuple of vertex indices} ordered by first
    appearance; requires every vertex to be a PairPoint.
    """
    leaves: dict = {}
    for v, p in enumerate(ball.points):
        if not isinstance(p, PairPoint):
            raise BallError(
                f"leaf decomposition needs PairPoint vertices, found "
                f"{type(p).__name__} at index {v}")
        leaves.setdefault(p.leaf, []).append(v)
    return {leaf: tuple(vs) for leaf, vs in leaves.items()}


# ---------------------------------------------------------------------------
# exports


def to_json_dict(ball: GraphBall) -> dict:
    """The ball as a JSON-ready dict whose ``"edges"`` are ``ball.edges`` in that order."""
    return {
        "radius": ball.radius,
        "basepoint": ball.basepoint_index,
        "generators": list(ball.gens.names),
        "pairing": list(ball.gens.pairing),
        "vertices": point_labels(ball.points, ball.action.group.label),
        "dist": list(ball.dist),
        "edges": list(map(list, ball.edges)),
    }


_JSON_BALL = """{
  "radius": %d,
  "basepoint": %d,
  "generators": %s,
  "pairing": %s,
  "vertices": %s,
  "dist": %s,
  "edges": %s
}"""
_JSON_EDGE = "[\n      %d,\n      %d,\n      %d\n    ]"


def _json_list(items: Iterable[str]) -> str:
    """A list value of the ball's indent-2 JSON dict, from its items' text."""
    text = ",\n    ".join(items)
    return f"[\n    {text}\n  ]" if text else "[]"


def to_json_text(ball: GraphBall) -> str:
    """``json.dumps(to_json_dict(ball), indent=2)``, written from the ball
    itself: one template for the dict, each list joined once, and each
    edge formatted straight from its ``ball.edges`` tuple."""
    labels = point_labels(ball.points, ball.action.group.label)
    return _JSON_BALL % (
        ball.radius,
        ball.basepoint_index,
        _json_list(map(encode_basestring_ascii, ball.gens.names)),
        _json_list(map(str, ball.gens.pairing)),
        _json_list(map(encode_basestring_ascii, labels)),
        _json_list(map(str, ball.dist)),
        _json_list(map(_JSON_EDGE.__mod__, ball.edges)),
    )


def to_dot(ball: GraphBall) -> str:
    """The ball as a Graphviz graph, the basepoint double-circled; its edge
    lines are ``ball.edges`` in that order, labelled by generator name."""
    lines = ["graph ball {"]
    for v, label in enumerate(point_labels(ball.points, ball.action.group.label)):
        shape = ", shape=doublecircle" if v == ball.basepoint_index else ""
        lines.append(f'  v{v} [label="{label}"{shape}];')
    for u, v, g in ball.edges:
        lines.append(f'  v{u} -- v{v} [label="{ball.gens.names[g]}"];')
    lines.append("}")
    return "\n".join(lines)
