"""Ends estimation on finite balls, three-segment paths and quotient pairs.

The profile entry e(k, K') counts the connected components of the
subgraph induced on {v : k <= dist(v) <= K'} that contain a vertex at
distance exactly K' (the finite surrogate for an unbounded component
left after deleting the open ball of radius k).  For fixed k the count
is non-increasing in K', so the last column is a certified upper-bound
estimate, never a proof of the exact end count.

The profile comes from one outward sweep.  Every edge joins equal or
adjacent spheres, so the partition of S_{r+1} by connectivity in the
annulus k..r+1 follows from that of S_r and the edges of S_{r+1} back and
within; its class count is e(k, r+1).  On a ball that is bipartite by
distance (``bipartite_by_distance``, the rule the build also uses) no
edge lies within a sphere, and every edge back from S_{r+1} stands in an
S_r row as an entry at or past S_{r+1}'s first index, so the sweep reads
the rows of S_0 .. S_{K-1} only and never the radius-K rows, which on an
exponential ball are most of the table.  On every other ball it reads
those edges from the rows of S_{r+1}.  For k < k' the annulus k'..r
lies inside k..r, so the partitions are nested: the sweep labels S_r for
the largest k entered and maps those classes onto each smaller k's own.
Nested partitions with equal counts are equal, so such k share one map.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .actions import (
    PointedAction,
    UnsupportedSubgroupError,
    check_members,
    coset_action,
)
from .balls import (
    DEFAULT_VERTEX_BUDGET,
    GraphBall,
    bipartite_by_distance,
    build_ball,
    check_indices,
    pointed_labeled_isomorphic,
    simplify,
)
from .groups import FreeAbelian, Group, GroupElement, SymmetricGenSet
from .wreath import WreathGroup


class EndsError(Exception):
    """Base class for ends-module errors."""


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class Verdict:
    kind: str  # "STABLE" | "GROWING" | "AT_MOST"
    bound: Optional[int] = None

    def __str__(self):
        return self.kind if self.bound is None else f"{self.kind}({self.bound})"


@dataclass(frozen=True)
class EndsProfile:
    """Matrix e(k, K') for K' in k+1..K, one row per requested k."""

    k_values: tuple[int, ...]
    outer_radius: int
    matrix: tuple[tuple[int, ...], ...]
    verdict: Verdict
    budget: int

    def entry(self, k: int, outer: int) -> int:
        if k not in self.k_values:
            raise EndsError(f"k={k} is not in the profile; k values are "
                            f"{list(self.k_values)}")
        if not k < outer <= self.outer_radius:
            raise EndsError(f"outer radius {outer} for k={k} must lie in "
                            f"{k + 1}..{self.outer_radius}")
        return self.matrix[self.k_values.index(k)][outer - k - 1]

    def stabilized(self) -> tuple[int, ...]:
        return tuple(row[-1] for row in self.matrix)

    def to_json_dict(self) -> dict:
        return {
            "k_values": list(self.k_values),
            "K": self.outer_radius,
            "matrix": [list(row) for row in self.matrix],
            "verdict": str(self.verdict),
            "budget": self.budget,
            "truncated": False,
        }


def _merge(size: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[int], list[tuple[int, int]]]:
    """Union the linked pairs over the ids 0..size-1.  Returns each id's
    root, the smallest id of its class, and the pairs of roots that a union
    joined: a spanning forest of the links, so they make the same classes."""
    parent = list(range(size))
    joined = []
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[max(a, b)] = min(a, b)
            joined.append((a, b))
    for x in range(size):  # a parent is never above its id: one pass up ends at roots
        parent[x] = parent[parent[x]]
    return parent, joined


def _read_sphere(table: Sequence[int], ngens: int, lo: int, hi: int, labels: list[int],
                 tree: bool):
    """Read the rows of the sphere at indices lo..hi-1 once, given the
    classes ``labels`` of the sphere before it; the reader of every ball
    that is not bipartite by distance.  A vertex starts in the class of its
    first neighbour there, which every vertex at r >= 1 has.  Returns the
    starts, the class pairs that its other edges back and its inner edges
    link, the inner edges (j, j') with j' < j as offsets into the sphere, and
    whether this is a tree sphere: one whose rows hold no second edge back,
    no inner edge and no loop.  Only when ``tree`` says the sphere before
    was one is this sphere first read as one, in a single pass over its
    entries; otherwise, or when that read finds it is not, its rows are
    read one by one."""
    prev = lo - len(labels)
    if tree:
        # entries in 0..hi-1 lie here or a sphere back: one per row is each row's edge back
        near = [w for w in table[lo * ngens:hi * ngens] if 0 <= w < hi]
        if len(near) == hi - lo:
            return [labels[w - prev] for w in near], [], [], True
    start, links, inner, tree = [], [], [], True
    for v in range(lo, hi):
        first = -1
        for w in table[v * ngens:(v + 1) * ngens]:
            if w < lo:
                if w < 0:
                    continue
                x = labels[w - prev]
                if first < 0:
                    first = x
                else:
                    tree = False
                    if x != first:
                        links.append((first, x))
            elif w <= v:
                if w < v:
                    inner.append((v - lo, w - lo))
                else:
                    tree = False  # a loop
        start.append(first)
    links += [(start[j], start[j2]) for j, j2 in inner]
    return start, links, inner, tree and not inner


def _row_classes(labels: list[int], ngens: int):
    """The class of each entry of a sphere's rows, entry by entry."""
    return chain.from_iterable(zip(*(labels,) * ngens))


def _read_forward(table: Sequence[int], ngens: int, lo: int, hi: int, labels: list[int],
                  tree: bool):
    """``_read_sphere`` for a ball that is bipartite by distance, read from
    the rows of the sphere before, whose classes are ``labels``, and never
    from the rows at lo..hi-1.  No edge lies within a sphere, and the edges
    back from this sphere are exactly the entries w >= lo of those rows, so
    a vertex starts in the class of the first row that reaches it, and each
    further entry that reaches it links two classes; a simplified ball masks
    both ends of an edge, so every vertex here is still reached.  Only when
    ``tree`` says the sphere before was a tree sphere is this sphere first
    read as one, in a single pass: if each vertex is reached once, a row's
    entries w >= lo are the vertices it discovered, and rows discover in
    index order, so the classes of the rows of those entries, in table
    order, are the starts.  Returns the values of ``_read_sphere``, with no
    inner edge."""
    rows = table[(lo - len(labels)) * ngens:lo * ngens]
    if tree:
        start = [x for x, w in zip(_row_classes(labels, ngens), rows) if w >= lo]
        if len(start) == hi - lo:
            return start, [], [], True
    start, links, tree = [-1] * (hi - lo), [], True
    for w, x in zip(rows, _row_classes(labels, ngens)):
        if w >= lo:
            first = start[w - lo]
            if first < 0:
                start[w - lo] = x
            else:
                tree = False
                if x != first:
                    links.append((first, x))
    return start, links, [], tree


def _decide_verdict(k_values: Sequence[int], matrix: Sequence[Sequence[int]]) -> Verdict:
    observed = max(map(max, matrix), default=0)
    at_most = Verdict("AT_MOST", observed)
    if any(len(row) < 2 for row in matrix):
        return at_most
    if any(row[-1] != row[-2] for row in matrix):
        return at_most
    stabilized = [row[-1] for row in matrix]
    n = len(k_values)
    # fail toward the weaker claim on short k lists: STABLE needs at least
    # two agreeing trailing values, GROWING at least three increasing ones
    top = stabilized[n - max(math.ceil(n / 2), 2):]
    if len(top) >= 2 and all(x == top[0] for x in top):
        return Verdict("STABLE", top[0])
    grow = stabilized[max(0, n - max(math.ceil(n / 2), 3)):]
    if len(grow) >= 3 and all(a < b for a, b in zip(grow, grow[1:])):
        return Verdict("GROWING")
    return at_most


def _inner_radii(k_values: Iterable[int], outer_radius: int) -> tuple[int, ...]:
    """The distinct inner radii in ascending order, each in 0..outer_radius-1."""
    ks = tuple(sorted(set(k_values)))
    if not ks:
        raise EndsError("at least one inner radius k is required")
    if ks[0] < 0:
        raise EndsError(f"inner radii must be >= 0, got {ks[0]}")
    if ks[-1] >= outer_radius:
        raise EndsError(
            f"max inner radius {ks[-1]} must be smaller than the outer radius "
            f"{outer_radius}")
    return ks


def profile_from_ball(ball: GraphBall, k_values: Iterable[int]) -> EndsProfile:
    ks = _inner_radii(k_values, ball.radius)
    dist, table, ngens = ball.dist, ball.table, len(ball.gens)
    rows: dict[int, list[int]] = {k: [] for k in ks}
    # ``labels`` classes S_r for the largest k entered, by ids below ``size``
    # (a class that reaches no further leaves its id unused); ``groups`` holds,
    # coarsest first, the k of each partition and its map from the fine ids.
    # Before the first k enters, S_r is one class and no row is kept.
    r0 = max(ks[0] - 1, 0)
    lo, hi = bisect_left(dist, r0), bisect_left(dist, r0 + 1)
    labels, size, inner, groups, tree = [0] * (hi - lo), 1, [], [], True
    read = _read_forward if bipartite_by_distance(ball.action, ball.gens) else _read_sphere
    for r in range(r0, ball.radius):
        if r in rows:
            # k enters at r = k with S_k split by its own edges only
            roots, _ = _merge(hi - lo, inner)
            number = {x: c for c, x in enumerate(dict.fromkeys(roots))}
            if groups and len(number) == len(set(labels)):
                groups[-1][0].append(r)
            else:
                fine = list(map(number.__getitem__, roots))
                to_old = list(dict(zip(fine, labels)).values())
                groups = [[members, to_old if m is None else [m[x] for x in to_old]]
                          for members, m in groups] + [[[r], None]]
                labels, size = fine, len(number)
        lo, hi = hi, bisect_left(dist, r + 2)
        if lo == hi:
            break  # so is every later sphere, and every remaining entry is 0
        labels, links, inner, tree = read(table, ngens, lo, hi, labels, tree)
        if links:
            roots, joined = _merge(size, links)
            live = dict.fromkeys(map(roots.__getitem__, labels))
            for group in groups[:-1]:  # the last is the finest
                # merge the coarse classes of the pairs the fine merge
                # joined; a coarse id may exceed any fine one
                m = group[1]
                coarse, _ = _merge(max(m) + 1, [(m[a], m[b]) for a, b in joined])
                group[1] = [coarse[m[x]] for x in live]
            number = {x: c for c, x in enumerate(live)}
            labels = [number[roots[x]] for x in labels]
            size = len(live)
        live = set(labels)
        merged, last = [], None
        for members, m in groups:
            count = len(live) if m is None else len(set(map(m.__getitem__, live)))
            for k in members:
                rows[k].append(count)
            if count == last:  # nested partitions with equal counts are equal
                members = merged.pop()[0] + members
            merged.append([members, m])
            last = count
        groups = merged
    for k, row in rows.items():
        # the zeros that pad a row after an empty sphere cannot break it
        for a, b in zip(row, row[1:]):
            if b > a:
                raise EndsError(f"monotonicity violated in profile row {row} for k={k}")
    matrix = tuple(tuple(rows[k]) + (0,) * (ball.radius - k - len(rows[k])) for k in ks)
    return EndsProfile(ks, ball.radius, matrix, _decide_verdict(ks, matrix),
                       ball.max_vertices)


def ends_profile(action: PointedAction, gens: SymmetricGenSet,
                 k_values: Iterable[int], outer_radius: int,
                 max_vertices: int = DEFAULT_VERTEX_BUDGET) -> EndsProfile:
    """Check the inner radii, then build the radius-K ball and compute e(k, K')."""
    ks = _inner_radii(k_values, outer_radius)
    return profile_from_ball(build_ball(action, gens, outer_radius, max_vertices), ks)


# ---------------------------------------------------------------------------
# three-segment paths in semidirect products


@dataclass(frozen=True)
class SemidirectSplit:
    """Designation of an N x| H structure on a generating set.

    ``head`` projects the group onto H, with kernel N; ``h_gen_indices``
    and ``n_gen_indices`` partition the generator list into the generators
    it fixes (pure H) and those it kills (pure N).
    """

    h_gen_indices: tuple[int, ...]
    n_gen_indices: tuple[int, ...]
    head: Callable[[GroupElement], GroupElement]


def _split_by_head(group: Group, gens: SymmetricGenSet,
                   head: Callable[[GroupElement], GroupElement]) -> SemidirectSplit:
    ident = group.identity()
    h_idx, n_idx = [], []
    for i, g in enumerate(gens.elements):
        image = head(g)
        if image == ident:
            n_idx.append(i)
        elif image == g:
            h_idx.append(i)
        else:
            raise EndsError(f"generator {g!r} mixes both factors")
    return SemidirectSplit(tuple(h_idx), tuple(n_idx), head)


def coordinate_split(group: FreeAbelian, gens: SymmetricGenSet,
                     n_axes: Iterable[int]) -> SemidirectSplit:
    """Split a free abelian group along a coordinate partition: the axes
    ``n_axes`` span N and the others H, and neither side may be empty."""
    n_ax = frozenset(n_axes)
    if not n_ax <= frozenset(range(group.rank)):
        raise EndsError(f"N axes {sorted(n_ax)} must lie in 0..{group.rank - 1}")
    if not 0 < len(n_ax) < group.rank:
        side = "H" if n_ax else "N"
        raise EndsError(f"N axes {sorted(n_ax)} leave the {side} side of {group} empty")
    return _split_by_head(group, gens, lambda g: tuple(
        0 if j in n_ax else c for j, c in enumerate(g)))


def wreath_split(w: WreathGroup, gens: SymmetricGenSet) -> SemidirectSplit:
    """Split a wreath product into base-sum and top parts: (f, h) -> (1, h)."""
    return _split_by_head(w, gens, lambda a: w.top_element(a.head))


@dataclass(frozen=True)
class ThreeSegmentPath:
    """x -> z (H labels), z -> z' (N labels), z' -> y (H labels), avoiding the cut."""

    to_z: tuple[int, ...]
    z_to_zp: tuple[int, ...]
    zp_to_y: tuple[int, ...]
    z: int
    z_prime: int
    candidates_checked: int
    injective: bool

    def vertices(self) -> tuple[int, ...]:
        return self.to_z + self.z_to_zp[1:] + self.zp_to_y[1:]


@dataclass(frozen=True)
class PathFailure:
    reason: str  # "ball_too_small" | "candidates_exhausted"
    candidates_checked: int
    injective: bool


def _with_inverses(ball: GraphBall, gen_indices: Iterable[int]) -> set[int]:
    indices = tuple(gen_indices)
    check_indices("generator", indices, len(ball.gens))
    return {j for i in indices for j in (i, ball.gens.pairing[i])}


def _restricted_bfs(ball: GraphBall, start: int, labels: set[int],
                    cut: frozenset[int]) -> dict[int, tuple[int, int]]:
    """BFS over allowed labels avoiding the cut, each row walked in
    ``ball.edge_order``: v -> (predecessor, label), in discovery order."""
    table = ball.table
    ngens = len(ball.gens)
    order = ball.edge_order
    pred = {start: (start, -1)}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        base = u * ngens
        for i in order[u]:
            if i in labels:
                v = table[base + i]
                if v not in pred and v not in cut:
                    pred[v] = (u, i)
                    frontier.append(v)
    return pred


def _path_from(pred: dict[int, tuple[int, int]], start: int,
               goal: int) -> tuple[int, ...]:
    path = [goal]
    while path[-1] != start:
        path.append(pred[path[-1]][0])
    return tuple(reversed(path))


def three_segment_path(ball: GraphBall, x: int, y: int, cut: Iterable[int],
                       sd: SemidirectSplit):
    """Connect two cut survivors through an H segment, an N segment and an H segment.

    Candidates z are enumerated over the H-orbit subgraph of x minus the
    cut; for each, z' = (pure H element) applied to y is computed from the
    transitivity witness, and connecting subpaths are searched inside the
    ball.  Returns a ThreeSegmentPath, or a PathFailure when the ball is
    too small or every candidate fails.
    """
    cut_set = frozenset(cut)
    check_indices("vertex", cut_set | {x, y}, len(ball))
    if x in cut_set or y in cut_set:
        raise EndsError("endpoints must survive the cut")
    group = ball.action.group
    h_labels = _with_inverses(ball, sd.h_gen_indices)
    n_labels = _with_inverses(ball, sd.n_gen_indices)

    # witnesses and generators are members the ball build checked, so only
    # the projection's value is checked before the trusted law runs
    h0 = sd.head(group._mul(ball.witness[y], group._inv(ball.witness[x])))
    check_members(group, (h0,))

    # BFS over Gamma_x^H minus the cut.  The candidate for z is z' = h.h0^-1.y,
    # h the pure-H element along the path x -> z, so z' follows z edge by edge
    pred_h = _restricted_bfs(ball, x, h_labels, cut_set)
    step = ball.action.step
    z_prime_points = {x: step(group._inv(h0), ball.points[y])}
    for v, (u, g) in list(pred_h.items())[1:]:
        z_prime_points[v] = step(ball.gens.elements[g], z_prime_points[u])
    injective = len(set(z_prime_points.values())) == len(pred_h)

    # pred_to_y holds no cut vertex, and no None for a z' outside the ball
    pred_to_y = _restricted_bfs(ball, y, h_labels, cut_set)
    for z, zp_point in z_prime_points.items():
        zp = ball.index.get(zp_point)
        if zp not in pred_to_y:
            continue
        pred_n = _restricted_bfs(ball, z, n_labels, cut_set)
        if zp not in pred_n:
            continue
        return ThreeSegmentPath(
            to_z=_path_from(pred_h, x, z),
            z_to_zp=_path_from(pred_n, z, zp),
            zp_to_y=tuple(reversed(_path_from(pred_to_y, y, zp))),
            z=z, z_prime=zp,
            candidates_checked=len(pred_h),
            injective=injective)
    missing = any(p not in ball.index for p in z_prime_points.values())
    reason = "ball_too_small" if missing else "candidates_exhausted"
    return PathFailure(reason, len(pred_h), injective)


# ---------------------------------------------------------------------------
# quotient pairs (loop/multi-edge insensitivity of Schreier graphs)


class QuotientPair(NamedTuple):
    source_ball: GraphBall
    quotient_ball: GraphBall
    isomorphic: bool


def quotient_schreier_pair(group: Group, quotient_spec, subgroup_spec,
                           gens: SymmetricGenSet, radius: int,
                           max_vertices: int = DEFAULT_VERTEX_BUDGET) -> QuotientPair:
    """Build Sch(G, preimage(K); S) and Sch(G/N, K; image(S)), simplified.

    Returns both balls together with the pointed-labeled-isomorphism
    verdict; loops and parallel edges created by the projection are
    collapsed first, so the verdict reflects the underlying simple graphs.
    """
    if not hasattr(quotient_spec, "preimage"):
        raise UnsupportedSubgroupError(
            f"unsupported quotient spec {quotient_spec!r}; supported: IntModQuotient, "
            f"DiagonalLatticeQuotient, CyclicDivisorQuotient, SignQuotient")
    source_spec = quotient_spec.preimage(group, subgroup_spec)
    source_ball = build_ball(coset_action(group, source_spec), gens, radius,
                             max_vertices)
    quotient_group, image = quotient_spec.quotient()
    quotient_ball = build_ball(coset_action(quotient_group, subgroup_spec),
                               gens.image(image), radius, max_vertices)
    a, b = simplify(source_ball), simplify(quotient_ball)
    return QuotientPair(a, b, pointed_labeled_isomorphic(a, b))
