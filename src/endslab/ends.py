"""Ends estimation on finite balls and the cut/path apparatus behind it.

The profile entry e(k, K') counts the connected components of the
subgraph induced on {v : k <= dist(v) <= K'} that contain a vertex at
distance exactly K' (the finite surrogate for an unbounded component
left after deleting the open ball of radius k).  For fixed k the count
is non-increasing in K', so the last column is a certified upper-bound
estimate, never a proof of the exact end count.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .actions import (
    GeneratedSubgroup,
    PointedAction,
    Sublattice,
    TrivialSubgroup,
    UnsupportedSubgroupError,
    coset_action,
    orbit_of_point,
)
from .balls import (
    DEFAULT_VERTEX_BUDGET,
    GraphBall,
    UnionFind,
    build_ball,
    pointed_labeled_isomorphic,
    simplify,
)
from .groups import (
    Cyclic,
    CyclicInt,
    FreeAbelian,
    Group,
    GroupElement,
    IntVector,
    ModVector,
    Perm,
    SymmetricGenSet,
    SymmetricGroup,
    Torus,
    perm_parity,
)
from .wreath import WreathElement, WreathGroup


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


@dataclass
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


class _Shell(NamedTuple):
    """The edges of sphere S_r that reach no further out, as offsets into
    their spheres.  ``up[j]`` is the first neighbour of vertex j in S_{r-1}
    (every vertex at r >= 1 keeps the edge that discovered it, also after
    ``simplify``), ``back`` holds its further edges to S_{r-1} as pairs
    (j, i), and ``inner`` the edges (j, j') with j < j' inside S_r."""

    up: list[int]
    back: list[tuple[int, int]]
    inner: list[tuple[int, int]]


def _shell(ball: GraphBall, r: int) -> _Shell:
    dist = ball.dist
    table = ball.table
    ngens = len(ball.gens)
    prev = bisect_left(dist, r - 1)
    lo = bisect_left(dist, r)
    hi = bisect_left(dist, r + 1)
    up, back, inner = [], [], []
    for v in range(lo, hi):
        first = -1
        for w in table[v * ngens:(v + 1) * ngens]:
            # every edge joins equal or adjacent spheres (-1: outside the ball)
            if w < 0 or w >= hi:
                continue
            if w >= lo:
                if w > v:
                    inner.append((v - lo, w - lo))
            elif first < 0:
                first = w - prev
            else:
                back.append((v - lo, w - prev))
        up.append(first)
    return _Shell(up, back, inner)


def _partition(start: list[int], classes: int,
               links: list[tuple[int, int]]) -> tuple[int, ...]:
    """Merge the linked pairs among ``classes`` classes, then give vertex j
    of a sphere the class of ``start[j]``, numbered by first occurrence."""
    if links:
        uf = UnionFind(classes)
        for a, b in links:
            uf.union(a, b)
        start = [uf.find(x) for x in start]
    number = {x: n for n, x in enumerate(dict.fromkeys(start))}
    return tuple(map(number.__getitem__, start))


def _step(labels: tuple[int, ...], shell: _Shell) -> tuple[int, ...]:
    """The partition of S_r by connectivity in the annulus k..r, from
    ``labels``, that of S_{r-1} in the annulus k..r-1, and S_r's shell."""
    start = list(map(labels.__getitem__, shell.up))
    links = [(start[j], labels[i]) for j, i in shell.back]
    links += [(start[j], start[j2]) for j, j2 in shell.inner]
    return _partition(start, max(labels, default=-1) + 1, links)


def _decide_verdict(k_values: Sequence[int], matrix: Sequence[Sequence[int]]) -> Verdict:
    observed = max((x for row in matrix for x in row), default=0)
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


def profile_from_ball(ball: GraphBall, k_values: Iterable[int],
                      budget: int = DEFAULT_VERTEX_BUDGET) -> EndsProfile:
    ks = tuple(sorted(set(k_values)))
    if not ks:
        raise EndsError("at least one inner radius k is required")
    if ks[0] < 0:
        raise EndsError(f"inner radii must be >= 0, got {ks[0]}")
    if ks[-1] >= ball.radius:
        raise EndsError(
            f"max inner radius {ks[-1]} must be smaller than the outer radius "
            f"{ball.radius}")
    # One outward sweep.  Every edge joins equal or adjacent spheres, so the
    # partition of S_{r+1} for k follows from that of S_r and S_{r+1}'s
    # shell alone; k whose partitions coincide share every later entry, and
    # each distinct partition is stepped once per sphere.
    rows: dict[int, list[int]] = {k: [] for k in ks}
    groups: dict[tuple[int, ...], list[int]] = {}
    shell = _shell(ball, ks[0])
    for r in range(ks[0], ball.radius):
        if r in rows:
            # k enters at r = k with S_k split by its own edges only
            size = len(shell.up)
            entering = _partition(list(range(size)), size, shell.inner)
            groups.setdefault(entering, []).append(r)
        shell = _shell(ball, r + 1)
        stepped: dict[tuple[int, ...], list[int]] = {}
        for labels, members in groups.items():
            nxt = _step(labels, shell)
            count = max(nxt, default=-1) + 1
            for k in members:
                rows[k].append(count)
            stepped.setdefault(nxt, []).extend(members)
        groups = stepped
    matrix = tuple(tuple(rows[k]) for k in ks)
    for row in matrix:
        for a, b in zip(row, row[1:]):
            if b > a:
                raise EndsError(f"monotonicity violated in profile row {row}")
    return EndsProfile(ks, ball.radius, matrix, _decide_verdict(ks, matrix), budget)


def ends_profile(action: PointedAction, gens: SymmetricGenSet,
                 k_values: Iterable[int], outer_radius: int,
                 max_vertices: int = DEFAULT_VERTEX_BUDGET) -> EndsProfile:
    """Build the radius-K ball and compute the full e(k, K') matrix."""
    ball = build_ball(action, gens, outer_radius, max_vertices)
    return profile_from_ball(ball, k_values, budget=max_vertices)


# ---------------------------------------------------------------------------
# cut augmentation and orbit subgraphs


@dataclass(frozen=True)
class AugmentResult:
    """Augmented cut K' plus the finiteness status of each original point."""

    vertices: frozenset[int]
    status: dict  # vertex index -> "finite" | "undetermined"


def augment_cut(ball: GraphBall, cut: Iterable[int], orbit_gens: SymmetricGenSet,
                finiteness_budget: int = 10_000) -> AugmentResult:
    """Close a cut under the finite orbits of a designated generator subset.

    For each cut vertex whose orbit under ``orbit_gens`` (followed through
    the action, not just inside the ball) closes within the budget, all
    ball vertices of that orbit join the cut; orbits that hit the budget
    are reported as undetermined and contribute nothing.
    """
    cut_set = set(cut)
    out = set(cut_set)
    status: dict[int, str] = {}
    for v in sorted(cut_set):
        result = orbit_of_point(ball.action, ball.points[v],
                                orbit_gens.elements, finiteness_budget)
        if result.truncated:
            status[v] = "undetermined"
            continue
        status[v] = "finite"
        for p in result.points:
            w = ball.index.get(p)
            if w is not None:
                out.add(w)
    return AugmentResult(frozenset(out), status)


def orbit_subgraph(ball: GraphBall, v: int, gen_indices: Iterable[int]) -> frozenset[int]:
    """Component of v inside the ball using only edges of the given labels,
    each walked both ways (the labels are closed under the inverse pairing)."""
    return frozenset(_restricted_bfs(ball, v, _with_inverses(ball, gen_indices),
                                     frozenset()))


# ---------------------------------------------------------------------------
# three-segment paths in semidirect products


@dataclass(frozen=True)
class SemidirectSplit:
    """Designation of an N x| H structure on a generating set.

    ``h_gen_indices`` and ``n_gen_indices`` partition the generator list
    into pure-H and pure-N generators; ``split`` decomposes any group
    element into its (N part, H part), both embedded in the big group.
    """

    h_gen_indices: tuple[int, ...]
    n_gen_indices: tuple[int, ...]
    split: Callable[[GroupElement], tuple[GroupElement, GroupElement]]


def coordinate_split(group: FreeAbelian, gens: SymmetricGenSet,
                     n_axes: Iterable[int]) -> SemidirectSplit:
    """Split a free abelian group along a coordinate partition."""
    n_ax = frozenset(n_axes)
    h_idx, n_idx = [], []
    for i, g in enumerate(gens.elements):
        support = {j for j, c in enumerate(g.coords) if c != 0}
        if support <= n_ax:
            n_idx.append(i)
        elif support & n_ax:
            raise EndsError(f"generator {g!r} mixes both factors")
        else:
            h_idx.append(i)

    def split(g: IntVector):
        n_part = tuple(c if j in n_ax else 0 for j, c in enumerate(g.coords))
        h_part = tuple(0 if j in n_ax else c for j, c in enumerate(g.coords))
        return IntVector(n_part), IntVector(h_part)

    return SemidirectSplit(tuple(h_idx), tuple(n_idx), split)


def wreath_split(w: WreathGroup, gens: SymmetricGenSet) -> SemidirectSplit:
    """Split a wreath product into base-sum and top parts."""
    top_ident = w.top.identity()
    h_idx, n_idx = [], []
    for i, g in enumerate(gens.elements):
        if g.head == top_ident:
            n_idx.append(i)
        elif not g.support:
            h_idx.append(i)
        else:
            raise EndsError(f"generator {g!r} mixes support and head")

    def split(g: WreathElement):
        return (WreathElement(g.support, top_ident),
                WreathElement(frozenset(), g.head))

    return SemidirectSplit(tuple(h_idx), tuple(n_idx), split)


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
    return {j for i in gen_indices for j in (i, ball.gens.pairing[i])}


def _neighbours(ball: GraphBall, u: int, labels: set[int]) -> list[tuple[int, int]]:
    """(v, i) for each entry (u, i) -> v with i in labels, ordered by where
    its edge stands in ``ball.edges``: BFS predecessors, and so the paths
    found, follow that order."""
    table = ball.table
    pairing = ball.gens.pairing
    base = u * len(pairing)
    keyed = []
    for i in labels:
        v = table[base + i]
        if v >= 0:
            j = pairing[i]
            # the edge is listed from row u with label i, or from row v with j
            key = (u, i) if i < j or (i == j and u <= v) else (v, j)
            keyed.append((key, v, i))
    return [(v, i) for _, v, i in sorted(keyed)]


def _restricted_bfs(ball: GraphBall, start: int, labels: set[int],
                    cut: frozenset[int]) -> dict[int, tuple[int, int]]:
    """BFS over allowed labels avoiding the cut: v -> (predecessor, label),
    in discovery order."""
    pred = {start: (start, -1)}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        for v, i in _neighbours(ball, u, labels):
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
    if x in cut_set or y in cut_set:
        raise EndsError("endpoints must survive the cut")
    group = ball.action.group
    h_labels = _with_inverses(ball, sd.h_gen_indices)
    n_labels = _with_inverses(ball, sd.n_gen_indices)

    g_xy = group.multiply(ball.witness[y], group.inverse(ball.witness[x]))
    _, h0 = sd.split(g_xy)
    h0_inv = group.inverse(h0)

    # BFS over Gamma_x^H minus the cut, tracking the pure-H element to each z
    pred_h = _restricted_bfs(ball, x, h_labels, cut_set)
    order = list(pred_h)
    h_elem = {x: group.identity()}
    for v in order[1:]:
        u, g = pred_h[v]
        h_elem[v] = group.multiply(ball.gens.elements[g], h_elem[u])

    z_prime_points = {}
    missing_from_ball = False
    for z in order:
        u = group.multiply(h_elem[z], h0_inv)
        z_prime_points[z] = ball.action.act(u, ball.points[y])
    injective = len(set(z_prime_points.values())) == len(z_prime_points)

    pred_to_y = _restricted_bfs(ball, y, h_labels, cut_set)
    for z in order:
        zp_point = z_prime_points[z]
        zp = ball.index.get(zp_point)
        if zp is None:
            missing_from_ball = True
            continue
        if zp in cut_set or zp not in pred_to_y:
            continue
        pred_n = _restricted_bfs(ball, z, n_labels, cut_set)
        if zp not in pred_n:
            continue
        return ThreeSegmentPath(
            to_z=_path_from(pred_h, x, z),
            z_to_zp=_path_from(pred_n, z, zp),
            zp_to_y=tuple(reversed(_path_from(pred_to_y, y, zp))),
            z=z, z_prime=zp,
            candidates_checked=len(order),
            injective=injective)
    reason = "ball_too_small" if missing_from_ball else "candidates_exhausted"
    return PathFailure(reason, len(order), injective)


# ---------------------------------------------------------------------------
# quotient pairs (loop/multi-edge insensitivity of Schreier graphs)


@dataclass(frozen=True)
class IntModQuotient:
    """Z -> Z/n."""

    n: int


@dataclass(frozen=True)
class DiagonalLatticeQuotient:
    """Z^k -> Z/d1 x ... x Z/dk (quotient by the diagonal lattice)."""

    moduli: tuple[int, ...]


@dataclass(frozen=True)
class CyclicDivisorQuotient:
    """C(n) -> C(d) for d | n."""

    n: int
    d: int


@dataclass(frozen=True)
class SignQuotient:
    """Sym(n) -> C(2) by parity."""

    n: int


class QuotientPair(NamedTuple):
    source_ball: GraphBall
    quotient_ball: GraphBall
    isomorphic: bool


def _quotient_data(group: Group, quotient_spec):
    """(quotient group, element homomorphism) for a supported quotient."""
    if isinstance(quotient_spec, IntModQuotient):
        if group != FreeAbelian(1):
            raise UnsupportedSubgroupError("IntModQuotient applies to Z only")
        n = quotient_spec.n
        return Cyclic(n), lambda g: CyclicInt(n, g.coords[0] % n)
    if isinstance(quotient_spec, DiagonalLatticeQuotient):
        moduli = quotient_spec.moduli
        if group != FreeAbelian(len(moduli)):
            raise UnsupportedSubgroupError(
                f"DiagonalLatticeQuotient needs Z^{len(moduli)}")
        return (Torus(moduli),
                lambda g: ModVector(moduli, tuple(c % m for c, m
                                                  in zip(g.coords, moduli))))
    if isinstance(quotient_spec, CyclicDivisorQuotient):
        n, d = quotient_spec.n, quotient_spec.d
        if group != Cyclic(n):
            raise UnsupportedSubgroupError(f"CyclicDivisorQuotient needs C({n})")
        if n % d != 0:
            raise UnsupportedSubgroupError(f"{d} does not divide {n}")
        return Cyclic(d), lambda g: CyclicInt(d, g.value % d)
    if isinstance(quotient_spec, SignQuotient):
        if group != SymmetricGroup(quotient_spec.n):
            raise UnsupportedSubgroupError(f"SignQuotient needs Sym({quotient_spec.n})")
        return Cyclic(2), lambda g: CyclicInt(2, perm_parity(g))
    raise UnsupportedSubgroupError(
        f"unsupported quotient spec {quotient_spec!r}; supported: IntModQuotient, "
        f"DiagonalLatticeQuotient, CyclicDivisorQuotient, SignQuotient")


def _preimage_spec(group: Group, quotient_spec, subgroup_spec):
    """Subgroup spec over the source group for the preimage of K."""
    if isinstance(quotient_spec, IntModQuotient):
        n = quotient_spec.n
        if isinstance(subgroup_spec, TrivialSubgroup):
            return Sublattice(((n,),))
        if isinstance(subgroup_spec, GeneratedSubgroup):
            g = n
            for el in subgroup_spec.gens:
                g = math.gcd(g, el.value)
            return Sublattice(((g if g else n,),))
    if isinstance(quotient_spec, DiagonalLatticeQuotient):
        moduli = quotient_spec.moduli
        k = len(moduli)
        diag = tuple(tuple(m if i == j else 0 for j in range(k))
                     for i, m in enumerate(moduli))
        if isinstance(subgroup_spec, TrivialSubgroup):
            return Sublattice(diag)
        if isinstance(subgroup_spec, GeneratedSubgroup):
            lifts = tuple(el.coords for el in subgroup_spec.gens)
            return Sublattice(diag + lifts)
    if isinstance(quotient_spec, CyclicDivisorQuotient):
        n, d = quotient_spec.n, quotient_spec.d
        if isinstance(subgroup_spec, TrivialSubgroup):
            return GeneratedSubgroup((CyclicInt(n, d % n),))
        if isinstance(subgroup_spec, GeneratedSubgroup):
            e = d
            for el in subgroup_spec.gens:
                e = math.gcd(e, el.value)
            return GeneratedSubgroup((CyclicInt(n, (e if e else d) % n),))
    if isinstance(quotient_spec, SignQuotient):
        n = quotient_spec.n
        if isinstance(subgroup_spec, TrivialSubgroup):
            if n < 3:
                return TrivialSubgroup()
            cycles = []
            for i in range(n - 2):
                img = list(range(n))
                img[i], img[i + 1], img[i + 2] = img[i + 1], img[i + 2], img[i]
                cycles.append(Perm(tuple(img)))
            return GeneratedSubgroup(tuple(cycles))
        if isinstance(subgroup_spec, GeneratedSubgroup):
            if any(el.value == 1 for el in subgroup_spec.gens):
                return GeneratedSubgroup(tuple(SymmetricGroup(n).standard_gens().elements))
            return _preimage_spec(group, quotient_spec, TrivialSubgroup())
    raise UnsupportedSubgroupError(
        f"unsupported K spec {subgroup_spec!r} for quotient {quotient_spec!r}")


def quotient_schreier_pair(group: Group, quotient_spec, subgroup_spec,
                           gens: SymmetricGenSet, radius: int,
                           max_vertices: int = DEFAULT_VERTEX_BUDGET) -> QuotientPair:
    """Build Sch(G, preimage(K); S) and Sch(G/N, K; image(S)), simplified.

    Returns both balls together with the pointed-labeled-isomorphism
    verdict; loops and parallel edges created by the projection are
    collapsed first, so the verdict reflects the underlying simple graphs.
    """
    quotient_group, hom = _quotient_data(group, quotient_spec)
    source_spec = _preimage_spec(group, quotient_spec, subgroup_spec)
    source_ball = build_ball(coset_action(group, source_spec), gens, radius,
                             max_vertices)
    images = tuple(hom(g) for g in gens.elements)
    q_ident = quotient_group.identity()
    q_gens = SymmetricGenSet(images, gens.pairing, gens.names,
                             frozenset(i for i, g in enumerate(images)
                                       if g == q_ident))
    quotient_ball = build_ball(coset_action(quotient_group, subgroup_spec),
                               q_gens, radius, max_vertices)
    a, b = simplify(source_ball), simplify(quotient_ball)
    return QuotientPair(a, b, pointed_labeled_isomorphic(a, b))
