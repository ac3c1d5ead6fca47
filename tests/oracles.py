"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately written against plain data structures
(strings, dicts, adjacency sets) and stays independent of the library's
element classes, BFS and union-find code paths.  The action helpers
drive a library ``PointedAction`` only through its checked ``act`` or
build one from a plain law.
"""

from collections import deque
from fractions import Fraction
from itertools import product

from endslab.actions import PointedAction


# ---------------------------------------------------------------------------
# free group words as strings ("a", "A" = a^-1, "b", "B" = b^-1)

F2_LETTERS = ("a", "A", "b", "B")


def _string_inverse(c: str) -> str:
    return c.lower() if c.isupper() else c.upper()


def f2_words_up_to(radius: int) -> dict[str, int]:
    """Reduced words of length <= radius mapped to their length."""
    words = {"": 0}
    frontier = deque([""])
    while frontier:
        w = frontier.popleft()
        if words[w] == radius:
            continue
        for c in F2_LETTERS:
            if w and w[-1] == _string_inverse(c):
                nxt = w[:-1]
            else:
                nxt = w + c
            if nxt not in words:
                words[nxt] = words[w] + 1
                frontier.append(nxt)
    return words


def f2_word_adjacency(words: dict[str, int]) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {w: set() for w in words}
    for w in words:
        for c in F2_LETTERS:
            if w and w[-1] == _string_inverse(c):
                nxt = w[:-1]
            else:
                nxt = w + c
            if nxt in words:
                adj[w].add(nxt)
                adj[nxt].add(w)
    return adj


# ---------------------------------------------------------------------------
# generic component counting on adjacency dicts (plain DFS, no union-find)


def components(adj: dict, keep) -> list[set]:
    keep_set = {v for v in adj if keep(v)}
    seen: set = set()
    comps = []
    for start in keep_set:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v in keep_set and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def ends_matrix(adj: dict, dist: dict, k_values, outer: int):
    """e(k, K') by direct component counting; rows per k, K' in k+1..outer."""
    matrix = []
    for k in k_values:
        row = []
        for kp in range(k + 1, outer + 1):
            comps = components(adj, lambda v: k <= dist[v] <= kp)
            row.append(sum(1 for c in comps if any(dist[v] == kp for v in c)))
        matrix.append(tuple(row))
    return tuple(matrix)


# ---------------------------------------------------------------------------
# integer graphs (Z with arbitrary step generators)


def int_line_graph(steps, radius_bound: int) -> tuple[dict, dict]:
    """Orbital graph of Z under +-steps, with word-metric distances, out to
    every vertex whose distance is <= radius_bound."""
    dist = {0: 0}
    adj: dict[int, set[int]] = {0: set()}
    frontier = deque([0])
    signed = [s for step in steps for s in (step, -step)]
    while frontier:
        u = frontier.popleft()
        if dist[u] == radius_bound:
            continue
        for s in signed:
            v = u + s
            if v not in dist:
                dist[v] = dist[u] + 1
                adj[v] = set()
                frontier.append(v)
    for u in dist:
        for s in signed:
            if u + s in dist:
                adj[u].add(u + s)
                adj[u + s].add(u)
    return adj, dist


# ---------------------------------------------------------------------------
# the four-ray cross graph (fixture oracle)


def cross_graph(arm: int) -> tuple[dict, dict]:
    """Explicit cross: core vertex plus four rays of the given length."""
    core = "core"
    adj: dict = {core: set()}
    dist = {core: 0}
    for d in range(4):
        prev = core
        for n in range(1, arm + 1):
            v = (d, n)
            adj.setdefault(v, set())
            adj[v].add(prev)
            adj[prev].add(v)
            dist[v] = n
            prev = v
    return adj, dist


# ---------------------------------------------------------------------------
# lamplighter with base C(2): (lit lamp set, position) model


def lamplighter2_multiply(a, b):
    """(S1, p1) * (S2, p2) = (S1 xor (S2 + p1), p1 + p2)."""
    s1, p1 = a
    s2, p2 = b
    return (s1 ^ frozenset(x + p1 for x in s2), p1 + p2)


LAMP_GENS = ((frozenset([0]), 0), (frozenset(), 1), (frozenset(), -1))


def lamplighter2_ball_sizes(radius: int) -> list[int]:
    seen = {(frozenset(), 0)}
    frontier = [(frozenset(), 0)]
    sizes = [1]
    for _ in range(radius):
        nxt = []
        for el in frontier:
            for g in LAMP_GENS:
                prod = lamplighter2_multiply(g, el)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        sizes.append(len(seen))
    return sizes


# ---------------------------------------------------------------------------
# finite wreath product C(n) wr C(m) straight from the definition


def finite_wreath_elements(n: int, m: int):
    """Elements as (tuple of m base values, head value)."""
    return [(phi, h) for phi in product(range(n), repeat=m) for h in range(m)]


def finite_wreath_multiply(n: int, m: int, a, b):
    """(f, g)(f', g') = (x -> f(x) f'(g^-1 x), g g') with C(m) acting on
    itself by addition."""
    phi1, h1 = a
    phi2, h2 = b
    phi = tuple((phi1[x] + phi2[(x - h1) % m]) % n for x in range(m))
    return (phi, (h1 + h2) % m)


# ---------------------------------------------------------------------------
# Sym(3) cosets by raw enumeration


def compose(p, q):
    """(p q)(x) = p(q(x)) for permutations in one-line tuples."""
    return tuple([p[x] for x in q])


def sym3_left_cosets(subgroup_perms):
    """Left cosets g*H of Sym(3), each as a frozenset of one-line tuples."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    cosets = set()
    for g in perms:
        cosets.add(frozenset(compose(g, h) for h in subgroup_perms))
    return cosets


# ---------------------------------------------------------------------------
# Z^2 helpers


def diamond_count(radius: int) -> int:
    return sum(1 for a in range(-radius, radius + 1)
               for b in range(-radius, radius + 1) if abs(a) + abs(b) <= radius)


def grid_path_exists(start, goal, radius: int, blocked) -> bool:
    """BFS in the L1 ball of Z^2 minus blocked vertices."""
    if blocked(start) or blocked(goal):
        return False
    seen = {start}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        if u == goal:
            return True
        a, b = u
        for v in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)):
            if abs(v[0]) + abs(v[1]) <= radius and v not in seen and not blocked(v):
                seen.add(v)
                frontier.append(v)
    return False


# ---------------------------------------------------------------------------
# orbital-graph edge lists straight from act


def act_edges(points, gen_elements, pairing, act) -> list:
    """(u, v, label) for every s_label.p_u inside ``points``, one per edge.

    An edge is listed from the entry whose label is the smaller of its
    pair, or from the smaller end when the label is an involution;
    entries are visited by u, then label.
    """
    where = {p: v for v, p in enumerate(points)}
    edges = []
    for u, p in enumerate(points):
        for i, s in enumerate(gen_elements):
            v = where.get(act(s, p))
            if v is None:
                continue
            j = pairing[i]
            if i < j or (i == j and u <= v):
                edges.append((u, v, i))
    return edges


def edge_row_order(table, pairing, u: int, labels) -> list:
    """(v, i) for each entry (u, i) -> v of a flat transition table with i
    in ``labels``, ordered by the entry that lists its edge: (u, i) itself
    when i is the smaller of its pair, or an involution and u <= v, and the
    pair entry (v, pairing[i]) otherwise; the two entries of a loop that is
    no involution tie, and go by label."""
    base = u * len(pairing)
    keyed = []
    for i in labels:
        v = table[base + i]
        if v >= 0:
            j = pairing[i]
            key = (u, i) if i < j or (i == j and u <= v) else (v, j)
            keyed.append((key, v, i))
    return [(v, i) for _, v, i in sorted(keyed)]


def simple_edges(edges) -> list:
    """Edge list without loops and repeated pairs (first label kept)."""
    seen = set()
    out = []
    for u, v, g in edges:
        key = frozenset((u, v))
        if u != v and key not in seen:
            seen.add(key)
            out.append((u, v, g))
    return out


def bfs_witnesses(action, gens, radius: int) -> tuple:
    """Witness of each vertex of the radius-R ball, in BFS order, from a
    plain act-based BFS that multiplies s_i.w[u] when s_i.u is discovered."""
    mul = action.group.multiply
    points = [action.basepoint]
    dist = {action.basepoint: 0}
    witness = [action.group.identity()]
    for u, p in enumerate(points):
        if dist[p] == radius:
            continue
        for s in gens.elements:
            q = action.act(s, p)
            if q not in dist:
                dist[q] = dist[p] + 1
                points.append(q)
                witness.append(mul(s, witness[u]))
    return tuple(witness)


# ---------------------------------------------------------------------------
# action axioms on samples, and the one-point action


def check_action_axioms(action, elements, points) -> None:
    """Test oracle: act(1, x) = x and act(g, act(h, x)) = act(gh, x) on samples."""
    ident = action.group.identity()
    elements = tuple(elements)
    for x in points:
        assert action.act(ident, x) == x, f"identity axiom fails at {x!r}"
        for g in elements:
            for h in elements:
                lhs = action.act(g, action.act(h, x))
                rhs = action.act(action.group.multiply(g, h), x)
                assert lhs == rhs, f"compatibility fails: g={g!r} h={h!r} x={x!r}"


def trivial_action(group, point=0) -> PointedAction:
    """Test oracle: ``group`` acting on the single point ``point``."""
    return PointedAction(group, lambda g, x: x, point, f"{group} on a point",
                         lambda x: x == point)


# ---------------------------------------------------------------------------
# preimages under a quotient map, by enumeration


def closure(gens, op, identity) -> set:
    """The subgroup of a finite group generated by ``gens`` under ``op``."""
    members = {identity}
    frontier = deque(members)
    while frontier:
        x = frontier.popleft()
        for g in gens:
            y = op(g, x)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def preimage_members(elements, image, k_gens, op, identity) -> set:
    """The g in ``elements`` whose image lies in the subgroup of the
    quotient (law ``op``) generated by ``k_gens``."""
    k = closure(k_gens, op, identity)
    return {g for g in elements if image(g) in k}


def inversion_parity(perm) -> int:
    """0 for an even permutation in one-line notation, 1 for an odd one."""
    n = len(perm)
    return sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2


def determinant(rows) -> int:
    """Exact determinant of a square integer matrix, by elimination over
    the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return int(det)


# ---------------------------------------------------------------------------
# 2-colouring of whole finite Schreier graphs


def two_colourable(start, moves, key) -> tuple[bool, int]:
    """(whether the graph has a proper 2-colouring, its vertex count) for
    the finite graph reached from ``start`` by the maps in ``moves``, where
    two values are one vertex when their ``key``s agree.  The BFS colours every
    vertex it reaches, so one edge between equal colours, a loop included,
    makes it fail."""
    colour = {key(start): 0}
    frontier = deque([start])
    ok = True
    while frontier:
        x = frontier.popleft()
        c = colour[key(x)]
        for move in moves:
            y = move(x)
            k = key(y)
            if k not in colour:
                colour[k] = 1 - c
                frontier.append(y)
            elif colour[k] == c:
                ok = False
    return ok, len(colour)


def perm_coset_key(k_gens):
    """The key of the left coset gK of a permutation g in one-line tuples,
    K spanned by ``k_gens``: the set gK itself, with K listed by closure."""
    n = len(k_gens[0])
    members = closure([tuple(g) for g in k_gens], compose, tuple(range(n)))
    return lambda g: frozenset(compose(g, h) for h in members)


def residue_coset_key(n: int, d: int):
    """The key of the coset x + <d> of C(n): the set of its residues."""
    members = closure([d % n], lambda a, b: (a + b) % n, 0)
    return lambda x: frozenset((x + h) % n for h in members)


def lattice_coset_key(basis):
    """The key of the coset v + L of Z^2, L of finite index spanned by the
    two rows of ``basis``: v lies in L exactly when adj(M) v is 0 mod
    det M, M having the rows as columns, so adj(M) v mod |det M| tells
    the cosets apart."""
    (a, b), (c, d) = basis
    det = abs(a * d - b * c)
    return lambda v: ((d * v[0] - c * v[1]) % det, (-b * v[0] + a * v[1]) % det)
