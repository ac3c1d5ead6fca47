import random

import pytest

from endslab.actions import (
    GeneratedSubgroup,
    TrivialSubgroup,
    rule_action,
    translation_action,
)
from endslab.balls import BallOverflowError, build_ball, simplify
from endslab.ends import (
    CyclicDivisorQuotient,
    DiagonalLatticeQuotient,
    EndsError,
    IntModQuotient,
    PathFailure,
    SignQuotient,
    ThreeSegmentPath,
    augment_cut,
    coordinate_split,
    ends_profile,
    orbit_subgraph,
    profile_from_ball,
    quotient_schreier_pair,
    three_segment_path,
    wreath_split,
)
from endslab.ends import _neighbours
from endslab.groups import (
    Cyclic,
    CyclicInt,
    FreeAbelian,
    FreeGroup,
    IntVector,
    SymmetricGroup,
    make_gen_set,
)
from endslab.actions import UnsupportedSubgroupError
from endslab.wreath import (
    WreathGroup,
    head_projection_action,
    imprimitive_action,
    lamplighter,
    standard_wreath_gens,
)

from oracles import (
    cross_graph,
    ends_matrix,
    f2_word_adjacency,
    f2_words_up_to,
    int_line_graph,
)
from test_balls import generated_spec_balls, random_fixture_balls, spec_ball


def assert_monotone(profile):
    for row in profile.matrix:
        assert all(a >= b for a, b in zip(row, row[1:]))


def test_z_profile_exactly_two():
    z = FreeAbelian(1)
    p = ends_profile(translation_action(z), z.standard_gens(), range(1, 5), 12)
    assert all(x == 2 for row in p.matrix for x in row)
    assert str(p.verdict) == "STABLE(2)"
    assert_monotone(p)


def test_z_sparse_generators_match_oracle():
    z = FreeAbelian(1)
    gens = make_gen_set(z, [IntVector((2,)), IntVector((3,))])
    p = ends_profile(translation_action(z), gens, range(2, 6), 20)
    adj, dist = int_line_graph((2, 3), 20)
    assert p.matrix == ends_matrix(adj, dist, [2, 3, 4, 5], 20)
    assert str(p.verdict) == "STABLE(2)"
    assert_monotone(p)


def test_f2_profile_matches_oracle():
    f2 = FreeGroup(2)
    p = ends_profile(translation_action(f2), f2.standard_gens(), range(1, 5), 7)
    words = f2_words_up_to(7)
    adj = f2_word_adjacency(words)
    assert p.matrix == ends_matrix(adj, words, [1, 2, 3, 4], 7)
    assert p.stabilized() == (4, 12, 36, 108)
    assert str(p.verdict) == "GROWING"
    assert_monotone(p)


def test_four_ends_fixture_profile():
    action = rule_action("f2_four_ends")
    p = ends_profile(action, FreeGroup(2).standard_gens(), range(1, 5), 12)
    assert p.stabilized() == (4, 4, 4, 4)
    assert str(p.verdict) == "STABLE(4)"
    adj, dist = cross_graph(12)
    assert p.matrix == ends_matrix(adj, dist, [1, 2, 3, 4], 12)


def test_z2_profile_one_end():
    z2 = FreeAbelian(2)
    p = ends_profile(translation_action(z2), z2.standard_gens(), range(1, 4), 10)
    assert p.stabilized() == (1, 1, 1)
    assert str(p.verdict) == "STABLE(1)"
    assert_monotone(p)


def test_head_projection_profile():
    w, gens = lamplighter(2)
    p = ends_profile(head_projection_action(w), gens, range(1, 5), 12)
    assert p.stabilized() == (2, 2, 2, 2)
    assert str(p.verdict) == "STABLE(2)"


def test_sphere_nonempty_implies_positive_entry():
    for group in (FreeAbelian(1), FreeGroup(2)):
        p = ends_profile(translation_action(group), group.standard_gens(),
                         range(1, 4), 8)
        assert all(x >= 1 for row in p.matrix for x in row)


def test_finite_graph_profile_reaches_zero():
    c6 = Cyclic(6)
    p = ends_profile(translation_action(c6), c6.standard_gens(), [1], 5)
    assert p.matrix[0][-1] == 0  # spheres beyond the diameter are empty
    assert_monotone(p)


def test_verdict_edge_cases():
    f2 = FreeGroup(2)
    ball = build_ball(translation_action(f2), f2.standard_gens(), 4)
    # a single column cannot certify stability
    p = profile_from_ball(ball, [3])
    assert p.verdict.kind == "AT_MOST"
    # growing needs at least three stabilized values
    p = profile_from_ball(ball, [1, 2])
    assert p.verdict.kind == "AT_MOST"


def test_profile_preconditions():
    z = FreeAbelian(1)
    ball = build_ball(translation_action(z), z.standard_gens(), 5)
    with pytest.raises(EndsError):
        profile_from_ball(ball, [5])
    with pytest.raises(EndsError):
        profile_from_ball(ball, [])
    with pytest.raises(EndsError):
        profile_from_ball(ball, [-1])


def oracle_profile(ball, k_values):
    adj = {v: set() for v in range(len(ball))}
    for u, v, _ in ball.edges:
        adj[u].add(v)
        adj[v].add(u)
    return ends_matrix(adj, dict(enumerate(ball.dist)), k_values, ball.radius)


def test_profile_matches_component_oracle():
    w, wgens = lamplighter(2)
    hand_picked = [spec_ball(text, radius) for text, radius in (
        ("Z^2", 14),
        ("Z^3", 7),
        ("Z^2 with gens {[1, 0], [0, 1], [1, 1]}", 10),  # edges inside spheres
        ("Z^2 / [5, 0]", 20),
        ("rule(f2_four_ends)", 12),
        ("C(6)", 5),  # empty outer spheres
    )] + [build_ball(head_projection_action(w), wgens, 10)]
    for ball in random_fixture_balls() + generated_spec_balls() + hand_picked:
        ks = range(ball.radius)
        matrix = profile_from_ball(ball, ks).matrix
        assert matrix == oracle_profile(ball, ks)
        # k swept together share partitions; none may leak into another row
        assert matrix == tuple(profile_from_ball(ball, [k]).matrix[0] for k in ks)
        assert profile_from_ball(simplify(ball), ks).matrix == matrix


def test_profile_entry_rejects_out_of_range():
    f2 = FreeGroup(2)
    p = ends_profile(translation_action(f2), f2.standard_gens(), range(1, 5), 6)
    assert p.entry(2, 3) == p.entry(2, 6) == 12
    for k, outer in ((2, 2), (2, 1), (2, 7), (5, 6), (0, 1)):
        with pytest.raises(EndsError):
            p.entry(k, outer)


def test_budget_overflow_propagates():
    f2 = FreeGroup(2)
    with pytest.raises(BallOverflowError):
        ends_profile(translation_action(f2), f2.standard_gens(), [1], 10,
                     max_vertices=100)


# ---------------------------------------------------------------------------
# augment_cut / orbit_subgraph


def lamplighter_imprimitive_ball(radius=8):
    w, gens = lamplighter(2)
    action = imprimitive_action(w, w.orbit_reps[0])
    ball = build_ball(action, gens, radius)
    return w, gens, ball


def top_only(gens):
    idx = [i for i, g in enumerate(gens.elements) if not g.support]
    from endslab.groups import SymmetricGenSet
    return SymmetricGenSet(tuple(gens.elements[i] for i in idx),
                           tuple(idx.index(gens.pairing[i]) for i in idx),
                           tuple(gens.names[i] for i in idx))


def test_augment_cut_infinite_orbit_undetermined():
    w, gens, ball = lamplighter_imprimitive_ball()
    h_gens = top_only(gens)
    cut = {ball.basepoint_index}
    res = augment_cut(ball, cut, h_gens, finiteness_budget=50)
    assert res.status[ball.basepoint_index] == "undetermined"
    assert res.vertices == frozenset(cut)


def test_augment_cut_finite_orbits_closed():
    base, top = Cyclic(3), Cyclic(2)
    ta = translation_action(top)
    w = WreathGroup(base, top, ta, (ta.basepoint,))
    gens = standard_wreath_gens(w, base.standard_gens(), top.standard_gens())
    ball = build_ball(imprimitive_action(w, ta.basepoint), gens, 8)
    h_gens = top_only(gens)
    res = augment_cut(ball, {0}, h_gens, finiteness_budget=100)
    assert res.status[0] == "finite"
    # the whole H-orbit of the basepoint (its leaf) is swallowed
    leaf = {v for v in range(len(ball))
            if ball.points[v].leaf == ball.points[0].leaf}
    assert res.vertices == frozenset(leaf)


def test_augment_cut_empty():
    _, gens, ball = lamplighter_imprimitive_ball()
    res = augment_cut(ball, [], top_only(gens))
    assert res.vertices == frozenset() and res.status == {}


def test_orbit_subgraph_leaf_and_degenerate_cases():
    w, gens, ball = lamplighter_imprimitive_ball()
    t_indices = tuple(i for i, g in enumerate(gens.elements) if not g.support)
    v = ball.basepoint_index
    within = orbit_subgraph(ball, v, t_indices)
    leaf = ball.points[v].leaf
    assert within == frozenset(u for u in range(len(ball))
                               if ball.points[u].leaf == leaf)
    everything = orbit_subgraph(ball, v, range(len(gens)))
    assert everything == frozenset(range(len(ball)))
    assert orbit_subgraph(ball, v, ()) == frozenset({v})


# ---------------------------------------------------------------------------
# three-segment paths


def z2_fixture(radius=12, cut_radius=2):
    group = FreeAbelian(2)
    gens = group.standard_gens()
    ball = build_ball(translation_action(group), gens, radius)
    cut = frozenset(v for v in range(len(ball)) if ball.dist[v] <= cut_radius)
    sd = coordinate_split(group, gens, n_axes=(0,))
    return group, gens, ball, cut, sd


def segment_labels(ball, path):
    labels = []
    by_pair = {}
    for u, v, g in ball.edges:
        by_pair.setdefault(frozenset((u, v)), []).append(g)
    for a, b in zip(path, path[1:]):
        labels.append(by_pair[frozenset((a, b))][0])
    return labels


def validate_three_segment(ball, cut, sd, res):
    h_labels = set(sd.h_gen_indices) | {ball.gens.pairing[i]
                                        for i in sd.h_gen_indices}
    n_labels = set(sd.n_gen_indices) | {ball.gens.pairing[i]
                                        for i in sd.n_gen_indices}
    for seg, allowed in ((res.to_z, h_labels), (res.z_to_zp, n_labels),
                         (res.zp_to_y, h_labels)):
        assert not (set(seg) & cut)
        for lab in segment_labels(ball, seg):
            assert lab in allowed
    assert res.to_z[-1] == res.z and res.z_to_zp[0] == res.z
    assert res.z_to_zp[-1] == res.z_prime and res.zp_to_y[0] == res.z_prime


def test_three_segment_path_example():
    group, gens, ball, cut, sd = z2_fixture()
    x = ball.index[IntVector((-5, 0))]
    y = ball.index[IntVector((5, 0))]
    res = three_segment_path(ball, x, y, cut, sd)
    assert isinstance(res, ThreeSegmentPath)
    assert res.injective
    validate_three_segment(ball, cut, sd, res)
    assert res.to_z[0] == x and res.zp_to_y[-1] == y


def test_three_segment_randomized_pairs():
    group, gens, ball, cut, sd = z2_fixture()
    rng = random.Random(0)
    # endpoints whose H-line (fixed first coordinate) misses the cut, with
    # radius margin for the detour; threshold recorded by the fixture
    survivors = [v for v in range(len(ball))
                 if ball.dist[v] <= 8 and abs(ball.points[v].coords[0]) > 2]
    for _ in range(20):
        x, y = rng.sample(survivors, 2)
        res = three_segment_path(ball, x, y, cut, sd)
        assert isinstance(res, ThreeSegmentPath), (ball.points[x], ball.points[y])
        assert res.injective
        validate_three_segment(ball, cut, sd, res)


def test_three_segment_trivial_case():
    group, gens, ball, _, sd = z2_fixture()
    x = ball.index[IntVector((3, 3))]
    res = three_segment_path(ball, x, x, frozenset(), sd)
    assert isinstance(res, ThreeSegmentPath)
    assert res.vertices() == (x,)


def test_three_segment_endpoint_in_cut():
    group, gens, ball, cut, sd = z2_fixture()
    x = ball.index[IntVector((1, 0))]
    y = ball.index[IntVector((5, 0))]
    with pytest.raises(EndsError):
        three_segment_path(ball, x, y, cut, sd)


def test_three_segment_failure_report():
    # ball too small: every candidate detour leaves the ball or hits the cut
    group, gens, ball, cut, sd = z2_fixture(radius=4, cut_radius=2)
    x = ball.index[IntVector((-3, 0))]
    y = ball.index[IntVector((3, 0))]
    res = three_segment_path(ball, x, y, cut, sd)
    assert isinstance(res, PathFailure)
    assert res.reason in ("ball_too_small", "candidates_exhausted")
    assert res.candidates_checked > 0


def test_neighbour_order_follows_edge_list():
    # BFS predecessors, and so the paths three_segment_path returns, follow
    # the order in which ball.edges lists the edges at each vertex
    w, wgens = lamplighter(2)
    z3 = FreeAbelian(3)
    doubled = make_gen_set(Cyclic(5), [CyclicInt(5, 1), CyclicInt(5, 1),
                                       CyclicInt(5, 2)])
    for ball in (build_ball(translation_action(z3), z3.standard_gens(), 3),
                 build_ball(translation_action(w), wgens, 4),
                 build_ball(translation_action(Cyclic(5)), doubled, 2)):
        pairing = ball.gens.pairing
        for labels in ({0, pairing[0]}, set(range(len(pairing)))):
            expected = [[] for _ in range(len(ball))]
            for u, v, g in ball.edges:
                if g in labels and u != v:
                    expected[u].append((v, g))
                    expected[v].append((u, pairing[g]))
            for u in range(len(ball)):
                got = [(v, i) for v, i in _neighbours(ball, u, labels) if v != u]
                assert got == expected[u]


def test_wreath_split_partition():
    w, gens = lamplighter(2)
    sd = wreath_split(w, gens)
    assert sd.n_gen_indices == (0,)
    assert set(sd.h_gen_indices) == {1, 2}
    el = w.multiply(gens.elements[0], gens.elements[1])
    n_part, h_part = sd.split(el)
    assert w.multiply(n_part, h_part) == el


def test_coordinate_split_rejects_mixed_generators():
    z2 = FreeAbelian(2)
    gens = make_gen_set(z2, [IntVector((1, 1))])
    with pytest.raises(EndsError):
        coordinate_split(z2, gens, n_axes=(0,))


# ---------------------------------------------------------------------------
# quotient pairs


def test_quotient_z_mod4():
    z = FreeAbelian(1)
    pair = quotient_schreier_pair(z, IntModQuotient(4), TrivialSubgroup(),
                                  z.standard_gens(), 4)
    assert pair.isomorphic
    assert len(pair.source_ball) == len(pair.quotient_ball) == 4


def test_quotient_z_mod2_full_subgroup():
    z = FreeAbelian(1)
    pair = quotient_schreier_pair(z, IntModQuotient(2),
                                  GeneratedSubgroup((CyclicInt(2, 1),)),
                                  z.standard_gens(), 3)
    assert pair.isomorphic
    assert len(pair.source_ball) == len(pair.quotient_ball) == 1


def test_quotient_torus():
    z2 = FreeAbelian(2)
    pair = quotient_schreier_pair(z2, DiagonalLatticeQuotient((2, 2)),
                                  TrivialSubgroup(), z2.standard_gens(), 4)
    assert pair.isomorphic
    assert len(pair.source_ball) == len(pair.quotient_ball) == 4


def test_quotient_cyclic_divisor():
    c6 = Cyclic(6)
    pair = quotient_schreier_pair(c6, CyclicDivisorQuotient(6, 3),
                                  TrivialSubgroup(), c6.standard_gens(), 4)
    assert pair.isomorphic
    assert len(pair.source_ball) == 3  # Sch(C6, <3>) is a triangle


def test_quotient_sign():
    sym3 = SymmetricGroup(3)
    pair = quotient_schreier_pair(sym3, SignQuotient(3), TrivialSubgroup(),
                                  sym3.standard_gens(), 3)
    assert pair.isomorphic
    assert len(pair.source_ball) == 2  # Sym(3)/A(3)
    # the projection drove both adjacent transpositions to the same image,
    # so the raw quotient ball has a doubled edge that simplify collapsed
    assert len(pair.quotient_ball.edges) == 1


def test_quotient_unsupported_specs():
    z = FreeAbelian(1)
    with pytest.raises(UnsupportedSubgroupError):
        quotient_schreier_pair(z, CyclicDivisorQuotient(6, 3), TrivialSubgroup(),
                               z.standard_gens(), 3)
    with pytest.raises(UnsupportedSubgroupError):
        quotient_schreier_pair(z, object(), TrivialSubgroup(),
                               z.standard_gens(), 3)
