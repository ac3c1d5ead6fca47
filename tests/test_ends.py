import random
from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

import endslab
from endslab.actions import (
    CyclicDivisorQuotient,
    DiagonalLatticeQuotient,
    GeneratedSubgroup,
    IntModQuotient,
    PointedAction,
    SignQuotient,
    TrivialSubgroup,
    coset_action,
    point_labels,
    rule_action,
    translation_action,
)
import endslab.balls as balls_module
import endslab.ends as ends_module
from endslab.balls import (
    BallError,
    BallOverflowError,
    bipartite_by_distance,
    build_ball,
    delete_and_split,
    simplify,
)
from endslab.dsl import elaborate, parse_spec
from endslab.ends import (
    EndsError,
    PathFailure,
    SemidirectSplit,
    ThreeSegmentPath,
    coordinate_split,
    ends_profile,
    profile_from_ball,
    quotient_schreier_pair,
    three_segment_path,
    wreath_split,
)
from endslab.groups import (
    Cyclic,
    CyclicInt,
    FamilyMismatchError,
    FreeAbelian,
    FreeGroup,
    Group,
    IntVector,
    SymmetricGroup,
    make_gen_set,
)
from endslab.actions import UnsupportedSubgroupError
from endslab.wreath import head_projection_action, lamplighter

from oracles import (
    cross_graph,
    edge_row_order,
    ends_matrix,
    f2_word_adjacency,
    f2_words_up_to,
    int_line_graph,
)
from test_balls import (
    REPEATED_COLUMN_SPECS,
    generated_spec_balls,
    random_fixture_balls,
    spec_ball,
    stepping_balls,
)
from test_dsl import random_typed_spec


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


def test_lattice_with_a_zero_column_matches_its_transpose():
    # Z^2 / [0, d] runs the Hermite normal form branch past an all-zero column
    for d in range(5, 9):
        a, b = (profile_from_ball(spec_ball(f"Z^2 / {v}", 30), range(1, 9))
                for v in (f"[0, {d}]", f"[{d}, 0]"))
        assert a.matrix == b.matrix, d
        assert str(a.verdict) == "STABLE(2)"


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


def test_profile_stops_at_the_last_sphere(monkeypatch):
    # a finite orbit stops growing: the sweep must not walk every r < K
    c3 = Cyclic(3)
    ball = build_ball(translation_action(c3), c3.standard_gens(), 300_000)
    spheres = []

    def counting_read(table, ngens, lo, hi, *rest):
        spheres.append(ball.dist[lo])
        return read(table, ngens, lo, hi, *rest)

    read = endslab.ends._read_sphere
    monkeypatch.setattr(endslab.ends, "_read_sphere", counting_read)
    p = profile_from_ball(ball, [1])
    # the sweep reads S_1, the sphere k = 1 enters on, and no sphere twice
    assert ball.dist[-1] in spheres and len(set(spheres)) == len(spheres)
    assert len(spheres) <= ball.dist[-1] + 1 + 2
    assert p.matrix == ((0,) * (300_000 - 1),)


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


def test_ends_profile_checks_inner_radii_before_it_builds():
    # a one-vertex budget would overflow on the first step of the build
    z2 = FreeAbelian(2)
    with pytest.raises(EndsError) as err:
        ends_profile(translation_action(z2), z2.standard_gens(), [5], 3, max_vertices=1)
    assert str(err.value) == "max inner radius 5 must be smaller than the outer radius 3"


def test_ends_profile_is_frozen():
    z = FreeAbelian(1)
    p = ends_profile(translation_action(z), z.standard_gens(), [1], 3)
    with pytest.raises(FrozenInstanceError):
        p.verdict = None


def test_profile_reports_the_budget_of_its_ball():
    # a ball built under a small budget must not report the default one
    z = FreeAbelian(1)
    ball = build_ball(translation_action(z), z.standard_gens(), 5, max_vertices=500)
    assert ball.max_vertices == 500
    assert profile_from_ball(ball, [1]).budget == 500
    assert profile_from_ball(simplify(ball), [1]).budget == 500
    p = ends_profile(translation_action(z), z.standard_gens(), [1], 5, max_vertices=40)
    assert p.to_json_dict()["budget"] == 40


def oracle_profile(ball, k_values):
    adj = {v: set() for v in range(len(ball))}
    for u, v, _ in ball.edges:
        adj[u].add(v)
        adj[v].add(u)
    return ends_matrix(adj, dict(enumerate(ball.dist)), k_values, ball.radius)


def small_k_sets(radius):
    """Few small inner radii: the sweep's certificates can stop it long
    before the last sphere, so the entries it writes itself get checked."""
    return [ks for ks in ([0], [1], [1, 2], [0, radius // 2]) if ks[-1] < radius]


def assert_small_k_sets_match_oracle(ball):
    for b in (ball, simplify(ball)):
        for ks in small_k_sets(ball.radius):
            assert profile_from_ball(b, ks).matrix == oracle_profile(b, ks), ks


def oracle_corpus():
    w, wgens = lamplighter(2)
    hand_picked = [spec_ball(text, radius) for text, radius in (
        ("Z^2", 14),
        ("Z^3", 7),
        ("Z^2 with gens {[1, 0], [0, 1], [1, 1]}", 10),  # edges inside spheres
        ("Z^2 / [5, 0]", 20),
        ("rule(f2_four_ends)", 12),
        ("C(6)", 5),  # empty outer spheres
        *REPEATED_COLUMN_SPECS,  # parallel edges and loops
    )] + [build_ball(head_projection_action(w), wgens, 10)]
    return [*random_fixture_balls(), *generated_spec_balls(), *hand_picked]


def test_profile_matches_component_oracle():
    for ball in oracle_corpus():
        ks = range(ball.radius)
        matrix = profile_from_ball(ball, ks).matrix
        assert matrix == oracle_profile(ball, ks)
        # k swept together share partitions; none may leak into another row
        assert matrix == tuple(profile_from_ball(ball, [k]).matrix[0] for k in ks)
        assert profile_from_ball(simplify(ball), ks).matrix == matrix
        assert_small_k_sets_match_oracle(ball)


def test_bipartite_fast_paths_match_the_general_paths(monkeypatch):
    # the rule that lets the build skip its radius-R lookups and the sweep
    # read each sphere from the rows before it; forcing it false in both
    # places must give the same ball and the same profiles
    w, wgens = lamplighter(2)
    for text in ("F(2)", "Z^2", "Sym(4)", "C(12) with gens {1, 11}",
                 "Sym(4) / {(0 1 2)}", "F(2) / trivial", "Z^2 / [1, 1]"):
        assert bipartite_by_distance(*elaborate(parse_spec(text))), text
    assert bipartite_by_distance(translation_action(w), wgens)
    for text in ("Z with gens {1, 2}", "C(5)", "Z / 5", "rule(f2_four_ends)",
                 "imprimitive(wreath(C(2), Z, translation))", "Sym(4) / {(0 1)}",
                 "C(12) / 3"):
        assert not bipartite_by_distance(*elaborate(parse_spec(text))), text
    assert not bipartite_by_distance(head_projection_action(w), wgens)

    balls = [*random_fixture_balls(), *generated_spec_balls(), *stepping_balls(),
             *generated_spec_balls(140, radius=6, max_draws=200, draw=random_typed_spec,
                                   seed=12, budget=400),
             *(spec_ball(text, radius) for text, radius in (
                 ("F(3)", 5),
                 ("wreath(C(2), Z, translation)", 8),
                 ("Sym(4)", 6),
                 ("wreath(Sym(3), Z, translation)", 6),
                 ("Sym(7) / {(0 1 2)}", 8),
                 ("Z^2 / [6, 0]", 30),
                 ("F(2) / trivial", 6),
                 ("C(12) / 4", 4)))]
    balls = [ball for ball in balls if bipartite_by_distance(ball.action, ball.gens)]
    # 37 manifest balls (6 of them coset balls), 46 typed draws (13 coset
    # balls) and the eight above
    assert len(balls) == 91

    def profiles(ball):
        r = ball.radius
        return [profile_from_ball(b, ks).matrix for b in (ball, simplify(ball))
                for ks in (range(r), [r - 1], range(r // 2, r), range(0, r, 2))]

    fast = [profiles(ball) for ball in balls]
    monkeypatch.setattr(balls_module, "bipartite_by_distance", lambda action, gens: False)
    monkeypatch.setattr(ends_module, "bipartite_by_distance", lambda action, gens: False)
    for ball, matrices in zip(balls, fast):
        plain = build_ball(ball.action, ball.gens, ball.radius, ball.max_vertices)
        assert plain.points == ball.points
        assert plain.dist == ball.dist
        assert plain.table == ball.table
        assert profiles(ball) == matrices


def test_profile_matches_component_oracle_on_typed_draws():
    # 140 of the first 200 seed-12 typed draws elaborate within the budget
    balls = generated_spec_balls(140, radius=6, max_draws=200, draw=random_typed_spec,
                                 seed=12, budget=400)
    rng = random.Random(29)
    for ball in balls:
        k_sets = [range(ball.radius)] + [
            sorted(rng.sample(range(ball.radius), rng.randint(1, ball.radius)))
            for _ in range(3)]
        for ks in k_sets:
            assert profile_from_ball(ball, ks).matrix == oracle_profile(ball, ks)
        assert_small_k_sets_match_oracle(ball)


def test_certificates_match_the_full_sweep(monkeypatch):
    # the sweep stops once one class is left or a bipartite ball's tree
    # tail begins; switching both certificates off must give the same rows
    balls = [*oracle_corpus(), *stepping_balls(),
             *generated_spec_balls(140, radius=6, max_draws=200, draw=random_typed_spec,
                                   seed=12, budget=400),
             *(spec_ball(text, radius) for text, radius in (
                 ("Z^2", 30), ("Z^3", 9), ("F(2)", 7), ("F(3) with gens {a, bc}", 5),
                 ("Z with gens {1}", 60), ("Z with gens {1, 3}", 30), ("Sym(4)", 9),
                 ("wreath(C(2), Z, translation)", 9), ("Sym(7) / {(0 1 2)}", 8),
                 ("Z^2 / [6, 0]", 30), ("F(2) / trivial", 6), ("C(12) / 4", 4)))]
    rng = random.Random(41)

    def k_sets(radius):
        return [*small_k_sets(radius), range(radius), [radius - 1], *(
            sorted(rng.sample(range(radius), rng.randint(1, radius))) for _ in range(2))]

    cases = [(b, ks) for ball in balls for b in (ball, simplify(ball))
             for ks in k_sets(ball.radius)]
    certified = [profile_from_ball(b, ks).matrix for b, ks in cases]
    monkeypatch.setattr(ends_module, "_certificates",
                        lambda ball, bipartite: (0, ball.radius + 1))
    assert [profile_from_ball(b, ks).matrix for b, ks in cases] == certified


@pytest.mark.parametrize("text, radius, ks, most, values", [
    ("Z^2", 80, range(1, 27), 27, [1] * 26),  # one class from S_27 on
    ("F(2)", 10, range(1, 5), 5, [4, 12, 36, 108]),  # a tree from S_1 on
    ("Z with gens {1}", 300, [1, 2, 3, 150, 298], 299, [2] * 5),
    ("Z with gens {1}", 300, range(1, 5), 5, [2] * 4),
    ("F(2) / trivial", 10, range(1, 5), 5, [4, 12, 36, 108]),  # F(2)'s tree
])
def test_certified_sweep_stops_reading(monkeypatch, text, radius, ks, most, values):
    ball = spec_ball(text, radius)
    spheres = []

    def counting_read(table, ngens, lo, hi, *rest):
        spheres.append(ball.dist[lo])
        return read(table, ngens, lo, hi, *rest)

    read = ends_module._read_forward
    monkeypatch.setattr(ends_module, "_read_forward", counting_read)
    p = profile_from_ball(ball, ks)
    assert 0 < len(spheres) <= most
    # a row repeats a tree's sphere size, or else the number of ends
    assert p.matrix == tuple((x,) * (radius - k) for k, x in zip(ks, values))


@pytest.mark.parametrize("text", ["Sym(4)", "Sym(4) with gens {(0 1 2), (0 1 2 3)}"])
def test_finite_one_class_rows_end_in_zeros(text):
    # one class well before the last sphere: 1 up to it, then 0
    ball = spec_ball(text, 12)
    last = ball.dist[-1]
    assert last < 12
    for ks in ([0], [2], [0, 1, 2]):
        p = profile_from_ball(ball, ks)
        assert p.matrix == oracle_profile(ball, ks)
        for k, row in zip(ks, p.matrix):
            assert row[last - k - 1:] == (1,) + (0,) * (12 - last)
    assert profile_from_ball(ball, [0]).matrix == ((1,) * last + (0,) * (12 - last),)


@pytest.mark.parametrize("text, radius, ks", [
    # coarse class ids that outrun the count of fine classes
    ("Sym(6) / trivial with gens {(3 2), (2 1 4)}", 7, range(7)),
    # three of the four classes of S_1 end there, so the id of the live one
    # exceeds the count of S_2's own classes when k = 2 enters; S_3 joins them
    ("Sym(8) / {(1 2), (1 2 3 4 5 6 7)} with gens "
     "{(0 1)(4 5)(6 7), (0 2)(4 6)(5 7), (0 3), (0 4)}", 4, [1, 2]),
    # a class of k = 3 ends at S_3, so S_4's own edges split it into as many
    # classes as k = 3 has class ids, but into more than its live classes
    ("imprimitive(wreath(F(1), Sym(3), coset({(1 2), (2 1)})))", 8, [3, 4]),
])
def test_profile_matches_component_oracle_on_pinned_balls(text, radius, ks):
    ball = spec_ball(text, radius)
    assert profile_from_ball(ball, ks).matrix == oracle_profile(ball, ks)


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
                 if ball.dist[v] <= 8 and abs(ball.points[v][0]) > 2]
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
    # the order in which ball.edges lists the edges at each vertex; loops
    # stay in, as one entry for an involution and two for any other label
    w, wgens = lamplighter(2)
    z3 = FreeAbelian(3)
    c5, c6 = Cyclic(5), Cyclic(6)
    doubled = make_gen_set(c5, [CyclicInt(5, 1), CyclicInt(5, 1), CyclicInt(5, 2)])
    # the identity generator is an involution looping at every vertex
    with_identity = make_gen_set(c5, [CyclicInt(5, 1), CyclicInt(5, 0)])
    # on the two cosets of <2>: 1 and 5 are parallel edges, 2 and 4 a loop
    # pair, and 0 an involution loop
    c6_gens = make_gen_set(c6, [CyclicInt(6, 1), CyclicInt(6, 2), CyclicInt(6, 0)])
    c6_cosets = coset_action(c6, GeneratedSubgroup((CyclicInt(6, 2),)))
    for ball in (build_ball(translation_action(z3), z3.standard_gens(), 3),
                 build_ball(translation_action(w), wgens, 4),
                 build_ball(translation_action(c5), doubled, 2),
                 build_ball(translation_action(c5), with_identity, 2),
                 build_ball(c6_cosets, c6_gens, 2)):
        pairing = ball.gens.pairing
        ngens = len(pairing)
        pairs = {frozenset((i, j)) for i, j in enumerate(pairing)}
        label_sets = [set().union(*chosen) for k in range(1, len(pairs) + 1)
                      for chosen in combinations(pairs, k)]
        for labels in label_sets:
            for u in range(len(ball)):
                got = [(ball.table[u * ngens + i], i) for i in ball.edge_order[u]
                       if i in labels]
                assert got == edge_row_order(ball.table, pairing, u, labels)


def test_wreath_split_partition():
    w, gens = lamplighter(2)
    sd = wreath_split(w, gens)
    assert sd.n_gen_indices == (0,)
    assert set(sd.h_gen_indices) == {1, 2}
    el = w.multiply(gens.elements[0], gens.elements[1])
    assert sd.head(el) == gens.elements[1]
    assert sd.head(gens.elements[0]) == w.identity()
    with pytest.raises(EndsError, match="mixes both factors"):
        wreath_split(w, make_gen_set(w, [el]))


def test_coordinate_split_rejects_mixed_generators():
    z2 = FreeAbelian(2)
    gens = make_gen_set(z2, [IntVector((1, 1))])
    with pytest.raises(EndsError, match="mixes both factors"):
        coordinate_split(z2, gens, n_axes=(0,))


@pytest.mark.parametrize("n_axes, message", [
    ((5,), r"N axes \[5\] must lie in 0..1"),
    ((-1, 0), r"N axes \[-1, 0\] must lie in 0..1"),
    ((), r"N axes \[\] leave the N side of Z\^2 empty"),
    ((0, 1), r"N axes \[0, 1\] leave the H side of Z\^2 empty"),
])
def test_coordinate_split_refuses_foreign_axes_and_empty_sides(n_axes, message):
    z2 = FreeAbelian(2)
    with pytest.raises(EndsError, match=message):
        coordinate_split(z2, z2.standard_gens(), n_axes)


def lamplighter_cayley_fixture():
    # the paper's setting: C(2) wr Z = N x| H with N the lamp configurations
    # and H the top Z, on its Cayley ball of radius 9 around the radius-1 cut
    w, gens = lamplighter(2)
    ball = build_ball(translation_action(w), gens, 9)
    cut = frozenset(v for v in range(len(ball)) if ball.dist[v] <= 1)
    at = {label: v for v, label in enumerate(point_labels(ball.points, w.label))}
    return ball, cut, wreath_split(w, gens), at


def test_three_segment_path_in_the_lamplighter():
    ball, cut, sd, at = lamplighter_cayley_fixture()
    x, y = at["(-1:1; 1)"], at["(1; 4)"]
    res = three_segment_path(ball, x, y, cut, sd)
    assert isinstance(res, ThreeSegmentPath) and res.injective
    validate_three_segment(ball, cut, sd, res)
    assert res.to_z[0] == x and res.zp_to_y[-1] == y
    assert len(res.z_to_zp) > 1
    assert res.candidates_checked == 13
    # every candidate z' lies in the ball, but none joins both z and y
    # around the cut; then one whose candidates leave the ball
    res = three_segment_path(ball, at["(0:1; -3)"], at["(-1:1; -3)"], cut, sd)
    assert res == PathFailure("candidates_exhausted", 11, True)
    res = three_segment_path(ball, at["(1:1; -1)"], at["(-2:1; -1)"], cut, sd)
    assert res == PathFailure("ball_too_small", 13, True)


def test_three_segment_path_trusts_its_operands(monkeypatch):
    # witnesses and generators were checked by the ball build: the search
    # checks head(g_xy) once and then makes no checked product or action
    group, gens, ball, cut, sd = z2_fixture()
    x = ball.index[IntVector((-5, 0))]
    y = ball.index[IntVector((5, 0))]
    calls, checked = [], []
    for cls, name in ((Group, "multiply"), (Group, "inverse"), (PointedAction, "act")):
        def counting(*args, _name=name, _checked=getattr(cls, name)):
            calls.append(_name)
            return _checked(*args)
        monkeypatch.setattr(cls, name, counting)
    check_members = endslab.ends.check_members

    def recording(group, elements):
        checked.append(tuple(elements))
        return check_members(group, checked[-1])

    monkeypatch.setattr(endslab.ends, "check_members", recording)
    res = three_segment_path(ball, x, y, cut, sd)
    assert isinstance(res, ThreeSegmentPath)
    assert calls == []
    assert checked == [(IntVector((0, 0)),)]


def z2_radius3_analyses():
    group = FreeAbelian(2)
    gens = group.standard_gens()
    ball = build_ball(translation_action(group), gens, 3)
    return ball, coordinate_split(group, gens, n_axes=(0,))


VERTEX_ANALYSES = {
    "delete_and_split": lambda ball, sd, v: delete_and_split(ball, [v]),
    "three_segment_path x": lambda ball, sd, v: three_segment_path(ball, v, 5, [], sd),
    "three_segment_path y": lambda ball, sd, v: three_segment_path(ball, 5, v, [], sd),
    "three_segment_path cut": lambda ball, sd, v: three_segment_path(ball, 4, 5, [v], sd),
}


@pytest.mark.parametrize("past_end", [False, True], ids=["-1", "len(ball)"])
@pytest.mark.parametrize("analysis", list(VERTEX_ANALYSES))
def test_ball_analyses_refuse_vertices_outside_the_ball(analysis, past_end):
    ball, sd = z2_radius3_analyses()
    v = len(ball) if past_end else -1
    with pytest.raises(BallError, match=f"vertex index {v} out of range"):
        VERTEX_ANALYSES[analysis](ball, sd, v)


def test_ball_analyses_refuse_generator_indices_outside_the_set():
    ball, sd = z2_radius3_analyses()
    for i in (-1, len(ball.gens)):
        # a bad index on either side of the split is refused
        for bad_split in (SemidirectSplit((i,), sd.n_gen_indices, sd.head),
                          SemidirectSplit(sd.h_gen_indices, (i,), sd.head)):
            with pytest.raises(BallError, match=f"generator index {i} out of range"):
                three_segment_path(ball, 4, 5, [], bad_split)


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


def test_quotient_unsupported_specs(monkeypatch):
    z = FreeAbelian(1)
    with pytest.raises(UnsupportedSubgroupError):
        quotient_schreier_pair(z, CyclicDivisorQuotient(6, 3), TrivialSubgroup(),
                               z.standard_gens(), 3)
    c12 = Cyclic(12)
    with pytest.raises(UnsupportedSubgroupError, match="5 does not divide 12"):
        quotient_schreier_pair(c12, CyclicDivisorQuotient(12, 5), TrivialSubgroup(),
                               c12.standard_gens(), 3)
    with pytest.raises(UnsupportedSubgroupError):
        quotient_schreier_pair(z, object(), TrivialSubgroup(),
                               z.standard_gens(), 3)
    # a K generator outside the quotient group is refused before any ball
    def no_ball(*args):
        raise AssertionError("a ball was built for an ill-typed K")

    monkeypatch.setattr(endslab.ends, "build_ball", no_ball)
    for bad in (IntVector((1,)), CyclicInt(5, 4)):
        with pytest.raises(FamilyMismatchError, match="is not an element of C\\(4\\)"):
            quotient_schreier_pair(z, IntModQuotient(4), GeneratedSubgroup((bad,)),
                                   z.standard_gens(), 3)


def test_quotient_specs_through_the_package_namespace():
    # the calls bench/execute.py makes, through the top-level names
    cases = ((endslab.FreeAbelian(1), endslab.IntModQuotient(6), 4),
             (endslab.FreeAbelian(2), endslab.DiagonalLatticeQuotient((2, 3)), 4),
             (endslab.Cyclic(12), endslab.CyclicDivisorQuotient(12, 4), 4),
             (endslab.SymmetricGroup(4), endslab.SignQuotient(4), 3))
    for group, q, radius in cases:
        pair = endslab.quotient_schreier_pair(group, q, endslab.TrivialSubgroup(),
                                              group.standard_gens(), radius)
        assert pair.isomorphic, q
