import json
import random

import pytest

from endslab.actions import (
    ActionError,
    PairPoint,
    Sublattice,
    TrivialSubgroup,
    coset_action,
    rule_action,
    translation_action,
)
from endslab.balls import (
    ArityMismatchError,
    BallError,
    BallOverflowError,
    build_ball,
    delete_and_split,
    leaf_decomposition,
    pointed_labeled_isomorphic,
    simplify,
    to_dot,
    to_json_dict,
)
from endslab.dsl import SpecError, elaborate, parse_spec
from endslab.groups import (
    Cyclic,
    CyclicInt,
    FreeAbelian,
    FreeGroup,
    IntVector,
    SymmetricGenSet,
    SymmetricGroup,
    make_gen_set,
    nonidentity_gens,
    perm_parity,
)
from endslab.wreath import (
    WreathGroup,
    imprimitive_action,
    lamplighter,
    standard_wreath_gens,
)

from oracles import (
    act_edges,
    bfs_witnesses,
    diamond_count,
    f2_words_up_to,
    simple_edges,
)
from test_dsl import random_spec


def ball_of(group, radius, gens=None):
    return build_ball(translation_action(group), gens or group.standard_gens(),
                      radius)


def validate_ball(ball):
    assert ball.dist[ball.basepoint_index] == 0
    act = ball.action.act
    for u, v, g in ball.edges:
        assert abs(ball.dist[u] - ball.dist[v]) <= 1
        assert act(ball.gens.elements[g], ball.points[u]) == ball.points[v]
    # completeness: interior vertices carry every generator edge
    present = set()
    pairing = ball.gens.pairing
    for u, v, g in ball.edges:
        present.add((u, g))
        present.add((v, pairing[g]))
    for v in range(len(ball)):
        if ball.dist[v] < ball.radius:
            for i in range(len(ball.gens)):
                assert (v, i) in present or (v, pairing[i]) in present
    # a simplified ball may read a witness through a kept parallel label
    base = ball.points[ball.basepoint_index]
    for b in (ball, simplify(ball)):
        for v in range(len(b)):
            assert act(b.witness[v], base) == b.points[v]


def test_z_ball_is_a_path():
    ball = ball_of(FreeAbelian(1), 3)
    assert len(ball) == 7
    assert sorted(ball.dist) == [0, 1, 1, 2, 2, 3, 3]
    assert len(ball.edges) == 6
    validate_ball(ball)


def test_f2_ball_count():
    ball = ball_of(FreeGroup(2), 2)
    assert len(ball) == 17  # oracle: reduced-word enumeration
    assert len(f2_words_up_to(2)) == 17
    validate_ball(ball)


def test_z2_ball_is_a_diamond():
    ball = ball_of(FreeAbelian(2), 2)
    assert len(ball) == 13
    assert diamond_count(2) == 13
    validate_ball(ball)


def test_ball_nesting():
    for group in (FreeGroup(2), FreeAbelian(2), Cyclic(6)):
        small = ball_of(group, 2)
        big = ball_of(group, 3)
        n = len(small)
        assert big.points[:n] == small.points
        assert big.dist[:n] == small.dist


def test_ball_determinism():
    a = ball_of(FreeGroup(2), 4)
    b = ball_of(FreeGroup(2), 4)
    assert a.points == b.points and a.edges == b.edges


def test_ball_overflow():
    z = FreeAbelian(1)
    with pytest.raises(BallOverflowError) as err:
        build_ball(translation_action(z), z.standard_gens(), 50, max_vertices=20)
    assert err.value.reached_radius < 50


def test_delete_and_split_line():
    ball = ball_of(FreeAbelian(1), 5)
    cut = delete_and_split(ball, [ball.basepoint_index])
    assert len(cut.components) == 2
    assert all(cut.touching)


def test_delete_and_split_plane():
    ball = ball_of(FreeAbelian(2), 6)
    inner = [v for v in range(len(ball)) if ball.dist[v] <= 2]
    cut = delete_and_split(ball, inner)
    assert cut.touching_count() == 1


def test_delete_empty_cut_connected():
    ball = ball_of(SymmetricGroup(3), 4)
    cut = delete_and_split(ball, [])
    assert len(cut.components) == 1


def test_delete_and_split_bad_index():
    ball = ball_of(FreeAbelian(1), 2)
    with pytest.raises(BallError):
        delete_and_split(ball, [99])


def test_simplify_removes_identity_loops():
    c4 = Cyclic(4)
    gens = make_gen_set(c4, [CyclicInt(4, 1), CyclicInt(4, 0)],
                        allow_identity=True)
    ball = build_ball(translation_action(c4), gens, 4)
    assert any(u == v for u, v, _ in ball.edges)
    slim = simplify(ball)
    assert not any(u == v for u, v, _ in slim.edges)
    assert slim.points == ball.points


def test_simplify_collapses_double_edges():
    z = FreeAbelian(1)
    doubled = make_gen_set(z, [IntVector((1,)), IntVector((-1,))])
    ball = build_ball(translation_action(z), doubled, 3)
    pairs = [(min(u, v), max(u, v)) for u, v, _ in ball.edges]
    assert len(pairs) == 2 * len(set(pairs))  # every edge appears twice
    slim = simplify(ball)
    pairs = [(min(u, v), max(u, v)) for u, v, _ in slim.edges]
    assert len(pairs) == len(set(pairs))


def random_fixture_balls():
    w, wgens = lamplighter(2)
    return [
        ball_of(FreeAbelian(1), 6),
        ball_of(Cyclic(9), 5),
        ball_of(FreeGroup(2), 4),
        build_ball(translation_action(w), wgens, 4),
        build_ball(rule_action("f2_four_ends"), FreeGroup(2).standard_gens(), 8),
    ]


def test_cut_results_stable_under_simplify():
    rng = random.Random(31)
    for ball in random_fixture_balls():
        cut_vertices = rng.sample(range(len(ball)), min(4, len(ball) // 3))
        base = delete_and_split(ball, cut_vertices)
        assert delete_and_split(simplify(ball), cut_vertices) == base


def generated_spec_balls(count=100, radius=3, max_draws=400):
    """Balls of the first ``count`` seeded generated specs that elaborate;
    refused specs are skipped, drawing on until ``count`` balls are built."""
    rng = random.Random(11)
    balls = []
    for _ in range(max_draws):
        if len(balls) == count:
            break
        try:
            action, gens = elaborate(random_spec(rng))
            balls.append(build_ball(action, gens, radius, max_vertices=5000))
        except (SpecError, ActionError):
            continue
    assert len(balls) == count, f"{len(balls)} balls from {max_draws} draws"
    return balls


def check_table(ball):
    ngens = len(ball.gens)
    pairing = ball.gens.pairing
    table = ball.table
    assert len(table) == len(ball) * ngens
    for e, v in enumerate(table):
        u, i = divmod(e, ngens)
        if v < 0:
            assert v == -1 and ball.dist[u] == ball.radius
            continue
        assert table[v * ngens + pairing[i]] == u
        assert abs(ball.dist[u] - ball.dist[v]) <= 1


def test_table_matches_act_oracle():
    balls = random_fixture_balls() + generated_spec_balls()
    assert len(balls) > 20
    for ball in balls:
        check_table(ball)
        assert ball.edges == act_edges(ball.points, ball.gens.elements,
                                       ball.gens.pairing, ball.action.act)
        validate_ball(ball)


def test_witness_matches_bfs_oracle():
    balls = random_fixture_balls() + generated_spec_balls()
    for ball in balls:
        assert ball.witness == bfs_witnesses(ball.action, ball.gens, ball.radius)


def test_build_ball_makes_no_multiply(monkeypatch):
    # rule(f2_four_ends) acts letter by letter, so every multiply counted
    # here is one the ball itself makes
    calls = []
    multiply = FreeGroup.multiply

    def counting(self, a, b):
        calls.append(1)
        return multiply(self, a, b)

    monkeypatch.setattr(FreeGroup, "multiply", counting)
    ball = build_ball(rule_action("f2_four_ends"), FreeGroup(2).standard_gens(), 8)
    assert len(calls) == 0
    witness = ball.witness
    assert len(calls) == len(ball) - 1
    assert ball.witness is witness
    assert len(calls) == len(ball) - 1


def sign_quotient_ball():
    """The Sym(3) -> C(2) sign quotient before simplify: both transpositions
    map to 1, so the two vertices are joined by a doubled edge."""
    gens = SymmetricGroup(3).standard_gens()
    images = tuple(CyclicInt(2, perm_parity(g)) for g in gens.elements)
    q_gens = SymmetricGenSet(images, gens.pairing, gens.names)
    return build_ball(coset_action(Cyclic(2), TrivialSubgroup()), q_gens, 2)


def spec_ball(text, radius):
    action, gens = elaborate(parse_spec(text))
    return build_ball(action, gens, radius)


@pytest.mark.parametrize("make", [
    lambda: build_ball(translation_action(Cyclic(4)),
                       make_gen_set(Cyclic(4), [CyclicInt(4, 1), CyclicInt(4, 0)],
                                    allow_identity=True), 4),
    lambda: build_ball(translation_action(FreeAbelian(1)),
                       make_gen_set(FreeAbelian(1), [IntVector((1,)),
                                                     IntVector((-1,))]), 3),
    lambda: spec_ball("Z / 2 with gens {1, 2}", 3),
    sign_quotient_ball,
], ids=["loops", "doubled", "coset-loops-and-double", "sign-quotient"])
def test_simplify_masks_table(make):
    ball = make()
    slim = simplify(ball)
    assert slim.edges == simple_edges(ball.edges) != ball.edges
    # dropped edges are masked at both ends, kept ones are untouched
    kept = {(u, g) for u, v, g in slim.edges}
    kept |= {(v, ball.gens.pairing[g]) for u, v, g in slim.edges}
    ngens = len(ball.gens)
    for e, v in enumerate(slim.table):
        assert v == (ball.table[e] if divmod(e, ngens) in kept else -1)
    assert slim.points == ball.points and slim.dist == ball.dist


def test_pointed_labeled_isomorphic_quotient_example():
    z = FreeAbelian(1)
    sch = build_ball(coset_action(z, Sublattice(((4,),))), z.standard_gens(), 4)
    cay = ball_of(Cyclic(4), 4)
    assert pointed_labeled_isomorphic(simplify(sch), simplify(cay))
    # both are 4-cycles
    assert len(sch) == 4 and len(simplify(sch).edges) == 4


def test_pointed_labeled_isomorphic_reflexive_and_negative():
    z_ball = ball_of(FreeAbelian(1), 3)
    assert pointed_labeled_isomorphic(z_ball, ball_of(FreeAbelian(1), 3))
    c4_ball = ball_of(Cyclic(4), 3)
    assert not pointed_labeled_isomorphic(z_ball, c4_ball)  # 7 vs 4 vertices


def test_pointed_labeled_isomorphic_truncates_to_common_radius():
    small = ball_of(FreeAbelian(1), 3)
    big = ball_of(FreeAbelian(1), 5)
    assert pointed_labeled_isomorphic(small, big)


def test_pointed_labeled_isomorphic_arity_mismatch():
    z_ball = ball_of(FreeAbelian(1), 2)
    f2_ball = ball_of(FreeGroup(2), 2)
    with pytest.raises(ArityMismatchError):
        pointed_labeled_isomorphic(z_ball, f2_ball)


@pytest.mark.parametrize("group", [Cyclic(5), SymmetricGroup(3)], ids=str)
def test_complete_graph_identity(group):
    n = group.order()
    ball = build_ball(translation_action(group), nonidentity_gens(group), 1)
    assert len(ball) == n
    simple = simplify(ball)
    pairs = {frozenset((u, v)) for u, v, _ in simple.edges}
    assert pairs == {frozenset((u, v)) for u in range(n) for v in range(u + 1, n)}


def regular_wreath_ball(n=3, m=2, radius=8):
    base, top = Cyclic(n), Cyclic(m)
    ta = translation_action(top)
    w = WreathGroup(base, top, ta, (ta.basepoint,))
    gens = standard_wreath_gens(w, base.standard_gens(), top.standard_gens())
    action = imprimitive_action(w, ta.basepoint)
    return w, gens, build_ball(action, gens, radius)


def test_leaf_decomposition_sizes():
    w, gens, ball = regular_wreath_ball()
    leaves = leaf_decomposition(ball)
    assert len(leaves) == 3
    assert all(len(vs) == 2 for vs in leaves.values())


def test_leaf_edge_rules():
    w, gens, ball = regular_wreath_ball()
    x0 = w.top_action.basepoint
    n_top_gens = sum(1 for g in gens.elements if not g.support)
    for u, v, g in ball.edges:
        pu, pv = ball.points[u], ball.points[v]
        if u == v:
            continue
        if gens.elements[g].support:
            # delta edges cross leaves and sit at the distinguished position
            assert pu.leaf != pv.leaf
            assert pu.pos == x0 and pv.pos == x0
        else:
            assert pu.leaf == pv.leaf
    assert n_top_gens == 1


def test_leaf_disconnection_finite():
    w, gens, ball = regular_wreath_ball()
    x0 = w.top_action.basepoint
    leaves = leaf_decomposition(ball)
    for leaf, vs in leaves.items():
        hub = ball.index[PairPoint(leaf, x0)]
        cut = delete_and_split(ball, [hub])
        rest = set(vs) - {hub}
        for comp in cut.components:
            if set(comp) & rest:
                assert set(comp) <= set(vs)  # no escape to other leaves
                assert len(comp) == 1  # |X'| - 1


def test_leaf_decomposition_wrong_vertex_type():
    ball = ball_of(FreeAbelian(1), 2)
    with pytest.raises(BallError):
        leaf_decomposition(ball)


def test_exports_are_deterministic_and_wellformed():
    ball = ball_of(Cyclic(4), 2)
    payload = to_json_dict(ball)
    assert set(payload) == {"radius", "basepoint", "generators", "pairing",
                            "vertices", "dist", "edges"}
    assert payload["vertices"][payload["basepoint"]] == "0"
    assert json.dumps(payload) == json.dumps(to_json_dict(ball_of(Cyclic(4), 2)))
    dot = to_dot(ball)
    assert dot.startswith("graph ball {") and "doublecircle" in dot
    assert 'label="+1"' in dot
