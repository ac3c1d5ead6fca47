import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import endslab
from endslab.actions import (
    ActionError,
    GeneratedSubgroup,
    PairPoint,
    PointedAction,
    TrivialSubgroup,
    coset_action,
    rule_action,
    translation_action,
)
from endslab.balls import (
    ArityMismatchError,
    BallError,
    BallOverflowError,
    bipartite_by_distance,
    build_ball,
    delete_and_split,
    leaf_decomposition,
    pointed_labeled_isomorphic,
    simplify,
    to_dot,
    to_json_dict,
    to_json_text,
)
from endslab.dsl import SpecError, elaborate, parse_spec
from endslab.ends import profile_from_ball
from endslab.groups import (
    Cyclic,
    CyclicInt,
    FamilyMismatchError,
    FreeAbelian,
    FreeGroup,
    GroupError,
    IntVector,
    Perm,
    SymmetricGenSet,
    SymmetricGroup,
    make_gen_set,
    nonidentity_gens,
    perm_parity,
    point_label,
)
from endslab.wreath import (
    WreathElement,
    WreathGroup,
    head_projection_action,
    imprimitive_action,
    imprimitive_coset_action,
    lamplighter,
)

from oracles import (
    act_edges,
    bfs_witnesses,
    diamond_count,
    f2_words_up_to,
    simple_edges,
)
from test_dsl import random_spec, random_typed_spec


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


@pytest.mark.parametrize("group, radius", [(FreeGroup(2), 5), (FreeAbelian(2), 6)],
                         ids=str)
def test_budget_boundary_is_exact(group, radius):
    size = len(ball_of(group, radius))
    action, gens = translation_action(group), group.standard_gens()
    ball = build_ball(action, gens, radius, max_vertices=size)
    assert len(ball) == size
    # the radius-R row only looks points up: no boundary point is indexed
    assert len(ball.index) == len(ball)
    assert all(ball.index[p] == i for i, p in enumerate(ball.points))
    with pytest.raises(BallOverflowError) as err:
        build_ball(action, gens, radius, max_vertices=size - 1)
    assert err.value.reached_radius == radius - 1


@pytest.mark.parametrize("budget", [0, -5])
def test_build_ball_refuses_a_budget_below_one(budget):
    z = FreeAbelian(1)
    with pytest.raises(BallError, match=f"vertex budget must be >= 1, got {budget}$"):
        build_ball(translation_action(z), z.standard_gens(), 0, max_vertices=budget)


def test_delete_and_split_line():
    ball = ball_of(FreeAbelian(1), 5)
    cut = delete_and_split(ball, [ball.basepoint_index])
    assert len(cut.components) == 2
    assert all(cut.touching)


def test_delete_and_split_plane():
    ball = ball_of(FreeAbelian(2), 6)
    inner = [v for v in range(len(ball)) if ball.dist[v] <= 2]
    cut = delete_and_split(ball, inner)
    assert sum(cut.touching) == 1


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
    gens = make_gen_set(c4, [CyclicInt(4, 1), CyclicInt(4, 0)])
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


@functools.cache
def generated_spec_balls(count=100, radius=3, max_draws=400, draw=random_spec, seed=11,
                         budget=5000):
    """Balls of the first ``count`` seeded generated specs that elaborate;
    refused specs and balls over the budget are skipped, drawing on until
    ``count`` balls are built.  Built once per test run; the balls are
    frozen, so the tests share them."""
    rng = random.Random(seed)
    balls = []
    for _ in range(max_draws):
        if len(balls) == count:
            break
        try:
            action, gens = elaborate(draw(rng))
            balls.append(build_ball(action, gens, radius, max_vertices=budget))
        except (SpecError, ActionError, BallOverflowError):
            continue
    assert len(balls) == count, f"{len(balls)} balls from {max_draws} draws"
    return tuple(balls)


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


# repeated and self-paired generator columns, where a reverse write meets
# an entry already set, and an identity loop
REPEATED_COLUMN_SPECS = (
    ("Z with gens {1, -1}", 6),
    ("C(12) with gens {1, 11}", 8),
    ("Sym(4) with gens {(0 1), (0 1)}", 3),
    ("F(2) with gens {a, A}", 4),
    ("Z with gens {0}", 3),
)


def test_table_matches_act_oracle():
    hand_picked = [spec_ball(text, radius) for text, radius in REPEATED_COLUMN_SPECS]
    balls = [*random_fixture_balls(), *generated_spec_balls(), *hand_picked]
    assert len(balls) > 20
    for ball in balls:
        check_table(ball)
        assert ball.edges == act_edges(ball.points, ball.gens.elements,
                                       ball.gens.pairing, ball.action.act)
        validate_ball(ball)


def test_witness_matches_bfs_oracle():
    balls = [*random_fixture_balls(), *generated_spec_balls()]
    for ball in balls:
        assert ball.witness == bfs_witnesses(ball.action, ball.gens, ball.radius)


def test_build_ball_makes_no_multiply(monkeypatch):
    # rule(f2_four_ends) acts letter by letter, so every product of the law
    # counted here (checked multiply or trusted _mul) is one the ball makes
    calls = []
    mul = FreeGroup._mul

    def counting(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    monkeypatch.setattr(FreeGroup, "_mul", counting)
    ball = build_ball(rule_action("f2_four_ends"), FreeGroup(2).standard_gens(), 8)
    assert len(calls) == 0
    witness = ball.witness
    assert len(calls) == len(ball) - 1
    assert ball.witness is witness
    assert len(calls) == len(ball) - 1


def test_build_ball_hashes_each_acted_point_once():
    counts = {"eq": 0, "unequal": 0, "hash": 0, "act": 0}

    class CountedPoint:
        """A point of Z^2 under translation that counts its hash and
        equality calls.  Doubling the coordinates keeps CPython's
        hash(-1) == hash(-2) out, so distinct points never share a hash."""

        __slots__ = ("coords",)

        def __init__(self, coords):
            self.coords = coords

        def __hash__(self):
            counts["hash"] += 1
            return hash(tuple([2 * x for x in self.coords]))

        def __eq__(self, other):
            counts["eq"] += 1
            result = self.coords == other.coords
            counts["unequal"] += not result
            return result

    group = FreeAbelian(2)

    def counting_step(g, p):
        counts["act"] += 1
        return CountedPoint(group._mul(g, p.coords))

    action = PointedAction(group, counting_step, CountedPoint(group.identity()))
    ball = build_ball(action, group.standard_gens(), 20)
    assert len(ball) == 2 * 20 * 21 + 1
    # no lookup compares two unequal points: each comparison is of an acted
    # point with its equal in the index, one for each act that neither adds
    # a vertex nor leaves the ball
    assert counts["unequal"] == 0
    found = counts["act"] - (len(ball) - 1) - ball.table.count(-1)
    assert counts["eq"] == found
    # one hash per acted point, plus the basepoint's own insert
    assert counts["hash"] == counts["act"] + 1


def stepping_balls():
    """Balls whose actions step with a law of their own, beyond the fixtures:
    a Sym(8) coset ball, an imprimitive coset ball and a head projection."""
    w, wgens = lamplighter(2)
    top = w.top_action
    sym3_wreath = WreathGroup(SymmetricGroup(3), top)
    sym3_gens = sym3_wreath.standard_gens()
    swap = GeneratedSubgroup((Perm((1, 0, 2)),))
    return [
        spec_ball("Sym(8) / {(0 1 2 3 4 5 6 7)}", 5),
        build_ball(imprimitive_coset_action(sym3_wreath, swap),
                   sym3_gens, 7),
        build_ball(head_projection_action(w), wgens, 6),
    ]


def test_step_builds_the_act_ball():
    # the same build through a copy of each action whose law is the checked
    # act, built with four positional arguments as a wrapping action is,
    # must give the same ball
    for ball in [*random_fixture_balls(), *generated_spec_balls(), *stepping_balls()]:
        a = ball.action
        checked = PointedAction(a.group, a.act, a.basepoint, a.label)
        again = build_ball(checked, ball.gens, ball.radius, max_vertices=5000)
        assert again.points == ball.points
        assert again.dist == ball.dist
        assert again.table == ball.table


def test_every_ball_point_passes_the_point_test():
    # a build only steps, so an over-strict is_point would break act alone
    for ball in [*random_fixture_balls(), *generated_spec_balls(), *stepping_balls()]:
        a = ball.action
        assert all(map(a.is_point, ball.points)), a
        for p in ball.points[:50]:
            for s in ball.gens.elements:
                assert a.act(s, p) == a.step(s, p)


def test_foreign_generator_is_refused_before_any_step():
    group = FreeGroup(2)
    translation = translation_action(group)
    calls = []

    def counting_step(g, p):
        calls.append(1)
        return translation.step(g, p)

    action = PointedAction(group, counting_step, translation.basepoint,
                           is_point=group.contains)
    gens = group.standard_gens()
    foreign = (FreeGroup(3).letter(2), IntVector((1,)), Perm((1, 0)))
    for x in foreign:
        bad = SymmetricGenSet(gens.elements + (x,), gens.pairing + (len(gens),),
                              gens.names + ("x",))
        with pytest.raises(FamilyMismatchError, match=r"is not an element of F\(2\)"):
            build_ball(action, bad, 3)
    assert calls == []
    build_ball(action, gens, 2)
    assert len(calls) > 0


def test_mispaired_generators_are_refused_before_any_step():
    # the build fills each reverse transition from the pairing, so a pairing
    # of 1 with 2 over Z would record b.1 = 0 where +2 + 1 = 3
    group = FreeAbelian(1)
    translation = translation_action(group)
    calls = []

    def counting_step(g, p):
        calls.append(1)
        return translation.step(g, p)

    action = PointedAction(group, counting_step, translation.basepoint)
    gens = SymmetricGenSet((IntVector((1,)), IntVector((2,))), (1, 0), ("a", "b"))
    with pytest.raises(GroupError, match="generator 0 is not paired with its inverse"):
        build_ball(action, gens, 2)
    assert calls == []


def hash_order_outputs(ball):
    """Every output built from a ball that must not follow hash order."""
    leaves = None
    if isinstance(ball.points[0], PairPoint):
        leaves = [(point_label(leaf), vs)
                  for leaf, vs in leaf_decomposition(ball).items()]
    return (json.dumps(to_json_dict(ball)), to_dot(ball), leaves,
            profile_from_ball(ball, range(ball.radius)))


HASH_ORDER_SPECS = (
    ("wreath(Sym(3), Z, translation)", 4),
    ("imprimitive(wreath(C(3), Z, translation))", 8),
    ("Z^2 / [5, 0]", 12),
    ("wreath(C(2), F(2), translation)", 3),
    ("imprimitive(wreath(C(2), F(2), rule(f2_four_ends)))", 4),
)


def hash_order_outputs_of_all():
    w, gens = lamplighter(2)
    balls = [build_ball(translation_action(w), gens, 6)]
    balls += [spec_ball(text, radius) for text, radius in HASH_ORDER_SPECS]
    return [hash_order_outputs(ball) for ball in balls]


def test_outputs_do_not_depend_on_hash_order():
    shipped = hash_order_outputs_of_all()
    # words hash as bytes, which follow PYTHONHASHSEED: two interpreters
    # with different seeds reorder every frozenset and dict of words
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(endslab.__file__).resolve().parents[1]), str(tests)]))
    script = "import test_balls; print(repr(test_balls.hash_order_outputs_of_all()))"
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=dict(env, PYTHONHASHSEED=seed), cwd=tests,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == repr(shipped) + "\n"
    # Z^k points are int tuples, whose hashes ignore PYTHONHASHSEED; but
    # hash(-1) == hash(-2), so a support holding entries at such points
    # iterates in its insertion order.  Balls from two equal basepoints
    # whose supports were built in the two orders, and whose products
    # inherit those orders, must give the same outputs
    lit = CyclicInt(2, 1)
    for text, radius in (("wreath(C(2), Z, translation)", 5),
                         ("wreath(C(2), Z^2, translation)", 3)):
        action, gens = elaborate(parse_spec(text))
        w = action.group
        pad = (0,) * (w.top.rank - 1)
        entries = [((-1,) + pad, lit), ((-2,) + pad, lit)]
        assert list(frozenset(entries)) != list(frozenset(entries[::-1]))
        balls = [build_ball(replace(action, basepoint=WreathElement(
                     frozenset(order), w.top.identity())), gens, radius)
                 for order in (entries, entries[::-1])]
        orders = [[list(p.support) for p in ball.points] for ball in balls]
        assert orders[0] != orders[1]
        assert hash_order_outputs(balls[0]) == hash_order_outputs(balls[1])


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


# sha256 of the indented ball JSON and of the DOT text of balls over free
# words, computed when words were a value class of signed letters: the
# representation of a word must not reach any export
FREE_WORD_EXPORT_DIGESTS = [
    ("F(2)", 4,
     "4cb6fdc715b2549656737c7f3a70e1383a464a5d603dba793bc0d1d38d5ae6e6",
     "d0172c18475e8c8fab663577e67867462661571cf48d5544ede7aaf54c705e6c"),
    ("F(3) with gens {a, bc}", 3,
     "a663363e894f702045bf895b4fee67f9447bb1d50f999da138574abf1a8e52f3",
     "ed863c059ba12e5ea3daffdc7df5887a533ed96eed7e6308eacc0a7e91f76c73"),
    ("wreath(C(2), F(2), translation)", 3,
     "281255594a1df02766ac4af417895b61389723ac4b1c272618100b11418236ee",
     "4e919eea869f171adf3b7389fbe5db2c99b4f92c62c587a53757dfaec12e97a4"),
    ("imprimitive(wreath(C(2), F(2), rule(f2_four_ends)))", 4,
     "a2633ff020a6c9c080e79b703d72484379f064562b348e09488760fc0b258749",
     "17969501dd3d2d15a905b5fde3a5066f65b5629e9c419a36f056890f4590adf5"),
]


@pytest.mark.parametrize("text, radius, json_sha256, dot_sha256", FREE_WORD_EXPORT_DIGESTS,
                         ids=[text for text, *_ in FREE_WORD_EXPORT_DIGESTS])
def test_free_word_exports_match_pinned_digests(text, radius, json_sha256, dot_sha256):
    ball = spec_ball(text, radius)
    text_json = json.dumps(to_json_dict(ball), indent=2)
    assert hashlib.sha256(text_json.encode()).hexdigest() == json_sha256
    assert hashlib.sha256(to_dot(ball).encode()).hexdigest() == dot_sha256


@pytest.mark.parametrize("make", [
    lambda: build_ball(translation_action(Cyclic(4)),
                       make_gen_set(Cyclic(4), [CyclicInt(4, 1), CyclicInt(4, 0)]), 4),
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
    sch = build_ball(coset_action(z, GeneratedSubgroup((IntVector((4,)),))), z.standard_gens(), 4)
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
    w = WreathGroup(base, ta)
    gens = w.standard_gens()
    action = imprimitive_action(w)
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


@pytest.mark.parametrize("group, radius, edges", [
    (SymmetricGroup(1), 2, []),         # no generators
    (FreeGroup(2), 0, []),              # radius 0
    (Cyclic(1), 2, [[0, 0, 0]]),        # the identity loop
    (Cyclic(2), 2, [[0, 1, 0]]),        # an involution, one edge
])
def test_json_text_edge_cases(group, radius, edges):
    ball = ball_of(group, radius)
    text = to_json_text(ball)
    assert text == json.dumps(to_json_dict(ball), indent=2)
    assert json.loads(text)["edges"] == edges
    if not ball.gens.names:
        assert '"generators": [],' in text and '"pairing": [],' in text
    if not edges:
        assert text.endswith('"edges": []\n}')


# ---------------------------------------------------------------------------
# the parity certificate and the growth series


def _build_outcome(action, gens, radius, max_vertices):
    """(points, dist, table, index order) of a build, or the overflow's
    (budget, completed radius)."""
    try:
        ball = build_ball(action, gens, radius, max_vertices)
    except BallOverflowError as exc:
        return exc.max_vertices, exc.reached_radius
    return ball.points, ball.dist, ball.table, list(ball.index)


def typed_translation_draws():
    """(action, gens, radius 3, budget 5000) of each translation draw of the
    600 seed-12 typed draws that elaborates."""
    rng = random.Random(12)
    builds = []
    for _ in range(600):
        spec = random_typed_spec(rng)
        if spec.action.kind != "translation":
            continue
        try:
            action, gens = elaborate(spec)
        except (SpecError, ActionError):
            continue
        builds.append((action, gens, 3, 5000))
    return builds


def test_builds_without_the_certificate_are_identical():
    # the radius-R lookups that the certificate skips find nothing: a build
    # with the action's parity dropped gives the same points, dist, table
    # and index order, on the manifest balls and the typed translation draws
    builds = [(b.action, b.gens, b.radius, b.max_vertices) for b in
              [*random_fixture_balls(), *generated_spec_balls(), *stepping_balls()]]
    builds += typed_translation_draws()
    certified = 0
    for action, gens, radius, budget in builds:
        plain = replace(action, parity=None)
        assert not bipartite_by_distance(plain, gens)
        certified += bipartite_by_distance(action, gens)
        assert (_build_outcome(action, gens, radius, budget)
                == _build_outcome(plain, gens, radius, budget)), str(action)
    assert certified == 179  # 31 manifest balls and 148 typed draws


def test_translation_parity_colours_every_edge():
    # c(s.p) = c(p) xor parity(s) on every edge of a translation ball whose
    # group states a parity
    checked = 0
    for ball in [*random_fixture_balls(), *generated_spec_balls(), *stepping_balls()]:
        action, elements = ball.action, ball.gens.elements
        if action.parity is None or action.group.parity(action.basepoint) is None:
            continue
        colour = list(map(action.parity, ball.points))
        for u, v, i in ball.edges:
            assert colour[v] == colour[u] ^ action.group.parity(elements[i])
        checked += 1
    assert checked >= 20


def _stepped_radius_r(action, gens, radius):
    """The ball, and whether its build stepped any point at distance R."""
    stepped = []
    law = action.step

    def step(g, p):
        stepped.append(p)
        return law(g, p)

    ball = build_ball(replace(action, step=step), gens, radius)
    return ball, any(ball.dist[ball.index[p]] == radius for p in stepped)


def _inner_sphere_entries(ball):
    ngens, dist, r = len(ball.gens), ball.dist, ball.radius
    return sum(1 for e, v in enumerate(ball.table)
               if v >= 0 and dist[e // ngens] == r and dist[v] == r)


@pytest.mark.parametrize("text, radius, entries", [
    ("C(3)", 1, 2),
    ("Sym(3) with gens {(0 1), (0 1 2)}", 1, 2),
    ("F(2) with gens {a, b, ab}", 3, 96),
    ("Z^2 with gens {[1, 0], [0, 1], [1, 1]}", 3, 36),
    # a free basis, so a tree, but ab is even: not certified
    ("F(2) with gens {a, ab}", 3, 0),
    ("Z with gens {0, 1}", 2, 2),  # an identity generator is a loop
    ("Z with gens {1, 2}", 3, 4),
    ("C(4) with gens {1, 2}", 1, 6),
    ("Z / [3]", 1, 2),  # a coset action states no point parity
    ("imprimitive(wreath(C(2), Z, translation))", 2, 4),
])
def test_uncertified_builds_take_the_radius_r_pass(text, radius, entries):
    action, gens = elaborate(parse_spec(text))
    assert not bipartite_by_distance(action, gens)
    ball, stepped = _stepped_radius_r(action, gens, radius)
    assert stepped
    assert _inner_sphere_entries(ball) == entries
    assert _build_outcome(action, gens, radius, 5000) == \
        _build_outcome(replace(action, parity=None), gens, radius, 5000)


@pytest.mark.parametrize("text, radius", [
    ("F(2)", 5), ("F(3) with gens {a, bca, c}", 3), ("Z^2", 6),
    ("Z^3 with gens {[1, 1, 1], [0, 1, 0], [0, 0, 1]}", 3), ("C(6)", 2),
    ("Sym(4)", 5), ("wreath(C(2), Z, translation)", 6),
    ("wreath(Sym(3), Z^2, translation)", 2),
])
def test_certified_builds_skip_the_radius_r_pass(text, radius):
    action, gens = elaborate(parse_spec(text))
    assert bipartite_by_distance(action, gens)
    ball, stepped = _stepped_radius_r(action, gens, radius)
    assert ball.dist[-1] == radius and not stepped
    assert _inner_sphere_entries(ball) == 0
    assert _build_outcome(action, gens, radius, 5000) == \
        _build_outcome(replace(action, parity=None), gens, radius, 5000)


@pytest.mark.parametrize("n, radius", [(1, 8), (2, 6), (3, 4)])
def test_free_group_sphere_sizes(n, radius):
    ball = ball_of(FreeGroup(n), radius)
    assert ball.sphere_sizes == (1, *(2 * n * (2 * n - 1) ** (r - 1)
                                      for r in range(1, radius + 1)))


def test_free_abelian_sphere_sizes():
    assert ball_of(FreeAbelian(2), 20).sphere_sizes == (1, *(4 * r for r in range(1, 21)))
    assert ball_of(FreeAbelian(3), 8).sphere_sizes == (1, *(4 * r * r + 2 for r in range(1, 9)))


def test_sphere_sizes_count_the_ball():
    for ball in [*random_fixture_balls(), *generated_spec_balls(), *stepping_balls()]:
        sizes = ball.sphere_sizes
        assert sum(sizes) == len(ball) and 0 not in sizes
        assert len(sizes) == ball.dist[-1] + 1 <= ball.radius + 1
    # an orbit that closes inside the ball lists no empty sphere
    assert ball_of(Cyclic(5), 9).sphere_sizes == (1, 2, 2)
    # the head projection of a wreath product grows as its top action
    w, gens = lamplighter(2)
    head = build_ball(head_projection_action(w), gens, 7)
    assert head.sphere_sizes == build_ball(w.top_action, w.top.standard_gens(), 7).sphere_sizes
