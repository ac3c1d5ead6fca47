"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (run with -s to see them); the
landmark end counts, enumeration totals and isomorphism verdicts
are exact, and the stated wall-clock budgets are asserted.
"""

import random
import time

import pytest

from endslab.actions import (
    GeneratedSubgroup,
    IntModQuotient,
    PairPoint,
    TrivialSubgroup,
    coset_action,
    rule_action,
    translation_action,
)
from endslab.balls import build_ball, delete_and_split, simplify
from endslab.dsl import parse_spec, print_spec
from endslab.ends import (
    ThreeSegmentPath,
    coordinate_split,
    ends_profile,
    quotient_schreier_pair,
    three_segment_path,
)
from endslab.groups import (
    Cyclic,
    CyclicInt,
    FreeAbelian,
    FreeGroup,
    IntVector,
    Perm,
    SymmetricGroup,
    make_gen_set,
    nonidentity_gens,
)
from endslab.wreath import (
    WreathGroup,
    head_projection_action,
    imprimitive_action,
    lamplighter,
)

from oracles import components, f2_word_adjacency, f2_words_up_to
from test_groups import ALL_GROUPS, sample_element


def sample_lamplighter_element(w, rng, sites):
    el = w.identity()
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.5:
            el = w.multiply(el, w.delta(
                rng.choice(sites),
                CyclicInt(w.base.modulus, rng.randrange(1, w.base.modulus))))
        else:
            el = w.multiply(el, w.top_element(IntVector((rng.randint(-2, 2),))))
    return el


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def report(number, message):
    print(f"ACCEPTANCE {number:>2} PASS: {message}")


@pytest.fixture(scope="module")
def profiles():
    """The six landmark profiles, computed once with timings."""
    out = {}
    z = FreeAbelian(1)
    out["z"] = timed(ends_profile, translation_action(z), z.standard_gens(),
                     range(1, 5), 12)
    sparse = make_gen_set(z, [IntVector((2,)), IntVector((3,))])
    out["z23"] = timed(ends_profile, translation_action(z), sparse,
                       range(2, 6), 20)
    z2 = FreeAbelian(2)
    out["z2"] = timed(ends_profile, translation_action(z2), z2.standard_gens(),
                      range(1, 4), 10)
    f2 = FreeGroup(2)
    out["f2"] = timed(ends_profile, translation_action(f2), f2.standard_gens(),
                      range(1, 5), 10)
    out["four_ends"] = timed(ends_profile, rule_action("f2_four_ends"),
                             f2.standard_gens(), range(1, 5), 12)
    w, wgens = lamplighter(2)
    out["lamp_head"] = timed(ends_profile, head_projection_action(w), wgens,
                             range(1, 5), 12)
    return out


def test_criterion_01_ends_of_z(profiles):
    profile, elapsed = profiles["z"]
    assert str(profile.verdict) == "STABLE(2)"
    assert all(x == 2 for row in profile.matrix for x in row)
    assert elapsed < 1.0
    report(1, f"Cayley(Z; +-1) k=1..4 K=12 -> STABLE(2), matrix all 2 "
              f"({elapsed:.2f}s)")


def test_criterion_02_generating_set_robustness(profiles):
    profile, elapsed = profiles["z23"]
    assert str(profile.verdict) == "STABLE(2)"
    assert elapsed < 1.0
    report(2, f"Cayley(Z; +-2,+-3) k=2..5 K=20 -> STABLE(2) ({elapsed:.2f}s)")


def test_criterion_03_ends_of_z2(profiles):
    profile, elapsed = profiles["z2"]
    assert str(profile.verdict) == "STABLE(1)"
    assert elapsed < 5.0
    report(3, f"Cayley(Z^2) k=1..3 K=10 -> STABLE(1) ({elapsed:.2f}s)")


def test_criterion_04_ends_of_f2(profiles):
    profile, elapsed = profiles["f2"]
    assert str(profile.verdict) == "GROWING"
    assert profile.stabilized() == (4, 12, 36, 108)
    assert elapsed < 5.0
    # independent subtree count on reduced words as plain strings
    words = f2_words_up_to(10)
    adj = f2_word_adjacency(words)
    for k, expected in zip((1, 2, 3, 4), (4, 12, 36, 108)):
        comps = components(adj, lambda w: k <= words[w] <= 10)
        touching = sum(1 for c in comps if any(words[w] == 10 for w in c))
        assert touching == expected
    report(4, f"Cayley(F2) k=1..4 K=10 -> GROWING, stabilized (4,12,36,108) "
              f"verified by brute-force subtree count ({elapsed:.2f}s)")


def test_criterion_05_four_ended_fixture(profiles):
    profile, elapsed = profiles["four_ends"]
    assert str(profile.verdict) == "STABLE(4)"
    assert elapsed < 1.0
    report(5, f"rule(f2_four_ends) k=1..4 K=12 -> STABLE(4) ({elapsed:.2f}s)")


def test_criterion_06_lamplighter_fw_failure_witness(profiles):
    profile, elapsed = profiles["lamp_head"]
    assert str(profile.verdict) == "STABLE(2)"
    assert elapsed < 1.0
    report(6, f"head-projection Schreier graph of C(2) wr Z -> STABLE(2) "
              f"({elapsed:.2f}s)")


def test_criterion_07_complete_graph_identity():
    for group in (Cyclic(5), SymmetricGroup(3)):
        n = group.order()
        ball = build_ball(translation_action(group), nonidentity_gens(group), 1)
        assert len(ball) == n
        pairs = {frozenset((u, v)) for u, v, _ in simplify(ball).edges}
        assert pairs == {frozenset((u, v))
                         for u in range(n) for v in range(u + 1, n)}
    report(7, "Cayley(C(5)) and Cayley(Sym(3)) over all non-identity "
              "generators are complete graphs at R=1")


def test_criterion_08_finite_wreath_enumeration():
    totals = {}
    for n, expected in ((2, 8), (3, 18)):
        base, top = Cyclic(n), Cyclic(2)
        ta = translation_action(top)
        w = WreathGroup(base, ta)
        gens = w.standard_gens()
        totals[n] = len(build_ball(translation_action(w), gens, 1000, 1000))
        assert totals[n] == expected
    report(8, f"BFS enumeration: C(2) wr C(2) -> {totals[2]}, "
              f"C(3) wr C(2) -> {totals[3]}")


def test_criterion_09_leaf_disconnection():
    # finite case: each deleted hub isolates a size-1 leaf remainder
    base, top = Cyclic(3), Cyclic(2)
    ta = translation_action(top)
    w = WreathGroup(base, ta)
    gens = w.standard_gens()
    ball = build_ball(imprimitive_action(w), gens, 8)
    x0 = ta.basepoint
    leaves = {p.leaf for p in ball.points}
    assert len(leaves) == 3
    for leaf in leaves:
        hub = ball.index[PairPoint(leaf, x0)]
        cut = delete_and_split(ball, [hub])
        remainder = [comp for comp, touch in zip(cut.components, cut.touching)
                     if all(ball.points[v].leaf == leaf for v in comp)]
        assert len(remainder) == 1
        assert len(remainder[0]) == 1  # |X'| - 1
        assert not cut.touching[cut.components.index(remainder[0])]

    # infinite case: the analogous deletion leaves sphere-touching pieces
    w, wgens = lamplighter(2)
    ball = build_ball(imprimitive_action(w), wgens, 8)
    x0 = w.top_action.basepoint
    hub = ball.index[PairPoint(CyclicInt(2, 1), x0)]
    cut = delete_and_split(ball, [hub])
    leaf_comps = [i for i, comp in enumerate(cut.components)
                  if all(ball.points[v].leaf == CyclicInt(2, 1) for v in comp)]
    assert leaf_comps and any(cut.touching[i] for i in leaf_comps)
    report(9, "deleting (g, x0) isolates a size-1 component per leaf in "
              "C(3) wr C(2); in C(2) wr Z at R=8 the leaf remainder still "
              "touches the sphere")


def test_criterion_10_quotient_graph_check():
    z = FreeAbelian(1)
    pair = quotient_schreier_pair(z, IntModQuotient(4), TrivialSubgroup(),
                                  z.standard_gens(), 4)
    assert pair.isomorphic
    report(10, "Sch(Z, 4Z; +-1) and Cayley(C(4); +-1), simplified, are "
               "pointed-labeled isomorphic")


def test_criterion_11_three_segment_paths():
    group = FreeAbelian(2)
    gens = group.standard_gens()
    ball = build_ball(translation_action(group), gens, 12)
    cut = frozenset(v for v in range(len(ball)) if ball.dist[v] <= 2)
    sd = coordinate_split(group, gens, n_axes=(0,))
    rng = random.Random(0)
    # survivors sampled where the H-line misses the cut (the construction's
    # own precondition) and with radius margin for the detour
    survivors = [v for v in range(len(ball))
                 if ball.dist[v] <= 8 and abs(ball.points[v][0]) > 2]
    for _ in range(20):
        x, y = rng.sample(survivors, 2)
        res = three_segment_path(ball, x, y, cut, sd)
        assert isinstance(res, ThreeSegmentPath), (ball.points[x], ball.points[y])
        assert res.injective
    report(11, "20 randomized pairs joined by three-segment paths in the "
               "Z x Z fixture (R=12, cut=B(2)); candidate map injective "
               "throughout")


def test_criterion_12_property_suites(profiles):
    t0 = time.perf_counter()

    # group axioms: 1000 random triples per family
    rng = random.Random(99)
    lamp, lamp_gens = lamplighter(3)
    sites = [IntVector((k,)) for k in range(-2, 3)]
    for group in ALL_GROUPS:
        for _ in range(1000):
            a, b, c = (sample_element(group, rng) for _ in range(3))
            assert group.multiply(group.multiply(a, b), c) == \
                group.multiply(a, group.multiply(b, c))
            assert group.multiply(a, group.inverse(a)) == group.identity()
    for _ in range(1000):
        a, b, c = (sample_lamplighter_element(lamp, rng, sites) for _ in range(3))
        assert lamp.multiply(lamp.multiply(a, b), c) == \
            lamp.multiply(a, lamp.multiply(b, c))
        assert lamp.multiply(a, lamp.inverse(a)) == lamp.identity()

    # action axioms: 500 sampled (g, h, x) checks per landmark action
    z = FreeAbelian(1)
    z2 = FreeAbelian(2)
    f2 = FreeGroup(2)
    w2, w2_gens = lamplighter(2)
    actions = [
        (translation_action(z), z.standard_gens().elements),
        (translation_action(z2), z2.standard_gens().elements),
        (translation_action(f2), f2.standard_gens().elements),
        (rule_action("f2_four_ends"), f2.standard_gens().elements),
        (head_projection_action(w2), w2_gens.elements),
        (coset_action(SymmetricGroup(3), GeneratedSubgroup((Perm((1, 0, 2)),))),
         SymmetricGroup(3).standard_gens().elements),
    ]
    for action, elements in actions:
        ident = action.group.identity()
        pts = [action.basepoint]
        for _ in range(30):
            pts.append(action.act(rng.choice(elements), rng.choice(pts)))
        for _ in range(500):
            g, h = rng.choice(elements), rng.choice(elements)
            x = rng.choice(pts)
            assert action.act(ident, x) == x
            assert action.act(g, action.act(h, x)) == \
                action.act(action.group.multiply(g, h), x)

    # e(k, .) monotonicity on every profile computed in criteria 1..6
    for profile, _ in profiles.values():
        for row in profile.matrix:
            assert all(a >= b for a, b in zip(row, row[1:]))

    # parse/print round trip on 200 generated specs
    from test_dsl import random_spec
    rng = random.Random(2024)
    for _ in range(200):
        ast = random_spec(rng)
        assert parse_spec(print_spec(ast)) == ast

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(12, f"group axioms (1000 triples x {len(ALL_GROUPS) + 1} groups), action axioms "
               f"(500 x 6 actions), profile monotonicity, 200 DSL round "
               f"trips ({elapsed:.1f}s)")
