import random
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from endslab.actions import (
    ActionError,
    PairPoint,
    coset_action,
    point_labels,
    translation_action,
)
from endslab.balls import build_ball, pointed_labeled_isomorphic
from endslab.dsl import ActionAst, ElaborationError, SpecAst, elaborate, parse_spec
from endslab.ends import ends_profile, profile_from_ball
from endslab.groups import (
    Cyclic,
    CyclicInt,
    FamilyMismatchError,
    FreeAbelian,
    IntVector,
    Perm,
    SymmetricGroup,
)
from endslab.wreath import (
    WreathElement,
    WreathError,
    WreathGroup,
    head_projection_action,
    imprimitive_action,
    imprimitive_coset_action,
    lamplighter,
)
from endslab.actions import GeneratedSubgroup, TrivialSubgroup

from oracles import (
    check_action_axioms,
    finite_wreath_elements,
    finite_wreath_multiply,
    lamplighter2_ball_sizes,
    trivial_action,
)
from test_dsl import random_typed_spec


def regular_wreath(n, m):
    base, top = Cyclic(n), Cyclic(m)
    ta = translation_action(top)
    w = WreathGroup(base, ta)
    gens = w.standard_gens()
    return w, gens


def to_library(w, n, m, el):
    """Convert an oracle element (tuple of base values, head) to a WreathElement."""
    phi, h = el
    return w.element(((CyclicInt(m, x), CyclicInt(n, v)) for x, v in enumerate(phi) if v != 0),
                     CyclicInt(m, h))


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_multiplication_against_definition_table(n, m):
    w, _ = regular_wreath(n, m)
    elements = finite_wreath_elements(n, m)
    for a, b in product(elements, repeat=2):
        expected = to_library(w, n, m, finite_wreath_multiply(n, m, a, b))
        got = w.multiply(to_library(w, n, m, a), to_library(w, n, m, b))
        assert got == expected, (a, b)


def test_same_site_merge():
    w, _ = regular_wreath(2, 2)
    x0 = w.top_action.basepoint
    d = w.delta(x0, CyclicInt(2, 1))
    assert w.multiply(d, d) == w.identity()  # s^2 = 1 in C(2)


def test_shifted_delta_law():
    # (1, t) * (delta_{x0}^s, 1) = (delta_{t.x0}^s, t)
    w, _ = regular_wreath(2, 2)
    x0 = w.top_action.basepoint
    s = CyclicInt(2, 1)
    t = w.top_element(CyclicInt(2, 1))
    d = w.delta(x0, s)
    prod = w.multiply(t, d)
    moved = w.top_action.act(t.head, x0)
    assert prod == w.element([(moved, s)], t.head)
    assert w.absolute_support(prod) == {(moved, s)}

    lamp, _ = lamplighter(2)
    x0 = lamp.top_action.basepoint
    t = lamp.top_element(IntVector((1,)))
    d = lamp.delta(x0, CyclicInt(2, 1))
    prod = lamp.multiply(t, d)
    assert prod == lamp.element([(IntVector((1,)), CyclicInt(2, 1))], IntVector((1,)))


def test_inverse_examples():
    w, _ = regular_wreath(3, 2)
    t = w.top_element(CyclicInt(2, 1))
    assert w.inverse(t) == w.top_element(CyclicInt(2, 1))
    d = w.delta(w.top_action.basepoint, CyclicInt(3, 1))
    assert w.inverse(d) == w.delta(w.top_action.basepoint, CyclicInt(3, 2))

    lamp, _ = lamplighter(2)
    a = lamp.element([(IntVector((0,)), CyclicInt(2, 1))], IntVector((1,)))
    inv = lamp.inverse(a)
    assert inv == lamp.element([(IntVector((-1,)), CyclicInt(2, 1))], IntVector((-1,)))
    assert lamp.multiply(a, inv) == lamp.identity()


def test_element_reads_back_its_absolute_support():
    lamp, _ = lamplighter(3)
    entries = {(IntVector((2,)), CyclicInt(3, 1)), (IntVector((-1,)), CyclicInt(3, 2))}
    a = lamp.element(entries, IntVector((5,)))
    assert lamp.absolute_support(a) == entries
    assert lamp.element([], IntVector((5,))) == lamp.top_element(IntVector((5,)))
    assert lamp.label(a, {}) == "(-1:2,2:1; 5)"
    for support, head, error in (
            ([(CyclicInt(2, 1), CyclicInt(3, 1))], IntVector((0,)), ActionError),
            ([(IntVector((0,)), CyclicInt(5, 4))], IntVector((0,)), FamilyMismatchError),
            ([(IntVector((0,)), CyclicInt(3, 0))], IntVector((0,)), FamilyMismatchError),
            ([(IntVector((0,)), CyclicInt(3, 1)), (IntVector((0,)), CyclicInt(3, 2))],
             IntVector((0,)), FamilyMismatchError),
            ([], CyclicInt(3, 1), FamilyMismatchError)):
        with pytest.raises(error):
            lamp.element(support, head)
    with pytest.raises(FamilyMismatchError):
        lamp.absolute_support(IntVector((0,)))


def test_a_top_generator_step_shares_its_operands_support():
    w, gens = lamplighter(2)
    d, t = gens.elements[0], gens.elements[1]
    b = w.multiply(d, w.multiply(t, d))
    assert w.multiply(t, b).support is b.support

    # in a Cayley ball build, a top generator step moves no support entry
    # and a delta step moves its one entry
    moves = Counter()

    def counting(h, x):
        moves["top action"] += 1
        return w.top_action.step(h, x)

    counted = WreathGroup(w.base, replace(w.top_action, step=counting))
    law = translation_action(counted).step

    def act(a, p):
        before = moves["top action"]
        q = law(a, p)
        kind = "delta" if a.support else "top"
        moves[kind + " steps"] += 1
        moves[kind + " moves"] += moves["top action"] - before
        return q

    ball = build_ball(replace(translation_action(counted), step=act),
                      counted.standard_gens(), 10)
    assert len(ball) == lamplighter2_ball_sizes(10)[-1]
    assert moves["top moves"] == 0
    assert moves["delta moves"] == moves["delta steps"] > 0


def sample_wreath_element(w, rng, sites):
    el = w.identity()
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.5:
            el = w.multiply(el, w.delta(rng.choice(sites),
                                        CyclicInt(w.base.modulus,
                                                  rng.randrange(1, w.base.modulus))))
        else:
            el = w.multiply(el, w.top_element(
                CyclicInt(w.top.modulus, rng.randrange(w.top.modulus))))
    return el


def test_wreath_group_axioms_random():
    w, _ = regular_wreath(3, 4)
    sites = list(Cyclic(4).elements())
    rng = random.Random(13)
    for _ in range(300):
        a, b, c = (sample_wreath_element(w, rng, sites) for _ in range(3))
        assert w.multiply(w.multiply(a, b), c) == w.multiply(a, w.multiply(b, c))
        assert w.multiply(a, w.inverse(a)) == w.identity()
        assert w.inverse(w.inverse(a)) == a


def test_top_action_is_by_automorphisms():
    # conjugating by (1, h) is h.f, which moves the entry of f at x to h.x,
    # and h.(fg) = (h.f)(h.g) where the base-sum product is pointwise
    w, _ = regular_wreath(3, 4)
    sites = list(Cyclic(4).elements())
    rng = random.Random(17)
    for _ in range(100):
        f = sample_wreath_element(w, rng, sites)
        g = sample_wreath_element(w, rng, sites)
        f = w.element(w.absolute_support(f), w.top.identity())
        g = w.element(w.absolute_support(g), w.top.identity())
        h = CyclicInt(4, rng.randrange(4))
        t = w.top_element(h)

        def shift(a):
            return w.multiply(w.multiply(t, a), w.inverse(t))

        moved = [(w.top_action.act(h, x), v) for x, v in w.absolute_support(f)]
        assert shift(f) == w.element(moved, w.top.identity())
        assert shift(w.multiply(f, g)) == w.multiply(shift(f), shift(g))


def test_standard_gens_lamplighter_shape():
    w, gens = lamplighter(2)
    assert len(gens) == 3
    assert gens.pairing == (0, 2, 1)  # delta self-paired, +-1 swapped
    assert gens.elements[0] == w.delta(IntVector((0,)), CyclicInt(2, 1))


def test_unnamed_wreath_generators_get_wreath_labels():
    from endslab.groups import make_gen_set
    w, _ = lamplighter(2)
    gens = make_gen_set(w, [w.delta(IntVector((0,)), CyclicInt(2, 1))])
    assert gens.names == ("(0:1; 0)",)


def test_standard_gens_pass_gen_set_invariants():
    from endslab.groups import verify_gen_set
    w, gens = lamplighter(3)
    verify_gen_set(w, gens)
    w2, gens2 = regular_wreath(3, 4)
    verify_gen_set(w2, gens2)


def test_singleton_wreath_is_direct_product():
    base, top = Cyclic(2), Cyclic(3)
    w = WreathGroup(base, trivial_action(top))
    gens = w.standard_gens()
    assert len(build_ball(translation_action(w), gens, 100, 100)) == 6  # |C2 x C3|


@pytest.mark.parametrize("n,m,total", [(2, 2, 8), (3, 2, 18)])
def test_finite_wreath_enumeration(n, m, total):
    w, gens = regular_wreath(n, m)
    assert len(build_ball(translation_action(w), gens, 1000, 1000)) == total


def test_imprimitive_edge_rules_verbatim():
    w, gens = regular_wreath(3, 2)
    x0 = w.top_action.basepoint
    action = imprimitive_action(w)
    points = [PairPoint(g, x) for g in Cyclic(3).elements()
              for x in Cyclic(2).elements()]
    for t in (CyclicInt(2, 0), CyclicInt(2, 1)):
        el = w.top_element(t)
        for p in points:
            assert action.act(el, p) == PairPoint(p.leaf,
                                                  w.top_action.act(t, p.pos))
    for s in (CyclicInt(3, 1), CyclicInt(3, 2)):
        el = w.delta(x0, s)
        for p in points:
            got = action.act(el, p)
            if p.pos == x0:
                assert got == PairPoint(w.base.multiply(s, p.leaf), p.pos)
            else:
                assert got == p


def test_imprimitive_transitive_and_axioms():
    w, gens = regular_wreath(3, 2)
    action = imprimitive_action(w)
    ball = build_ball(action, gens, 100, 100)
    assert len(ball) == 6
    rng = random.Random(23)
    sites = list(Cyclic(2).elements())
    elements = [sample_wreath_element(w, rng, sites) for _ in range(6)]
    check_action_axioms(action, elements, ball.points)


def test_delta_and_orbit_reps_must_be_points_of_x():
    w, _ = lamplighter(2)
    for bad in (CyclicInt(2, 1), IntVector((0, 0)), 0):
        with pytest.raises(ActionError, match="is not a point of"):
            w.delta(bad, CyclicInt(2, 1))
        with pytest.raises(ActionError, match="is not a point of"):
            WreathGroup(w.base, replace(w.top_action, basepoint=bad))
    d = w.delta(IntVector((3,)), CyclicInt(2, 1))
    assert w.contains(d)
    # a point of Z/3Z is its canonical representative, so t = 3 fixes 2
    z_mod_3 = coset_action(FreeAbelian(1), GeneratedSubgroup((IntVector((3,)),)))
    w3 = WreathGroup(Cyclic(2), z_mod_3)
    t, d2 = w3.top_element(IntVector((3,))), w3.delta(IntVector((2,)), CyclicInt(2, 1))
    assert w3.multiply(w3.multiply(t, d2), w3.inverse(t)) == d2


def test_imprimitive_coset_action_examples():
    # base Z, K = 3Z, H = C(2) regular: orbit has 6 points
    base, top = FreeAbelian(1), Cyclic(2)
    ta = translation_action(top)
    w = WreathGroup(base, ta)
    gens = w.standard_gens()
    action = imprimitive_coset_action(w, GeneratedSubgroup((IntVector((3,)),)))
    assert len(build_ball(action, gens, 100, 100)) == 6

    # trivial K coincides pointwise with the plain imprimitive action
    triv = imprimitive_coset_action(w, TrivialSubgroup())
    plain = imprimitive_action(w)
    rng = random.Random(3)
    els = list(gens.elements)
    sample = [plain.basepoint]
    for _ in range(20):
        sample.append(plain.act(rng.choice(els), rng.choice(sample)))
    for g in els:
        for p in sample:
            assert triv.act(g, p) == plain.act(g, p)

    # K = full group: the leaf direction collapses to the orbit X'
    full = imprimitive_coset_action(w, GeneratedSubgroup((IntVector((1,)),)))
    assert len(build_ball(full, gens, 100, 100)) == 2


# ---------------------------------------------------------------------------
# the ends of G wr_X H on G x X: the paper's closed form as an oracle


def _fiber_radius(ball, x0):
    """The largest distance from the basepoint to a point of the fiber at x0."""
    return max(ball.dist[v] for v, p in enumerate(ball.points) if p.pos == x0)


def _closed_form_check(action, gens, K, leaves, ends_of_x):
    # only a delta step at x0 changes a leaf, so once the deleted ball holds
    # the fiber {leaves} x {x0}, what is left is one copy of Sch(H, X) minus
    # a finite set per leaf: e = leaves * e(Sch(H, X)) for every inner radius
    # k whose deleted ball B_{k-1} holds the fiber
    ball = build_ball(action, gens, K)
    profile = profile_from_ball(ball, range(1, K // 2 + 1))
    r0 = _fiber_radius(ball, action.basepoint.pos)
    trailing = [e for k, e in zip(profile.k_values, profile.stabilized()) if k > r0]
    assert len(trailing) >= 2, (action, r0)
    assert trailing == [leaves * ends_of_x] * len(trailing), (action, profile.stabilized())
    assert str(profile.verdict) == f"STABLE({leaves * ends_of_x})"


@pytest.mark.parametrize("text,K,leaves,ends_of_x", [
    ("imprimitive(wreath(C(2), Z, translation))", 12, 2, 2),
    ("imprimitive(wreath(C(3), Z, translation))", 12, 3, 2),
    ("imprimitive(wreath(Sym(3), Z, translation))", 14, 6, 2),
    ("imprimitive(wreath(C(2), Z^2, translation))", 10, 2, 1),
    ("imprimitive(wreath(C(2), Z^2, coset([1, 0])))", 12, 2, 2),
    ("imprimitive(wreath(C(4), Z, coset(trivial)))", 12, 4, 2),
    ("imprimitive(wreath(C(4), Z, coset(3)))", 10, 4, 0),
    ("imprimitive(wreath(C(2), Sym(3), regular))", 12, 2, 0),
    ("imprimitive(wreath(C(2), Z, regular), 3)", 12, 2, 2),
])
def test_imprimitive_ends_match_the_closed_form(text, K, leaves, ends_of_x):
    action, gens = elaborate(parse_spec(text))
    _closed_form_check(action, gens, K, leaves, ends_of_x)


@pytest.mark.parametrize("base_text,k_gens,index", [
    ("Sym(3)", (Perm((1, 0, 2)),), 3),
    ("C(4)", (CyclicInt(4, 2),), 2),
    ("Sym(3)", (Perm((1, 2, 0)),), 2),
])
def test_imprimitive_coset_ends_match_the_closed_form(base_text, k_gens, index):
    # with the leaf G replaced by G/K the same argument gives [G:K] * e(Sch(H, X))
    action, gens = elaborate(parse_spec(f"imprimitive(wreath({base_text}, Z, translation))"))
    w = action.group
    coset_leaves = imprimitive_coset_action(w, GeneratedSubgroup(k_gens))
    _closed_form_check(coset_leaves, gens, 12, index, 2)


@pytest.mark.parametrize("text,K,stabilized", [
    # an infinite leaf group or an infinitely ended X: the count grows with k
    ("imprimitive(wreath(Z, Z, translation))", 12, (4, 8, 12, 16, 20, 24)),
    ("imprimitive(wreath(C(2), F(2), translation))", 7, (5, 16, 48)),
])
def test_imprimitive_ends_grow_without_a_closed_form(text, K, stabilized):
    action, gens = elaborate(parse_spec(text))
    profile = ends_profile(action, gens, range(1, K // 2 + 1), K)
    assert profile.stabilized() == stabilized
    assert str(profile.verdict) == "GROWING"


def test_head_projection_action():
    w, gens = lamplighter(2)
    action = head_projection_action(w)
    # delta generators act trivially, top generators translate
    assert action.act(gens.elements[0], IntVector((3,))) == IntVector((3,))
    assert action.act(gens.elements[1], IntVector((3,))) == IntVector((4,))


def test_head_projection_profile_is_the_top_actions_on_typed_draws():
    # the paper's witness for H without FW: delta generators are loops under
    # the head projection, so its ball is that of Sch(H, X) under the top
    # generators with a loop per delta, and its profile is the top action's,
    # entry by entry; a delta that moved x along a top generator would
    # leave the profile alone, so the loops are checked too
    rng = random.Random(12)
    draws = [random_typed_spec(rng) for _ in range(600)]
    checked = 0
    for spec in draws:
        if spec.group is None or spec.group.kind != "wreath":
            continue
        try:
            action, gens = elaborate(
                SpecAst(spec.group, ActionAst("translation"), ()))
        except ElaborationError:  # a generated subgroup of F(n) has no coset law
            continue
        w = action.group
        head = build_ball(head_projection_action(w), gens, 4)
        top = build_ball(w.top_action, w.top.standard_gens(), 4)
        assert profile_from_ball(head, range(3)) == profile_from_ball(top, range(3)), spec
        deltas, ngens = len(gens) - len(top.gens), len(gens)
        assert head.points == top.points
        for u in range(len(head)):
            row = head.table[u * ngens:(u + 1) * ngens]
            assert row[:deltas] == (u,) * deltas, spec
            assert row[deltas:] == top.table[u * len(top.gens):(u + 1) * len(top.gens)]
        checked += 1
    # 243 wreath draws, of which 17 name a generated subgroup of F(n)
    assert checked == 226


def test_lamplighter_constructor():
    with pytest.raises(WreathError):
        lamplighter(1)
    w, gens = lamplighter(2)
    sizes = [len(build_ball(translation_action(w), gens, r)) for r in range(4)]
    # golden values from the lit-lamp-set model
    assert lamplighter2_ball_sizes(3) == [1, 4, 10, 22]
    assert sizes == [1, 4, 10, 22]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_multiply_and_inverse_reject_foreign_operands():
    w, gens = lamplighter(2)
    a = gens.elements[0]
    w3 = lamplighter(3)[0]
    for foreign in (IntVector((0,)), CyclicInt(2, 1), w3.delta(IntVector((0,)), CyclicInt(3, 2))):
        with pytest.raises(FamilyMismatchError):
            w.multiply(a, foreign)
        with pytest.raises(FamilyMismatchError):
            w.multiply(foreign, a)
        with pytest.raises(FamilyMismatchError):
            w.inverse(foreign)
    # a support point outside Z is not a point of the top action
    bad_point = WreathElement(frozenset([(CyclicInt(2, 1), CyclicInt(2, 1))]), IntVector((0,)))
    assert not w.contains(bad_point)
    with pytest.raises(FamilyMismatchError):
        w.multiply(a, bad_point)
    with pytest.raises(FamilyMismatchError):
        w.inverse(bad_point)




# ---------------------------------------------------------------------------
# the wreath law against independent images


def _spec_group(text):
    action, gens = elaborate(parse_spec(text))
    return action.group, gens


def _perm_image(w, gens):
    """Sym(|G||X|) and the generators' permutations of the enumerated G x X
    under the imprimitive step, as a generating set of it."""
    xs = build_ball(w.top_action, w.top.standard_gens(), 100, 100).points
    points = [PairPoint(g, x) for g in w.base.elements() for x in xs]
    index = {p: i for i, p in enumerate(points)}
    step = imprimitive_action(w).step
    sym = SymmetricGroup(len(points))
    return sym, gens.image(lambda a: Perm(tuple(index[step(a, p)] for p in points)))


@pytest.mark.parametrize("text,radius,size,image_size", [
    ("wreath(C(2), C(3), regular)", 100, 24, 24),
    ("wreath(Sym(3), C(2), regular)", 100, 72, 72),
    ("wreath(C(3), C(4), regular)", 100, 324, 324),
    ("wreath(C(2), Sym(3), regular)", 12, 383, 383),
    ("wreath(C(2), C(5), translation)", 100, 160, 160),
    # C(6) acts on its two cosets of <2> and not faithfully: the image is
    # C(2) wr C(2), of order 8
    ("wreath(C(2), C(6), coset(2))", 100, 24, 8),
])
def test_wreath_law_matches_its_permutation_image(text, radius, size, image_size):
    w, gens = _spec_group(text)
    sym, images = _perm_image(w, gens)
    ball = build_ball(translation_action(w), gens, radius, 1000)
    image_ball = build_ball(translation_action(sym), images, radius, 1000)
    assert (len(ball), len(image_ball)) == (size, image_size)
    assert pointed_labeled_isomorphic(ball, image_ball) is (size == image_size)


@pytest.mark.parametrize("b,radius", [(2, 6), (3, 4), (2, 8)])
def test_infinite_wreath_law_folds_onto_a_finite_one(b, radius):
    # for abelian G, folding the support mod n is a homomorphism from
    # G wr Z onto G wr C(n); on radius-R balls it is injective exactly
    # when n >= 2R + 2, and at n = 2R + 1 two ball elements meet
    w, gens = _spec_group(f"wreath(C({b}), Z, translation)")
    ball = build_ball(translation_action(w), gens, radius)
    for n, same in ((2 * radius + 2, True), (2 * radius + 1, False)):
        wn, gens_n = _spec_group(f"wreath(C({b}), C({n}), regular)")
        folded = build_ball(translation_action(wn), gens_n, radius)
        assert len(folded) == len(ball)
        assert pointed_labeled_isomorphic(ball, folded) is same


def test_nested_wreath_points_label_through_the_factors():
    # (C(2) wr Z) wr Z and C(2) wr (C(2) wr Z): the inner elements are leaves
    # of imprimitive points, points of X under the head projection, and
    # heads and support points of the outer elements
    inner, _ = lamplighter(2)
    outer_base = WreathGroup(inner, translation_action(FreeAbelian(1)))
    imprimitive = imprimitive_action(outer_base)
    outer_top = WreathGroup(Cyclic(2), translation_action(inner))
    expected = [
        (imprimitive, outer_base, ["((1; 0), 0)", "((0:1; 0), 0)", "((1; 1), 0)"]),
        (head_projection_action(outer_top), outer_top, ["(1; 0)", "(0:1; 0)", "(1; 1)"]),
        (translation_action(outer_top), outer_top,
         ["(1; (1; 0))", "((1; 0):1; (1; 0))", "(1; (0:1; 0))"]),
    ]
    for action, w, labels in expected:
        ball = build_ball(action, w.standard_gens(), 1)
        assert point_labels(ball.points[:3], w.label) == labels


def test_labels_keep_two_top_actions_apart():
    # the same stored (head, entry) values under Z by translation and Z on
    # Z/3Z: equal elements whose absolute supports, and so labels, differ
    lamp, _ = lamplighter(2)
    z_mod_3 = coset_action(FreeAbelian(1), GeneratedSubgroup((IntVector((3,)),)))
    w3 = WreathGroup(Cyclic(2), z_mod_3)
    head = IntVector((2,))
    a = lamp.element([(IntVector((4,)), CyclicInt(2, 1))], head)
    b = w3.element([(IntVector((1,)), CyclicInt(2, 1))], head)
    assert a.support == b.support == frozenset({(head, 1)}) and a == b
    labels = ["(4:1; 2)", "(1:1; 2)"]
    assert [lamp.label(a, {}), w3.label(b, {})] == labels
    # one labelling call keeps each group's pairs apart
    memo = {}
    assert [lamp.label(a, memo), w3.label(b, memo)] == labels
    # a memo that outlived its call would hand the second call the first label
    assert point_labels([a], lamp.label) + point_labels([b], w3.label) == labels
    assert point_labels([b], w3.label) + point_labels([a], lamp.label) == labels[::-1]
