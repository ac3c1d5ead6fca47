import itertools
import math
import random
from dataclasses import replace

import pytest

import endslab.balls
from endslab.actions import (
    SUPPORTED_SUBGROUPS,
    ActionError,
    CyclicDivisorQuotient,
    DiagonalLatticeQuotient,
    GeneratedSubgroup,
    IntModQuotient,
    PairPoint,
    PointedAction,
    SignQuotient,
    TrivialSubgroup,
    UnknownRuleActionError,
    UnsupportedSubgroupError,
    coset_action,
    hermite_normal_form,
    lattice_law,
    rule_action,
    stabilizer_chain,
    translation_action,
)
from endslab.balls import BallError, BallOverflowError, build_ball
from endslab.groups import (
    Cyclic,
    CyclicInt,
    FamilyMismatchError,
    FreeAbelian,
    FreeGroup,
    GroupError,
    IntVector,
    InvalidParameterError,
    ModVector,
    Perm,
    SymmetricGenSet,
    SymmetricGroup,
    Torus,
    make_gen_set,
    perm_parity,
    point_label,
)
from endslab.wreath import (
    WreathElement,
    WreathGroup,
    imprimitive_action,
    lamplighter,
)

from oracles import (
    check_action_axioms,
    closure,
    components,
    cross_graph,
    determinant,
    inversion_parity,
    preimage_members,
    sym3_left_cosets,
    trivial_action,
)


def _lattice(*rows):
    """The subgroup of Z^k that the integer vectors ``rows`` generate."""
    return GeneratedSubgroup(tuple(map(IntVector, rows)))


def test_translation_examples():
    z = FreeAbelian(1)
    act = translation_action(z)
    assert act.act(IntVector((2,)), IntVector((5,))) == IntVector((7,))

    f2 = FreeGroup(2)
    act = translation_action(f2)
    assert act.act(f2.letter(0), f2.letter(1)) == f2.word((1, 2))

    c4 = Cyclic(4)
    act = translation_action(c4)
    assert act.act(CyclicInt(4, 1), CyclicInt(4, 3)) == CyclicInt(4, 0)


def test_action_axioms_on_samples():
    rng = random.Random(3)
    groups_and_actions = [
        (FreeAbelian(2), translation_action(FreeAbelian(2))),
        (Cyclic(6), translation_action(Cyclic(6))),
        (FreeAbelian(1), coset_action(FreeAbelian(1), _lattice((4,)))),
        (SymmetricGroup(3),
         coset_action(SymmetricGroup(3),
                      GeneratedSubgroup((Perm((1, 0, 2)),)))),
    ]
    for group, action in groups_and_actions:
        gens = group.standard_gens()
        pts = [action.basepoint]
        for _ in range(10):
            pts.append(action.act(rng.choice(gens.elements), rng.choice(pts)))
        check_action_axioms(action, gens.elements, pts)


def test_coset_action_modular_example():
    z = FreeAbelian(1)
    action = coset_action(z, _lattice((4,)))
    three = action.act(IntVector((3,)), action.basepoint)
    assert point_label(three) == "3"
    assert action.act(IntVector((1,)), three) == action.basepoint


def test_trivial_subgroup_matches_translation():
    for group in (FreeGroup(2), FreeAbelian(2), Cyclic(5)):
        gens = group.standard_gens()
        ball_t = build_ball(translation_action(group), gens, 3)
        ball_c = build_ball(coset_action(group, TrivialSubgroup()), gens, 3)
        assert len(ball_t) == len(ball_c)
        assert ball_t.dist == ball_c.dist
        assert ball_c.points == ball_t.points


def test_sym3_coset_action_against_enumeration():
    sym3 = SymmetricGroup(3)
    subgroup = GeneratedSubgroup((Perm((1, 0, 2)),))
    action = coset_action(sym3, subgroup)
    ball = build_ball(action, sym3.standard_gens(), 100, 100)
    # oracle: raw coset enumeration gives 3 left cosets
    assert len(sym3_left_cosets([(0, 1, 2), (1, 0, 2)])) == 3
    assert len(ball) == 3


def test_lattice_cosets_count_matches_determinant():
    z2 = FreeAbelian(2)
    for basis, expected in ((((2, 0), (0, 2)), 4), (((1, 1), (1, -1)), 2),
                            (((3, 1), (0, 1)), 3)):
        action = coset_action(z2, _lattice(*basis))
        ball = build_ball(action, z2.standard_gens(), 100, 100)
        assert len(ball) == expected, basis


def test_lattice_reduction_is_canonical():
    rng = random.Random(11)
    basis = ((4, 2), (2, 6))
    reduce = lattice_law(hermite_normal_form(basis, 2))
    for _ in range(200):
        v = (rng.randrange(-20, 21), rng.randrange(-20, 21))
        r = reduce(v)
        # r differs from v by a lattice element and is idempotent
        assert reduce(r) == r
        diff = (v[0] - r[0], v[1] - r[1])
        assert reduce(diff) == (0, 0)
        a, b = rng.choice(basis)
        assert reduce((v[0] + a, v[1] + b)) == r


def test_hermite_normal_form_skips_a_zero_column():
    hnf = hermite_normal_form(((0, 5),), 2)
    assert hnf == ((0, 5),)
    assert lattice_law(hnf)((3, 7)) == (3, 2)
    assert hermite_normal_form(((1, 0, 0), (0, 0, 2)), 3) == ((1, 0, 0), (0, 0, 2))


def test_rank_deficient_lattice():
    z2 = FreeAbelian(2)
    action = coset_action(z2, _lattice((2, 0)))
    with pytest.raises(BallOverflowError):  # quotient Z/2 x Z is infinite
        build_ball(action, z2.standard_gens(), 50, 50)


def test_unsupported_subgroup_errors_name_cases():
    with pytest.raises(UnsupportedSubgroupError) as err:
        coset_action(FreeGroup(2), GeneratedSubgroup((FreeGroup(2).letter(0),)))
    assert str(err.value) == ("GeneratedSubgroup requires Z^k or a finite group; "
                              f"supported cases: {SUPPORTED_SUBGROUPS}")
    # Z^k is supported: 2Z has two cosets
    action = coset_action(FreeAbelian(1), GeneratedSubgroup((IntVector((2,)),)))
    assert len(build_ball(action, FreeAbelian(1).standard_gens(), 5)) == 2
    with pytest.raises(UnsupportedSubgroupError):
        coset_action(Cyclic(4), object())


def test_rule_action_unknown_name():
    with pytest.raises(UnknownRuleActionError):
        rule_action("zzz")


def test_rule_action_fixture_axioms():
    action = rule_action("f2_four_ends")
    rng = random.Random(5)
    f2 = FreeGroup(2)
    elements = [f2.letter(0), f2.letter(0, -1), f2.letter(1), f2.letter(1, -1),
                f2.word((1, 2)), f2.word((-2, 1, 1))]
    pts = [action.basepoint]
    for _ in range(12):
        pts.append(action.act(rng.choice(elements), rng.choice(pts)))
    check_action_axioms(action, elements, pts)


def test_rule_action_fixture_four_components():
    action = rule_action("f2_four_ends")
    gens = FreeGroup(2).standard_gens()
    ball = build_ball(action, gens, 6)
    inner = {v for v in range(len(ball)) if ball.dist[v] <= 1}
    from endslab.balls import delete_and_split
    cut = delete_and_split(ball, inner)
    touching = [c for c, t in zip(cut.components, cut.touching) if t]
    assert len(touching) == 4
    # oracle: the explicit cross graph gives the same count
    adj, dist = cross_graph(6)
    comps = components(adj, lambda v: 2 <= dist[v] <= 6)
    assert len(comps) == 4


def test_orbit_budgets():
    # radius = budget = B holds an orbit of at most B points, or overflows
    # at its (B+1)-th point
    c4 = Cyclic(4)
    assert len(build_ball(translation_action(c4), c4.standard_gens(), 4, 4)) == 4

    z = FreeAbelian(1)
    assert len(build_ball(translation_action(z), z.standard_gens(), 4, 10)) == 9
    with pytest.raises(BallOverflowError) as err:
        build_ball(translation_action(z), z.standard_gens(), 10, 10)
    assert err.value.reached_radius == 4


def test_subgroup_closure_of_sign_kernel_is_a7():
    sym7 = SymmetricGroup(7)
    kernel_gens = SignQuotient(7).kernel_gens()
    members = closure(kernel_gens, sym7._mul, sym7.identity())
    even = [g for g in sym7.elements() if perm_parity(g) == 0]
    assert len(members) == 2520
    assert members == set(even)
    # the chain's orbit lengths multiply to |A7| = 7 * 6 * 5 * 4 * 3
    chain = stabilizer_chain(sym7, kernel_gens)
    assert [len(t) for t in chain] == [7, 6, 5, 4, 3]
    assert math.prod(map(len, chain)) == 2520


def test_orbit_is_generator_order_independent():
    sym3 = SymmetricGroup(3)
    gens = sym3.standard_gens()
    action = coset_action(sym3, GeneratedSubgroup((Perm((1, 0, 2)),)))
    base = set(build_ball(action, gens, 100, 100).points)
    rng = random.Random(1)
    for _ in range(5):
        order = list(range(len(gens)))
        rng.shuffle(order)
        from endslab.groups import SymmetricGenSet
        shuffled = SymmetricGenSet(
            tuple(gens.elements[i] for i in order),
            tuple(order.index(gens.pairing[i]) for i in order),
            tuple(gens.names[i] for i in order))
        assert set(build_ball(action, shuffled, 100, 100).points) == base


def test_trivial_action_single_point():
    c3 = Cyclic(3)
    action = trivial_action(c3)
    assert len(build_ball(action, c3.standard_gens(), 10, 10)) == 1


def _k_spec(gens):
    gens = tuple(gens)
    return GeneratedSubgroup(gens) if gens else TrivialSubgroup()


def _members(group, spec):
    """The elements of the subgroup: those in the basepoint's coset."""
    action = coset_action(group, spec)
    base = action.basepoint
    return [g for g in group.elements() if action.act(g, base) == base]


def test_preimage_matches_enumeration_oracle():
    # finite sources: pi^-1(K) enumerated straight from the map
    for n, d in ((6, 3), (12, 4), (8, 8), (6, 1), (30, 6)):
        q = CyclicDivisorQuotient(n, d)
        for k in ((), (d // 2,), (2 % d, 3 % d)):
            spec = q.preimage(Cyclic(n), _k_spec(CyclicInt(d, v) for v in k))
            got = set(_members(Cyclic(n), spec))
            assert got == preimage_members(range(n), lambda v: v % d, k,
                                           lambda a, b: (a + b) % d, 0), (n, d, k)
    for n in range(1, 6):
        q = SignQuotient(n)
        perms = list(itertools.permutations(range(n)))
        for k in ((), (1,), (0,), (0, 1)):
            spec = q.preimage(SymmetricGroup(n), _k_spec(CyclicInt(2, v) for v in k))
            got = set(_members(SymmetricGroup(n), spec))
            assert got == preimage_members(perms, inversion_parity, k,
                                           lambda a, b: (a + b) % 2, 0), (n, k)
    # Z^k sources: the lattice maps into <K> and has index |Q| / |<K>|
    for moduli, ks in (((1,), ((), ((0,),))),
                       ((4,), ((), ((2,),), ((1,), (2,)))),
                       ((320,), ((), ((64,),), ((40,), (48,)))),
                       ((2, 2), ((), ((1, 1),), ((1, 0), (0, 1)))),
                       ((4, 6), ((), ((2, 3),), ((1, 0), (0, 4)))),
                       ((3, 3, 2), ((), ((1, 1, 1),), ((0, 1, 0), (1, 0, 1))))):
        rank = len(moduli)
        q = IntModQuotient(moduli[0]) if rank == 1 else DiagonalLatticeQuotient(moduli)
        for k in ks:
            k_gens = (CyclicInt(moduli[0], v[0]) if rank == 1 else ModVector(moduli, v)
                      for v in k)
            spec = q.preimage(FreeAbelian(rank), _k_spec(k_gens))
            hnf = hermite_normal_form(spec.gens, rank)
            k_members = closure(k, lambda a, b: tuple(
                (x + y) % m for x, y, m in zip(a, b, moduli)), (0,) * rank)
            assert len(hnf) == rank, (moduli, k)
            assert abs(determinant(hnf)) == math.prod(moduli) // len(k_members), (moduli, k)
            for row in hnf:
                assert tuple(c % m for c, m in zip(row, moduli)) in k_members


def test_public_act_rejects_foreign_operands():
    z = FreeAbelian(1)
    translation = translation_action(z)
    with pytest.raises(FamilyMismatchError):
        translation.act(FreeGroup(1).letter(0), IntVector((0,)))
    # a foreign element is a mismatch, a foreign point is not a point
    with pytest.raises(ActionError):
        translation.act(IntVector((1,)), IntVector((0, 0)))

    coset = coset_action(SymmetricGroup(3), GeneratedSubgroup((Perm((1, 0, 2)),)))
    with pytest.raises(FamilyMismatchError):
        coset.act(Perm((1, 0)), coset.basepoint)
    with pytest.raises(ActionError):
        coset.act(Perm((1, 0, 2)), Perm((1, 0)))
    with pytest.raises(ActionError):
        coset.act(Perm((1, 0, 2)), Perm((1, 0, 2)))

    w, gens = lamplighter(2)
    imprimitive = imprimitive_action(w)
    for foreign in (IntVector((1,)), FreeGroup(2).letter(0)):
        with pytest.raises(FamilyMismatchError):
            imprimitive.act(foreign, imprimitive.basepoint)
    # a wreath element with a value outside the base group
    other, _ = lamplighter(3)
    with pytest.raises(FamilyMismatchError):
        imprimitive.act(other.delta(other.top_action.basepoint, CyclicInt(3, 2)),
                        imprimitive.basepoint)
    # the leaf is checked even where no support entry lands on the position
    away = IntVector((5,))
    for g in (gens.elements[0], w.identity()):
        with pytest.raises(ActionError):
            imprimitive.act(g, PairPoint(CyclicInt(3, 2), away))
        with pytest.raises(ActionError):
            imprimitive.act(g, PairPoint(CyclicInt(2, 1), CyclicInt(2, 1)))
    assert imprimitive.act(gens.elements[0], PairPoint(CyclicInt(2, 1), away)) == \
        PairPoint(CyclicInt(2, 1), away)


def test_trivial_action_act_checks_element_and_point():
    action = trivial_action(Cyclic(3))
    with pytest.raises(FamilyMismatchError):
        action.act(IntVector((1,)), action.basepoint)
    for other in (1, (0,), CyclicInt(3, 2), "0"):
        with pytest.raises(ActionError):
            action.act(CyclicInt(3, 1), other)
    assert action.act(CyclicInt(3, 1), action.basepoint) == action.basepoint


def test_build_ball_refuses_a_foreign_basepoint_before_any_step():
    translation = translation_action(FreeAbelian(1))
    calls = []

    def counting_step(g, p):
        calls.append(1)
        return translation.step(g, p)

    action = PointedAction(translation.group, counting_step, translation.basepoint,
                           is_point=translation.is_point)
    gens = translation.group.standard_gens()
    # membership is a shape check, so (0,) is the identity of Z itself
    for start in (IntVector((0, 0)), FreeGroup(1).letter(0), (True,), [0]):
        with pytest.raises(ActionError, match="is not a point of"):
            build_ball(replace(action, basepoint=start), gens, 10)
    assert calls == []
    assert len(build_ball(action, gens, 10)) == 21
    assert len(calls) > 0


def test_rule_action_act_checks_word_and_point():
    action = rule_action("f2_four_ends")
    # a word with the letter c is not a word of F(2)
    with pytest.raises(FamilyMismatchError):
        action.act(FreeGroup(3).letter(2), (0, 0))
    with pytest.raises(FamilyMismatchError):
        action.act(IntVector((1,)), (0, 0))
    for off_graph in ((7, 3), (1, 0), (0, -2), (2,), "core", [0, 0]):
        with pytest.raises(ActionError):
            action.act(FreeGroup(2).letter(0), off_graph)
    # equal data is one point: the identity of Z^2 is the core
    assert action.act(FreeGroup(2).letter(0), FreeAbelian(2).identity()) == (1, 1)
    assert action.act(FreeGroup(2).letter(0), (0, 0)) == (1, 1)
    assert action.step(FreeGroup(2).letter(0), (0, 0)) == (1, 1)


@pytest.mark.parametrize("group", [SymmetricGroup(n) for n in range(1, 8)]
                         + [Cyclic(1), Cyclic(6), Cyclic(12), Torus((2, 3)), Torus((4, 4))],
                         ids=str)
def test_min_product_matches_checked_min(group):
    # 30 seeded subgroups per group, 210 of Sym(1..7) in all: the coset law
    # and the action's act give the least g*h over the oracle's closure
    rng = random.Random(str(group))
    elements = sorted(group.elements())
    for _ in range(30):
        gens = rng.sample(elements, min(len(elements), rng.randrange(3)))
        subgroup = GeneratedSubgroup(tuple(gens))
        action = coset_action(group, subgroup)
        law = subgroup.coset_law(group)
        members = closure(gens, group._mul, group.identity())
        if isinstance(group, SymmetricGroup):
            assert math.prod(map(len, stabilizer_chain(group, gens))) == len(members)
        for g in rng.sample(elements, min(len(elements), 10)):
            want = min(group.multiply(g, h) for h in members)
            assert law(g) == want
            assert action.act(g, action.basepoint) == want


def test_coset_laws_never_build_a_ball(monkeypatch):
    # a coset law reads the generators alone; it never walks the subgroup
    def refuse(*args, **kwargs):
        raise AssertionError("a coset law built a ball")

    monkeypatch.setattr(endslab.balls, "build_ball", refuse)
    sym9 = SymmetricGroup(9)
    cycle = Perm((*range(1, 9), 0))
    for group, gens, g, least in ((sym9, (sym9.transposition(0, 1), cycle), cycle,
                                   sym9.identity()),
                                  (Cyclic(12), (8, 6), 7, 1),
                                  (Torus((4, 6)), ((2, 3), (0, 4)), (3, 5), (1, 0))):
        assert GeneratedSubgroup(gens).coset_law(group)(g) == least


# One raiser per kind of bad operand: every entry point refuses a foreign
# element (a wreath support with two values at one point, and a lattice
# generator of the wrong length, too) with FamilyMismatchError, a non-point
# (a coset's non-canonical representative too) with ActionError, a bad
# family parameter or element value with InvalidParameterError, a broken
# generating set with GroupError, a Hermite normal form row of the wrong
# length, even a zero one, and a quotient's K spec without generators with
# UnsupportedSubgroupError, and a bad ball radius with its module's error,
# each in one wording.
_C4, _ONE = Cyclic(4), CyclicInt(4, 1)
_C4_ACTION = translation_action(_C4)
_LAMP, _ = lamplighter(2)
_X = _LAMP.top_action
_FOREIGN = Perm((1, 0))
_NON_POINT = CyclicInt(5, 4)  # no residue mod 4, and no point of Z
# 5 + 3Z is a coset of Z/3Z, whose canonical representative is 2
_Z_MOD_3 = coset_action(FreeAbelian(1), _lattice((3,)))
_FIVE = IntVector((5,))
_W_MOD_3 = WreathGroup(Cyclic(2), _Z_MOD_3)
_NOT_CANONICAL = (ActionError, "(5,) is not a point of Z on cosets")
_LAMP3, _ = lamplighter(3)
_ZERO = IntVector((0,))
_NO_GENS = object()
_TWO_VALUED = WreathElement(frozenset({(_ZERO, CyclicInt(3, 1)), (_ZERO, CyclicInt(3, 2))}),
                            _ZERO)


def _foreign(group):
    return FamilyMismatchError, f"{_FOREIGN!r} is not an element of {group}"


def _non_point(action):
    return ActionError, f"{_NON_POINT!r} is not a point of {action}"


BAD_OPERANDS = {
    "multiply": (lambda: _C4.multiply(_ONE, _FOREIGN), *_foreign(_C4)),
    "inverse": (lambda: _C4.inverse(_FOREIGN), *_foreign(_C4)),
    "make_gen_set": (lambda: make_gen_set(_C4, [_ONE, _FOREIGN]), *_foreign(_C4)),
    "make_gen_set short names": (
        lambda: make_gen_set(FreeAbelian(2), [(1, 0), (0, 1)], names=["a"]), GroupError,
        "items and names must have equal length, got 2 and 1"),
    "make_gen_set long names": (lambda: make_gen_set(_C4, [_ONE], names=["a", "b"]),
                                GroupError,
                                "items and names must have equal length, got 1 and 2"),
    "generated subgroup": (lambda: coset_action(_C4, GeneratedSubgroup((_ONE, _FOREIGN))),
                           *_foreign(_C4)),
    "preimage": (lambda: IntModQuotient(4).preimage(FreeAbelian(1),
                                                    GeneratedSubgroup((_FOREIGN,))),
                 *_foreign(_C4)),
    "K spec without generators": (
        lambda: IntModQuotient(4).preimage(FreeAbelian(1), _NO_GENS),
        UnsupportedSubgroupError,
        f"unsupported K spec {_NO_GENS!r} for quotient {IntModQuotient(4)!r}"),
    "lattice generator": (
        lambda: coset_action(FreeAbelian(2), _lattice((0, 0, 0))), FamilyMismatchError,
        "(0, 0, 0) is not an element of Z^2"),
    "delta value": (lambda: _LAMP.delta(IntVector((0,)), _FOREIGN), *_foreign(_LAMP.base)),
    "top_element": (lambda: _LAMP.top_element(_FOREIGN), *_foreign(_LAMP.top)),
    "act element": (lambda: _C4_ACTION.act(_FOREIGN, _C4_ACTION.basepoint), *_foreign(_C4)),
    "build_ball": (lambda: build_ball(_C4_ACTION, SymmetricGenSet((_FOREIGN,), (0,), ("x",)), 1),
                   *_foreign(_C4)),
    "ball basepoint": (lambda: build_ball(replace(_C4_ACTION, basepoint=_NON_POINT),
                                          _C4.standard_gens(), 1), *_non_point(_C4_ACTION)),
    "delta point": (lambda: _LAMP.delta(_NON_POINT, CyclicInt(2, 1)), *_non_point(_X)),
    "wreath rep": (lambda: WreathGroup(_LAMP.base, replace(_X, basepoint=_NON_POINT)),
                   *_non_point(_X)),
    "act point": (lambda: _C4_ACTION.act(_ONE, _NON_POINT), *_non_point(_C4_ACTION)),
    "two-valued support": (lambda: _LAMP3.multiply(_TWO_VALUED, _LAMP3.identity()),
                           FamilyMismatchError,
                           f"{_TWO_VALUED!r} is not an element of C(3) wr Z"),
    "zero basis vector length": (
        lambda: hermite_normal_form([(0, 0, 0)], 2),
        UnsupportedSubgroupError, "basis vector (0, 0, 0) has length 3, expected 2"),
    "coset ball basepoint": (lambda: build_ball(replace(_Z_MOD_3, basepoint=_FIVE),
                                                FreeAbelian(1).standard_gens(), 1),
                             *_NOT_CANONICAL),
    "coset wreath rep": (lambda: WreathGroup(Cyclic(2), replace(_Z_MOD_3, basepoint=_FIVE)),
                         *_NOT_CANONICAL),
    "coset delta point": (lambda: _W_MOD_3.delta(_FIVE, CyclicInt(2, 1)), *_NOT_CANONICAL),
    "coset act point": (lambda: _Z_MOD_3.act(IntVector((1,)), _FIVE), *_NOT_CANONICAL),
    "ball radius": (lambda: build_ball(_C4_ACTION, _C4.standard_gens(), -1), BallError,
                    "radius must be >= 0, got -1"),
    "F(0)": (lambda: FreeGroup(0), InvalidParameterError,
             "free group rank must lie in 1..26, got 0"),
    "Z^0": (lambda: FreeAbelian(0), InvalidParameterError,
            "integer vector needs at least one coordinate"),
    "C(0)": (lambda: Cyclic(0), InvalidParameterError, "cyclic modulus must be >= 1, got 0"),
    "Sym(0)": (lambda: SymmetricGroup(0), InvalidParameterError,
               "permutation degree must be >= 1"),
    "T(2,0)": (lambda: Torus((2, 0)), InvalidParameterError,
               "torus modulus must be >= 1, got 0"),
    "T()": (lambda: Torus(()), InvalidParameterError, "torus needs at least one factor"),
    "word letter": (lambda: FreeGroup(2).word((3,)), InvalidParameterError,
                    "letter 3 out of range for rank 2"),
    "torus length": (lambda: ModVector((2, 3), (1,)), InvalidParameterError,
                     "moduli/coords length mismatch"),
    "vector coordinate": (lambda: IntVector((1, "a")), InvalidParameterError,
                          "coordinate 'a' of (1, 'a') is not an int"),
    "torus coordinate": (lambda: ModVector((2,), (2,)), InvalidParameterError,
                         "coordinate 2 not in [0, 2)"),
    "gen set lengths": (lambda: SymmetricGenSet((_ONE,), (0,), ()), GroupError,
                        "generator list, pairing and names must have equal length"),
    "gen set pairing": (lambda: SymmetricGenSet((_ONE, _ONE), (0, 0), ("a", "b")), GroupError,
                        "pairing (0, 0) is not a permutation"),
}


@pytest.mark.parametrize("call, error, message", BAD_OPERANDS.values(),
                         ids=list(BAD_OPERANDS))
def test_each_bad_operand_has_one_error(call, error, message):
    # a family's parameter is checked by its identity's element constructor
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
