import copy
import itertools
import pickle
import random
import string

import pytest

from endslab.actions import (
    IntModQuotient,
    PairPoint,
    TrivialSubgroup,
    rule_action,
    translation_action,
)
from endslab.balls import build_ball
from endslab.dsl import elaborate, parse_spec
from endslab.ends import quotient_schreier_pair
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
    nonidentity_gens,
    perm_parity,
    point_label,
    signed_letters,
    verify_gen_set,
)
from endslab.wreath import WreathElement, lamplighter

ALL_GROUPS = [FreeGroup(2), FreeAbelian(2), Cyclic(5), SymmetricGroup(4),
              Torus((2, 3)),
              # degenerate parameters
              FreeGroup(1), FreeAbelian(1), Cyclic(1), SymmetricGroup(1),
              Torus((1, 4))]


def sample_element(group, rng):
    if isinstance(group, FreeGroup):
        w = group.identity()
        for _ in range(rng.randrange(6)):
            w = group.multiply(w, group.letter(rng.randrange(group.rank),
                                               rng.choice((1, -1))))
        return w
    if isinstance(group, FreeAbelian):
        return IntVector(tuple(rng.randrange(-5, 6) for _ in range(group.rank)))
    if isinstance(group, Cyclic):
        return CyclicInt(group.modulus, rng.randrange(group.modulus))
    if isinstance(group, SymmetricGroup):
        img = list(range(group.degree))
        rng.shuffle(img)
        return Perm(tuple(img))
    if isinstance(group, Torus):
        return ModVector(group.moduli,
                         tuple(rng.randrange(m) for m in group.moduli))
    raise AssertionError(group)


def test_free_reduction():
    # "x y^-1" times "y x" reduces to "x x"
    f2 = FreeGroup(2)
    a = f2.word((1, -2))
    b = f2.word((2, 1))
    assert f2.multiply(a, b) == f2.word((1, 1))
    assert point_label(f2.multiply(a, b)) == "aa"


def test_free_inverse_reverses_and_negates():
    f2 = FreeGroup(2)
    w = f2.word((1, 2))
    assert f2.inverse(w) == f2.word((-2, -1))
    assert f2.multiply(w, f2.inverse(w)) == f2.word(())


def test_cyclic_and_vector_examples():
    assert Cyclic(4).multiply(CyclicInt(4, 3), CyclicInt(4, 2)) == CyclicInt(4, 1)
    assert FreeAbelian(2).multiply(IntVector((1, 2)), IntVector((3, -2))) == \
        IntVector((4, 0))


def test_perm_inverse():
    s3 = SymmetricGroup(3)
    cycle = Perm((1, 2, 0))
    assert s3.inverse(cycle) == Perm((2, 0, 1))
    assert s3.multiply(cycle, s3.inverse(cycle)) == Perm((0, 1, 2))


def test_identity_elements():
    assert FreeGroup(2).identity() == b""
    assert FreeAbelian(2).identity() == IntVector((0, 0))
    assert Cyclic(5).identity() == CyclicInt(5, 0)
    assert Cyclic(5).inverse(Cyclic(5).identity()) == Cyclic(5).identity()


def test_family_mismatch_errors():
    with pytest.raises(FamilyMismatchError):
        Cyclic(4).multiply(CyclicInt(4, 1), CyclicInt(5, 4))  # no residue mod 4
    with pytest.raises(FamilyMismatchError):
        FreeGroup(2).multiply(b"", IntVector((0,)))
    with pytest.raises(FamilyMismatchError):
        FreeGroup(2).multiply(b"\x04", b"")  # the letter c has no code in F(2)


def test_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        Cyclic(0)
    with pytest.raises(InvalidParameterError):
        CyclicInt(4, 4)
    with pytest.raises(InvalidParameterError):
        Perm((0, 0, 1))
    with pytest.raises(InvalidParameterError):
        FreeGroup(2).word((1, -1))  # not reduced


def test_free_rank_stays_within_the_alphabet():
    # one letter per generator, so every word of every legal rank has a label
    for make in (lambda: FreeGroup(27), lambda: FreeGroup(0)):
        with pytest.raises(InvalidParameterError, match=r"rank must lie in 1\.\.26"):
            make()
    f26 = FreeGroup(26)
    assert f26.standard_gens().names[-2:] == ("z", "z^-1")
    assert point_label(f26.letter(25)) == "z"
    assert point_label(f26.letter(25, -1)) == "Z"


def test_degenerate_groups_are_legal():
    assert Cyclic(1).order() == 1
    assert len(Cyclic(1).standard_gens()) == 1
    assert SymmetricGroup(1).order() == 1
    assert len(SymmetricGroup(1).standard_gens()) == 0


def test_standard_gens_examples():
    z = FreeAbelian(1).standard_gens()
    assert z.elements == (IntVector((1,)), IntVector((-1,)))
    assert z.names == ("+1", "-1")
    f2 = FreeGroup(2).standard_gens()
    assert len(f2) == 4
    assert f2.names == ("a", "a^-1", "b", "b^-1")
    custom = make_gen_set(FreeAbelian(1), [IntVector((2,)), IntVector((3,))])
    assert custom.elements == (IntVector((2,)), IntVector((-2,)),
                               IntVector((3,)), IntVector((-3,)))


def _quotient_gens(n):
    # the generating set of the quotient ball: the image of Z's under Z -> C(n)
    z = FreeAbelian(1)
    pair = quotient_schreier_pair(z, IntModQuotient(n), TrivialSubgroup(),
                                  z.standard_gens(), 2)
    return pair.quotient_ball.gens


_LAMP2 = lamplighter(2)[0]
_C1_WR_C1 = elaborate(parse_spec("wreath(C(1), C(1), regular)"))[0].group


def _wreath(w, head, *support):
    return w.element(support, head)


# generating set, then its elements, pairing and names
PINNED_GEN_SETS = [
    ("C(1)", lambda: Cyclic(1).standard_gens(),
     (CyclicInt(1, 0),), (0,), ("+1",)),
    ("C(2)", lambda: Cyclic(2).standard_gens(),
     (CyclicInt(2, 1),), (0,), ("+1",)),
    ("C(5)", lambda: Cyclic(5).standard_gens(),
     (CyclicInt(5, 1), CyclicInt(5, 4)), (1, 0), ("+1", "-1")),
    ("Z^2", lambda: FreeAbelian(2).standard_gens(),
     (IntVector((1, 0)), IntVector((-1, 0)), IntVector((0, 1)), IntVector((0, -1))),
     (1, 0, 3, 2), ("+e1", "-e1", "+e2", "-e2")),
    ("Sym(1)", lambda: SymmetricGroup(1).standard_gens(), (), (), ()),
    ("Sym(4)", lambda: SymmetricGroup(4).standard_gens(),
     (Perm((1, 0, 2, 3)), Perm((0, 2, 1, 3)), Perm((0, 1, 3, 2))),
     (0, 1, 2), ("(0 1)", "(1 2)", "(2 3)")),
    ("T(1,4)", lambda: Torus((1, 4)).standard_gens(),
     (ModVector((1, 4), (0, 0)), ModVector((1, 4), (0, 1)), ModVector((1, 4), (0, 3))),
     (0, 2, 1), ("+e1", "+e2", "-e2")),
    ("lamplighter(2)", lambda: lamplighter(2)[1],
     (_wreath(_LAMP2, IntVector((0,)), (IntVector((0,)), CyclicInt(2, 1))),
      _wreath(_LAMP2, IntVector((1,))), _wreath(_LAMP2, IntVector((-1,)))),
     (0, 2, 1), ("d(0:+1)", "h(+1)", "h(-1)")),
    # both images are identities: delta of the identity and the top identity
    ("wreath(C(1), C(1), regular)",
     lambda: elaborate(parse_spec("wreath(C(1), C(1), regular)"))[1],
     (_wreath(_C1_WR_C1, CyclicInt(1, 0)), _wreath(_C1_WR_C1, CyclicInt(1, 0))),
     (0, 1), ("d(0:+1)", "h(+1)")),
    ("Z -> C(2)", lambda: _quotient_gens(2),
     (CyclicInt(2, 1), CyclicInt(2, 1)), (1, 0), ("+1", "-1")),
    ("Z -> C(1)", lambda: _quotient_gens(1),
     (CyclicInt(1, 0), CyclicInt(1, 0)), (1, 0), ("+1", "-1")),
]


@pytest.mark.parametrize("make, elements, pairing, names", [
    case[1:] for case in PINNED_GEN_SETS], ids=[case[0] for case in PINNED_GEN_SETS])
def test_generating_sets_are_pinned(make, elements, pairing, names):
    gens = make()
    assert (gens.elements, gens.pairing, gens.names) == (elements, pairing, names)


def test_gen_set_invariants_for_every_family():
    for group in ALL_GROUPS + [Cyclic(1), Cyclic(2), Cyclic(3),
                               SymmetricGroup(1), FreeAbelian(1)]:
        gens = group.standard_gens()
        verify_gen_set(group, gens)
        p = gens.pairing
        assert all(p[p[i]] == i for i in range(len(gens)))


def test_gen_set_rejects_broken_pairing():
    with pytest.raises(GroupError):
        # not an involution
        SymmetricGenSet((CyclicInt(3, 1), CyclicInt(3, 2), CyclicInt(3, 0)),
                        (1, 2, 0), ("a", "b", "c"))
    with pytest.raises(GroupError):
        # involution, but pairs elements that are not mutual inverses
        verify_gen_set(Cyclic(3), SymmetricGenSet(
            (CyclicInt(3, 1), CyclicInt(3, 1)), (1, 0), ("a", "b")))


def test_identity_generator_needs_flag():
    # an identity item is always legal: one self-paired loop
    gens = make_gen_set(Cyclic(4), [CyclicInt(4, 0)])
    assert (gens.elements, gens.pairing) == ((CyclicInt(4, 0),), (0,))


def test_duplicate_items_keep_separate_pairs():
    gens = make_gen_set(FreeAbelian(1), [IntVector((1,)), IntVector((-1,))])
    assert len(gens) == 4  # two pairs, not deduplicated


@pytest.mark.parametrize("group", ALL_GROUPS, ids=str)
def test_group_axioms_random(group):
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (sample_element(group, rng) for _ in range(3))
        assert group.multiply(group.multiply(a, b), c) == \
            group.multiply(a, group.multiply(b, c))
        assert group.multiply(a, group.inverse(a)) == group.identity()
        assert group.inverse(group.inverse(a)) == a
        assert group.multiply(group.identity(), a) == a


def rebuild(group, value):
    """``value`` rebuilt through its family's checked constructor: a word
    of a free group from its signed letters, any other value from its
    data."""
    if isinstance(group, FreeGroup):
        return group.word(signed_letters(value))
    if isinstance(group, FreeAbelian):
        return IntVector(value)
    if isinstance(group, Cyclic):
        return CyclicInt(group.modulus, value)
    if isinstance(group, SymmetricGroup):
        return Perm(value)
    return ModVector(group.moduli, value)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=str)
def test_canonical_form_stability(group):
    rng = random.Random(7)
    for _ in range(50):
        a = sample_element(group, rng)
        b = sample_element(group, rng)
        # results are built without their checks: rebuilding each through
        # its checked constructor re-validates it and must give the same value
        for value in (group.multiply(a, b), group.inverse(a)):
            assert rebuild(group, value) == value


@pytest.mark.parametrize("group", ALL_GROUPS, ids=str)
def test_hash_agrees_with_equality(group):
    rng = random.Random(11)
    ident = group.identity()
    for _ in range(50):
        a = sample_element(group, rng)
        # multiply/inverse build their results with the trusted constructors
        rebuilt = rebuild(group, a)
        for value in (rebuilt, group.multiply(a, ident), group.multiply(ident, a),
                      group.inverse(group.inverse(a))):
            assert value == a and hash(value) == hash(a)


def _fold(p):
    """``p`` with every -2 coordinate of its Z^k points mapped to -1, in the
    head and the support points of a wreath element."""
    if type(p) is tuple:
        return tuple([-1 if x == -2 else x for x in p])
    if isinstance(p, WreathElement):
        return frozenset((_fold(y), v) for y, v in p.support), _fold(p.head)
    return p


# (distinct hashes, points) of each ball
HASH_CLASSES = {
    "F(2)": (13121, 13121), "F(3)": (4687, 4687), "Z^2": (1748, 1861),
    "Z^3": (1164, 1561), "Z": (100, 101), "wreath(C(2), Z, translation)": (401, 490),
    "wreath(C(2), Z^2, translation)": (434, 610), "Z^2 / [5, 0]": (188, 193),
}


@pytest.mark.parametrize("text, radius", [
    ("F(2)", 8), ("F(3)", 5), ("Z^2", 30), ("Z^3", 10), ("Z", 50),
    ("wreath(C(2), Z, translation)", 8), ("wreath(C(2), Z^2, translation)", 5),
    ("Z^2 / [5, 0]", 20),
])
def test_ball_points_have_distinct_hashes(text, radius):
    # words never share a hash.  A Z^k element is its int tuple, which
    # inherits CPython's hash(-1) == hash(-2): two points share a hash only
    # if they agree once every -2 coordinate reads -1, and a C-level tuple
    # comparison tells them apart
    ball = build_ball(*elaborate(parse_spec(text)), radius)
    classes = {}
    for p in ball.points:
        classes.setdefault(hash(p), []).append(p)
    assert (len(classes), len(ball)) == HASH_CLASSES[text]
    mixed = [ps for ps in classes.values() if len(set(map(_fold, ps))) > 1]
    if text != "wreath(C(2), Z^2, translation)":
        assert mixed == []
        return
    # a frozenset hash XORs equal entry hashes away, so on Z^2 a support
    # holding both (-2, y) and (-1, y), or (x, -2) and (x, -1), hashes as
    # if that pair were any other such pair: 4 more classes at R = 5
    assert len(mixed) == 4
    for p in itertools.chain.from_iterable(mixed):
        folds = [_fold(y) for y, v in p.support]
        assert len(set(folds)) < len(folds)


def test_nonidentity_gens_finite_groups():
    gens = nonidentity_gens(Cyclic(5))
    assert len(gens) == 4
    verify_gen_set(Cyclic(5), gens)
    gens = nonidentity_gens(SymmetricGroup(3))
    assert len(gens) == 5
    verify_gen_set(SymmetricGroup(3), gens)
    with pytest.raises(GroupError):
        nonidentity_gens(FreeAbelian(1))


def test_perm_parity():
    assert perm_parity(Perm((0, 1, 2))) == 0
    assert perm_parity(Perm((1, 0, 2))) == 1
    assert perm_parity(Perm((1, 2, 0))) == 0


def test_element_labels():
    assert point_label(FreeGroup(2).word((1, -2, 1))) == "aBa"
    assert point_label(FreeGroup(2).word(())) == "1"
    assert point_label(Perm((1, 0, 2))) == "(0 1)"
    assert point_label(IntVector((3,))) == "3"
    assert point_label(IntVector((1, -2))) == "(1,-2)"
    assert point_label(SymmetricGroup(3).identity()) == "()"
    assert point_label(CyclicInt(5, 3)) == "3"
    # a pair point is labelled by its wreath group alone
    assert lamplighter(2)[0].label(PairPoint(1, (0,)), {}) == "(1, 0)"


def test_free_abelian_membership_is_a_shape_check():
    # a member of Z^k is a tuple of k ints; the group states the family,
    # so the rule core (0, 0) of f2_four_ends is also the identity of Z^2
    z2 = FreeAbelian(2)
    for foreign in ([0, 0], (0, 0, 0), (True, 0), (0.0, 0), ()):
        assert not z2.contains(foreign), foreign
    for member in ((0, 0), (-3, 7)):
        assert z2.contains(member), member
    for bad in ((), (1, "a")):
        with pytest.raises(InvalidParameterError):
            IntVector(bad)
    assert point_label((5,)) == "5"
    assert point_label((1, -2)) == "(1,-2)"
    core = rule_action("f2_four_ends").basepoint
    assert core == z2.identity() and point_label(core) == "(0,0)"


def test_finite_membership_is_a_shape_check():
    # a residue of C(n) is an int in [0, n), a torus element a tuple of
    # residues and a permutation a Perm of the degree; the group states the
    # family, so the residue 1 of C(5) is also one of C(4), and a T(3,3)
    # element is also one of Z^2.  A Perm keeps its type: a plain tuple is
    # no element of Sym(n), and a Perm none of Z^k
    c4 = Cyclic(4)
    for foreign in (4, -1, True, 1.0, "1", (1,), Perm((0,))):
        assert not c4.contains(foreign), foreign
    for member in (0, 3, CyclicInt(5, 1)):
        assert c4.contains(member), member
    t33 = Torus((3, 3))
    for foreign in ((0, 3), (-1, 0), (0,), (0, 0, 0), [0, 0], (True, 0), (0.0, 0),
                    Perm((1, 0)), PairPoint(0, 0)):
        assert not t33.contains(foreign), foreign
    for member in ((0, 0), (2, 1), ModVector((3, 4), (2, 1))):
        assert t33.contains(member), member
    assert FreeAbelian(2).contains(t33.unit(0))
    s2 = SymmetricGroup(2)
    for foreign in ((1, 0), [1, 0], Perm((0, 1, 2)), Perm((0,)), 1):
        assert not s2.contains(foreign), foreign
    assert s2.contains(Perm((1, 0))) and s2.contains(s2.identity())
    assert not FreeAbelian(2).contains(Perm((1, 0)))
    with pytest.raises(FamilyMismatchError, match=r"^Perm\(\(1, 0\)\) is not an element of Z\^2$"):
        FreeAbelian(2).inverse(Perm((1, 0)))
    for modulus, value in ((4, 4), (4, -1), (4, True), (4, 1.0), (0, 0)):
        with pytest.raises(InvalidParameterError):
            CyclicInt(modulus, value)
    for moduli, coords in (((3,), (3,)), ((3, 3), (0,)), ((), ()), ((3,), (True,))):
        with pytest.raises(InvalidParameterError):
            ModVector(moduli, coords)
    for image in ((), (0, 0), (1, 2), (True, False), (0, "1")):
        with pytest.raises(InvalidParameterError):
            Perm(image)


def test_torus_labels():
    # a torus element is its tuple, labelled as a Z^k element is: one
    # factor renders as its one coordinate
    assert [point_label(g) for g in Torus((5,)).elements()] == list("01234")
    assert [point_label(g) for g in Torus((2, 3)).standard_gens().elements] == [
        "(1,0)", "(0,1)", "(0,2)"]
    assert Torus((5,)).standard_gens().names == ("+e1", "-e1")


# one ball of each family whose points are builtin values: words, Z^k and
# torus tuples, residues, permutations, cosets and pairs of an imprimitive
# action (a torus has no spec spelling)
@pytest.mark.parametrize("spec", [
    "F(2)", "Z^2", "C(7)", "Sym(4)", Torus((3, 4)), "Z^2 / [[2, 0], [0, 3]]",
    "Sym(4) / {(0 1 2)}", "C(12) / 4", "imprimitive(wreath(Sym(3), C(2), regular))",
    "imprimitive(wreath(C(2), Z, translation))"], ids=str)
def test_ball_points_hash_in_c(spec):
    # a point hashes with the builtin hash of its base type, so no Python
    # frame runs per hash
    if isinstance(spec, str):
        action, gens = elaborate(parse_spec(spec))
    else:
        action, gens = translation_action(spec), spec.standard_gens()
    ball = build_ball(action, gens, 3)
    assert len(ball) > 1
    assert {type(p).__hash__ for p in ball.points} <= {
        int.__hash__, bytes.__hash__, tuple.__hash__}


# ---------------------------------------------------------------------------
# free words as bytes of letter codes


def signed_label(letters):
    """The label of a signed letter sequence, from the letters themselves."""
    return "".join(string.ascii_lowercase[l - 1] if l > 0
                   else string.ascii_uppercase[-l - 1] for l in letters) or "1"


def test_every_letter_of_f26_labels_as_its_signed_form():
    f26 = FreeGroup(26)
    for i in range(26):
        for power in (1, -1):
            w = f26.letter(i, power)
            assert signed_letters(w) == (power * (i + 1),)
            assert point_label(w) == signed_label(signed_letters(w))
    word = f26.word(tuple(range(1, 27)) + tuple(range(-1, -27, -1)))
    assert point_label(word) == signed_label(signed_letters(word))
    assert point_label(f26.identity()) == "1"


def test_signed_letters_round_trip():
    rng = random.Random(5)
    for group in (FreeGroup(1), FreeGroup(3), FreeGroup(26)):
        for _ in range(30):
            w = sample_element(group, rng)
            assert group.word(signed_letters(w)) == w
            assert isinstance(signed_letters(w), tuple)
    assert FreeGroup(2).word((1, -2)) == b"\x00\x03"
    assert FreeGroup(2).letter(1, -1) == b"\x03"


def test_free_membership_is_a_shape_check():
    # a member is bytes of in-range codes with no code next to its inverse;
    # the group states the family, so a word of F(2) is also one of F(3)
    f2 = FreeGroup(2)
    for foreign in (bytearray(b"\x00"), "a", (0,), b"\x04", b"\x00\x01", b"\x03\x02"):
        assert not f2.contains(foreign), foreign
    for member in (FreeGroup(3).identity(), b"\x00\x00\x03", b"\x01\x02\x01"):
        assert f2.contains(member), member
    assert FreeGroup(3).contains(f2.letter(1))
    assert not FreeGroup(1).contains(f2.letter(1))


# each value with the constructor that built it, an attribute it has, and
# the error an assignment raises: every value is int- or tuple-backed, with
# no instance dict, so each raises AttributeError
FROZEN_VALUES = [
    ("CyclicInt", CyclicInt(3, 1), "real", AttributeError),
    ("Perm", Perm((1, 0)), "count", AttributeError),
    ("ModVector", ModVector((2, 3), (1, 2)), "count", AttributeError),
    ("PairPoint", PairPoint(CyclicInt(3, 1), IntVector((2,))), "leaf", AttributeError),
    ("WreathElement", _wreath(_LAMP2, IntVector((0,)), (IntVector((1,)), CyclicInt(2, 1))),
     "support", AttributeError),
]


@pytest.mark.parametrize("value, field, error", [case[1:] for case in FROZEN_VALUES],
                         ids=[case[0] for case in FROZEN_VALUES])
def test_frozen_values_refuse_every_assignment(value, field, error):
    for name in (field, "other"):
        with pytest.raises(error):
            setattr(value, name, 0)
        with pytest.raises(error):
            delattr(value, name)
    # a copy, a deep copy and a pickle round trip rebuild a Perm through its
    # checked __new__, and keep every value's type
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value) and type(twin) is type(value)


def test_free_inverse_is_the_reversed_negated_word():
    rng = random.Random(9)
    for group in (FreeGroup(1), FreeGroup(3), FreeGroup(26)):
        for _ in range(30):
            w = sample_element(group, rng)
            assert signed_letters(group.inverse(w)) == tuple(
                -l for l in reversed(signed_letters(w)))

