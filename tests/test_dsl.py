import json
import random

import pytest

from endslab.actions import PairPoint, UnsupportedSubgroupError
from endslab.balls import build_ball, to_dot, to_json_dict
from endslab.dsl import (
    ActionAst,
    ArityError,
    ElaborationError,
    GroupAst,
    IntItem,
    LexicalError,
    ParseError,
    PermItem,
    SpecAst,
    SpecError,
    VecItem,
    WordItem,
    elaborate,
    parse_spec,
    print_spec,
)
from endslab.groups import FreeAbelian, FreeGroup, IntVector
from endslab.wreath import WreathGroup


def test_parse_simple_groups():
    assert parse_spec("Z").group == GroupAst("Z", n=1)
    assert parse_spec("Z^2").group == GroupAst("Z", n=2)
    assert parse_spec("C(4)").group == GroupAst("C", n=4)
    assert parse_spec("F(2)").group == GroupAst("F", n=2)
    assert parse_spec("Sym(3)").group == GroupAst("Sym", n=3)


def test_parse_wreath_lamplighter():
    ast = parse_spec("wreath(C(2), Z, translation)")
    assert ast.group == GroupAst("wreath",
                                 base=GroupAst("C", n=2),
                                 top=GroupAst("Z", n=1),
                                 top_action=ActionAst("translation"))
    assert ast.action == ActionAst("translation")


def test_parse_coset_and_gens_clauses():
    ast = parse_spec("Z / 4")
    assert ast.action == ActionAst("coset", coset=(IntItem(4),))
    ast = parse_spec("Z with gens {2, 3}")
    assert ast.gens == (IntItem(2), IntItem(3))
    ast = parse_spec("Z^2 / [[2, 0], [0, 2]]")
    assert ast.action.coset == (VecItem((2, 0)), VecItem((0, 2)))
    ast = parse_spec("Sym(3) / {(0 1)}")
    assert ast.action.coset == (PermItem(((0, 1),)),)
    assert parse_spec("C(4) / trivial").action == ActionAst("coset", coset=())
    # sugar parses to the AST of its canonical spelling, which prints back;
    # "[3]" is a one-coordinate vector, so "Z / [3]" is "Z / {[3]}"
    for spellings in (("Z / 3", "Z / {3}"),
                      ("Z / [3]", "Z / {[3]}"),
                      ("Z^2 / [[2, 0], [0, 2]]", "Z^2 / {[2, 0], [0, 2]}"),
                      ("wreath(C(2), Z, regular)", "wreath(C(2), Z, translation)"),
                      ("wreath(C(2), Z, coset(3))", "wreath(C(2), Z, coset({3}))"),
                      ("Z with gens standard", "Z"),
                      ("C(4) / trivial with gens standard", "C(4) / trivial")):
        canonical = spellings[-1]
        for text in spellings:
            assert parse_spec(text) == parse_spec(canonical), text
            assert print_spec(parse_spec(text)) == canonical, text


def test_parse_rule_and_imprimitive():
    ast = parse_spec("rule(f2_four_ends)")
    assert ast.group is None
    assert ast.action == ActionAst("rule", rule_name="f2_four_ends")
    ast = parse_spec("imprimitive(wreath(C(3), C(2), regular))")
    assert ast.action == ActionAst("imprimitive")
    assert ast.group.kind == "wreath"


def test_arity_error_position():
    for text, col, message in (
            ("C(0)", 1, "parameter of C must be >= 1, got 0"),
            ("Z / 0", 5, "coset modulus must be >= 1, got 0"),
            # the bad cycle, not the first one of its item
            ("Sym(3) with gens {(0 1)(2)}", 24, "a cycle needs at least two points")):
        with pytest.raises(ArityError) as err:
            parse_spec(text)
        assert err.value.col == col and err.value.line == 1
        assert message in str(err.value)


def test_parse_error_positions_and_expectations():
    with pytest.raises(ParseError) as err:
        parse_spec("Z^")
    assert err.value.col == 3
    assert "positive integer" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_spec("wreath(C(2), Z)")
    assert err.value.col == 15

    with pytest.raises(ParseError) as err:
        parse_spec("Q(3)")
    assert "expected one of" in str(err.value)

    with pytest.raises(ParseError, match="unexpected 'gen'") as err:
        parse_spec("F(2) with gen {a}")
    assert err.value.col == 11

    with pytest.raises(ParseError, match="word 'a1' must be alphabetic") as err:
        parse_spec("F(2) with gens {a1}")
    assert err.value.col == 17

    for text, col, expected in (
            ("wreath(Q(2), Z, regular)", 8, "'Z', 'C', 'F', 'Sym', 'wreath'"),
            ("wreath(C(2), Z, foo)", 17, "'translation', 'regular', 'rule', 'coset'"),
            ("Z / x", 5, "an integer, 'trivial', '[', '{'"),
            ("Z with gens {,}", 14, "an integer, a vector '[', a word, a cycle '('"),
            ("Z with gens x", 13, "'standard', '{'")):
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert (err.value.line, err.value.col) == (1, col)
        assert f"(expected one of: {expected})" in str(err.value)

    with pytest.raises(LexicalError) as err:
        parse_spec("Z @ 4")
    assert err.value.col == 3

    # a newline starts the next line at column 1
    with pytest.raises(LexicalError) as err:
        parse_spec("Z^2\n\n  / [1, 2, @]")
    assert (err.value.line, err.value.col) == (3, 12)

    # a number is what int() reads: a superscript digit is no digit, and an
    # Arabic-Indic one is
    with pytest.raises(LexicalError, match="unexpected character '²'") as err:
        parse_spec("Z^²")
    assert err.value.col == 3
    assert parse_spec("C(٣)").group.n == 3

    # the depth at which the recursive parser runs out of stack depends on
    # the caller's own stack, so this one is far beyond it
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_spec("wreath(" * 5000 + "Z")


def test_elaborate_custom_gens_symmetrized():
    action, gens = elaborate(parse_spec("Z with gens {2, 3}"))
    assert action.group == FreeAbelian(1)
    assert gens.elements == (IntVector((2,)), IntVector((-2,)),
                             IntVector((3,)), IntVector((-3,)))


def test_elaborate_f2_standard():
    action, gens = elaborate(parse_spec("F(2)"))
    assert action.group == FreeGroup(2)
    assert len(gens) == 4


def test_elaborate_rule_fixture():
    action, gens = elaborate(parse_spec("rule(f2_four_ends)"))
    assert action.group == FreeGroup(2)
    assert action.basepoint == (0, 0)


def test_elaborate_wreath_defaults_to_standard_gens():
    action, gens = elaborate(parse_spec("wreath(C(2), Z, translation)"))
    assert isinstance(action.group, WreathGroup)
    assert len(gens) == 3  # delta plus the two top translations


def test_elaborate_imprimitive():
    action, gens = elaborate(parse_spec("imprimitive(wreath(C(3), C(2), regular))"))
    assert isinstance(action.basepoint, PairPoint)


def test_elaborate_imprimitive_with_representative():
    from endslab.groups import CyclicInt
    ast = parse_spec("imprimitive(wreath(C(3), C(2), regular), 1)")
    assert ast.action == ActionAst("imprimitive", rep=IntItem(1))
    action, _ = elaborate(ast)
    assert action.basepoint.pos == CyclicInt(2, 1)
    # the representative becomes the top basepoint, where the deltas sit
    assert action.group.top_action.basepoint == CyclicInt(2, 1)
    _, gens = elaborate(parse_spec("imprimitive(wreath(C(2), Z, translation), 3)"))
    assert gens.names == ("d(3:+1)", "h(+1)", "h(-1)")
    assert print_spec(ast) == "imprimitive(wreath(C(3), C(2), translation), 1)"
    assert parse_spec(print_spec(ast)) == ast


def test_elaborate_errors():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_spec("F(2) / 3"))
    assert "integer generator 3 needs Z or C(m), not F(2)" in str(err.value)
    with pytest.raises(ElaborationError):
        elaborate(parse_spec("Z with gens {ab}"))
    with pytest.raises(ElaborationError):
        elaborate(parse_spec("F(2) with gens {xy}"))  # beyond the rank alphabet
    with pytest.raises(ElaborationError):
        elaborate(parse_spec("wreath(C(2), Z, translation) with gens {1}"))
    for text, message in (("wreath(C(2), Z, rule(f2_four_ends))", "acts for F\\(2\\), not Z"),
                          ("imprimitive(Z)", "needs a wreath group"),
                          ("F(27)", "free group rank must lie in 1..26, got 27"),
                          ("Sym(3) with gens {(0 1 0)}", "repeats a point")):
        with pytest.raises(ElaborationError, match=message):
            elaborate(parse_spec(text))
    # trivial cosets are supported for every family, free groups included
    action, _ = elaborate(parse_spec("F(2) / trivial"))
    assert action.group == FreeGroup(2)


def test_elaboration_refuses_only_with_spec_errors():
    # elaborate returns or raises a SpecError: a library refusal included
    rng = random.Random(2024)
    for _ in range(2000):
        ast = random_spec(rng)
        try:
            elaborate(ast)
        except SpecError:
            pass


def test_library_refusal_keeps_its_text_and_cause():
    with pytest.raises(ElaborationError) as err:
        elaborate(parse_spec("F(2) / {a}"))
    assert type(err.value.__cause__) is UnsupportedSubgroupError
    assert str(err.value) == str(err.value.__cause__)


# each row spells one subgroup several ways: n, [v, ...] and {items}
SUBGROUP_SPELLINGS = [
    ("Z / 3", "Z / [3]", "Z / {3}", "Z / {6, 9}"),
    ("C(12) / 4", "C(12) / {4}", "C(12) / {8}"),
    ("Z^2 / [[2, 0], [0, 3]]", "Z^2 / {[2, 0], [0, 3]}"),
    ("wreath(C(2), Z, coset(3))", "wreath(C(2), Z, coset([3]))",
     "wreath(C(2), Z, coset({3}))"),
    ("imprimitive(wreath(C(2), Z, coset(6)))", "imprimitive(wreath(C(2), Z, coset({6})))"),
    ("Z^3 / [[1, 0, 0], [0, 0, 2]]", "Z^3 / {[1, 0, 0], [0, 0, 2]}"),
]


@pytest.mark.parametrize("spellings", SUBGROUP_SPELLINGS, ids=lambda s: s[0])
def test_subgroup_spellings_agree(spellings):
    exports = set()
    for text in spellings:
        ball = build_ball(*elaborate(parse_spec(text)), 6)
        exports.add((json.dumps(to_json_dict(ball)), to_dot(ball)))
    assert len(exports) == 1


def test_elaborate_word_gens():
    action, gens = elaborate(parse_spec("F(2) with gens {ab, aB}"))
    assert len(gens) == 4
    assert gens.names[0] == "ab"


def test_word_item_is_the_product_of_its_letters():
    for text, letters in (("abBA", ()), ("aAb", (2,)), ("BbbaAB", ()), ("Aba", (-1, 2, 1))):
        _, gens = elaborate(parse_spec(f"F(2) with gens {{{text}}}"))
        assert gens.elements[0] == FreeGroup(2).word(letters), text


def test_print_examples():
    assert print_spec(parse_spec("Z^2")) == "Z^2"
    assert print_spec(parse_spec("Z^1")) == "Z"
    assert print_spec(parse_spec("wreath(C(2),Z,translation)")) == \
        "wreath(C(2), Z, translation)"
    assert print_spec(parse_spec("Z/4 with gens {1,-1}")) == \
        "Z / {4} with gens {1, -1}"
    assert print_spec(parse_spec("Z with gens standard")) == "Z"
    assert print_spec(parse_spec("wreath(C(2),F(2),rule(f2_four_ends))")) == \
        "wreath(C(2), F(2), rule(f2_four_ends))"


# ---------------------------------------------------------------------------
# round trip over generated ASTs


def random_group(rng, depth=0):
    kinds = ["Z", "C", "F", "Sym"] + (["wreath"] if depth < 2 else [])
    kind = rng.choice(kinds)
    if kind == "Z":
        return GroupAst("Z", n=rng.randint(1, 4))
    if kind in ("C", "F", "Sym"):
        return GroupAst(kind, n=rng.randint(1, 6))
    return GroupAst("wreath",
                    base=random_group(rng, depth + 1),
                    top=random_group(rng, depth + 1),
                    top_action=random_waction(rng, depth + 1))


def random_item(rng):
    choice = rng.randrange(4)
    if choice == 0:
        return IntItem(rng.randint(-9, 9))
    if choice == 1:
        return VecItem(tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))))
    if choice == 2:
        return WordItem("".join(rng.choice("abAB") for _ in range(rng.randint(1, 4))))
    return PermItem(tuple(
        tuple(rng.sample(range(6), rng.randint(2, 3)))
        for _ in range(rng.randint(1, 2))))


def random_coset(rng):
    choice = rng.randrange(4)
    if choice == 0:
        return (IntItem(rng.randint(1, 9)),)
    if choice == 1:
        return ()
    if choice == 2:
        width = rng.randint(1, 3)
        return tuple(VecItem(tuple(rng.randint(-4, 4) for _ in range(width)))
                     for _ in range(rng.randint(1, 3)))
    return tuple(random_item(rng) for _ in range(rng.randint(1, 3)))


def random_waction(rng, depth):
    # a three-way draw, two ways translation, keeps the rng order that the
    # output manifest's draws were recorded with
    if rng.randrange(3) < 2:
        return ActionAst("translation")
    return ActionAst("coset", coset=random_coset(rng))


def random_spec(rng):
    shape = rng.randrange(4)
    if shape == 0:
        group, action = None, ActionAst("rule", rule_name="f2_four_ends")
    elif shape == 1:
        group = random_group(rng)
        while group.kind != "wreath":
            group = random_group(rng)
        rep = random_item(rng) if rng.random() < 0.3 else None
        action = ActionAst("imprimitive", rep=rep)
    elif shape == 2:
        group = random_group(rng)
        action = ActionAst("coset", coset=random_coset(rng))
    else:
        group, action = random_group(rng), ActionAst("translation")
    if rng.random() < 0.5:
        gens = tuple(random_item(rng) for _ in range(rng.randint(1, 3)))
    else:
        gens = ()
    return SpecAst(group, action, gens)


def random_typed_group(rng):
    """A group of one family: Z^k, C(n), F(n) or Sym(n)."""
    kind = rng.choice(["Z", "C", "F", "Sym"])
    return GroupAst(kind, n=rng.randint(1, 3 if kind in ("Z", "F") else 6))


def random_typed_item(rng, group):
    """An item that spells an element of ``group``'s family, or None for
    Sym(1), whose only element no cycle spells."""
    n = group.n
    if group.kind == "Z":
        if n == 1 and rng.random() < 0.5:
            return IntItem(rng.randint(-4, 4))
        return VecItem(tuple(rng.randint(-3, 3) for _ in range(n)))
    if group.kind == "C":
        return IntItem(rng.randint(-9, 9))
    if group.kind == "F":
        letters = "".join(l + l.upper() for l in "abc"[:n])
        return WordItem("".join(rng.choice(letters) for _ in range(rng.randint(1, 4))))
    if n == 1:
        return None
    points = rng.sample(range(n), min(n, rng.randint(2, 5)))
    cut = rng.randint(2, len(points))
    cycles = [points[:cut]] + ([points[cut:]] if len(points) - cut >= 2 else [])
    return PermItem(tuple(map(tuple, cycles)))


def random_typed_items(rng, group):
    """One to three items of ``group``'s family, or () for Sym(1)."""
    items = tuple(random_typed_item(rng, group) for _ in range(rng.randint(1, 3)))
    return () if None in items else items


def random_typed_coset(rng, group):
    """A coset spec whose items are elements of ``group``'s family."""
    choice = rng.randrange(3)
    if choice == 0:
        return ()
    if choice == 1 and group.kind in ("Z", "C"):
        if group.kind == "C" or group.n == 1:
            return (IntItem(rng.randint(1, 9)),)
        return tuple(VecItem(tuple(rng.randint(-4, 4) for _ in range(group.n)))
                     for _ in range(rng.randint(1, group.n)))
    return random_typed_items(rng, group)


def random_typed_wreath(rng):
    """wreath(base, top, action) over two one-family groups."""
    top = random_typed_group(rng)
    choice = rng.randrange(4)
    if choice == 3 and top == GroupAst("F", n=2):
        action = ActionAst("rule", rule_name="f2_four_ends")
    elif choice >= 2:
        action = ActionAst("coset", coset=random_typed_coset(rng, top))
    else:  # two ways translation, for the manifest draws' rng order
        action = ActionAst("translation")
    return GroupAst("wreath", base=random_typed_group(rng), top=top, top_action=action)


def random_typed_spec(rng):
    """A spec whose every item spells an element of the group it is read
    in, with no nested wreath: a draw that elaboration can accept, unless a
    subgroup law refuses it."""
    shape = rng.randrange(5)
    if shape == 0:
        group, action = None, ActionAst("rule", rule_name="f2_four_ends")
        own = GroupAst("F", n=2)
    elif shape == 1:
        group = random_typed_wreath(rng)
        rep = random_typed_item(rng, group.top) if rng.random() < 0.5 else None
        return SpecAst(group, ActionAst("imprimitive", rep=rep), ())
    elif shape == 2:
        return SpecAst(random_typed_wreath(rng), ActionAst("translation"), ())
    elif shape == 3:
        group = own = random_typed_group(rng)
        action = ActionAst("coset", coset=random_typed_coset(rng, group))
    else:
        group = own = random_typed_group(rng)
        action = ActionAst("translation")
    gens = random_typed_items(rng, own) if rng.random() < 0.5 else ()
    return SpecAst(group, action, gens)


def test_round_trip_generated_asts():
    rng = random.Random(2024)
    for _ in range(200):
        ast = random_spec(rng)
        text = print_spec(ast)
        assert parse_spec(text) == ast, text


def test_round_trip_typed_asts():
    rng = random.Random(2025)
    for _ in range(300):
        ast = random_typed_spec(rng)
        text = print_spec(ast)
        assert parse_spec(text) == ast, text


def test_lattice_single_vector_round_trip():
    # a one-row basis is one vector item, printed braced, and reparses identically
    ast = parse_spec("Z / [4]")
    assert ast.action.coset == (VecItem((4,)),)
    assert parse_spec(print_spec(ast)) == ast
