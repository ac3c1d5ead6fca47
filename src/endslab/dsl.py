"""Text DSL for groups, actions and generating sets.

Surface grammar (LL(1)):

    spec      := source ("with" "gens" gensSpec)?
    source    := "rule" "(" IDENT ")"
               | "imprimitive" "(" group ")"
               | group ("/" coset)?
    group     := "Z" ("^" NAT)? | "C" "(" NAT ")" | "F" "(" NAT ")"
               | "Sym" "(" NAT ")"
               | "wreath" "(" group "," group "," waction ")"
    waction   := "translation" | "regular" | "rule" "(" IDENT ")"
               | "coset" "(" coset ")"
    coset     := NAT | "trivial" | "[" vector ("," vector)* "]"
               | "{" genitem ("," genitem)* "}"
    gensSpec  := "standard" | "{" genitem ("," genitem)* "}"
    genitem   := INT | vector | IDENT (word, uppercase = inverse letter)
               | cycle+ (permutation, e.g. "(0 1)(2 3)")
    vector    := "[" INT ("," INT)* "]"
    cycle     := "(" NAT+ ")"

A bare group means its translation (Cayley) action; "G / spec" means the
coset action.  An integer coset spec is nZ for Z and the subgroup
generated by that residue for C(m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union

from .actions import (
    ActionError,
    GeneratedSubgroup,
    PointedAction,
    Sublattice,
    TrivialSubgroup,
    coset_action,
    rule_action,
    translation_action,
)
from .groups import (
    LETTERS,
    Cyclic,
    CyclicInt,
    FreeAbelian,
    FreeGroup,
    Group,
    GroupElement,
    GroupError,
    IntVector,
    Perm,
    SymmetricGenSet,
    SymmetricGroup,
    make_gen_set,
)
from .wreath import WreathGroup, imprimitive_action


class SpecError(Exception):
    """Base class for DSL errors."""


class ParseError(SpecError):
    def __init__(self, message: str, line: int, col: int,
                 expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}, column {col}"
        if expected:
            message = f"{message} (expected one of: {', '.join(expected)})"
        super().__init__(f"{loc}: {message}")


class LexicalError(ParseError):
    pass


class ArityError(ParseError):
    pass


class ElaborationError(SpecError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class IntItem:
    value: int


@dataclass(frozen=True)
class VecItem:
    coords: tuple[int, ...]


@dataclass(frozen=True)
class WordItem:
    text: str


@dataclass(frozen=True)
class PermItem:
    cycles: tuple[tuple[int, ...], ...]


GenItem = Union[IntItem, VecItem, WordItem, PermItem]


@dataclass(frozen=True)
class CosetAst:
    kind: str  # "byint" | "trivial" | "lattice" | "generated"
    n: Optional[int] = None
    basis: Optional[tuple[tuple[int, ...], ...]] = None
    gens: Optional[tuple[GenItem, ...]] = None


@dataclass(frozen=True)
class ActionAst:
    kind: str  # "translation" | "regular" | "coset" | "rule" | "imprimitive"
    coset: Optional[CosetAst] = None
    rule_name: Optional[str] = None
    rep: Optional[GenItem] = None  # imprimitive orbit representative


@dataclass(frozen=True)
class GroupAst:
    kind: str  # "Z" | "C" | "F" | "Sym" | "wreath"
    n: Optional[int] = None
    base: Optional["GroupAst"] = None
    top: Optional["GroupAst"] = None
    top_action: Optional[ActionAst] = None


@dataclass(frozen=True)
class GensAst:
    kind: str  # "standard" | "explicit"
    items: tuple[GenItem, ...] = ()


@dataclass(frozen=True)
class SpecAst:
    group: Optional[GroupAst]  # None when the source is a bare rule action
    action: ActionAst
    gens: GensAst


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str  # "INT" | "IDENT" | punctuation | "EOF"
    value: str
    line: int
    col: int


PUNCT = "()[]{},/^"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if c in PUNCT:
            tokens.append(Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        # isdecimal accepts exactly the digits int() does; isdigit also takes "²"
        if c.isdecimal() or (c == "-" and i + 1 < n and text[i + 1].isdecimal()):
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise LexicalError(f"unexpected character {c!r}", line, start_col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# parser


GROUP_STARTERS = ("Z", "C", "F", "Sym", "wreath")
SOURCE_STARTERS = GROUP_STARTERS + ("rule", "imprimitive")


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.cur
        self.pos += 1
        return t

    def error(self, expected: tuple[str, ...]):
        t = self.cur
        what = "end of input" if t.kind == "EOF" else repr(t.value)
        raise ParseError(f"unexpected {what}", t.line, t.col, expected)

    def expect(self, kind: str, expected_desc: Optional[str] = None) -> Token:
        if self.cur.kind != kind:
            self.error((expected_desc or f"'{kind}'",))
        return self.advance()

    def accept(self, kind: str) -> Optional[Token]:
        if self.cur.kind == kind:
            return self.advance()
        return None

    def keyword(self) -> Optional[str]:
        return self.cur.value if self.cur.kind == "IDENT" else None

    def nat(self, what: str, anchor: Token) -> int:
        t = self.expect("INT", "a positive integer")
        value = int(t.value)
        if value < 1:
            raise ArityError(f"{what} must be >= 1, got {value}",
                             anchor.line, anchor.col)
        return value

    # -- grammar rules

    def parse_spec(self) -> SpecAst:
        group, action = self.parse_source()
        gens = GensAst("standard")
        if self.keyword() == "with":
            self.advance()
            if self.keyword() != "gens":
                self.error(("'gens'",))
            self.advance()
            gens = self.parse_gens_spec()
        self.expect("EOF", "end of input")
        return SpecAst(group, action, gens)

    def parse_source(self) -> tuple[Optional[GroupAst], ActionAst]:
        kw = self.keyword()
        if kw == "rule":
            return None, self.parse_rule()
        if kw == "imprimitive":
            self.advance()
            self.expect("(")
            group = self.parse_group()
            rep = None
            if self.accept(","):
                rep = self.parse_item()
            self.expect(")")
            return group, ActionAst("imprimitive", rep=rep)
        if kw in GROUP_STARTERS:
            group = self.parse_group()
            if self.accept("/"):
                return group, ActionAst("coset", coset=self.parse_coset())
            return group, ActionAst("translation")
        self.error(tuple(f"'{s}'" for s in SOURCE_STARTERS))

    def parse_group(self) -> GroupAst:
        anchor = self.cur
        kw = self.keyword()
        if kw == "Z":
            self.advance()
            if self.accept("^"):
                return GroupAst("Z", n=self.nat("exponent of Z", anchor))
            return GroupAst("Z", n=1)
        if kw in ("C", "F", "Sym"):
            self.advance()
            self.expect("(")
            n = self.nat(f"parameter of {kw}", anchor)
            self.expect(")")
            return GroupAst(kw, n=n)
        if kw == "wreath":
            self.advance()
            self.expect("(")
            base = self.parse_group()
            self.expect(",")
            top = self.parse_group()
            self.expect(",")
            action = self.parse_waction()
            self.expect(")")
            return GroupAst("wreath", base=base, top=top, top_action=action)
        self.error(tuple(f"'{s}'" for s in GROUP_STARTERS))

    def parse_waction(self) -> ActionAst:
        kw = self.keyword()
        if kw in ("translation", "regular"):
            self.advance()
            return ActionAst(kw)
        if kw == "rule":
            return self.parse_rule()
        if kw == "coset":
            self.advance()
            self.expect("(")
            coset = self.parse_coset()
            self.expect(")")
            return ActionAst("coset", coset=coset)
        self.error(("'translation'", "'regular'", "'rule'", "'coset'"))

    def parse_rule(self) -> ActionAst:
        """rule "(" IDENT ")", from the 'rule' keyword on."""
        self.advance()
        self.expect("(")
        name = self.expect("IDENT", "a rule action name").value
        self.expect(")")
        return ActionAst("rule", rule_name=name)

    def parse_coset(self) -> CosetAst:
        t = self.cur
        if t.kind == "INT":
            return CosetAst("byint", n=self.nat("coset modulus", t))
        if self.keyword() == "trivial":
            self.advance()
            return CosetAst("trivial")
        if t.kind == "[":
            return CosetAst("lattice", basis=self.parse_basis_or_vector())
        if t.kind == "{":
            return CosetAst("generated", gens=self.parse_item_list())
        self.error(("an integer", "'trivial'", "'['", "'{'"))

    def parse_vector(self) -> tuple[int, ...]:
        self.expect("[")
        return self.parse_vector_tail()

    def parse_basis_or_vector(self) -> tuple[tuple[int, ...], ...]:
        self.expect("[")
        if self.cur.kind == "[":
            rows = [self.parse_vector()]
            while self.accept(","):
                rows.append(self.parse_vector())
            self.expect("]")
            return tuple(rows)
        return (self.parse_vector_tail(),)

    def parse_vector_tail(self) -> tuple[int, ...]:
        """INT ("," INT)* "]", after the opening bracket."""
        coords = [int(self.expect("INT", "an integer").value)]
        while self.accept(","):
            coords.append(int(self.expect("INT", "an integer").value))
        self.expect("]")
        return tuple(coords)

    def parse_item_list(self) -> tuple[GenItem, ...]:
        self.expect("{")
        items = [self.parse_item()]
        while self.accept(","):
            items.append(self.parse_item())
        self.expect("}")
        return tuple(items)

    def parse_item(self) -> GenItem:
        t = self.cur
        if t.kind == "INT":
            self.advance()
            return IntItem(int(t.value))
        if t.kind == "[":
            return VecItem(self.parse_vector())
        if t.kind == "IDENT":
            self.advance()
            if not t.value.isalpha():
                raise ParseError(f"word {t.value!r} must be alphabetic",
                                 t.line, t.col)
            return WordItem(t.value)
        if t.kind == "(":
            cycles = []
            while self.cur.kind == "(":
                opening = self.advance()
                cyc = []
                while self.cur.kind == "INT":
                    cyc.append(int(self.advance().value))
                self.expect(")")
                if len(cyc) < 2:
                    raise ArityError("a cycle needs at least two points",
                                     opening.line, opening.col)
                cycles.append(tuple(cyc))
            return PermItem(tuple(cycles))
        self.error(("an integer", "a vector '['", "a word", "a cycle '('"))

    def parse_gens_spec(self) -> GensAst:
        if self.keyword() == "standard":
            self.advance()
            return GensAst("standard")
        if self.cur.kind == "{":
            return GensAst("explicit", self.parse_item_list())
        self.error(("'standard'", "'{'"))


def parse_spec(text: str) -> SpecAst:
    """Parse a spec string; raises ParseError with line/column on failure."""
    parser = _Parser(text)
    try:
        return parser.parse_spec()
    except RecursionError:
        t = parser.cur
        raise ParseError("spec nested too deeply", t.line, t.col) from None


# ---------------------------------------------------------------------------
# printer


def _item_text(item: GenItem) -> str:
    if isinstance(item, IntItem):
        return str(item.value)
    if isinstance(item, VecItem):
        return "[" + ", ".join(map(str, item.coords)) + "]"
    if isinstance(item, WordItem):
        return item.text
    if isinstance(item, PermItem):
        return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in item.cycles)
    raise SpecError(f"unknown item {item!r}")


def _coset_text(c: CosetAst) -> str:
    if c.kind == "byint":
        return str(c.n)
    if c.kind == "trivial":
        return "trivial"
    if c.kind == "lattice":
        if len(c.basis) == 1:
            return "[" + ", ".join(map(str, c.basis[0])) + "]"
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]"
                               for row in c.basis) + "]"
    if c.kind == "generated":
        return "{" + ", ".join(_item_text(i) for i in c.gens) + "}"
    raise SpecError(f"unknown coset kind {c.kind!r}")


def _group_text(g: GroupAst) -> str:
    if g.kind == "Z":
        return "Z" if g.n == 1 else f"Z^{g.n}"
    if g.kind in ("C", "F", "Sym"):
        return f"{g.kind}({g.n})"
    if g.kind == "wreath":
        a = g.top_action
        if a.kind in ("translation", "regular"):
            inner = a.kind
        elif a.kind == "rule":
            inner = f"rule({a.rule_name})"
        elif a.kind == "coset":
            inner = f"coset({_coset_text(a.coset)})"
        else:
            raise SpecError(f"unprintable wreath action {a.kind!r}")
        return f"wreath({_group_text(g.base)}, {_group_text(g.top)}, {inner})"
    raise SpecError(f"unknown group kind {g.kind!r}")


def print_spec(ast: SpecAst) -> str:
    """Canonical text whose parse returns an equal AST."""
    if ast.action.kind == "rule":
        out = f"rule({ast.action.rule_name})"
    elif ast.action.kind == "imprimitive":
        if ast.action.rep is not None:
            out = f"imprimitive({_group_text(ast.group)}, {_item_text(ast.action.rep)})"
        else:
            out = f"imprimitive({_group_text(ast.group)})"
    elif ast.action.kind == "coset":
        out = f"{_group_text(ast.group)} / {_coset_text(ast.action.coset)}"
    else:
        out = _group_text(ast.group)
    if ast.gens.kind == "explicit":
        out += " with gens {" + ", ".join(_item_text(i) for i in ast.gens.items) + "}"
    return out


# ---------------------------------------------------------------------------
# elaboration


def _elaborate_group(g: GroupAst) -> Group:
    if g.kind == "Z":
        return FreeAbelian(g.n)
    if g.kind == "C":
        return Cyclic(g.n)
    if g.kind == "F":
        return FreeGroup(g.n)
    if g.kind == "Sym":
        return SymmetricGroup(g.n)
    if g.kind == "wreath":
        if "wreath" in (g.base.kind, g.top.kind):
            raise ElaborationError("nested wreath products are not supported")
        base = _elaborate_group(g.base)
        top_action = _elaborate_action(_elaborate_group(g.top), g.top_action)
        return WreathGroup(base, top_action, (top_action.basepoint,))
    raise ElaborationError(f"unknown group kind {g.kind!r}")


def _subgroup_spec(group: Group, c: CosetAst):
    if c.kind == "trivial":
        return TrivialSubgroup()
    if c.kind == "byint":
        # the subgroup that the integer item n generates
        g = _element_from_item(group, IntItem(c.n))
        if isinstance(group, Cyclic):
            return GeneratedSubgroup((g,))
        return Sublattice((g.coords,))
    if c.kind == "lattice":
        return Sublattice(c.basis)
    if c.kind == "generated":
        return GeneratedSubgroup(tuple(_element_from_item(group, i) for i in c.gens))
    raise ElaborationError(f"unknown coset kind {c.kind!r}")


def _element_from_item(group: Group, item: GenItem) -> GroupElement:
    if isinstance(item, IntItem):
        if isinstance(group, FreeAbelian) and group.rank == 1:
            return IntVector((item.value,))
        if isinstance(group, Cyclic):
            return CyclicInt(group.modulus, item.value % group.modulus)
        raise ElaborationError(f"integer generator {item.value} needs Z or C(m), "
                               f"not {group}")
    if isinstance(item, VecItem):
        if isinstance(group, FreeAbelian) and group.rank == len(item.coords):
            return IntVector(item.coords)
        raise ElaborationError(
            f"vector generator {list(item.coords)} needs Z^{len(item.coords)}, "
            f"not {group}")
    if isinstance(item, WordItem):
        if not isinstance(group, FreeGroup):
            raise ElaborationError(f"word generator {item.text!r} needs a free "
                                   f"group, not {group}")
        letters = []
        for ch in item.text:
            idx = LETTERS.find(ch.lower())
            if idx < 0 or idx >= group.rank:
                raise ElaborationError(
                    f"letter {ch!r} outside the rank-{group.rank} alphabet "
                    f"{LETTERS[:group.rank]!r}")
            letters.append(group.letter(idx, 1 if ch.islower() else -1))
        return reduce(group._mul, letters)
    if isinstance(item, PermItem):
        if not isinstance(group, SymmetricGroup):
            raise ElaborationError(f"cycle generator needs Sym(n), not {group}")
        img = list(range(group.degree))
        for cyc in item.cycles:
            if any(p >= group.degree or p < 0 for p in cyc):
                raise ElaborationError(
                    f"cycle {cyc} out of range for degree {group.degree}")
            if len(set(cyc)) != len(cyc):
                raise ElaborationError(f"cycle {cyc} repeats a point")
            moved = {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}
            img = [moved.get(x, x) for x in img]
        return Perm(tuple(img))
    raise ElaborationError(f"unknown generator item {item!r}")


def _elaborate_action(group: Group, a: ActionAst) -> PointedAction:
    if a.kind in ("translation", "regular"):
        return translation_action(group)
    if a.kind == "coset":
        return coset_action(group, _subgroup_spec(group, a.coset))
    if a.kind == "rule":
        action = rule_action(a.rule_name)
        if group is not None and action.group != group:
            raise ElaborationError(
                f"rule action {a.rule_name!r} acts for {action.group}, not {group}")
        return action
    if a.kind == "imprimitive":
        if not isinstance(group, WreathGroup):
            raise ElaborationError("imprimitive(...) needs a wreath group")
        rep = group.orbit_reps[0]
        if a.rep is not None:
            # the representative is the point reached from the default one
            # by the given top-group element
            mover = _element_from_item(group.top, a.rep)
            rep = group.top_action.act(mover, rep)
            group = WreathGroup(group.base, group.top_action, (rep,))
        return imprimitive_action(group, rep)
    raise ElaborationError(f"unknown action kind {a.kind!r}")


def elaborate(ast: SpecAst) -> tuple[PointedAction, SymmetricGenSet]:
    """Construct the action and generating set described by an AST; a bare
    rule source passes no group, since the rule names its own.  A library
    refusal (``GroupError``, ``ActionError``) is raised again as an
    ``ElaborationError`` with the same text and the library error as cause."""
    try:
        group = None if ast.action.kind == "rule" else _elaborate_group(ast.group)
        action = _elaborate_action(group, ast.action)
        group = action.group
        if ast.gens.kind == "standard":
            return action, group.standard_gens()
        items = [_element_from_item(group, i) for i in ast.gens.items]
        names = [_item_text(i) for i in ast.gens.items]
        return action, make_gen_set(group, items, names=names)
    except (GroupError, ActionError) as exc:
        raise ElaborationError(str(exc)) from exc
