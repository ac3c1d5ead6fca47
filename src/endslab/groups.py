"""Canonical computable representations of the base group families.

Every element is an immutable value in a canonical form, so equality is
structural.  An element of F(n) is its reduced word as ``bytes`` of letter
codes: the letter +i has code 2(i-1) and its inverse -i code 2(i-1)+1, so
the inverse of code c is c ^ 1.  The group, not the value's type, states
the family: a word is a member of every free group whose alphabet holds
its codes.  An element of Z^k is its plain ``tuple`` of k ints, so its
hash and equality run in C; CPython's ``hash(-1) == hash(-2)`` makes two
vectors that differ only by a -1 against a -2 share a hash, and one
C-level comparison tells them apart.  An element of C(n) is its residue,
a plain ``int``, and an element of a finite torus its ``tuple`` of
residues.  An element of Sym(n) is a :class:`Perm`, a tuple subclass.
Membership is a shape check, so equal data from two families is one
value: the residue 1 is an element of C(4) and of C(5), and a T(3,3)
element is also one of Z^2; a plain tuple is no Perm, and a Perm no Z^k
element.  Wreath products live in :mod:`endslab.wreath`.

Labels follow two rules.  A base value and a point of a rule action is
labelled by :func:`point_label`, which tests its type.  Every other value,
such as a wreath element or a pair point of an imprimitive action, is
labelled by its group (``Group.label``; a base family's is
``point_label``).  ``Perm`` stays a type of its own because a
permutation must label as cycles with no group at hand (the benchmark
labels Sym(3) leaves so), and the plain tuple (1, 0, 2) is a Z^3 element.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

LETTERS = "abcdefghijklmnopqrstuvwxyz"


class GroupError(Exception):
    """Base class for group-kernel errors."""


class FamilyMismatchError(GroupError):
    """Operands belong to different group families or parameters."""


class InvalidParameterError(GroupError):
    """Group parameters out of range (e.g. modulus 0)."""


def check_members(group: "Group", elements: Iterable[GroupElement]) -> None:
    """Raise ``FamilyMismatchError`` naming the first element outside ``group``."""
    for g in elements:
        if not group.contains(g):
            raise FamilyMismatchError(f"{g!r} is not an element of {group}")


# ---------------------------------------------------------------------------
# elements


# letter codes of free words: the signed letter of each code, the code of
# each code's inverse, and the label character of each code
_SIGNED_LETTER = tuple(c // 2 + 1 if c % 2 == 0 else -(c // 2 + 1)
                       for c in range(2 * len(LETTERS)))
_INV_TABLE = bytes(c ^ 1 for c in range(256))
_LABEL_TABLE = bytes.maketrans(bytes(range(2 * len(LETTERS))),
                              "".join(ch + ch.upper() for ch in LETTERS).encode("ascii"))


def signed_letters(w: bytes) -> tuple[int, ...]:
    """The signed letters of a free word: +i for the i-th letter (1-based),
    -i for its inverse."""
    return tuple(map(_SIGNED_LETTER.__getitem__, w))


def IntVector(coords: Iterable[int]) -> tuple[int, ...]:
    """The checked constructor of a Z^k element: its coordinates as a
    tuple of at least one ``int``."""
    coords = tuple(coords)
    if not coords:
        raise InvalidParameterError("integer vector needs at least one coordinate")
    for x in coords:
        if type(x) is not int:
            raise InvalidParameterError(f"coordinate {x!r} of {coords!r} is not an int")
    return coords


def CyclicInt(modulus: int, value: int) -> int:
    """The checked constructor of a C(modulus) element: its residue, an
    ``int`` in [0, modulus)."""
    if modulus < 1:
        raise InvalidParameterError(f"cyclic modulus must be >= 1, got {modulus}")
    if type(value) is not int:
        raise InvalidParameterError(f"residue {value!r} is not an int")
    if not 0 <= value < modulus:
        raise InvalidParameterError(f"residue {value} not in [0, {modulus})")
    return value


class Perm(tuple):
    """Permutation of {0..n-1} in one-line notation: p[i] = sigma(i).  A
    tuple subclass so that ``point_label`` can tell it from a Z^k element
    and label it by its cycles; a law builds its results with
    ``tuple.__new__``, which skips the check."""

    __slots__ = ()

    def __new__(cls, image: Iterable[int]):
        image = tuple(image)
        n = len(image)
        if n < 1:
            raise InvalidParameterError("permutation degree must be >= 1")
        # an entry of another type, such as True for 1, would give an equal
        # Perm another label
        if any(type(x) is not int for x in image) or sorted(image) != list(range(n)):
            raise InvalidParameterError(f"{image} is not a permutation of 0..{n - 1}")
        return tuple.__new__(cls, image)

    def __repr__(self):
        # the tuple repr would make "(1, 0) is not an element of Z^2" read
        # as a refusal of the plain tuple, which is a member
        return f"Perm({tuple(self)!r})"


def ModVector(moduli: Sequence[int], coords: Iterable[int]) -> tuple[int, ...]:
    """The checked constructor of a torus element: its coordinates, an
    ``int`` in [0, moduli[i]) at each i."""
    coords = tuple(coords)
    if len(moduli) < 1:
        raise InvalidParameterError("torus needs at least one factor")
    if len(moduli) != len(coords):
        raise InvalidParameterError("moduli/coords length mismatch")
    for m, c in zip(moduli, coords):
        if m < 1:
            raise InvalidParameterError(f"torus modulus must be >= 1, got {m}")
        if type(c) is not int:
            raise InvalidParameterError(f"coordinate {c!r} of {coords!r} is not an int")
        if not 0 <= c < m:
            raise InvalidParameterError(f"coordinate {c} not in [0, {m})")
    return coords


# any member of a family; a wreath element (endslab.wreath) is a named tuple
GroupElement = Any


def _perm_cycles(p: Perm) -> list[list[int]]:
    """The cycles of p, fixed points included, each from its least point."""
    seen: set[int] = set()
    cycles = []
    for i in range(len(p)):
        if i in seen:
            continue
        cyc = [i]
        j = p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        cycles.append(cyc)
    return cycles


def point_label(a: GroupElement) -> str:
    """Short human-readable label of a base value or a rule-action point: a
    word's letters (uppercase letter = inverse letter), or ``1`` for the
    empty word; a ``Perm``'s cycles, or ``()`` for the identity; a tuple's
    coordinates, and a 1-tuple's one entry; ``str`` of anything else.  A
    wreath element or a pair point gets its label from its group."""
    t = type(a)
    if t is bytes:
        return a.translate(_LABEL_TABLE).decode("ascii") if a else "1"
    if t is tuple:
        # a Z or one-factor torus element is labelled by its one coordinate
        return str(a[0]) if len(a) == 1 else "(" + ",".join(map(str, a)) + ")"
    if t is Perm:
        return "".join(["(" + " ".join(map(str, c)) + ")"
                        for c in _perm_cycles(a) if len(c) > 1]) or "()"
    return str(a)


def perm_parity(p: Perm) -> int:
    """0 for even permutations, 1 for odd: a k-cycle is k - 1 transpositions."""
    return (len(p) - len(_perm_cycles(p))) % 2


# ---------------------------------------------------------------------------
# generating sets


@dataclass(frozen=True)
class SymmetricGenSet:
    """Indexed generator list closed under inverse.

    ``pairing`` is an involution p with elements[p[i]] == elements[i]^-1.
    Duplicate elements (parallel edges) and identity elements (loops) are
    legal.  ``verify_gen_set`` checks the set against a group; construction
    checks only the involution.
    """

    elements: tuple[GroupElement, ...]
    pairing: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(self.pairing) != n or len(self.names) != n:
            raise GroupError("generator list, pairing and names must have equal length")
        if sorted(self.pairing) != list(range(n)):
            raise GroupError(f"pairing {self.pairing} is not a permutation")
        for i, j in enumerate(self.pairing):
            if self.pairing[j] != i:
                raise GroupError(f"pairing {self.pairing} is not an involution")

    def __len__(self) -> int:
        return len(self.elements)

    def image(self, f: Callable[[GroupElement], GroupElement],
              rename: Optional[Callable[[str], str]] = None) -> SymmetricGenSet:
        """The images f(s) under a map f that sends inverses to inverses:
        the same pairing, and each name passed through ``rename``."""
        names = self.names if rename is None else tuple(map(rename, self.names))
        return SymmetricGenSet(tuple(map(f, self.elements)), self.pairing, names)

    def __add__(self, other: SymmetricGenSet) -> SymmetricGenSet:
        """This set's generators followed by ``other``'s."""
        n = len(self.elements)
        return SymmetricGenSet(self.elements + other.elements,
                               self.pairing + tuple(n + j for j in other.pairing),
                               self.names + other.names)


def make_gen_set(group: "Group",
                 items: Sequence[GroupElement],
                 names: Optional[Sequence[str]] = None) -> SymmetricGenSet:
    """Close ``items`` under inverse, one pair per listed item.

    Items must be members (``check_members``) and are not deduplicated:
    listing both s and s^-1 yields two pairs and therefore doubled edges in
    orbital graphs (collapsed by simplify).  An identity item is legal.
    The inverse of an item named ``+x`` is named ``-x``, and that of any
    other name ``n`` ``n^-1``; without ``names`` both are element labels.
    """
    check_members(group, items)
    elements: list[GroupElement] = []
    pairing: list[int] = []
    out_names: list[str] = []
    for pos, item in enumerate(items):
        inv = group._inv(item)
        name = names[pos] if names is not None else group.label(item, {})
        if inv == item:
            pairing.append(len(elements))
            elements.append(item)
            out_names.append(name)
        else:
            i = len(elements)
            pairing.extend([i + 1, i])
            elements.extend([item, inv])
            if names is None:
                inv_name = group.label(inv, {})
            else:
                inv_name = "-" + name[1:] if name.startswith("+") else name + "^-1"
            out_names.extend([name, inv_name])
    return SymmetricGenSet(tuple(elements), tuple(pairing), tuple(out_names))


def verify_gen_set(group: "Group", gens: SymmetricGenSet) -> None:
    """Check a generating set against ``group``: every element is a member
    (``check_members``), and the pairing sends each to its inverse."""
    elements = gens.elements
    check_members(group, elements)
    for i, pair in enumerate(gens.pairing):
        if group._inv(elements[i]) != elements[pair]:
            raise GroupError(f"generator {i} is not paired with its inverse")


# ---------------------------------------------------------------------------
# group descriptors


class Group:
    """A group family with fixed parameters: knows its law and identity.

    A family checks its parameters when it builds its identity, with the
    element's checked constructor or, for a free group, its own rank check.
    ``multiply`` and ``inverse`` are the checked entry points of the law:
    they check membership once per operand, then apply the family's
    ``_mul``/``_inv``, which take members and build their result with no
    check: plain ``bytes``, ``int`` and ``tuple`` operations, or
    ``tuple.__new__`` for a ``Perm``.  A finite family's elements are ints
    or tuples, so their natural order is a total order, and the least
    product of a coset by it is the coset's canonical representative.
    """

    def label(self, a: GroupElement, memo: dict) -> str:
        """The label of a member or of a point of an action of the group,
        within one labelling call whose labels share their parts through
        ``memo``; a base family's is ``point_label``, and WreathGroup
        states its own."""
        return point_label(a)

    def __post_init__(self):
        self.identity()

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        check_members(self, (a, b))
        return self._mul(a, b)

    def inverse(self, a: GroupElement) -> GroupElement:
        check_members(self, (a,))
        return self._inv(a)

    def _mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        raise NotImplementedError

    def _inv(self, a: GroupElement) -> GroupElement:
        raise NotImplementedError

    def contains(self, a: GroupElement) -> bool:
        raise NotImplementedError

    def standard_gens(self) -> SymmetricGenSet:
        raise NotImplementedError

    def _min_product(self, members: Sequence[GroupElement]):
        """The map g -> least g*h over h in ``members``, for g and every h
        members: the canonical representative of gH."""
        mul = self._mul
        return lambda g: min(map(partial(mul, g), members))

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        return None

    def elements(self) -> Iterator[GroupElement]:
        raise GroupError(f"{self} is not finitely enumerable")


@dataclass(frozen=True)
class FreeGroup(Group):
    """Free group on the first ``rank`` letters of ``LETTERS``, one per
    generator, so every word has a label.  An element is its reduced word
    as ``bytes`` of letter codes."""

    rank: int

    def identity(self):
        if not 1 <= self.rank <= len(LETTERS):
            raise InvalidParameterError(
                f"free group rank must lie in 1..{len(LETTERS)}, got {self.rank}")
        return b""

    def contains(self, a):
        # reduced: no code equals the inverse of the code after it
        return (type(a) is bytes and max(a, default=0) < 2 * self.rank
                and True not in map(operator.eq, a, a[1:].translate(_INV_TABLE)))

    def _mul(self, a, b):
        # both inputs reduced, so cancellation happens only at the seam
        i, j, nb = len(a), 0, len(b)
        while i > 0 and j < nb and a[i - 1] ^ b[j] == 1:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def _inv(self, a):
        return a[::-1].translate(_INV_TABLE)

    def word(self, letters: Sequence[int]) -> bytes:
        """The checked constructor of a word from nonzero signed letters: +i
        is the i-th letter (1-based), -i its inverse, and no adjacent
        (l, -l) pair."""
        prev = 0
        for l in letters:
            if l == 0 or abs(l) > self.rank:
                raise InvalidParameterError(f"letter {l} out of range for rank {self.rank}")
            if l == -prev:
                raise InvalidParameterError(f"word {letters} is not reduced")
            prev = l
        return bytes([2 * l - 2 if l > 0 else -2 * l - 1 for l in letters])

    def letter(self, i: int, power: int = 1) -> bytes:
        """The i-th letter (0-based) or its inverse."""
        return self.word(((i + 1) if power > 0 else -(i + 1),))

    def standard_gens(self):
        return make_gen_set(self, [self.letter(i) for i in range(self.rank)],
                            names=LETTERS[:self.rank])

    def __str__(self):
        return f"F({self.rank})"


@dataclass(frozen=True)
class FreeAbelian(Group):
    """Free abelian group Z^rank.  An element is its tuple of ``rank`` ints."""

    rank: int

    def identity(self):
        return IntVector((0,) * self.rank)

    def contains(self, a):
        return (type(a) is tuple and len(a) == self.rank
                and all(type(x) is int for x in a))

    def _mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def _inv(self, a):
        return tuple([-x for x in a])

    def unit(self, i: int) -> tuple[int, ...]:
        coords = [0] * self.rank
        coords[i] = 1
        return tuple(coords)

    def standard_gens(self):
        return make_gen_set(self, [self.unit(i) for i in range(self.rank)],
                            names=["+1"] if self.rank == 1 else
                            [f"+e{i + 1}" for i in range(self.rank)])

    def __str__(self):
        return "Z" if self.rank == 1 else f"Z^{self.rank}"


@dataclass(frozen=True)
class Cyclic(Group):
    """Cyclic group Z/modulus.  An element is its residue, an ``int`` in
    [0, modulus)."""

    modulus: int

    def identity(self):
        return CyclicInt(self.modulus, 0)

    def contains(self, a):
        return type(a) is int and 0 <= a < self.modulus

    def _mul(self, a, b):
        return (a + b) % self.modulus

    def _inv(self, a):
        return -a % self.modulus

    def standard_gens(self):
        # in C(1) the only "generator" is the identity, kept as a loop
        return make_gen_set(self, [1 % self.modulus], names=["+1"])

    def order(self):
        return self.modulus

    def elements(self):
        return iter(range(self.modulus))

    def __str__(self):
        return f"C({self.modulus})"


@dataclass(frozen=True)
class SymmetricGroup(Group):
    """Symmetric group on {0..degree-1}.  An element is a ``Perm``."""

    degree: int

    def identity(self):
        return Perm(range(self.degree))

    def contains(self, a):
        return type(a) is Perm and len(a) == self.degree

    def _mul(self, a, b):
        return tuple.__new__(Perm, map(a.__getitem__, b))

    def _inv(self, a):
        img = [0] * self.degree
        for i, j in enumerate(a):
            img[j] = i
        return tuple.__new__(Perm, img)

    def _min_product(self, members):
        # itemgetter(*h) maps g to g*h as a plain tuple, and a Perm orders as
        # its tuple, so the least such tuple is the least product: one Perm
        # is built
        if self.degree == 1:
            return lambda g: g  # itemgetter of one index returns no tuple
        getters = [operator.itemgetter(*h) for h in members]
        return lambda g: tuple.__new__(Perm, min([f(g) for f in getters]))

    def transposition(self, i: int, j: int) -> Perm:
        img = list(range(self.degree))
        img[i], img[j] = img[j], img[i]
        return Perm(img)

    def standard_gens(self):
        return make_gen_set(self, [self.transposition(i, i + 1)
                                   for i in range(self.degree - 1)],
                            names=[f"({i} {i + 1})" for i in range(self.degree - 1)])

    def order(self):
        return math.factorial(self.degree)

    def elements(self):
        return map(Perm, itertools.permutations(range(self.degree)))

    def __str__(self):
        return f"Sym({self.degree})"


@dataclass(frozen=True)
class Torus(Group):
    """Product of cyclic groups Z/d1 x ... x Z/dk.  An element is its tuple
    of k ints, coordinate i in [0, di)."""

    moduli: tuple[int, ...]

    def identity(self):
        return ModVector(self.moduli, (0,) * len(self.moduli))

    def contains(self, a):
        return (type(a) is tuple and len(a) == len(self.moduli)
                and all(type(x) is int and 0 <= x < m for x, m in zip(a, self.moduli)))

    def _mul(self, a, b):
        return tuple(map(operator.mod, map(operator.add, a, b), self.moduli))

    def _inv(self, a):
        return tuple([-x % m for x, m in zip(a, self.moduli)])

    def unit(self, i: int) -> tuple[int, ...]:
        coords = [0] * len(self.moduli)
        coords[i] = 1 % self.moduli[i]
        return tuple(coords)

    def standard_gens(self):
        return make_gen_set(self, [self.unit(i) for i in range(len(self.moduli))],
                            names=[f"+e{i + 1}" for i in range(len(self.moduli))])

    def order(self):
        return math.prod(self.moduli)

    def elements(self):
        return itertools.product(*(range(m) for m in self.moduli))

    def __str__(self):
        return "T(" + ",".join(map(str, self.moduli)) + ")"


def nonidentity_gens(group: Group) -> SymmetricGenSet:
    """All non-identity elements of a finite group as one symmetric set."""
    if group.order() is None:
        raise GroupError(f"{group} is infinite; cannot form the full generating set")
    ident = group.identity()
    elements = sorted(g for g in group.elements() if g != ident)
    seen: set[GroupElement] = set()
    items = []
    for g in elements:
        if g in seen:
            continue
        seen.add(g)
        seen.add(group.inverse(g))
        items.append(g)
    return make_gen_set(group, items)
