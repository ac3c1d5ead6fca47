"""Canonical computable representations of the base group families.

Every element is an immutable value in a canonical form, so equality is
structural.  An element of F(n) is its reduced word as ``bytes`` of letter
codes: the letter +i has code 2(i-1) and its inverse -i code 2(i-1)+1, so
the inverse of code c is c ^ 1.  The group, not the value's type, states
the family: a word is a member of every free group whose alphabet holds
its codes.  An element of Z^k is its plain ``tuple`` of k ints, so its
hash and equality run in C; CPython's ``hash(-1) == hash(-2)`` makes two
vectors that differ only by a -1 against a -2 share a hash, and one
C-level comparison tells them apart.  The families implemented here are
free groups (reduced words), free abelian groups (int tuples), cyclic
groups (residues), symmetric groups (permutations in one-line notation)
and finite tori (integer vectors with per-coordinate moduli).  Wreath
products live in :mod:`endslab.wreath`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import FrozenInstanceError, dataclass
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


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to or delete {name!r}")


def frozen_value(cls):
    """Refuse every assignment and deletion on a frozen slotted dataclass
    with ``FrozenInstanceError``: in CPython 3.11 its generated methods
    raise ``TypeError`` for a non-field name.  Constructors set slots with
    ``object.__setattr__`` or slot descriptors, which bypass both."""
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


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


@frozen_value
@dataclass(frozen=True, slots=True)
class CyclicInt:
    """Residue modulo n, stored in [0, n)."""

    modulus: int
    value: int

    def __post_init__(self):
        if self.modulus < 1:
            raise InvalidParameterError(f"cyclic modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise InvalidParameterError(
                f"residue {self.value} not in [0, {self.modulus})")


@frozen_value
@dataclass(frozen=True, slots=True)
class Perm:
    """Permutation of {0..n-1} in one-line notation: image[i] = sigma(i)."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n < 1:
            raise InvalidParameterError("permutation degree must be >= 1")
        if sorted(self.image) != list(range(n)):
            raise InvalidParameterError(f"{self.image} is not a permutation of 0..{n - 1}")


@frozen_value
@dataclass(frozen=True, slots=True)
class ModVector:
    """Element of a product of cyclic groups, coordinate i taken mod moduli[i]."""

    moduli: tuple[int, ...]
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.moduli) < 1:
            raise InvalidParameterError("torus needs at least one factor")
        if len(self.moduli) != len(self.coords):
            raise InvalidParameterError("moduli/coords length mismatch")
        for m, c in zip(self.moduli, self.coords):
            if m < 1:
                raise InvalidParameterError(f"torus modulus must be >= 1, got {m}")
            if not 0 <= c < m:
                raise InvalidParameterError(f"coordinate {c} not in [0, {m})")


# WreathElement (endslab.wreath) is also a valid GroupElement.
GroupElement = Any


def trusted_constructor(cls) -> Callable[..., Any]:
    """The trusted constructor of a slotted value class with one to three
    fields, for values a law computes from members: such a value is a
    member, so it takes the field values in field order and runs no check.
    It sets each field through its slot descriptor, which skips the frozen
    ``__setattr__`` and costs less than ``object.__setattr__`` by name."""
    new = object.__new__
    setters = [getattr(cls, name).__set__ for name in cls.__dataclass_fields__]
    if len(setters) == 1:
        (set_only,) = setters

        def build_one(value):
            v = new(cls)
            set_only(v, value)
            return v

        return build_one
    if len(setters) == 2:
        set_first, set_second = setters

        def build_two(first, second):
            v = new(cls)
            set_first(v, first)
            set_second(v, second)
            return v

        return build_two
    set_first, set_second, set_third = setters

    def build_three(first, second, third):
        v = new(cls)
        set_first(v, first)
        set_second(v, second)
        set_third(v, third)
        return v

    return build_three


_raw_cyclicint = trusted_constructor(CyclicInt)
_raw_perm = trusted_constructor(Perm)
_raw_modvector = trusted_constructor(ModVector)


def _word_label(a: bytes) -> str:
    return a.translate(_LABEL_TABLE).decode("ascii") if a else "1"


def _tuple_label(a: tuple) -> str:
    # a Z element is labelled by its one coordinate
    if len(a) == 1:
        return str(a[0])
    return "(" + ",".join(map(str, a)) + ")"


def element_label(a: GroupElement) -> str:
    """Short human-readable label of an element or a point (uppercase
    letter = inverse letter)."""
    label = LABELS.get(type(a))
    return str(a) if label is None else label(a)


def _perm_cycles(p: Perm) -> list[list[int]]:
    """The cycles of p, fixed points included, each from its least point."""
    image = p.image
    seen: set[int] = set()
    cycles = []
    for i in range(len(image)):
        if i in seen:
            continue
        cyc = [i]
        j = image[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = image[j]
        cycles.append(cyc)
    return cycles


def perm_cycle_notation(p: Perm) -> str:
    parts = ["(" + " ".join(map(str, c)) + ")" for c in _perm_cycles(p) if len(c) > 1]
    return "".join(parts) or "()"


# label of each element and point type, looked up by exact type (a tuple is
# a Z^k element or a rule-action point); endslab.actions adds its points and
# endslab.wreath its elements
LABELS = {
    bytes: _word_label,
    tuple: _tuple_label,
    CyclicInt: lambda a: str(a.value),
    Perm: perm_cycle_notation,
    ModVector: lambda a: "(" + ",".join(map(str, a.coords)) + ")",
}


def perm_parity(p: Perm) -> int:
    """0 for even permutations, 1 for odd: a k-cycle is k - 1 transpositions."""
    return (len(p.image) - len(_perm_cycles(p))) % 2


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
        name = names[pos] if names is not None else element_label(item)
        if inv == item:
            pairing.append(len(elements))
            elements.append(item)
            out_names.append(name)
        else:
            i = len(elements)
            pairing.extend([i + 1, i])
            elements.extend([item, inv])
            if names is None:
                inv_name = element_label(inv)
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
    check: a trusted constructor, or plain ``bytes`` and ``tuple``
    operations for words and Z^k.
    """

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

    def sort_key(self, a: GroupElement):
        """Total order on the elements of a finite group; the least product
        of a coset by it is the coset's canonical representative."""
        raise NotImplementedError

    def _min_product(self, members: Sequence[GroupElement]):
        """The map g -> least g*h over h in ``members`` by ``sort_key``, for
        g and every h members: the canonical representative of gH."""
        mul, key = self._mul, self.sort_key
        return lambda g: min(map(partial(mul, g), members), key=key)

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
    modulus: int

    def identity(self):
        return CyclicInt(self.modulus, 0)

    def contains(self, a):
        return isinstance(a, CyclicInt) and a.modulus == self.modulus

    def _mul(self, a, b):
        return _raw_cyclicint(self.modulus, (a.value + b.value) % self.modulus)

    def _inv(self, a):
        return _raw_cyclicint(self.modulus, -a.value % self.modulus)

    def sort_key(self, a):
        return a.value

    def standard_gens(self):
        # in C(1) the only "generator" is the identity, kept as a loop
        return make_gen_set(self, [CyclicInt(self.modulus, 1 % self.modulus)],
                            names=["+1"])

    def order(self):
        return self.modulus

    def elements(self):
        return (CyclicInt(self.modulus, v) for v in range(self.modulus))

    def __str__(self):
        return f"C({self.modulus})"


@dataclass(frozen=True)
class SymmetricGroup(Group):
    degree: int

    def identity(self):
        return Perm(tuple(range(self.degree)))

    def contains(self, a):
        return isinstance(a, Perm) and len(a.image) == self.degree

    def _mul(self, a, b):
        return _raw_perm(tuple(map(a.image.__getitem__, b.image)))

    def _inv(self, a):
        img = [0] * self.degree
        for i, j in enumerate(a.image):
            img[j] = i
        return _raw_perm(tuple(img))

    def sort_key(self, a):
        return a.image

    def _min_product(self, members):
        # itemgetter(*h.image) maps g.image to (g*h).image, and sort_key is the
        # image, so the least image tuple is the least product: one Perm is built
        if self.degree == 1:
            return lambda g: g  # itemgetter of one index returns no tuple
        getters = [operator.itemgetter(*h.image) for h in members]
        return lambda g: _raw_perm(min([f(g.image) for f in getters]))

    def transposition(self, i: int, j: int) -> Perm:
        img = list(range(self.degree))
        img[i], img[j] = img[j], img[i]
        return Perm(tuple(img))

    def standard_gens(self):
        return make_gen_set(self, [self.transposition(i, i + 1)
                                   for i in range(self.degree - 1)],
                            names=[f"({i} {i + 1})" for i in range(self.degree - 1)])

    def order(self):
        n = 1
        for k in range(2, self.degree + 1):
            n *= k
        return n

    def elements(self):
        return (Perm(img) for img in itertools.permutations(range(self.degree)))

    def __str__(self):
        return f"Sym({self.degree})"


@dataclass(frozen=True)
class Torus(Group):
    """Product of cyclic groups Z/d1 x ... x Z/dk."""

    moduli: tuple[int, ...]

    def identity(self):
        return ModVector(self.moduli, (0,) * len(self.moduli))

    def contains(self, a):
        return isinstance(a, ModVector) and a.moduli == self.moduli

    def _mul(self, a, b):
        return _raw_modvector(self.moduli, tuple(
            map(operator.mod, map(operator.add, a.coords, b.coords), self.moduli)))

    def _inv(self, a):
        return _raw_modvector(self.moduli,
                              tuple(-x % m for x, m in zip(a.coords, self.moduli)))

    def sort_key(self, a):
        return a.coords

    def unit(self, i: int) -> ModVector:
        coords = [0] * len(self.moduli)
        coords[i] = 1 % self.moduli[i]
        return ModVector(self.moduli, tuple(coords))

    def standard_gens(self):
        return make_gen_set(self, [self.unit(i) for i in range(len(self.moduli))],
                            names=[f"+e{i + 1}" for i in range(len(self.moduli))])

    def order(self):
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def elements(self):
        return (ModVector(self.moduli, c)
                for c in itertools.product(*(range(m) for m in self.moduli)))

    def __str__(self):
        return "T(" + ",".join(map(str, self.moduli)) + ")"


def nonidentity_gens(group: Group) -> SymmetricGenSet:
    """All non-identity elements of a finite group as one symmetric set."""
    if group.order() is None:
        raise GroupError(f"{group} is infinite; cannot form the full generating set")
    ident = group.identity()
    elements = [g for g in group.elements() if g != ident]
    elements.sort(key=group.sort_key)
    seen: set[GroupElement] = set()
    items = []
    for g in elements:
        if g in seen:
            continue
        seen.add(g)
        seen.add(group.inverse(g))
        items.append(g)
    return make_gen_set(group, items)
