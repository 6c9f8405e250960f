"""Propositional worlds, formulas, and model masks.

A world over n atoms is an int in [0, 2**n); bit i is the truth value of
atom i.  A set of worlds is an int bitmask over 2**n worlds: bit w is set
iff world w belongs to the set.  All semantic computation downstream runs
on these masks, so formula evaluation happens once per (formula, n) pair.

Only ``full_mask(n)`` builds the universe, the mask of all 2**n worlds;
a complement is ``full_mask(n) ^ mask``, never the negative ``~mask``.

``ATOMS`` holds one shared ``Atom`` leaf per index.  The parser and
``Vocabulary.atom`` return these, so no leaf is built per token and an
atom's mask is computed once per n; ``Atom(i)`` still builds a new node,
equal to the shared one.

This module holds no formula text: ``parsing`` reads and writes it, with
one operator table for both.  Only the atom-name pattern ``ATOM_NAME``
and the ``RESERVED_WORDS`` live here, where ``Vocabulary`` checks names.
"""

from __future__ import annotations

import re
from functools import lru_cache

MAX_ATOMS = 16

# An atom name; the parser's tokenizer reads names with this same pattern.
ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

RESERVED_WORDS = frozenset({"true", "false", "wrt", "given"})


class Record:
    """Base class of the package's immutable value records.

    A subclass lists its fields as annotations in its class body, in
    order, after any fields of the record class it extends; a class
    attribute with a field's name is that field's default. The
    annotations are read as text, never evaluated. A record is built from
    its fields, positionally or by keyword. A field whose annotation reads
    ``tuple[...]``, here or in a class it extends, stores
    ``tuple(value)``, so a list a caller passes and changes later leaves
    the record as built; a ``str`` there raises ``TypeError`` rather than
    becoming its characters. Then the record's ``__post_init__`` runs,
    which validates and may store derived
    attributes with ``object.__setattr__``; those are not fields. After
    that nothing can be assigned or deleted. Pickling and copying rebuild
    a record through its constructor from its fields, so its derived
    attributes are derived afresh, never shared with or copied from the
    original. Two records are equal when
    they are of the same class with equal fields, a record hashes as the
    tuple of its fields, and its ``repr`` is ``Cls(field=value, ...)``.
    Unlike a named tuple, a record is not a tuple: it does not unpack or
    index, and it never equals a tuple or a record of another class.
    """

    _fields: tuple[str, ...] = ()
    _tuples: frozenset[str] = frozenset()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(name for name in own if name not in cls._fields)
        # str() gives the text of an evaluated annotation such as tuple[int, ...]
        cls._tuples |= {name for name, kind in own.items() if str(kind).startswith("tuple[")}
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in cls._defaults:
                        raise TypeError(f"{cls.__name__}() missing argument {name!r}")
                    values[name] = cls._defaults[name]
        for name in cls._tuples:
            value = values[name]
            if isinstance(value, str):
                raise TypeError(f"{cls.__name__}() field {name!r} takes a sequence, not the str {value!r}")
            values[name] = tuple(value)
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        parts = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({parts})"


# How many distinct atom tuples _vocab_table remembers, least recently built
# dropped first.
_VOCAB_KEYS = 256


@lru_cache(maxsize=_VOCAB_KEYS)
def _vocab_table(atoms: tuple[str, ...]) -> dict:
    return {}


class Vocabulary(Record):
    """Ordered atom names; fixes the world encoding (atom i = bit i).

    ``_parsed`` is a derived dict of formula text -> ``Formula``, the
    parse memo's table for these atoms (``parsing`` fills it).  Equal
    vocabularies, copies included, share one table, so a repeated text
    costs one probe of it and the atom names are neither hashed nor
    compared.  Vocabularies with other atoms never share it; an equal one
    gets a new, empty table only once its atoms have dropped out of the
    last ``_VOCAB_KEYS`` distinct tuples built.
    """

    atoms: tuple[str, ...]

    def __post_init__(self):
        if not (1 <= len(self.atoms) <= MAX_ATOMS):
            raise ValueError(f"need between 1 and {MAX_ATOMS} atoms, got {len(self.atoms)}")
        seen = {}
        for i, name in enumerate(self.atoms):
            if not ATOM_NAME.fullmatch(name):
                raise ValueError(f"bad atom name: {name!r}")
            # the parser reads names case-insensitively against these words
            if name.lower() in RESERVED_WORDS:
                raise ValueError(f"atom name {name!r} is a reserved word")
            if name in seen:
                raise ValueError(f"duplicate atom name: {name!r}")
            seen[name] = i
        object.__setattr__(self, "_index", seen)
        object.__setattr__(self, "_parsed", _vocab_table(self.atoms))

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def world_count(self) -> int:
        return 1 << len(self.atoms)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown atom: {name!r}") from None

    def atom(self, i: int) -> "Atom":
        """The shared leaf for atom i."""
        if not (0 <= i < len(self.atoms)):
            raise IndexError(f"atom index {i} out of range for {len(self.atoms)} atoms")
        return ATOMS[i]

    def format_world(self, world: int) -> str:
        """Literal form of one world, e.g. 'p !b f'."""
        if not (0 <= world < self.world_count):
            raise ValueError(f"world {world} out of range")
        parts = []
        for i, name in enumerate(self.atoms):
            parts.append(name if (world >> i) & 1 else "!" + name)
        return " ".join(parts)


class Formula:
    """Base class of the formula nodes.

    A node class declares its parts in ``__slots__`` and its constructor
    writes them, a ``_hash`` built from the children's hashes and an empty
    ``_masks`` memo. Immutability, structural equality (same class, equal
    parts), hashing and ``repr`` (the constructor call, so ``repr(TRUE)``
    is ``TrueFormula()``) follow from those slots; formulas can key memo
    tables. Pickling and copying rebuild a node through its constructor
    from its parts, with a fresh ``_masks`` memo; an ``Atom`` comes back
    as the shared ``ATOMS`` leaf and ``TRUE``/``FALSE`` as themselves.

    Formulas are not ``Record``s: the parser builds nodes for every query
    and the mask memo hashes them, so a node keeps its parts in slots and
    its hash is computed once, from its children's, when it is built.
    """

    __slots__ = ("_hash", "_masks")

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def _compute_mask(self, n: int) -> int:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError("formulas are immutable")

    def __reduce__(self):
        # the default restore would write the slots through __setattr__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        if type(self) is not type(other):
            return False
        for name in self.__slots__:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        parts = ", ".join(repr(getattr(self, name)) for name in self.__slots__)
        return f"{type(self).__name__}({parts})"


class TrueFormula(Formula):
    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash(("true",)))
        object.__setattr__(self, "_masks", {})

    def __reduce__(self):
        return "TRUE"

    def _compute_mask(self, n: int) -> int:
        return full_mask(n)


class FalseFormula(Formula):
    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "_hash", hash(("false",)))
        object.__setattr__(self, "_masks", {})

    def __reduce__(self):
        return "FALSE"

    def _compute_mask(self, n: int) -> int:
        return 0


TRUE = TrueFormula()
FALSE = FalseFormula()


@lru_cache(maxsize=None)
def full_mask(n: int) -> int:
    """The mask of all 2**n worlds, the universe every complement is taken in."""
    return (1 << (1 << n)) - 1


@lru_cache(maxsize=None)
def _atom_pattern(i: int, n: int) -> int:
    # worlds are consecutive bits, so atom i's models form a fixed stripe of
    # 2**i clear bits then 2**i set bits; all-ones // (2**2**i + 1) is that
    # stripe's set runs shifted down to bit 0
    return full_mask(n) // ((1 << (1 << i)) + 1) << (1 << i)


class Atom(Formula):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if not (0 <= index < MAX_ATOMS):
            raise ValueError(f"atom index {index} out of range")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash(("atom", index)))
        object.__setattr__(self, "_masks", {})

    def __reduce__(self):
        return _shared_atom, (self.index,)

    def _compute_mask(self, n: int) -> int:
        if self.index >= n:
            raise ValueError(f"atom index {self.index} out of range for {n} atoms")
        return _atom_pattern(self.index, n)


ATOMS = tuple(Atom(i) for i in range(MAX_ATOMS))


def _shared_atom(index: int) -> Atom:
    """The shared leaf an unpickled or copied ``Atom`` becomes."""
    return ATOMS[index]


class Not(Formula):
    __slots__ = ("child",)

    def __init__(self, child: Formula):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "_hash", hash(("not", child._hash)))
        object.__setattr__(self, "_masks", {})

    def _compute_mask(self, n: int) -> int:
        return full_mask(n) ^ model_mask(self.child, n)


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("and", left._hash, right._hash)))
        object.__setattr__(self, "_masks", {})

    def _compute_mask(self, n: int) -> int:
        return model_mask(self.left, n) & model_mask(self.right, n)


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_hash", hash(("or", left._hash, right._hash)))
        object.__setattr__(self, "_masks", {})

    def _compute_mask(self, n: int) -> int:
        return model_mask(self.left, n) | model_mask(self.right, n)


def model_mask(formula: Formula, n: int) -> int:
    """Bitmask of the formula's models over 2**n worlds (memoized)."""
    cached = formula._masks.get(n)
    if cached is None:
        cached = formula._compute_mask(n)
        formula._masks[n] = cached
    return cached


def evaluate(world: int, formula: Formula) -> bool:
    """Truth value at one world via direct AST recursion.

    Kept independent of the mask route so the two can cross-check
    each other: the tests and ``bench/run.py``'s ``check_rank``, which
    recomputes pi* levels and query verdicts through it, both call it.
    """
    if isinstance(formula, Atom):
        return bool((world >> formula.index) & 1)
    if isinstance(formula, Not):
        return not evaluate(world, formula.child)
    if isinstance(formula, And):
        return evaluate(world, formula.left) and evaluate(world, formula.right)
    if isinstance(formula, Or):
        return evaluate(world, formula.left) or evaluate(world, formula.right)
    if isinstance(formula, TrueFormula):
        return True
    if isinstance(formula, FalseFormula):
        return False
    raise TypeError(f"not a formula: {formula!r}")


def mask_worlds(mask: int) -> list[int]:
    """The worlds in a bitmask, ascending."""
    return [w for w, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    return Or(Not(antecedent), consequent)


def iff(left: Formula, right: Formula) -> Formula:
    return And(Or(Not(left), right), Or(Not(right), left))
