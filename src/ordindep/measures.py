"""Ordinal possibility distributions and the measures they induce.

Levels live on an integer scale 0..top.  A distribution assigns one level
to every world and must put at least one world at the top; possibility of
a set of worlds is the max level over the set (0 for the empty set), and
necessity is its dual: ``nec(f)`` is top minus ``poss(Not(f))``.

Conditioning is min-based: the level of the conclusion-and-antecedent
region is promoted to top when it realizes the antecedent's possibility,
and kept as is otherwise; ``cond_nec(c, a)`` is top minus
``cond_poss(Not(c), a)``.

The measures read a distribution only through ``vocab``, ``top`` and
``poss_mask(mask)`` and use no operator that needs a plain int, so they
run unchanged on a ``lawlab.DistEnsemble``, whose ``poss_mask`` returns
one level per enumerated distribution as a numpy row.  ``entails`` is the
one measure that needs a single ``Dist``: it branches to a ``TriState``,
which it reads off the evidence worlds at the highest level the evidence
reaches, found by one descent of the ``Dist``'s bit-planes.

A ``Dist`` is built either from one level per world or, by
``dist_from_bands``, from disjoint bands of worlds that share a level;
either way it keeps the same ranks and bit-planes and nothing else
derived.  Bands OR straight into the planes, so a band-built ``Dist``
answers every measure without a per-world pass; it reads its per-world
``levels`` off the planes only when something first reads them.
"""

from __future__ import annotations

import enum
import operator
import struct

from .logic import Formula, Not, Record, Vocabulary, full_mask, mask_worlds, model_mask


class TriState(enum.Enum):
    """Outcome of asking whether evidence makes a conclusion accepted."""

    ACCEPTED = "Accepted"
    REJECTED = "Rejected"
    IGNORED = "Ignored"

    def __str__(self):
        return self.value


# plain names for entails: reading a member off the enum class costs
# about ten times a module global
_ACCEPTED, _REJECTED, _IGNORED = TriState.ACCEPTED, TriState.REJECTED, TriState.IGNORED


class Dist(Record):
    """Normalized possibility distribution over the worlds of a vocabulary.

    Besides the level of each world it keeps the bit-planes of the worlds'
    level codes.  A world's code is the dense rank of its level among 0
    and the levels in use, and ``_ranked[code]`` is that level; plane j,
    kept highest first with its bit ``1 << j``, is the mask of the worlds
    whose code has bit j set.  With L ranked levels there are
    ``(L - 1).bit_length()`` planes.  Ranks and planes are derived and take
    no part in equality or hashing.  From levels, the codes are packed once
    as little-endian 4-byte ints, and plane j is read off byte j // 8 of
    every code, one stride-4 slice of the pack.

    A level or top is an integer when ``operator.index`` takes it; any
    other value is rejected with the world it sits at.

    ``dist_from_bands`` builds the ranks and planes from level bands and
    leaves ``levels`` out until its first read, which ORs each plane's bit
    into the codes of its worlds, maps the codes through ``_ranked``,
    stores the tuple and returns it; every later read returns that same
    tuple.  ``levels`` is still a field: equality, hashing, ``repr``,
    pickling and copying read it, and so derive it.
    """

    vocab: Vocabulary
    top: int
    levels: tuple[int, ...]

    def __post_init__(self):
        top, levels = self.top, self.levels
        try:
            operator.index(top)
        except TypeError:
            raise ValueError(f"top level must be an integer, got {top!r}") from None
        if top < 1:
            raise ValueError(f"top level must be at least 1, got {top}")
        count = self.vocab.world_count
        if len(levels) != count:
            raise ValueError(f"need {count} levels for {self.vocab.n} atoms, got {len(levels)}")
        try:
            used = sorted(set(map(operator.index, levels)))
        except TypeError:
            used = None
        if used is None or used[0] < 0 or used[-1] > top:
            raise _bad_level(levels, top)
        if used[-1] != top:
            raise ValueError("distribution is not normalized: no world at the top level")
        ranked = tuple(used) if used[0] == 0 else (0, *used)
        width = (len(ranked) - 1).bit_length()
        # every code as a little-endian 4-byte int (a code is at most the
        # world count), world 0 last: byte k of the codes is the stride-4
        # slice from k
        rank = dict(zip(ranked, range(len(ranked))))
        packed = struct.pack(f"<{count}I", *map(rank.__getitem__, map(operator.index, reversed(levels))))
        planes = []
        for j in reversed(range(width)):
            b = 1 << (j & 7)
            digits = (b"0" * b + b"1" * b) * (128 // b)  # byte c -> its bit j % 8 as a digit
            planes.append((1 << j, int(packed[j >> 3 :: 4].translate(digits), 2)))
        object.__setattr__(self, "_ranked", ranked)
        object.__setattr__(self, "_planes", tuple(planes))

    def __getattr__(self, name):
        # reached only when the instance lacks the attribute: the levels of
        # a band-built Dist before their first read, or a true miss
        planes = self.__dict__.get("_planes")
        if name != "levels" or planes is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        codes = [0] * self.vocab.world_count
        for bit, plane in planes:
            for w in mask_worlds(plane):
                codes[w] |= bit
        # stored whole: racing first reads may each build it, and all get the one stored
        return self.__dict__.setdefault("levels", tuple(map(self._ranked.__getitem__, codes)))

    def _peak(self, mask: int) -> tuple[int, int]:
        """The highest code over a world bitmask, and the mask's worlds at it.

        Down the planes from the top bit, a plane that meets what is left
        of the mask sets that bit of the code and narrows the mask to the
        worlds it meets; one AND per plane.  The empty mask gives (0, 0).
        """
        code = 0
        for bit, plane in self._planes:
            hit = mask & plane
            if hit:
                mask = hit
                code |= bit
        return code, mask

    def poss_mask(self, mask: int) -> int:
        """Max level over a world bitmask; 0 for the empty mask."""
        return self._ranked[self._peak(mask)[0]]

    def is_total_order(self) -> bool:
        """True when no two worlds share a level."""
        return len(set(self.levels)) == len(self.levels)


def dist_from_bands(vocab: Vocabulary, top: int, bands) -> Dist:
    """The distribution with each band's worlds at its level, the rest at top.

    ``bands`` holds ``(level, mask)`` pairs with every level in
    0..top - 1 and pairwise disjoint world masks; a level may repeat and a
    mask may be empty.  Some world must lie in no band.  Each plane is the
    OR of the bands whose level's code has its bit; the bands are not
    kept, and ``levels`` is read off the planes on its first read (see
    ``Dist``).
    """
    if top < 1:
        raise ValueError(f"top level must be at least 1, got {top}")
    at: dict[int, int] = {}
    covered = 0
    for level, mask in bands:
        if not 0 <= level < top:
            raise ValueError(f"band level {level} outside 0..{top - 1}")
        if mask:
            at[level] = at.get(level, 0) | mask
            covered |= mask
    unbanded = full_mask(vocab.n) ^ covered
    if not unbanded:
        raise ValueError("distribution is not normalized: no world at the top level")
    ranked = tuple(sorted({0, top, *at}))
    by_code = [at.get(lv, 0) for lv in ranked[:-1]] + [unbanded]
    planes = []
    for j in reversed(range((len(ranked) - 1).bit_length())):
        plane = 0
        for code, mask in enumerate(by_code):
            if code >> j & 1:
                plane |= mask
        planes.append((1 << j, plane))
    d = object.__new__(Dist)
    d.__dict__.update(vocab=vocab, top=top, _ranked=ranked, _planes=tuple(planes))
    return d


def _bad_level(levels: tuple, top: int) -> ValueError:
    """The error for the first world whose level is no integer in 0..top."""
    for w, lv in enumerate(levels):
        try:
            lv_index = operator.index(lv)
        except TypeError:
            return ValueError(f"level {lv!r} at world {w} is not an integer")
        if not 0 <= lv_index <= top:
            return ValueError(f"level {lv} at world {w} outside 0..{top}")


def poss(d: Dist, f: Formula) -> int:
    """Possibility of a formula: max level over its models."""
    return d.poss_mask(model_mask(f, d.vocab.n))


def nec(d: Dist, f: Formula) -> int:
    """Necessity, the dual of possibility: top minus the possibility of not f."""
    return d.top - poss(d, Not(f))


def cond_poss(d: Dist, conclusion: Formula, given: Formula) -> int:
    """Min-based conditional possibility of conclusion given antecedent."""
    n = d.vocab.n
    a_mask = model_mask(given, n)
    pa = d.poss_mask(a_mask)
    pac = d.poss_mask(a_mask & model_mask(conclusion, n))
    # top where pac realizes pa, pac elsewhere
    return pac + (pac == pa) * (d.top - pac)


def cond_nec(d: Dist, conclusion: Formula, given: Formula) -> int:
    """Conditional necessity, the dual of conditional possibility: top minus
    the conditional possibility of not conclusion."""
    return d.top - cond_poss(d, Not(conclusion), given)


def entails(d: Dist, evidence: Formula, conclusion: Formula) -> TriState:
    """Acceptance by strict comparison of the two evidence cells.

    Accepted iff evidence-and-conclusion is strictly more possible than
    evidence-and-not-conclusion; Rejected for the mirror case; Ignored on
    ties (including an impossible evidence formula).

    Both cells split the evidence, so the larger one holds the evidence
    worlds at the highest level the evidence reaches: one descent of the
    bit-planes finds that level and those worlds, and the verdict is read
    off them.  All of them satisfying the conclusion is Accepted, none is
    Rejected, a mix is Ignored; so is evidence that reaches no level above
    0, whose cells are both at level 0.
    """
    # masks come straight from the nodes' memo; model_mask fills it on a miss
    n = len(d.vocab.atoms)
    mask = evidence._masks.get(n)
    code, reached = d._peak(model_mask(evidence, n) if mask is None else mask)
    if not code:
        return _IGNORED
    mask = conclusion._masks.get(n)
    kept = reached & (model_mask(conclusion, n) if mask is None else mask)
    if kept == reached:
        return _ACCEPTED
    if not kept:
        return _REJECTED
    return _IGNORED
