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
"""

from __future__ import annotations

import enum
import operator

from .logic import Formula, Not, Record, Vocabulary, model_mask


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
    ``(L - 1).bit_length()`` planes.  Ranks and planes are derived from
    ``levels`` and take no part in equality or hashing.

    A level or top is an integer when ``operator.index`` takes it; any
    other value is rejected with the world it sits at.
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
            raw = bytes(levels)  # one byte per world while every level is an integer in 0..255
        except (TypeError, ValueError):
            raw = None
        if raw is not None:
            # the byte values raw lacks, then the ones it has, ascending
            used = _BYTES.translate(None, _BYTES.translate(None, raw))
        else:
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
        # streams[k] holds byte k of every world's code, world 0 last; wide
        # codes are split by C-level maps, code >> 8k & 0xFF
        if raw is not None:
            streams = [raw.translate(bytes.maketrans(bytes(ranked), _BYTES[: len(ranked)]))[::-1]]
        else:
            rank = dict(zip(ranked, range(len(ranked))))
            codes = list(map(rank.__getitem__, reversed(levels)))
            streams = [bytes(map((0xFF).__and__, map(shift.__rrshift__, codes))) for shift in range(0, width, 8)]
        planes = []
        for j in reversed(range(width)):
            b = 1 << (j & 7)
            digits = (b"0" * b + b"1" * b) * (128 // b)  # byte c -> its bit j % 8 as a digit
            planes.append((1 << j, int(streams[j >> 3].translate(digits), 2)))
        object.__setattr__(self, "_ranked", ranked)
        object.__setattr__(self, "_planes", tuple(planes))

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


_BYTES = bytes(range(256))


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


def qpo_geq(d: Dist, a: Formula, b: Formula) -> bool:
    """Qualitative possibility ordering: a is at least as possible as b."""
    return poss(d, a) >= poss(d, b)
