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
which it reads off one scan of the level bands.
"""

from __future__ import annotations

import enum

from .logic import Formula, Not, Record, Vocabulary, model_mask


class TriState(enum.Enum):
    """Outcome of asking whether evidence makes a conclusion accepted."""

    ACCEPTED = "Accepted"
    REJECTED = "Rejected"
    IGNORED = "Ignored"

    def __str__(self):
        return self.value


class Dist(Record):
    """Normalized possibility distribution over the worlds of a vocabulary.

    Besides the level of each world it keeps the level bands: for every
    positive level in use, the mask of the worlds at exactly that level,
    highest level first.  The bands are derived from ``levels`` and take
    no part in equality or hashing.
    """

    vocab: Vocabulary
    top: int
    levels: tuple[int, ...]

    def __post_init__(self):
        if self.top < 1:
            raise ValueError(f"top level must be at least 1, got {self.top}")
        count = self.vocab.world_count
        if len(self.levels) != count:
            raise ValueError(f"need {count} levels for {self.vocab.n} atoms, got {len(self.levels)}")
        at: dict[int, list[int]] = {}  # positive level -> its worlds
        for w, lv in enumerate(self.levels):
            if not (0 <= lv <= self.top):
                raise ValueError(f"level {lv} at world {w} outside 0..{self.top}")
            if lv:
                worlds = at.get(lv)
                if worlds is None:
                    at[lv] = [w]
                else:
                    worlds.append(w)
        if self.top not in at:
            raise ValueError("distribution is not normalized: no world at the top level")
        # each band is built from a count-byte row of binary digits, world 0
        # last; there can be up to count levels, so one row lives at a time
        bands = []
        for lv in sorted(at, reverse=True):
            row = bytearray(b"0") * count
            for w in at[lv]:
                row[~w] = 0x31  # "1"
            bands.append((lv, int(row, 2)))
        object.__setattr__(self, "_bands", tuple(bands))

    def poss_mask(self, mask: int) -> int:
        """Max level over a world bitmask; 0 for the empty mask.

        That is the level of the highest band the mask meets.
        """
        for level, band in self._bands:
            if band & mask:
                return level
        return 0

    def is_total_order(self) -> bool:
        """True when no two worlds share a level."""
        return len(set(self.levels)) == len(self.levels)


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

    Both cells split the evidence, so the larger one holds the highest band
    the evidence meets: one scan down the bands finds it, and the verdict
    is read off the evidence worlds in that band.  All of them satisfying
    the conclusion is Accepted, none is Rejected, a mix is Ignored; so is
    evidence that meets no band, whose cells are both at level 0.
    """
    n = d.vocab.n
    e_mask = model_mask(evidence, n)
    for _, band in d._bands:
        reached = band & e_mask
        if reached:
            kept = reached & model_mask(conclusion, n)
            if kept == reached:
                return TriState.ACCEPTED
            if not kept:
                return TriState.REJECTED
            return TriState.IGNORED
    return TriState.IGNORED


def qpo_geq(d: Dist, a: Formula, b: Formula) -> bool:
    """Qualitative possibility ordering: a is at least as possible as b."""
    return poss(d, a) >= poss(d, b)
