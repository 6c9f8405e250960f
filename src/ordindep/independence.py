"""Qualitative independence relations between propositions.

Three relations over one distribution, from weakest to strongest test:

* Zadeh relatedness: the conjunction's possibility departs from the min
  of the conjuncts' possibilities.
* weak independence: the conclusion stays accepted when conditioning on
  the other proposition.
* strong independence: the conclusion keeps its exact positive necessity
  when conditioning on the other proposition.

Each of the latter two also has a "direct" formulation written purely in
terms of the four cell possibilities; the pairs must agree everywhere,
which the law catalog checks exhaustively.

Each cell form lives once, in a function of formulas (``related_z``,
``strong_indep_direct``, ``weak_indep_direct``) that reads the formulas'
world-set masks; ``classify`` takes its verdicts from them.  Event arrays
reach them only as ``lawlab._EventIds`` leaves, formulas whose masks are
arrays of event ids.  Like ``measures``, everything here reads a
distribution only through ``vocab``, ``top`` and ``poss_mask`` and combines
verdicts with ``&``, so it runs unchanged on a ``lawlab.DistEnsemble``; only
``classify``, which uses ``not`` and builds an ``IndepReport``, needs a
single ``Dist``.
"""

from __future__ import annotations

from .logic import Formula, Record, full_mask, model_mask
from .measures import Dist, cond_nec, nec


class IndepReport(Record):
    """Relation verdicts plus the four cell possibilities behind them."""

    unrelated_z: bool
    weak: bool
    strong: bool
    poss_ac: int
    poss_a_nc: int
    poss_na_c: int
    poss_na_nc: int


def _masks(d: Dist, a: Formula, c: Formula) -> tuple[int, int]:
    return model_mask(a, d.vocab.n), model_mask(c, d.vocab.n)


def related_z(d: Dist, a: Formula, c: Formula) -> bool:
    """Zadeh relatedness: poss(a & c) differs from min(poss(a), poss(c)).

    poss(a & c) is at most both poss(a) and poss(c), so it differs from
    their min exactly when it differs from each of them.
    """
    a_mask, c_mask = _masks(d, a, c)
    pac = d.poss_mask(a_mask & c_mask)
    return (pac != d.poss_mask(a_mask)) & (pac != d.poss_mask(c_mask))


def strong_indep(d: Dist, a: Formula, c: Formula) -> bool:
    """Conditioning on a leaves the conclusion's necessity positive and unchanged."""
    n_c = nec(d, c)
    return (n_c > 0) & (cond_nec(d, c, a) == n_c)


def strong_indep_direct(d: Dist, a: Formula, c: Formula) -> bool:
    """Cell form of strong independence: poss(a) > poss(!c) = poss(a & !c)."""
    a_mask, c_mask = _masks(d, a, c)
    nc_mask = full_mask(d.vocab.n) ^ c_mask
    pnc = d.poss_mask(nc_mask)
    return (d.poss_mask(a_mask) > pnc) & (pnc == d.poss_mask(a_mask & nc_mask))


def weak_indep(d: Dist, a: Formula, c: Formula) -> bool:
    """Conclusion accepted outright and still accepted given a."""
    return (nec(d, c) > 0) & (cond_nec(d, c, a) > 0)


def weak_indep_direct(d: Dist, a: Formula, c: Formula) -> bool:
    """Cell form of weak independence: poss(a & c) > poss(a & !c) and
    poss(c) > poss(!a & !c)."""
    a_mask, c_mask = _masks(d, a, c)
    full = full_mask(d.vocab.n)
    return (d.poss_mask(a_mask & c_mask) > d.poss_mask(a_mask & (full ^ c_mask))) & (
        d.poss_mask(c_mask) > d.poss_mask((full ^ a_mask) & (full ^ c_mask))
    )


def cond_weak_indep(d: Dist, conclusion: Formula, context: Formula, extra: Formula) -> bool:
    """Conclusion accepted in the context and still accepted with the extra fact."""
    return (cond_nec(d, conclusion, context) > 0) & (cond_nec(d, conclusion, context & extra) > 0)


def classify(d: Dist, a: Formula, c: Formula) -> IndepReport:
    """All three relation verdicts for the pair, with witness cells."""
    a_mask, c_mask = _masks(d, a, c)
    full = full_mask(d.vocab.n)
    na_mask, nc_mask = full ^ a_mask, full ^ c_mask
    return IndepReport(
        unrelated_z=not related_z(d, a, c),
        weak=weak_indep_direct(d, a, c),
        strong=strong_indep_direct(d, a, c),
        poss_ac=d.poss_mask(a_mask & c_mask),
        poss_a_nc=d.poss_mask(a_mask & nc_mask),
        poss_na_c=d.poss_mask(na_mask & c_mask),
        poss_na_nc=d.poss_mask(na_mask & nc_mask),
    )
