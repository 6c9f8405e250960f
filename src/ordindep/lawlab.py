"""Exhaustive desk-scale checking of candidate laws.

Everything here quantifies over *all* normalized distributions for a small
vocabulary (up to 3 atoms) and scale (top up to 3), crossed with a fixed
finite formula generator set.  A law that survives such a sweep is not
proved, but a law that fails is definitively refuted, and every reported
counterexample is re-verified through the plain scalar implementations
before it is returned.

Every predicate runs through ScalarOps, a thin adapter over the ordinary
library calls in ``measures`` and ``independence``.  Those calls read a
distribution only through ``vocab``, ``top`` and ``poss_mask``, so the
checker hands ScalarOps a DistEnsemble, whose ``poss_mask`` returns one
level per enumerated distribution as a numpy row, to sweep them all at
once, and then a concrete Dist to confirm the first failure.  No measure
or relation formula is written out a second time here, and no composition
law either: the criteria table's cells and the catalog laws that state a
cell all come from ``composition_predicate``.  The relation-axiom probe
sweeps the same event table: one strong-independence call over every
event pair gives each distribution's dependence relation, and the axioms
are checked on that relation as an event x event dependence matrix.

The formula generator set is fixed and documented: the constants, every
literal, and the four sign variants of conjunction and disjunction over
the first two atoms.  Sizes: 4 formulas at n=1, 14 at n=2, 16 at n=3.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .logic import (
    FALSE,
    TRUE,
    And,
    Formula,
    Not,
    Or,
    Record,
    Vocabulary,
    format_formula,
    full_mask,
    model_mask,
)
from . import independence as indep
from . import measures
from .measures import Dist

DEFAULT_BUDGET = 10_000_000

MAX_LAB_ATOMS = 3
MAX_LAB_TOP = 3

LAB_ATOM_NAMES = ("a", "b", "c")


class BudgetError(ValueError):
    """A requested sweep exceeds the evaluation budget."""


def lab_vocabulary(n: int) -> Vocabulary:
    if not (1 <= n <= MAX_LAB_ATOMS):
        raise ValueError(f"lab vocabulary supports 1..{MAX_LAB_ATOMS} atoms, got {n}")
    return Vocabulary(LAB_ATOM_NAMES[:n])


def enumerate_dists(n: int, top: int, budget: int = DEFAULT_BUDGET) -> Iterator[Dist]:
    """Every normalized distribution over n atoms at the given scale.

    Deterministic order: levels run through the plain product order with
    the last world varying fastest; non-normalized tuples are skipped.
    """
    vocab = lab_vocabulary(n)
    if not (1 <= top <= MAX_LAB_TOP):
        raise ValueError(f"scale top must be 1..{MAX_LAB_TOP}, got {top}")
    raw = (top + 1) ** vocab.world_count
    if raw > budget:
        raise BudgetError(f"enumerating {raw} level tuples exceeds budget {budget}")
    for levels in itertools.product(range(top + 1), repeat=vocab.world_count):
        if max(levels) == top:
            yield Dist(vocab, top, levels)


def count_dists(n: int, top: int) -> int:
    """Closed form for the size of enumerate_dists' output."""
    w = 1 << n
    return (top + 1) ** w - top**w


def generator_formulas(vocab: Vocabulary) -> tuple[Formula, ...]:
    """The fixed formula pool quantified over by every law check."""
    gens: list[Formula] = [TRUE, FALSE]
    for i in range(vocab.n):
        x = vocab.atom(i)
        gens += (x, Not(x))
    if vocab.n >= 2:
        a, b = vocab.atom(0), vocab.atom(1)
        for join in (And, Or):
            for left in (a, Not(a)):
                for right in (b, Not(b)):
                    gens.append(join(left, right))
    return tuple(gens)


class DistEnsemble:
    """All enumerated distributions for one (n, top), as a level matrix
    plus the event table ``P[event, dist]``: the possibility of every one
    of the 2^(2^n) world sets in every distribution."""

    def __init__(self, n: int, top: int, budget: int = DEFAULT_BUDGET):
        self.vocab = lab_vocabulary(n)
        self.top = top
        self.levels = np.array([d.levels for d in enumerate_dists(n, top, budget)], dtype=np.int16)
        # events 2^w .. 2^(w+1)-1 are the events below 2^w with world w
        # added: each row is the smaller event's row maxed with w's column
        self.P = np.zeros((1 << self.vocab.world_count, self.count), dtype=np.int16)
        for w in range(self.vocab.world_count):
            self.P[1 << w : 2 << w] = np.maximum(self.P[: 1 << w], self.levels[:, w])

    @property
    def count(self) -> int:
        return len(self.levels)

    def dist_at(self, i: int) -> Dist:
        return Dist(self.vocab, self.top, tuple(self.levels[i].tolist()))

    def poss_mask(self, mask: int) -> np.ndarray:
        """The mask's row of P: its possibility in every distribution."""
        return self.P[mask]


class ScalarOps:
    """The measures and relations a law predicate may use, bound to one
    distribution source: a Dist gives plain ints and bools, a DistEnsemble
    gives one numpy row per call, via the same library calls."""

    def __init__(self, dist: Dist | DistEnsemble):
        self.dist = dist
        self.top = dist.top

    def poss(self, f: Formula) -> int:
        return measures.poss(self.dist, f)

    def nec(self, f: Formula) -> int:
        return measures.nec(self.dist, f)

    def cond_poss(self, c: Formula, a: Formula) -> int:
        return measures.cond_poss(self.dist, c, a)

    def cond_nec(self, c: Formula, a: Formula) -> int:
        return measures.cond_nec(self.dist, c, a)

    def related_z(self, a: Formula, c: Formula) -> bool:
        return indep.related_z(self.dist, a, c)

    def strong_indep(self, a: Formula, c: Formula) -> bool:
        return indep.strong_indep(self.dist, a, c)

    def strong_indep_direct(self, a: Formula, c: Formula) -> bool:
        return indep.strong_indep_direct(self.dist, a, c)

    def weak_indep(self, a: Formula, c: Formula) -> bool:
        return indep.weak_indep(self.dist, a, c)

    def weak_indep_direct(self, a: Formula, c: Formula) -> bool:
        return indep.weak_indep_direct(self.dist, a, c)

    def entails_classically(self, a: Formula, b: Formula) -> bool:
        n = self.dist.vocab.n
        return (model_mask(a, n) & (full_mask(n) ^ model_mask(b, n))) == 0


def _imp(p, q):
    return np.logical_or(np.logical_not(p), q)


def _iff(p, q):
    return np.logical_not(np.logical_xor(np.asarray(p, dtype=bool), np.asarray(q, dtype=bool)))


class Law(Record):
    """One universally quantified candidate property.

    The predicate takes an ops backend plus `arity` formulas and returns
    per-distribution truth; the note is a one-line human statement.
    """

    law_id: str
    arity: int
    note: str
    predicate: Callable


class Counterexample(Record):
    dist: Dist
    formulas: tuple[Formula, ...]


def format_counterexample(ce: Counterexample, indent: int = 4) -> str:
    """Two-line rendering: the instantiating formulas, then the distribution."""
    pad = " " * indent
    vocab = ce.dist.vocab
    shown = ", ".join(format_formula(f, vocab) for f in ce.formulas) if ce.formulas else "(none)"
    cells = "; ".join(f"{vocab.format_world(w)}={lv}" for w, lv in enumerate(ce.dist.levels))
    return f"{pad}formulas: {shown}\n{pad}dist (top {ce.dist.top}): {cells}"


class LawReport(Record):
    law_id: str
    atoms: int
    top: int
    evaluations: int
    holds: bool
    counterexample: Optional[Counterexample]


# -- composition criteria ----------------------------------------------

# criterion -> (states dependence?, connective, joins the second argument?):
# "CCD" reads dep(a, c) and dep(b, c) imply dep(a&b, c); "CCD-r" reads
# dep(a, b) and dep(a, c) imply dep(a, b&c).
CRITERIA: dict[str, tuple[bool, type, bool]] = {
    "CCD": (True, And, False),
    "CCI": (False, And, False),
    "CCD-r": (True, And, True),
    "CCI-r": (False, And, True),
    "DCI": (False, Or, False),
    "DCI-r": (False, Or, True),
    "DCD": (True, Or, False),
    "DCD-r": (True, Or, True),
}

# Each relation's independence test; dependence is its negation.
RELATIONS: dict[str, Callable] = {
    "Zadeh": lambda o, x, y: np.logical_not(o.related_z(x, y)),
    "Strong": lambda o, x, y: o.strong_indep(x, y),
    "Weak": lambda o, x, y: o.weak_indep(x, y),
}


def composition_predicate(relation: str, criterion: str) -> Callable:
    """The law predicate of one relation x criterion cell, arity 3."""
    ind = RELATIONS[relation]
    dependence, join, second = CRITERIA[criterion]

    def rel(o, x, y):
        return np.logical_not(ind(o, x, y)) if dependence else ind(o, x, y)

    if second:
        return lambda o, a, b, c: _imp(rel(o, a, b) & rel(o, a, c), rel(o, a, join(b, c)))
    return lambda o, a, b, c: _imp(rel(o, a, c) & rel(o, b, c), rel(o, join(a, b), c))


def _catalog() -> tuple[Law, ...]:
    laws: list[Law] = []

    def add(law_id: str, arity: int, note: str, predicate: Callable):
        laws.append(Law(law_id, arity, note, predicate))

    # a law that is a table cell; its note may state the contrapositive
    def cell(law_id: str, relation: str, criterion: str, note: str):
        add(law_id, 3, note, composition_predicate(relation, criterion))

    # -- measure layer ------------------------------------------------

    add(
        "poss-disjunction-max", 2,
        "poss(a|b) = max(poss(a), poss(b))",
        lambda o, a, b: o.poss(Or(a, b)) == np.maximum(o.poss(a), o.poss(b)),
    )
    add(
        "nec-conjunction-min", 2,
        "nec(a&b) = min(nec(a), nec(b))",
        lambda o, a, b: o.nec(And(a, b)) == np.minimum(o.nec(a), o.nec(b)),
    )
    add(
        "poss-normalization", 1,
        "max(poss(a), poss(!a)) = top",
        lambda o, a: np.maximum(o.poss(a), o.poss(Not(a))) == o.top,
    )
    add(
        "acceptance-one-sided", 1,
        "nec(a) > 0 implies nec(!a) = 0",
        lambda o, a: _imp(o.nec(a) > 0, o.nec(Not(a)) == 0),
    )
    add(
        "qpo-nontriviality", 0,
        "poss(true) > poss(false)",
        lambda o: o.poss(TRUE) > o.poss(FALSE),
    )
    add(
        "qpo-tautology", 1,
        "poss(true) >= poss(a)",
        lambda o, a: o.poss(TRUE) >= o.poss(a),
    )
    add(
        "qpo-transitivity", 3,
        "poss(a) >= poss(b) and poss(b) >= poss(c) imply poss(a) >= poss(c)",
        lambda o, a, b, c: _imp(
            (o.poss(a) >= o.poss(b)) & (o.poss(b) >= o.poss(c)), o.poss(a) >= o.poss(c)
        ),
    )
    add(
        "qpo-disjunctiveness", 2,
        "poss(a|b) <= poss(a) or poss(a|b) <= poss(b)",
        lambda o, a, b: (o.poss(Or(a, b)) <= o.poss(a)) | (o.poss(Or(a, b)) <= o.poss(b)),
    )
    add(
        "qpo-dominance", 2,
        "a entails b classically implies poss(a) <= poss(b)",
        lambda o, a, b: _imp(o.entails_classically(a, b), o.poss(a) <= o.poss(b)),
    )
    add(
        "cond-impossible-antecedent", 2,
        "poss(a) = 0 implies cond_poss(c, a) = top",
        lambda o, a, c: _imp(o.poss(a) == 0, o.cond_poss(c, a) == o.top),
    )
    add(
        "cond-full-conjunction", 2,
        "poss(a&c) = top implies cond_poss(c, a) = top",
        lambda o, a, c: _imp(o.poss(And(a, c)) == o.top, o.cond_poss(c, a) == o.top),
    )
    add(
        "cond-impossible-conclusion", 2,
        "poss(a) > 0 and poss(c) = 0 imply cond_poss(c, a) = 0",
        lambda o, a, c: _imp((o.poss(a) > 0) & (o.poss(c) == 0), o.cond_poss(c, a) == 0),
    )
    add(
        "cond-self-contradiction-top", 1,
        "cond_poss(c, !c) = top iff poss(!c) = 0",
        lambda o, c: _iff(o.cond_poss(c, Not(c)) == o.top, o.poss(Not(c)) == 0),
    )
    add(
        "cond-self-contradiction-zero", 1,
        "cond_poss(c, !c) = 0 iff poss(!c) > 0",
        lambda o, c: _iff(o.cond_poss(c, Not(c)) == 0, o.poss(Not(c)) > 0),
    )
    add(
        "cond-min-decomposition", 2,
        "min(cond_poss(c, a), poss(a)) = poss(a&c)",
        lambda o, a, c: np.minimum(o.cond_poss(c, a), o.poss(a)) == o.poss(And(a, c)),
    )
    add(
        "acceptance-strict-comparison", 2,
        "cond_nec(c, a) > 0 iff poss(a&c) > poss(a&!c)",
        lambda o, a, c: _iff(
            o.cond_nec(c, a) > 0, o.poss(And(a, c)) > o.poss(And(a, Not(c)))
        ),
    )
    add(
        "cond-nec-material-when-positive", 2,
        "cond_nec(c, a) > 0 implies cond_nec(c, a) = nec(!a|c)",
        lambda o, a, c: _imp(
            o.cond_nec(c, a) > 0, o.cond_nec(c, a) == o.nec(Or(Not(a), c))
        ),
    )

    # -- Zadeh relatedness --------------------------------------------

    add(
        "zadeh-unrelated-cell-bound", 2,
        "unrelated iff poss(a&c) >= min(poss(a&!c), poss(!a&c))",
        lambda o, a, c: _iff(
            np.logical_not(o.related_z(a, c)),
            o.poss(And(a, c))
            >= np.minimum(o.poss(And(a, Not(c))), o.poss(And(Not(a), c))),
        ),
    )
    add(
        "zadeh-related-mutual-rejection", 2,
        "related iff cond_nec(!c, a) > 0 and cond_nec(!a, c) > 0",
        lambda o, a, c: _iff(
            o.related_z(a, c),
            (o.cond_nec(Not(c), a) > 0) & (o.cond_nec(Not(a), c) > 0),
        ),
    )
    add(
        "zadeh-symmetry", 2,
        "related(a, c) iff related(c, a)",
        lambda o, a, c: _iff(o.related_z(a, c), o.related_z(c, a)),
    )
    cell("zadeh-split-disjunction-conclusion", "Zadeh", "DCI-r",
         "related(a, b|c) implies related(a, b) or related(a, c)")
    cell("zadeh-split-disjunction-antecedent", "Zadeh", "DCI",
         "related(a|b, c) implies related(a, c) or related(b, c)")
    cell("zadeh-merge-disjunction-antecedent", "Zadeh", "DCD",
         "related(a, c) and related(b, c) imply related(a|b, c)")
    cell("zadeh-merge-disjunction-conclusion", "Zadeh", "DCD-r",
         "related(a, b) and related(a, c) imply related(a, b|c)")
    add(
        "zadeh-false-unrelated", 1,
        "false is unrelated to everything",
        lambda o, a: np.logical_not(o.related_z(FALSE, a)),
    )
    add(
        "zadeh-true-unrelated", 1,
        "true is unrelated to everything",
        lambda o, a: np.logical_not(o.related_z(TRUE, a)),
    )
    add(
        "zadeh-self-unrelated", 1,
        "a is unrelated to itself",
        lambda o, a: np.logical_not(o.related_z(a, a)),
    )
    add(
        "zadeh-negation-pair", 1,
        "a unrelated to !a iff poss(a) = 0 or poss(!a) = 0",
        lambda o, a: _iff(
            np.logical_not(o.related_z(a, Not(a))),
            (o.poss(a) == 0) | (o.poss(Not(a)) == 0),
        ),
    )
    add(
        "zadeh-absorption-unrelated", 2,
        "a|c is unrelated to a",
        lambda o, a, c: np.logical_not(o.related_z(Or(a, c), a)),
    )

    # -- strong independence ------------------------------------------

    add(
        "strong-defs-agree", 2,
        "conditional-necessity and cell forms of strong independence coincide",
        lambda o, a, c: _iff(o.strong_indep(a, c), o.strong_indep_direct(a, c)),
    )

    def necessity_cases(o, a, c):
        cn = o.cond_nec(c, a)
        n0 = o.nec(c)
        pac = o.poss(And(a, c))
        panc = o.poss(And(a, Not(c)))
        pnanc = o.poss(And(Not(a), Not(c)))
        case_i = (np.maximum(pnanc, panc) == o.top) & (panc >= pac)
        case_ii = (pac > panc) & (panc >= pnanc)
        out = _iff(cn == n0, np.logical_or(case_i, case_ii))
        out = np.logical_and(out, _iff(case_i, (cn == 0) & (n0 == 0)))
        return np.logical_and(out, _iff(case_ii, (cn == n0) & (n0 > 0)))

    add(
        "strong-necessity-cases", 2,
        "cond_nec(c,a) = nec(c) splits into the zero case and the strict case",
        necessity_cases,
    )
    add(
        "strong-char-min-form", 2,
        "strong iff poss(a&!c) = min(poss(a), poss(!c)) and poss(!c) < poss(a)",
        lambda o, a, c: _iff(
            o.strong_indep(a, c),
            (o.poss(And(a, Not(c))) == np.minimum(o.poss(a), o.poss(Not(c))))
            & (o.poss(Not(c)) < o.poss(a)),
        ),
    )
    add(
        "strong-dep-char-negation", 2,
        "dependent iff poss(a) <= poss(!c) or poss(!c) > poss(a&!c)",
        lambda o, a, c: _iff(
            np.logical_not(o.strong_indep(a, c)),
            (o.poss(a) <= o.poss(Not(c))) | (o.poss(Not(c)) > o.poss(And(a, Not(c)))),
        ),
    )
    add(
        "strong-implies-conjunction-min", 2,
        "strong independence forces poss(a&c) = min(poss(a), poss(c))",
        lambda o, a, c: _imp(
            o.strong_indep(a, c),
            o.poss(And(a, c)) == np.minimum(o.poss(a), o.poss(c)),
        ),
    )
    add(
        "strong-blocked-by-negation-level", 2,
        "poss(!c) >= poss(a) forces dependence",
        lambda o, a, c: _imp(
            o.poss(Not(c)) >= o.poss(a), np.logical_not(o.strong_indep(a, c))
        ),
    )
    cell("strong-dep-conjunction-split", "Strong", "CCI-r",
         "dep(a, b&c) implies dep(a, b) or dep(a, c)")
    cell("strong-dep-antecedent-split", "Strong", "DCI",
         "dep(a|b, c) implies dep(a, c) or dep(b, c)")
    cell("strong-dep-disjunction-merge", "Strong", "DCD",
         "dep(a, c) and dep(b, c) imply dep(a|b, c)")
    cell("strong-dep-consequent-merge", "Strong", "CCD-r",
         "dep(a, b) and dep(a, c) imply dep(a, b&c)")
    add(
        "strong-false-antecedent-dep", 1,
        "false is dependent with everything (antecedent side)",
        lambda o, c: np.logical_not(o.strong_indep(FALSE, c)),
    )
    add(
        "strong-true-antecedent", 1,
        "true is strongly independent of c iff nec(c) > 0",
        lambda o, c: _iff(o.strong_indep(TRUE, c), o.nec(c) > 0),
    )
    add(
        "strong-false-consequent-dep", 1,
        "everything is dependent with false (consequent side)",
        lambda o, a: np.logical_not(o.strong_indep(a, FALSE)),
    )
    add(
        "strong-true-consequent", 1,
        "a is strongly independent of true iff poss(a) > 0",
        lambda o, a: _iff(o.strong_indep(a, TRUE), o.poss(a) > 0),
    )
    add(
        "strong-disjoint-conjunctions-dep", 3,
        "a&b is dependent with !b&c",
        lambda o, a, b, c: np.logical_not(o.strong_indep(And(a, b), And(Not(b), c))),
    )
    add(
        "strong-exclusion-dep", 2,
        "a entailing !c classically forces dependence",
        lambda o, a, c: _imp(
            o.entails_classically(a, Not(c)), np.logical_not(o.strong_indep(a, c))
        ),
    )
    add(
        "strong-order-embedding-strict", 2,
        "strong_indep(a|c, !c) iff poss(a) > poss(c)",
        lambda o, a, c: _iff(o.strong_indep(Or(a, c), Not(c)), o.poss(a) > o.poss(c)),
    )
    add(
        "strong-self", 1,
        "a is strongly independent of itself iff nec(a) = top",
        lambda o, a: _iff(o.strong_indep(a, a), o.nec(a) == o.top),
    )
    add(
        "strong-impossible-antecedent-dep", 2,
        "poss(a) = 0 forces dependence",
        lambda o, a, c: _imp(o.poss(a) == 0, np.logical_not(o.strong_indep(a, c))),
    )
    add(
        "strong-certain-negation-dep", 2,
        "poss(c) = top forces dependence of anything with !c",
        lambda o, a, c: _imp(
            o.poss(c) == o.top, np.logical_not(o.strong_indep(a, Not(c)))
        ),
    )
    add(
        "strong-contraposition-split", 2,
        "dep(a, c) or dep(!c, !a)",
        lambda o, a, c: np.logical_not(o.strong_indep(a, c))
        | np.logical_not(o.strong_indep(Not(c), Not(a))),
    )
    add(
        "strong-order-embedding-weak-form", 2,
        "dep(a|c, !a) iff poss(a) >= poss(c)",
        lambda o, a, c: _iff(
            np.logical_not(o.strong_indep(Or(a, c), Not(a))), o.poss(a) >= o.poss(c)
        ),
    )
    add(
        "nec-order-embedding", 2,
        "dep(!a|!c, c) iff nec(a) >= nec(c)",
        lambda o, a, c: _iff(
            np.logical_not(o.strong_indep(Or(Not(a), Not(c)), c)),
            o.nec(a) >= o.nec(c),
        ),
    )
    add(
        "dep-axiom-tautology-pair", 0,
        "true is strongly independent of true",
        lambda o: o.strong_indep(TRUE, TRUE),
    )
    add(
        "dep-axiom-transitivity", 3,
        "dep(a|b, !b) and dep(b|c, !c) imply dep(a|c, !c)",
        lambda o, a, b, c: _imp(
            np.logical_not(o.strong_indep(Or(a, b), Not(b)))
            & np.logical_not(o.strong_indep(Or(b, c), Not(c))),
            np.logical_not(o.strong_indep(Or(a, c), Not(c))),
        ),
    )
    add(
        "dep-axiom-self-negation", 1,
        "a is dependent with !a",
        lambda o, a: np.logical_not(o.strong_indep(a, Not(a))),
    )
    add(
        "strong-symmetric", 2,
        "strong independence would be symmetric (it is not)",
        lambda o, a, c: _iff(o.strong_indep(a, c), o.strong_indep(c, a)),
    )
    add(
        "strong-negation-transparent", 2,
        "strong_indep(a, c) would imply strong_indep(a, !c) (it does not)",
        lambda o, a, c: _imp(o.strong_indep(a, c), o.strong_indep(a, Not(c))),
    )
    add(
        "strong-via-zadeh-negation", 2,
        "strong iff unrelated to the negation and poss(!c) < poss(a)",
        lambda o, a, c: _iff(
            o.strong_indep(a, c),
            np.logical_not(o.related_z(a, Not(c))) & (o.poss(Not(c)) < o.poss(a)),
        ),
    )

    # -- weak independence --------------------------------------------

    add(
        "weak-defs-agree", 2,
        "conditional-necessity and cell forms of weak independence coincide",
        lambda o, a, c: _iff(o.weak_indep(a, c), o.weak_indep_direct(a, c)),
    )
    add(
        "weak-strong-decomposition", 2,
        "strong iff weak plus poss(a&!c) = poss(!c)",
        lambda o, a, c: _iff(
            o.strong_indep(a, c),
            o.weak_indep(a, c) & (o.poss(And(a, Not(c))) == o.poss(Not(c))),
        ),
    )
    add(
        "weak-implies-unrelated", 2,
        "weak independence implies unrelatedness",
        lambda o, a, c: _imp(o.weak_indep(a, c), np.logical_not(o.related_z(a, c))),
    )
    add(
        "strong-implies-weak", 2,
        "strong independence implies weak independence",
        lambda o, a, c: _imp(o.strong_indep(a, c), o.weak_indep(a, c)),
    )
    add(
        "weak-min-form-not-implied", 2,
        "weak would force poss(a&!c) = min(poss(a), poss(!c)) (it does not)",
        lambda o, a, c: _imp(
            o.weak_indep(a, c),
            o.poss(And(a, Not(c))) == np.minimum(o.poss(a), o.poss(Not(c))),
        ),
    )
    add(
        "weak-self", 1,
        "a is weakly independent of itself iff nec(a) > 0",
        lambda o, a: _iff(o.weak_indep(a, a), o.nec(a) > 0),
    )
    add(
        "weak-contraposition-split", 2,
        "weak dep(a, c) or weak dep(!c, !a) (fails: both can be independent)",
        lambda o, a, c: np.logical_not(o.weak_indep(a, c))
        | np.logical_not(o.weak_indep(Not(c), Not(a))),
    )
    add(
        "weak-contraposition-pair-char", 2,
        "the exact cell condition for weak independence in both directions",
        lambda o, a, c: _iff(
            o.weak_indep(a, c) & o.weak_indep(Not(c), Not(a)),
            (
                o.poss(And(Not(a), c))
                > np.maximum(o.poss(And(a, c)), o.poss(And(Not(a), Not(c))))
            )
            & (
                np.minimum(o.poss(And(a, c)), o.poss(And(Not(a), Not(c))))
                > o.poss(And(a, Not(c)))
            ),
        ),
    )
    add(
        "weak-or-merge-printed", 3,
        "wi(a, c) or wi(b, c) would imply wi(a|b, c) (one-premise form)",
        lambda o, a, b, c: _imp(
            o.weak_indep(a, c) | o.weak_indep(b, c), o.weak_indep(Or(a, b), c)
        ),
    )
    add(
        "weak-or-conjunction-printed", 3,
        "wi(a, b) or wi(a, c) would imply wi(a, b&c) (one-premise form)",
        lambda o, a, b, c: _imp(
            o.weak_indep(a, b) | o.weak_indep(a, c), o.weak_indep(a, And(b, c))
        ),
    )
    add(
        "weak-conjunction-iff", 3,
        "wi(a, b&c) iff wi(a, b) and wi(a, c)",
        lambda o, a, b, c: _iff(
            o.weak_indep(a, And(b, c)), o.weak_indep(a, b) & o.weak_indep(a, c)
        ),
    )
    add(
        "weak-disjunction-iff", 3,
        "wi(a|b, c) iff wi(a, c) and wi(b, c)",
        lambda o, a, b, c: _iff(
            o.weak_indep(Or(a, b), c), o.weak_indep(a, c) & o.weak_indep(b, c)
        ),
    )
    add(
        "weak-strong-collapse-on-cover", 2,
        "wi(a|!c, c) iff strong_indep(a|!c, c)",
        lambda o, a, c: _iff(
            o.weak_indep(Or(a, Not(c)), c), o.strong_indep(Or(a, Not(c)), c)
        ),
    )

    # -- plausible inference ------------------------------------------

    add(
        "rational-monotony", 3,
        "accepted conclusions survive evidence that was not rejected",
        lambda o, a, b, c: _imp(
            (o.cond_nec(a, b) > 0) & (o.cond_nec(Not(c), b) == 0),
            o.cond_nec(a, And(b, c)) > 0,
        ),
    )

    return tuple(laws)


CATALOG: tuple[Law, ...] = _catalog()

_CATALOG_BY_ID = {law.law_id: law for law in CATALOG}


def law_by_id(law_id: str) -> Law:
    try:
        return _CATALOG_BY_ID[law_id]
    except KeyError:
        raise KeyError(f"unknown law id: {law_id!r}") from None


def law_cost(law: Law, dist_count: int, generator_count: int) -> int:
    return dist_count * generator_count**law.arity


def check_law(
    law: Law,
    n: int,
    top: int,
    budget: int = DEFAULT_BUDGET,
    ensemble: Optional[DistEnsemble] = None,
) -> LawReport:
    """Quantify one law over the full enumeration and the generator set.

    The first failing (formula tuple, distribution) pair in deterministic
    order becomes the counterexample, after a run on that distribution
    alone confirms that it really falsifies the law.
    """
    if ensemble is None:
        ensemble = DistEnsemble(n, top, budget)
    gens = generator_formulas(ensemble.vocab)
    cost = law_cost(law, ensemble.count, len(gens))
    if cost > budget:
        raise BudgetError(f"law {law.law_id} needs {cost} evaluations, budget is {budget}")
    ops = ScalarOps(ensemble)
    done = 0
    for combo in itertools.product(gens, repeat=law.arity):
        row = law.predicate(ops, *combo)
        done += ensemble.count
        if not np.all(row):
            i = int(np.argmin(row))
            dist = ensemble.dist_at(i)
            if np.all(law.predicate(ScalarOps(dist), *combo)):
                raise RuntimeError(
                    f"backend disagreement on law {law.law_id}: vector run failed, scalar run passed"
                )
            return LawReport(law.law_id, n, top, done, False, Counterexample(dist, combo))
    return LawReport(law.law_id, n, top, done, True, None)


def _sweep(laws, n: int, top: int, budget: int, what: str) -> list[LawReport]:
    """Check the laws on one shared ensemble; budget covers the total."""
    ensemble = DistEnsemble(n, top, budget)
    gens = len(generator_formulas(ensemble.vocab))
    total = sum(law_cost(law, ensemble.count, gens) for law in laws)
    if total > budget:
        raise BudgetError(f"{what} needs {total} evaluations, budget is {budget}")
    return [check_law(law, n, top, budget, ensemble) for law in laws]


def run_catalog(n: int, top: int, budget: int = DEFAULT_BUDGET) -> list[LawReport]:
    """Check every cataloged law at one (n, top); budget covers the total."""
    return _sweep(CATALOG, n, top, budget, "full catalog")


class CriterionReport(Record):
    criterion: str
    relation: str
    atoms: int
    top: int
    holds: bool
    counterexample: Optional[Counterexample]


def criteria_table(n: int, top: int, budget: int = DEFAULT_BUDGET) -> list[CriterionReport]:
    """All 8 composition criteria crossed with the 3 relations."""
    cells = [(relation, criterion) for relation in RELATIONS for criterion in CRITERIA]
    laws = [Law(f"{r.lower()}-{c.lower()}", 3, "", composition_predicate(r, c)) for r, c in cells]
    reports = _sweep(laws, n, top, budget, "criteria table")
    return [
        CriterionReport(criterion, relation, n, top, rep.holds, rep.counterexample)
        for (relation, criterion), rep in zip(cells, reports)
    ]


# -- completeness probe ------------------------------------------------

# The abstract side of the axiomatization: a candidate dependence relation
# is a set of (event, event) pairs, events being world-set bitmasks.  The
# probe filters candidates by the five closure axioms and then hunts for a
# distribution whose strong-dependence relation matches exactly.


def realized_relations(ensemble: DistEnsemble) -> list[int]:
    """Strong-dependence relation of every distribution in the ensemble,
    in ensemble order, each packed as a bitset over the E = 2^(2^n)
    events: bit x*E + y is set when event x is dependent with event y.

    One broadcast call reads every event pair off the event table, so it
    builds (E, E, count) tables: intended for n <= 2 (16 x 16 x 175 at
    (2, 3)); at (3, 2) each would be 256 x 256 x 6305, over 400 MB.
    """
    events = len(ensemble.P)
    ids = np.arange(events)
    dep = ~indep.strong_indep_masks(ensemble, ids[:, None], ids[None, :])
    packed = np.packbits(dep.reshape(events * events, ensemble.count), axis=0, bitorder="little")
    return [int.from_bytes(column.tobytes(), "little") for column in packed.T]


@lru_cache(maxsize=None)
def _forced_pairs(n: int, mode: str) -> np.ndarray:
    """The E x E matrix of pairs the non-conditional axioms force
    dependent, per reading of the self-negation axiom: 'printed' pins only
    (a, false) and (a, not a); 'schema' pins every disjoint pair.  Built
    once per (n, mode) and read-only."""
    if mode not in ("printed", "schema"):
        raise ValueError(f"unknown axiom mode: {mode!r}")
    events = 1 << (1 << n)
    x, y = np.ogrid[:events, :events]
    forced = (y == 0) | (y == full_mask(n) ^ x) if mode == "printed" else (x & y) == 0
    forced.flags.writeable = False
    return forced


@lru_cache(maxsize=None)
def _event_triples(n: int) -> tuple[np.ndarray, ...]:
    """Index arrays over every event triple (x, y, z), built once per n and
    read-only: the open grids x, y and z, then the six event arrays the
    axioms look up, x | y, full ^ y, y | z, full ^ z, x | z and y & z."""
    events = 1 << (1 << n)
    full = full_mask(n)
    x, y, z = np.ogrid[:events, :events, :events]
    arrays = (x, y, z, x | y, full ^ y, y | z, full ^ z, x | z, y & z)
    for array in arrays:
        array.flags.writeable = False
    return arrays


def relation_axioms_hold(bits: int, n: int, mode: str = "printed") -> bool:
    """The five dependence axioms, read over event bitmasks: the forced
    pairs are dependent, (true, true) is not, and transitivity and the
    split axiom hold for every event triple."""
    events = 1 << (1 << n)
    pairs = events * events
    if not 0 <= bits < 1 << pairs:
        raise ValueError(f"relation bits must lie in [0, 2**{pairs}) at {n} atoms")
    raw = np.frombuffer(bits.to_bytes((pairs + 7) // 8, "little"), dtype=np.uint8)
    dep = np.unpackbits(raw, count=pairs, bitorder="little").view(bool).reshape(events, events)
    full = full_mask(n)
    if not np.all(dep[_forced_pairs(n, mode)]) or dep[full, full]:
        return False
    x, y, z, x_or_y, not_y, y_or_z, not_z, x_or_z, y_and_z = _event_triples(n)
    transitivity = ~(dep[x_or_y, not_y] & dep[y_or_z, not_z]) | dep[x_or_z, not_z]
    split = ~dep[x, y_and_z] | dep[x, y] | dep[x, z]
    return bool(np.all(transitivity) and np.all(split))


class ProbeReport(Record):
    atoms: int
    candidates: int
    satisfying: int
    realized: int
    unrealized: tuple[int, ...]


# the probes realize relations at these scales, and a sampled mutation
# flips between one and PROBE_FLIPS pair bits
PROBE_TOPS = (1, 2, 3)
PROBE_FLIPS = 3


def _realized_relations(n: int) -> set[int]:
    return {bits for top in PROBE_TOPS for bits in realized_relations(DistEnsemble(n, top))}


def _score(n: int, candidates: Iterable[int], realized: set[int], mode: str) -> ProbeReport:
    """Count the candidate relations, those the axioms admit, and those of
    the admitted that no distribution realizes."""
    candidates = list(candidates)
    admitted = [bits for bits in candidates if relation_axioms_hold(bits, n, mode)]
    unrealized = tuple(bits for bits in admitted if bits not in realized)
    return ProbeReport(n, len(candidates), len(admitted), len(admitted) - len(unrealized), unrealized)


def completeness_probe_exact(mode: str = "printed") -> ProbeReport:
    """Single-atom case: every abstract relation, checked outright.

    With one atom there are 4 events and 16 pairs; the axiom-forced pair
    slots are fixed up front and the loop only expands the free ones.
    """
    n = 1
    forced = _forced_pairs(n, mode).ravel()
    base = sum(1 << i for i in np.flatnonzero(forced).tolist())
    # the last slot is (true, true), which the axioms exclude
    free = [1 << i for i in np.flatnonzero(~forced).tolist() if i != forced.size - 1]
    candidates = (
        base + sum(bit for take, bit in zip(picks, free) if take)
        for picks in itertools.product((0, 1), repeat=len(free))
    )
    return _score(n, candidates, _realized_relations(n), mode)


def completeness_probe_sampled(samples: int = 500, seed: int = 0, mode: str = "printed") -> ProbeReport:
    """Two-atom case: 2**256 candidate relations rule out enumeration, so
    mutate realized relations pairwise and keep the axiom-satisfying ones."""
    n = 2
    pair_count = (1 << (1 << n)) ** 2
    realized = _realized_relations(n)
    rng = random.Random(seed)
    pool = sorted(realized)
    draws = []
    for _ in range(samples):
        bits = rng.choice(pool)
        for _ in range(rng.randint(1, PROBE_FLIPS)):
            bits ^= 1 << rng.randrange(pair_count)
        draws.append(bits)
    return _score(n, dict.fromkeys(draws), realized, mode)
