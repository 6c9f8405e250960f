"""The law catalog as first written: one numpy lambda per law.

A reference implementation for ``ordindep.lawlab``, whose catalog states
each law once, as a statement that compiles to its predicate.  The
lambdas, their ``_imp``/``_iff`` helpers and the lambda-built composition
cells are kept here unchanged, so a test can require every compiled
predicate to give the same row as its lambda on every distribution and
generator tuple.  The cells are built from this module's own encoding of
the criteria, not from the lab's statements they are checked against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ordindep.lawlab import Law
from ordindep.logic import FALSE, TRUE, And, Not, Or


def _imp(p, q):
    return np.logical_or(np.logical_not(p), q)


def _iff(p, q):
    return np.logical_not(np.logical_xor(np.asarray(p, dtype=bool), np.asarray(q, dtype=bool)))


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
