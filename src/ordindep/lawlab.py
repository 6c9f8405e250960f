"""Exhaustive desk-scale checking of candidate laws.

Everything here quantifies over *all* normalized distributions for a small
vocabulary (up to 3 atoms) and scale (top up to 3), crossed with a fixed
finite formula generator set.  A law that survives such a sweep is not
proved, but a law that fails is definitively refuted, and every reported
counterexample is re-verified through the plain scalar implementations
before it is returned.

Each law is written once, as a statement (``Law.note``) in a small
grammar over the ScalarOps methods and ``top``, and compiled at import into
the predicate that is checked; the criteria table's cells are generated
statements on the same path.  ScalarOps adapts the library calls in
``measures`` and ``independence``, which read a distribution only through
``vocab``, ``top`` and ``poss_mask``: the checker hands it a DistEnsemble,
whose ``poss_mask`` returns one level per enumerated distribution as a
numpy row, to sweep them all at once, and then a concrete Dist to confirm
the first failure.  The relation-axiom probe reads every distribution's
dependence relation off the same event table and checks the axioms on it
as an event x event matrix.

The formula generator set is fixed and documented: the constants, every
literal, and the four sign variants of conjunction and disjunction over
the first two atoms.  Sizes: 4 formulas at n=1, 14 at n=2, 16 at n=3.
"""

from __future__ import annotations

import ast
import itertools
import random
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .logic import FALSE, TRUE, And, Formula, Not, Or, Record, Vocabulary, format_formula, full_mask, model_mask
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
    gives one numpy row per call, via the same library calls.

    ``entails_classically`` reads no distribution, so it returns one bool
    with no distribution axis on either source; ``check_law`` broadcasts a
    scalar truth value, reading it as that verdict in every distribution,
    so a failing one points at distribution 0."""

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


class Law(Record):
    """One universally quantified candidate property, written once: ``note``
    is its statement and ``predicate`` what the statement compiles to, a
    function of an ops backend and ``arity`` formulas (the statement's free
    variables) returning per-distribution truth."""

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


# -- law statements ------------------------------------------------------

# A statement is a Python expression over three sorts: formulas ("f": a, b,
# c, true, false, ~, & and |), levels ("l": poss, nec, cond_poss, cond_nec,
# max, min, 0 and top) and truth values ("t": the relation tests, entails,
# one comparison of two levels, and, or, not, implies and iff).  The tables
# map each callee, name and operator to its sort and the code it becomes;
# on truth values implies(p, q) is p <= q and iff(p, q) is p == q.
_SIGNATURES = {
    "poss": ("l", "f", "o.poss"),
    "nec": ("l", "f", "o.nec"),
    "cond_poss": ("l", "ff", "o.cond_poss"),
    "cond_nec": ("l", "ff", "o.cond_nec"),
    "max": ("l", "ll", "np.maximum"),
    "min": ("l", "ll", "np.minimum"),
    "related_z": ("t", "ff", "o.related_z"),
    "strong_indep": ("t", "ff", "o.strong_indep"),
    "strong_indep_direct": ("t", "ff", "o.strong_indep_direct"),
    "weak_indep": ("t", "ff", "o.weak_indep"),
    "weak_indep_direct": ("t", "ff", "o.weak_indep_direct"),
    "entails": ("t", "ff", "o.entails_classically"),
    "implies": ("t", "tt", "np.less_equal"),
    "iff": ("t", "tt", "np.equal"),
}
_NAMES = {
    "a": ("f", "a"),
    "b": ("f", "b"),
    "c": ("f", "c"),
    "true": ("f", "TRUE"),
    "false": ("f", "FALSE"),
    "top": ("l", "o.top"),
}
_OPERATORS = {  # an operator's operands have its sort
    ast.Invert: ("f", "Not"),
    ast.BitAnd: ("f", "And"),
    ast.BitOr: ("f", "Or"),
    ast.Not: ("t", "np.logical_not"),
}
_COMPARISONS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_SORT_NAMES = {"f": "a formula", "l": "a level", "t": "a truth value"}
_STATEMENT_GLOBALS = {"__builtins__": {}, "np": np, "And": And, "Or": Or, "Not": Not, "TRUE": TRUE, "FALSE": FALSE}


@lru_cache(maxsize=None)
def _expr(text: str) -> ast.expr:
    # trees share these nodes: compile only reads them, and
    # fix_missing_locations only fills in positions, all on line 1
    return ast.parse(text, mode="eval").body


def _rewrite(node: ast.AST, sort: str) -> ast.expr:
    """The code a statement's node becomes, if it has the given sort."""
    kind = type(node)
    name = node.func.id if kind is ast.Call and type(node.func) is ast.Name else None
    if name in _SIGNATURES and _SIGNATURES[name][0] == sort:
        _, sorts, callee = _SIGNATURES[name]
        if len(node.args) != len(sorts) or node.keywords:
            raise ValueError(f"{name} takes {len(sorts)} argument(s), got {ast.unparse(node)!r}")
        return ast.Call(func=_expr(callee), args=list(map(_rewrite, node.args, sorts)), keywords=[])
    if kind in (ast.UnaryOp, ast.BinOp) and _OPERATORS.get(type(node.op), ("",))[0] == sort:
        operands = [node.operand] if kind is ast.UnaryOp else [node.left, node.right]
        args = [_rewrite(operand, sort) for operand in operands]
        return ast.Call(func=_expr(_OPERATORS[type(node.op)][1]), args=args, keywords=[])
    if kind is ast.Name and _NAMES.get(node.id, ("",))[0] == sort:
        return _expr(_NAMES[node.id][1])
    if sort == "l" and kind is ast.Constant and type(node.value) is int and node.value == 0:
        return _expr("0")
    if sort == "t" and kind is ast.BoolOp:  # and/or become & and |, as on numpy rows
        op = ast.BitAnd() if type(node.op) is ast.And else ast.BitOr()
        return reduce(lambda p, q: ast.BinOp(left=p, op=op, right=q), (_rewrite(v, "t") for v in node.values))
    if sort == "t" and kind is ast.Compare and len(node.ops) == 1 and type(node.ops[0]) in _COMPARISONS:
        left, right = _rewrite(node.left, "l"), _rewrite(node.comparators[0], "l")
        return ast.Compare(left=left, ops=node.ops, comparators=[right])
    raise ValueError(f"expected {_SORT_NAMES[sort]}, got {ast.unparse(node)!r}")


def _law(law_id: str, statement: str) -> Law:
    """Sort-check a statement and compile it into its law.  The predicate
    is a lambda over ``o`` (a ScalarOps, whose methods it looks up at call
    time) and the statement's free variables in a, b, c order; its globals
    hold only numpy and the formula constructors and constants."""
    try:
        tree = ast.parse(statement, mode="eval")
        body = _rewrite(tree.body, "t")
    except (SyntaxError, ValueError) as e:
        raise ValueError(f"law statement {statement!r}: {e}") from None
    # every a, b or c left in a checked statement is a formula variable
    free = {node.id for node in ast.walk(tree) if type(node) is ast.Name and node.id in LAB_ATOM_NAMES}
    # a parsed lambda supplies the arguments node, whose constructor varies across Python versions
    expression = ast.parse("lambda o, a, b, c: 0", mode="eval")
    lam = expression.body
    lam.args.args = [arg for arg in lam.args.args if arg.arg == "o" or arg.arg in free]
    lam.body = body
    code = compile(ast.fix_missing_locations(expression), "<law statement>", "eval")
    return Law(law_id, len(free), statement, eval(code, _STATEMENT_GLOBALS))


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
RELATIONS: dict[str, str] = {
    "Zadeh": "not related_z({}, {})",
    "Strong": "strong_indep({}, {})",
    "Weak": "weak_indep({}, {})",
}


def _cell(relation: str, criterion: str) -> str:
    """The statement of one relation x criterion cell."""
    test = RELATIONS[relation]
    dependence, join, second = CRITERIA[criterion]
    if dependence:  # a double negation cancels
        test = test[4:] if test.startswith("not ") else "not " + test
    op = " & " if join is And else " | "
    pairs = (("a", "b"), ("a", "c"), ("a", f"b{op}c")) if second else (("a", "c"), ("b", "c"), (f"a{op}b", "c"))
    first, other, conclusion = (test.format(*pair) for pair in pairs)
    return f"implies({first} and {other}, {conclusion})"


def composition_predicate(relation: str, criterion: str) -> Callable:
    """The law predicate of one relation x criterion cell, arity 3."""
    return _law("", _cell(relation, criterion)).predicate


# -- the catalog -----------------------------------------------------------

# (law id, statement), in catalog order.  The eight cell laws are their
# cells' statements; strong-symmetric, strong-negation-transparent,
# weak-min-form-not-implied and weak-contraposition-split state what the
# relations would satisfy and are refuted.
_STATEMENTS: tuple[tuple[str, str], ...] = (
    # measure layer
    ("poss-disjunction-max", "poss(a | b) == max(poss(a), poss(b))"),
    ("nec-conjunction-min", "nec(a & b) == min(nec(a), nec(b))"),
    ("poss-normalization", "max(poss(a), poss(~a)) == top"),
    ("acceptance-one-sided", "implies(nec(a) > 0, nec(~a) == 0)"),
    ("qpo-nontriviality", "poss(true) > poss(false)"),
    ("qpo-tautology", "poss(true) >= poss(a)"),
    ("qpo-transitivity", "implies(poss(a) >= poss(b) and poss(b) >= poss(c), poss(a) >= poss(c))"),
    ("qpo-disjunctiveness", "poss(a | b) <= poss(a) or poss(a | b) <= poss(b)"),
    ("qpo-dominance", "implies(entails(a, b), poss(a) <= poss(b))"),
    ("cond-impossible-antecedent", "implies(poss(a) == 0, cond_poss(c, a) == top)"),
    ("cond-full-conjunction", "implies(poss(a & c) == top, cond_poss(c, a) == top)"),
    ("cond-impossible-conclusion", "implies(poss(a) > 0 and poss(c) == 0, cond_poss(c, a) == 0)"),
    ("cond-self-contradiction-top", "iff(cond_poss(c, ~c) == top, poss(~c) == 0)"),
    ("cond-self-contradiction-zero", "iff(cond_poss(c, ~c) == 0, poss(~c) > 0)"),
    ("cond-min-decomposition", "min(cond_poss(c, a), poss(a)) == poss(a & c)"),
    ("acceptance-strict-comparison", "iff(cond_nec(c, a) > 0, poss(a & c) > poss(a & ~c))"),
    ("cond-nec-material-when-positive", "implies(cond_nec(c, a) > 0, cond_nec(c, a) == nec(~a | c))"),
    # Zadeh relatedness
    ("zadeh-unrelated-cell-bound", "iff(not related_z(a, c), poss(a & c) >= min(poss(a & ~c), poss(~a & c)))"),
    ("zadeh-related-mutual-rejection", "iff(related_z(a, c), cond_nec(~c, a) > 0 and cond_nec(~a, c) > 0)"),
    ("zadeh-symmetry", "iff(related_z(a, c), related_z(c, a))"),
    ("zadeh-split-disjunction-conclusion", _cell("Zadeh", "DCI-r")),
    ("zadeh-split-disjunction-antecedent", _cell("Zadeh", "DCI")),
    ("zadeh-merge-disjunction-antecedent", _cell("Zadeh", "DCD")),
    ("zadeh-merge-disjunction-conclusion", _cell("Zadeh", "DCD-r")),
    ("zadeh-false-unrelated", "not related_z(false, a)"),
    ("zadeh-true-unrelated", "not related_z(true, a)"),
    ("zadeh-self-unrelated", "not related_z(a, a)"),
    ("zadeh-negation-pair", "iff(not related_z(a, ~a), poss(a) == 0 or poss(~a) == 0)"),
    ("zadeh-absorption-unrelated", "not related_z(a | c, a)"),
    # strong independence
    ("strong-defs-agree", "iff(strong_indep(a, c), strong_indep_direct(a, c))"),
    ("strong-necessity-cases",
     "iff(cond_nec(c, a) == nec(c), max(poss(~a & ~c), poss(a & ~c)) == top and poss(a & ~c) >= poss(a & c)"
     " or poss(a & c) > poss(a & ~c) and poss(a & ~c) >= poss(~a & ~c))"
     " and iff(max(poss(~a & ~c), poss(a & ~c)) == top and poss(a & ~c) >= poss(a & c),"
     " cond_nec(c, a) == 0 and nec(c) == 0)"
     " and iff(poss(a & c) > poss(a & ~c) and poss(a & ~c) >= poss(~a & ~c), cond_nec(c, a) == nec(c) and nec(c) > 0)"),
    ("strong-char-min-form", "iff(strong_indep(a, c), poss(a & ~c) == min(poss(a), poss(~c)) and poss(~c) < poss(a))"),
    ("strong-dep-char-negation", "iff(not strong_indep(a, c), poss(a) <= poss(~c) or poss(~c) > poss(a & ~c))"),
    ("strong-implies-conjunction-min", "implies(strong_indep(a, c), poss(a & c) == min(poss(a), poss(c)))"),
    ("strong-blocked-by-negation-level", "implies(poss(~c) >= poss(a), not strong_indep(a, c))"),
    ("strong-dep-conjunction-split", _cell("Strong", "CCI-r")),
    ("strong-dep-antecedent-split", _cell("Strong", "DCI")),
    ("strong-dep-disjunction-merge", _cell("Strong", "DCD")),
    ("strong-dep-consequent-merge", _cell("Strong", "CCD-r")),
    ("strong-false-antecedent-dep", "not strong_indep(false, c)"),
    ("strong-true-antecedent", "iff(strong_indep(true, c), nec(c) > 0)"),
    ("strong-false-consequent-dep", "not strong_indep(a, false)"),
    ("strong-true-consequent", "iff(strong_indep(a, true), poss(a) > 0)"),
    ("strong-disjoint-conjunctions-dep", "not strong_indep(a & b, ~b & c)"),
    ("strong-exclusion-dep", "implies(entails(a, ~c), not strong_indep(a, c))"),
    ("strong-order-embedding-strict", "iff(strong_indep(a | c, ~c), poss(a) > poss(c))"),
    ("strong-self", "iff(strong_indep(a, a), nec(a) == top)"),
    ("strong-impossible-antecedent-dep", "implies(poss(a) == 0, not strong_indep(a, c))"),
    ("strong-certain-negation-dep", "implies(poss(c) == top, not strong_indep(a, ~c))"),
    ("strong-contraposition-split", "not strong_indep(a, c) or not strong_indep(~c, ~a)"),
    ("strong-order-embedding-weak-form", "iff(not strong_indep(a | c, ~a), poss(a) >= poss(c))"),
    ("nec-order-embedding", "iff(not strong_indep(~a | ~c, c), nec(a) >= nec(c))"),
    ("dep-axiom-tautology-pair", "strong_indep(true, true)"),
    ("dep-axiom-transitivity",
     "implies(not strong_indep(a | b, ~b) and not strong_indep(b | c, ~c), not strong_indep(a | c, ~c))"),
    ("dep-axiom-self-negation", "not strong_indep(a, ~a)"),
    ("strong-symmetric", "iff(strong_indep(a, c), strong_indep(c, a))"),
    ("strong-negation-transparent", "implies(strong_indep(a, c), strong_indep(a, ~c))"),
    ("strong-via-zadeh-negation", "iff(strong_indep(a, c), not related_z(a, ~c) and poss(~c) < poss(a))"),
    # weak independence
    ("weak-defs-agree", "iff(weak_indep(a, c), weak_indep_direct(a, c))"),
    ("weak-strong-decomposition", "iff(strong_indep(a, c), weak_indep(a, c) and poss(a & ~c) == poss(~c))"),
    ("weak-implies-unrelated", "implies(weak_indep(a, c), not related_z(a, c))"),
    ("strong-implies-weak", "implies(strong_indep(a, c), weak_indep(a, c))"),
    ("weak-min-form-not-implied", "implies(weak_indep(a, c), poss(a & ~c) == min(poss(a), poss(~c)))"),
    ("weak-self", "iff(weak_indep(a, a), nec(a) > 0)"),
    ("weak-contraposition-split", "not weak_indep(a, c) or not weak_indep(~c, ~a)"),
    ("weak-contraposition-pair-char",
     "iff(weak_indep(a, c) and weak_indep(~c, ~a),"
     " poss(~a & c) > max(poss(a & c), poss(~a & ~c)) and min(poss(a & c), poss(~a & ~c)) > poss(a & ~c))"),
    ("weak-or-merge-printed", "implies(weak_indep(a, c) or weak_indep(b, c), weak_indep(a | b, c))"),
    ("weak-or-conjunction-printed", "implies(weak_indep(a, b) or weak_indep(a, c), weak_indep(a, b & c))"),
    ("weak-conjunction-iff", "iff(weak_indep(a, b & c), weak_indep(a, b) and weak_indep(a, c))"),
    ("weak-disjunction-iff", "iff(weak_indep(a | b, c), weak_indep(a, c) and weak_indep(b, c))"),
    ("weak-strong-collapse-on-cover", "iff(weak_indep(a | ~c, c), strong_indep(a | ~c, c))"),
    # plausible inference
    ("rational-monotony", "implies(cond_nec(a, b) > 0 and cond_nec(~c, b) == 0, cond_nec(a, b & c) > 0)"),
)

CATALOG: tuple[Law, ...] = tuple(_law(law_id, statement) for law_id, statement in _STATEMENTS)

_CATALOG_BY_ID = {law.law_id: law for law in CATALOG}


def law_by_id(law_id: str) -> Law:
    try:
        return _CATALOG_BY_ID[law_id]
    except KeyError:
        raise KeyError(f"unknown law id: {law_id!r}") from None


def law_cost(law: Law, dist_count: int, generator_count: int) -> int:
    return dist_count * generator_count**law.arity


def check_law(
    law: Law, n: int, top: int, budget: int = DEFAULT_BUDGET, ensemble: Optional[DistEnsemble] = None
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
                raise RuntimeError(f"backend disagreement on law {law.law_id}: vector run failed, scalar run passed")
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
    laws = [_law(f"{r.lower()}-{c.lower()}", _cell(r, c)) for r, c in cells]
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
