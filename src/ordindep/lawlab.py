"""Exhaustive desk-scale checking of candidate laws.

Everything here quantifies over *all* normalized distributions for a small
vocabulary (up to 3 atoms) and scale (top up to 3 on named grids; a given
DistEnsemble may go higher), crossed with a fixed finite generator set.
A law that survives such a sweep is not proved, but a law that fails is
definitively refuted, and every reported counterexample is re-verified
through the plain scalar implementations before it is returned.

Each law is written once, as a statement (``Law.note``) in a small
grammar over the ScalarOps methods and ``top``, and compiled at import into
the predicate that is checked, in ``CATALOG``; the dependence axioms are
catalog laws.  The criteria table's cells are compiled into ``CELLS`` and
swept on the same path.  Each of its 8 criteria is one statement over a
relation's dependence test ``dep`` and independence test ``ind``, and a
cell is its criterion with one relation's two tests filled in: Zadeh's
are ``related_z`` and ``not related_z``, Strong's ``not strong_indep``
and ``strong_indep``, Weak's ``not weak_indep`` and ``weak_indep``.

    CCD    implies(dep(a, c) and dep(b, c), dep(a & b, c))
    CCI    implies(ind(a, c) and ind(b, c), ind(a & b, c))
    CCD-r  implies(dep(a, b) and dep(a, c), dep(a, b & c))
    CCI-r  implies(ind(a, b) and ind(a, c), ind(a, b & c))
    DCI    implies(ind(a, c) and ind(b, c), ind(a | b, c))
    DCI-r  implies(ind(a, b) and ind(a, c), ind(a, b | c))
    DCD    implies(dep(a, c) and dep(b, c), dep(a | b, c))
    DCD-r  implies(dep(a, b) and dep(a, c), dep(a, b | c))

A law is swept in one predicate call per value of its first argument, on
leaves that stand for arrays of event ids: ScalarOps adapts the library
calls in ``measures`` and ``independence``, which read a distribution
only through ``vocab``, ``top`` and ``poss_mask``, and a DistEnsemble's
``poss_mask`` looks every event up in every distribution at once.  A
concrete Dist then confirms the first failure.  The relation-axiom probe
runs the axiom statements on a stack of candidate relations instead, and
reads the realized relations off one DistEnsemble at top 2^n.

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


def _scope(n: int, top: int, budget: int, max_top: int = MAX_LAB_TOP) -> Vocabulary:
    """The vocabulary of a grid within 1..MAX_LAB_ATOMS atoms, scale
    1..max_top and, in raw level tuples, the budget; the sweeps' gate."""
    vocab = lab_vocabulary(n)
    if not (1 <= top <= max_top):
        raise ValueError(f"scale top must be 1..{max_top}, got {top}")
    raw = (top + 1) ** vocab.world_count
    if raw > budget:
        raise BudgetError(f"enumerating {raw} level tuples exceeds budget {budget}")
    return vocab


def enumerate_dists(n: int, top: int, budget: int = DEFAULT_BUDGET) -> Iterator[Dist]:
    """Every normalized distribution over n atoms at the given scale: the
    rows of the (n, top) DistEnsemble, in its order; the grid is checked
    when called."""
    _scope(n, top, budget)
    ensemble = DistEnsemble(n, top, budget)
    return map(ensemble.dist_at, range(ensemble.count))


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
    """All normalized distributions for one (n, top), as an int8 level
    matrix plus the event table ``P[event, dist]``: the possibility of every
    one of the 2^(2^n) world sets in every distribution.  Rows follow the
    product order of level tuples, last world fastest; any top whose levels
    fit int8 is allowed, and the budget bounds the raw tuples."""

    def __init__(self, n: int, top: int, budget: int = DEFAULT_BUDGET):
        self.vocab = _scope(n, top, budget, np.iinfo(np.int8).max)
        self.top = top
        worlds = self.vocab.world_count
        grid = np.indices((top + 1,) * worlds, dtype=np.int8).reshape(worlds, -1).T
        self.levels = grid[grid.max(axis=1) == top]
        # events 2^w .. 2^(w+1)-1 are the events below 2^w with world w
        # added: each row is the smaller event's row maxed with w's column
        self.P = np.zeros((1 << worlds, self.count), dtype=np.int8)
        for w in range(worlds):
            self.P[1 << w : 2 << w] = np.maximum(self.P[: 1 << w], self.levels[:, w])

    @property
    def count(self) -> int:
        return len(self.levels)

    def dist_at(self, i: int) -> Dist:
        return Dist(self.vocab, self.top, self.levels[i].tolist())

    def poss_mask(self, mask: int) -> np.ndarray:
        """The mask's row of P: its possibility in every distribution."""
        return self.P[mask]


class ScalarOps:
    """The measures and relations a law predicate may use, bound to one
    distribution source: a Dist gives plain ints and bools, a DistEnsemble
    gives one numpy row per call, via the same library calls.

    ``entails_classically`` reads no distribution, so it returns one bool
    with no distribution axis on either source (on event ids, an array
    whose last axis has length 1); ``check_law`` broadcasts a scalar truth
    value, reading it as that verdict in every distribution."""

    def __init__(self, dist: Dist | DistEnsemble):
        self.dist = dist
        self.top = dist.top
        self.n = dist.vocab.n

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
        holds = (model_mask(a, self.n) & (full_mask(self.n) ^ model_mask(b, self.n))) == 0
        return holds[..., None] if isinstance(holds, np.ndarray) else holds


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


def _counterexample_record(ce: Optional[Counterexample]) -> Optional[dict]:
    """The JSON form of a counterexample that ``check --jsonl`` writes."""
    if ce is None:
        return None
    vocab = ce.dist.vocab
    return {
        "formulas": [format_formula(f, vocab) for f in ce.formulas],
        "dist": {"atoms": list(vocab.atoms), "top": ce.dist.top, "levels": list(ce.dist.levels)},
    }


def run_command(args) -> int:
    """The CLI's ``check`` or ``table`` command (``args.command``) on its
    parsed ``atoms``, ``top`` and ``budget``, and for check ``jsonl``."""
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if args.command == "check":
        _print_check(run_catalog(args.atoms, args.top, budget), args.jsonl)
    else:
        _print_table(criteria_table(args.atoms, args.top, budget))
    return 0


def _print_check(reports: list[LawReport], jsonl: Optional[str]) -> None:
    failures = 0
    for rep in reports:
        mark = "ok  " if rep.holds else "FAIL"
        print(f"{mark} {rep.law_id} ({rep.evaluations} evaluations)")
        if not rep.holds:
            failures += 1
            print(format_counterexample(rep.counterexample))
    print(f"{len(reports) - failures} of {len(reports)} laws hold")
    if jsonl:
        import json  # only check --jsonl loads json

        with open(jsonl, "w", encoding="utf-8") as fh:
            for rep in reports:
                record = {
                    "law": rep.law_id,
                    "atoms": rep.atoms,
                    "top": rep.top,
                    "evaluations": rep.evaluations,
                    "holds": rep.holds,
                    "counterexample": _counterexample_record(rep.counterexample),
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _print_table(reports: dict[tuple[str, str], LawReport]) -> None:
    width = max(len("criterion"), max(len(c) for c in CRITERIA))
    print("criterion".ljust(width) + "".join(rel.rjust(8) for rel in RELATIONS))
    for criterion in CRITERIA:
        row = criterion.ljust(width)
        for relation in RELATIONS:
            row += ("yes" if reports[(relation, criterion)].holds else "no").rjust(8)
        print(row)
    for criterion in CRITERIA:
        for relation in RELATIONS:
            rep = reports[(relation, criterion)]
            if not rep.holds:
                print(f"counterexample for {relation} {criterion}:")
                print(format_counterexample(rep.counterexample, indent=2))


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

# Each criterion's statement, over a relation's dependence test {dep} and
# independence test {ind}: a premise pair about the parts of a conjunction
# or disjunction, a conclusion about the compound.
CRITERIA: dict[str, str] = {
    "CCD": "implies({dep}(a, c) and {dep}(b, c), {dep}(a & b, c))",
    "CCI": "implies({ind}(a, c) and {ind}(b, c), {ind}(a & b, c))",
    "CCD-r": "implies({dep}(a, b) and {dep}(a, c), {dep}(a, b & c))",
    "CCI-r": "implies({ind}(a, b) and {ind}(a, c), {ind}(a, b & c))",
    "DCI": "implies({ind}(a, c) and {ind}(b, c), {ind}(a | b, c))",
    "DCI-r": "implies({ind}(a, b) and {ind}(a, c), {ind}(a, b | c))",
    "DCD": "implies({dep}(a, c) and {dep}(b, c), {dep}(a | b, c))",
    "DCD-r": "implies({dep}(a, b) and {dep}(a, c), {dep}(a, b | c))",
}

# Each relation's two tests, as the callee a criterion applies to a pair.
RELATIONS: dict[str, dict[str, str]] = {
    "Zadeh": {"dep": "related_z", "ind": "not related_z"},
    "Strong": {"dep": "not strong_indep", "ind": "strong_indep"},
    "Weak": {"dep": "not weak_indep", "ind": "weak_indep"},
}


def _cell(relation: str, criterion: str) -> str:
    """The statement of one relation x criterion cell."""
    return CRITERIA[criterion].format(**RELATIONS[relation])


# Every relation x criterion cell's law, relations outermost, compiled at
# import like the catalog.
CELLS: dict[tuple[str, str], Law] = {
    (r, c): _law(f"{r.lower()}-{c.lower()}", _cell(r, c)) for r in RELATIONS for c in CRITERIA
}


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


class _EventIds(Formula):
    """A leaf whose mask at n is an array of event ids, so the formulas
    over it have array masks.  It equals only itself: with empty slots,
    the structural ``==`` would call any two leaves equal."""

    __slots__ = ()

    def __init__(self, ids: np.ndarray, n: int):
        object.__setattr__(self, "_hash", id(self))
        object.__setattr__(self, "_masks", {n: ids})

    def __eq__(self, other):
        return self is other

    __hash__ = Formula.__hash__


def _grid(law: Law, ops, pools: list[np.ndarray], n: int, sources: int) -> np.ndarray:
    """One predicate call's truth on every combination of the pools' events
    (argument k along axis k) in every source (the last axis)."""
    leaves = [_EventIds(ids, n) for ids in np.ix_(*pools)]
    return np.broadcast_to(law.predicate(ops, *leaves), [len(pool) for pool in pools] + [sources])


def check_law(law: Law, ensemble: DistEnsemble, budget: int = DEFAULT_BUDGET) -> LawReport:
    """Quantify one law over every distribution of the ensemble and the
    generator set of its vocabulary; the report's grid is the ensemble's.
    The first False in C order over (formulas..., distribution) becomes
    the counterexample, once a run on that distribution alone confirms it.
    """
    n, top, count = ensemble.vocab.n, ensemble.top, ensemble.count
    gens = generator_formulas(ensemble.vocab)
    cost = law_cost(law, count, len(gens))
    if cost > budget:
        raise BudgetError(f"law {law.law_id} needs {cost} evaluations, budget is {budget}")
    ops, ids = ScalarOps(ensemble), np.array([model_mask(g, n) for g in gens])
    chunks = [[ids[j : j + 1]] + [ids] * (law.arity - 1) for j in range(len(ids))] if law.arity else [[]]
    done = 0
    for pools in chunks:
        grid = _grid(law, ops, pools, n, count)
        if not grid.all():
            flat = done + int(np.argmin(grid))
            *picks, i = np.unravel_index(flat, (len(gens),) * law.arity + (count,))
            combo = tuple(gens[k] for k in picks)
            dist = ensemble.dist_at(i)
            if np.all(law.predicate(ScalarOps(dist), *combo)):
                raise RuntimeError(f"backend disagreement on law {law.law_id}: vector run failed, scalar run passed")
            return LawReport(law.law_id, n, top, flat // count * count + count, False, Counterexample(dist, combo))
        done += grid.size
    return LawReport(law.law_id, n, top, done, True, None)


def _sweep(laws, n: int, top: int, budget: int, what: str) -> list[LawReport]:
    """Check the laws on one shared ensemble, built once the budget covers the total."""
    gens = len(generator_formulas(_scope(n, top, budget)))
    total = sum(law_cost(law, count_dists(n, top), gens) for law in laws)
    if total > budget:
        raise BudgetError(f"{what} needs {total} evaluations, budget is {budget}")
    ensemble = DistEnsemble(n, top, budget)
    return [check_law(law, ensemble, budget) for law in laws]


def run_catalog(n: int, top: int, budget: int = DEFAULT_BUDGET) -> list[LawReport]:
    """Check every cataloged law at one (n, top); budget covers the total."""
    return _sweep(CATALOG, n, top, budget, "full catalog")


def criteria_table(n: int, top: int, budget: int = DEFAULT_BUDGET) -> dict[tuple[str, str], LawReport]:
    """All 8 composition criteria crossed with the 3 relations: each cell's
    report, keyed as in CELLS."""
    return dict(zip(CELLS, _sweep(CELLS.values(), n, top, budget, "criteria table")))


# -- completeness probe ------------------------------------------------

# The abstract side of the axiomatization: a candidate dependence relation
# is a set of (event, event) pairs, events being world-set bitmasks.  The
# probe filters candidates by the dependence axioms and then hunts for a
# distribution whose strong-dependence relation matches exactly.

# The axioms as catalog laws, per reading of self-negation: 'printed' pins
# (a, false) and (a, ~a) dependent, 'schema' every disjoint pair.
_AXIOMS = {
    "printed": ("dep-axiom-tautology-pair", "strong-false-consequent-dep", "dep-axiom-self-negation",
                "dep-axiom-transitivity", "strong-dep-conjunction-split"),
    "schema": ("dep-axiom-tautology-pair", "strong-exclusion-dep", "dep-axiom-transitivity",
               "strong-dep-conjunction-split"),
}


def realized_relations(ensemble: DistEnsemble) -> list[int]:
    """Strong-dependence relation of every distribution in the ensemble,
    in ensemble order, each packed as a bitset over the E = 2^(2^n)
    events: bit x*E + y is set when event x is dependent with event y.

    One ``strong_indep_direct`` call on two event-id leaves, the ids along
    axes 0 and 1, reads every event pair off the event table, so it
    builds (E, E, count) tables: limited to n <= 2 (16 x 16 x 175 at
    (2, 3)); at (3, 2) each would be 256 x 256 x 6305, over 400 MB.
    """
    n, events = ensemble.vocab.n, len(ensemble.P)
    if n > 2:
        raise ValueError(f"realized relations support 1..2 atoms, got {n}")
    ids = np.arange(events)
    dep = ~indep.strong_indep_direct(ensemble, _EventIds(ids[:, None], n), _EventIds(ids[None, :], n))
    packed = np.packbits(dep.reshape(events * events, ensemble.count), axis=0, bitorder="little")
    return [int.from_bytes(column.tobytes(), "little") for column in packed.T]


class _RelationOps:
    """The axiom statements' ops on a stack of candidate relations
    ``dep[x, y, k]``: independence in candidate k is not dependence."""

    def __init__(self, dep: np.ndarray, n: int):
        self.dep, self.n = dep, n

    def strong_indep(self, a: Formula, c: Formula) -> np.ndarray:
        return ~self.dep[model_mask(a, self.n), model_mask(c, self.n)]

    entails_classically = ScalarOps.entails_classically


def _admitted(relations: Iterable[int], n: int, mode: str) -> np.ndarray:
    """Which relations, packed as by realized_relations, satisfy the axioms
    of one reading: each axiom is one grid over every event tuple and the
    stack ``dep[x, y, k]`` of all the relations."""
    if mode not in _AXIOMS:
        raise ValueError(f"unknown axiom mode: {mode!r}")
    events = 1 << (1 << n)
    raw = b"".join(bits.to_bytes(events * events // 8, "little") for bits in relations)
    dep = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little").view(bool).reshape(-1, events, events)
    ops, ids = _RelationOps(dep.transpose(1, 2, 0), n), np.arange(events)
    admitted = np.ones(len(dep), dtype=bool)
    for law in map(law_by_id, _AXIOMS[mode]):
        admitted &= _grid(law, ops, [ids] * law.arity, n, len(dep)).all(axis=tuple(range(law.arity)))
    return admitted


def relation_axioms_hold(bits: int, n: int, mode: str = "printed") -> bool:
    """The dependence axioms of one reading, on one relation bitset."""
    pairs = (1 << lab_vocabulary(n).world_count) ** 2
    if not 0 <= bits < 1 << pairs:
        raise ValueError(f"relation bits must lie in [0, 2**{pairs}) at {n} atoms")
    return bool(_admitted([bits], n, mode)[0])


class ProbeReport(Record):
    atoms: int
    candidates: int
    satisfying: int
    realized: int
    unrealized: tuple[int, ...]


# the sampled probe draws PROBE_SAMPLES mutations from a generator seeded
# with PROBE_SEED, each flipping between one and PROBE_FLIPS pair bits
PROBE_SAMPLES = 500
PROBE_SEED = 0
PROBE_FLIPS = 3


def _realized_relations(n: int) -> set[int]:
    """The relations realized at any top: strong independence only compares
    levels, so relabeling the positive levels in order keeps every verdict,
    and 2^n worlds carry at most 2^n positive levels."""
    return set(realized_relations(DistEnsemble(n, 1 << n)))


def _score(n: int, candidates: Iterable[int], realized: set[int], mode: str) -> ProbeReport:
    """Count the candidate relations, those the axioms admit, and those of
    the admitted that no distribution realizes."""
    candidates = list(candidates)
    admitted = list(itertools.compress(candidates, _admitted(candidates, n, mode)))
    unrealized = [bits for bits in admitted if bits not in realized]
    return ProbeReport(n, len(candidates), len(admitted), len(admitted) - len(unrealized), unrealized)


def completeness_probe_exact(mode: str = "printed") -> ProbeReport:
    """Single-atom case: all 2^16 relations over the 4 x 4 event pairs,
    checked outright, so the axioms alone decide which are admitted."""
    n = 1
    pairs = (1 << (1 << n)) ** 2
    return _score(n, range(1 << pairs), _realized_relations(n), mode)


def completeness_probe_sampled(mode: str = "printed") -> ProbeReport:
    """Two-atom case: 2**256 candidate relations rule out enumeration, so
    mutate realized relations pairwise and keep the axiom-satisfying ones."""
    n = 2
    pair_count = (1 << (1 << n)) ** 2
    realized = _realized_relations(n)
    rng = random.Random(PROBE_SEED)
    pool = sorted(realized)
    draws = []
    for _ in range(PROBE_SAMPLES):
        bits = rng.choice(pool)
        for _ in range(rng.randint(1, PROBE_FLIPS)):
            bits ^= 1 << rng.randrange(pair_count)
        draws.append(bits)
    return _score(n, dict.fromkeys(draws), realized, mode)
