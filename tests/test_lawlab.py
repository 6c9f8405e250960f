import itertools
import random
import re

import numpy as np
import pytest

from ordindep import (
    CATALOG,
    FALSE,
    TRUE,
    And,
    Not,
    Or,
    BudgetError,
    Dist,
    Vocabulary,
    check_law,
    completeness_probe_exact,
    completeness_probe_sampled,
    count_dists,
    criteria_table,
    enumerate_dists,
    generator_formulas,
    lab_vocabulary,
    law_by_id,
    model_mask,
    realized_relations,
    relation_axioms_hold,
    run_catalog,
)
from ordindep import independence as ind
from ordindep import lawlab, measures
from ordindep.lawlab import (
    CELLS,
    CRITERIA,
    RELATIONS,
    Counterexample,
    DistEnsemble,
    Law,
    LawReport,
    ScalarOps,
    _admitted,
    _cell,
    _EventIds,
    _grid,
    _law,
    _realized_relations,
    law_cost,
)

import law_oracle

# confirmed by machine enumeration over both desk grids; every entry
# re-verified by the scalar backend on its concrete counterexample
FAILING_LAWS = frozenset({
    "strong-dep-disjunction-merge",
    "strong-symmetric",
    "strong-negation-transparent",
    "weak-min-form-not-implied",
    "weak-contraposition-split",
    "weak-or-merge-printed",
    "weak-or-conjunction-printed",
    "weak-disjunction-iff",
})

# catalog laws whose statements are table cells' statements
CELL_LAWS = {
    "zadeh-split-disjunction-conclusion": ("Zadeh", "DCI-r"),
    "zadeh-split-disjunction-antecedent": ("Zadeh", "DCI"),
    "zadeh-merge-disjunction-antecedent": ("Zadeh", "DCD"),
    "zadeh-merge-disjunction-conclusion": ("Zadeh", "DCD-r"),
    "strong-dep-conjunction-split": ("Strong", "CCI-r"),
    "strong-dep-antecedent-split": ("Strong", "DCI"),
    "strong-dep-disjunction-merge": ("Strong", "DCD"),
    "strong-dep-consequent-merge": ("Strong", "CCD-r"),
}

# criteria table at atoms=2, top=3; Weak x CCD flips to False at (3, 2)
TABLE_2_3 = {
    ("Zadeh", "CCD"): False, ("Zadeh", "CCI"): False,
    ("Zadeh", "CCD-r"): False, ("Zadeh", "CCI-r"): False,
    ("Zadeh", "DCI"): True, ("Zadeh", "DCI-r"): True,
    ("Zadeh", "DCD"): True, ("Zadeh", "DCD-r"): True,
    ("Strong", "CCD"): True, ("Strong", "CCI"): False,
    ("Strong", "CCD-r"): True, ("Strong", "CCI-r"): True,
    ("Strong", "DCI"): True, ("Strong", "DCI-r"): False,
    ("Strong", "DCD"): False, ("Strong", "DCD-r"): False,
    ("Weak", "CCD"): True, ("Weak", "CCI"): False,
    ("Weak", "CCD-r"): True, ("Weak", "CCI-r"): True,
    ("Weak", "DCI"): True, ("Weak", "DCI-r"): True,
    ("Weak", "DCD"): True, ("Weak", "DCD-r"): False,
}


# every cell's statement, written out: the criterion with its relation's
# dependence and independence tests filled in
CELL_STATEMENTS = {
    ("Zadeh", "CCD"): "implies(related_z(a, c) and related_z(b, c), related_z(a & b, c))",
    ("Zadeh", "CCI"): "implies(not related_z(a, c) and not related_z(b, c), not related_z(a & b, c))",
    ("Zadeh", "CCD-r"): "implies(related_z(a, b) and related_z(a, c), related_z(a, b & c))",
    ("Zadeh", "CCI-r"): "implies(not related_z(a, b) and not related_z(a, c), not related_z(a, b & c))",
    ("Zadeh", "DCI"): "implies(not related_z(a, c) and not related_z(b, c), not related_z(a | b, c))",
    ("Zadeh", "DCI-r"): "implies(not related_z(a, b) and not related_z(a, c), not related_z(a, b | c))",
    ("Zadeh", "DCD"): "implies(related_z(a, c) and related_z(b, c), related_z(a | b, c))",
    ("Zadeh", "DCD-r"): "implies(related_z(a, b) and related_z(a, c), related_z(a, b | c))",
    ("Strong", "CCD"): "implies(not strong_indep(a, c) and not strong_indep(b, c), not strong_indep(a & b, c))",
    ("Strong", "CCI"): "implies(strong_indep(a, c) and strong_indep(b, c), strong_indep(a & b, c))",
    ("Strong", "CCD-r"): "implies(not strong_indep(a, b) and not strong_indep(a, c), not strong_indep(a, b & c))",
    ("Strong", "CCI-r"): "implies(strong_indep(a, b) and strong_indep(a, c), strong_indep(a, b & c))",
    ("Strong", "DCI"): "implies(strong_indep(a, c) and strong_indep(b, c), strong_indep(a | b, c))",
    ("Strong", "DCI-r"): "implies(strong_indep(a, b) and strong_indep(a, c), strong_indep(a, b | c))",
    ("Strong", "DCD"): "implies(not strong_indep(a, c) and not strong_indep(b, c), not strong_indep(a | b, c))",
    ("Strong", "DCD-r"): "implies(not strong_indep(a, b) and not strong_indep(a, c), not strong_indep(a, b | c))",
    ("Weak", "CCD"): "implies(not weak_indep(a, c) and not weak_indep(b, c), not weak_indep(a & b, c))",
    ("Weak", "CCI"): "implies(weak_indep(a, c) and weak_indep(b, c), weak_indep(a & b, c))",
    ("Weak", "CCD-r"): "implies(not weak_indep(a, b) and not weak_indep(a, c), not weak_indep(a, b & c))",
    ("Weak", "CCI-r"): "implies(weak_indep(a, b) and weak_indep(a, c), weak_indep(a, b & c))",
    ("Weak", "DCI"): "implies(weak_indep(a, c) and weak_indep(b, c), weak_indep(a | b, c))",
    ("Weak", "DCI-r"): "implies(weak_indep(a, b) and weak_indep(a, c), weak_indep(a, b | c))",
    ("Weak", "DCD"): "implies(not weak_indep(a, c) and not weak_indep(b, c), not weak_indep(a | b, c))",
    ("Weak", "DCD-r"): "implies(not weak_indep(a, b) and not weak_indep(a, c), not weak_indep(a, b | c))",
}


def test_package_resolves_lawlab_names_lazily():
    import ordindep
    from ordindep import lawlab

    for name in ordindep._LAWLAB_NAMES:
        assert getattr(ordindep, name) is getattr(lawlab, name)
    assert set(ordindep._LAWLAB_NAMES) <= set(ordindep.__all__)
    assert not hasattr(ordindep, "no_such_name")
    assert issubclass(BudgetError, ValueError)


def test_package_exports():
    # __all__ is worked out from the package's imports; these are its names
    import ordindep

    assert len(ordindep.__all__) == len(set(ordindep.__all__))
    assert set(ordindep.__all__) == {
        "FALSE", "TRUE", "And", "Atom", "Formula", "Not", "Or", "Vocabulary", "format_formula", "iff",
        "implies", "model_mask", "models",
        "Dist", "TriState", "cond_nec", "cond_poss", "entails", "nec", "poss", "qpo_geq",
        "IndepReport", "classify", "cond_weak_indep", "contraction_dep", "recover_strict_order", "related_z",
        "strong_indep", "strong_indep_direct", "weak_indep", "weak_indep_direct",
        "ConsistencyError", "Rule", "RuleBase", "RuleOrigin", "StratifiedRanking", "compute_pi_star",
        "inject_independence", "priority_necessities", "query", "stratify", "tolerates",
        "IndepDirective", "ParseError", "ParsedDocument", "format_dist", "format_rule", "parse_dist",
        "parse_formula", "parse_kb",
        "CATALOG", "CELLS", "DEFAULT_BUDGET", "BudgetError", "Counterexample", "DistEnsemble", "Law",
        "LawReport", "ProbeReport", "check_law", "completeness_probe_exact", "completeness_probe_sampled",
        "count_dists", "criteria_table", "enumerate_dists", "generator_formulas", "lab_vocabulary",
        "law_by_id", "realized_relations", "relation_axioms_hold", "run_catalog",
    }
    assert all(hasattr(ordindep, name) for name in ordindep.__all__)


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,top,expected",
        [(1, 1, 3), (1, 2, 5), (1, 3, 7), (2, 1, 15), (2, 2, 65),
         (2, 3, 175), (3, 1, 255), (3, 2, 6305), (3, 3, 58975)],
    )
    def test_count_matches_closed_form(self, n, top, expected):
        assert count_dists(n, top) == expected
        assert sum(1 for _ in enumerate_dists(n, top, budget=10**9)) == expected

    def test_all_normalized_and_unique(self):
        seen = set()
        for d in enumerate_dists(2, 2):
            assert max(d.levels) == d.top == 2
            assert d.levels not in seen
            seen.add(d.levels)

    def test_product_order(self):
        dists = list(enumerate_dists(2, 1))
        assert dists[0].levels == (0, 0, 0, 1)
        assert dists[-1].levels == (1, 1, 1, 1)

    def test_closed_under_world_permutation(self):
        tuples = {d.levels for d in enumerate_dists(2, 2)}
        for perm in itertools.permutations(range(4)):
            assert {tuple(t[p] for p in perm) for t in tuples} == tuples

    # the call itself refuses, before anything iterates it
    @pytest.mark.parametrize("n,top", [(0, 1), (4, 1), (1, 0), (1, 4), (9, 1)])
    def test_grid_bounds(self, n, top):
        with pytest.raises(ValueError):
            enumerate_dists(n, top)

    def test_budget_gate(self):
        with pytest.raises(BudgetError, match="exceeds budget"):
            list(enumerate_dists(3, 3, budget=10))

    @pytest.mark.parametrize("n,top", [(1, 3), (2, 2), (2, 4), (3, 1), (1, 127)])
    def test_ensemble_rows_are_the_filtered_product(self, n, top):
        # the ensemble is not bound to the lab's top <= 3, only to int8
        want = [list(t) for t in itertools.product(range(top + 1), repeat=1 << n) if max(t) == top]
        ens = DistEnsemble(n, top)
        assert ens.levels.dtype == np.int8
        assert ens.levels.tolist() == want
        assert ens.count == count_dists(n, top)

    def test_ensemble_scale_bounds(self):
        with pytest.raises(ValueError, match=r"scale top must be 1\.\.127, got 128"):
            DistEnsemble(1, 128)
        with pytest.raises(ValueError, match=r"scale top must be 1\.\.127, got 0"):
            DistEnsemble(1, 0)
        with pytest.raises(BudgetError, match="enumerating 390625 level tuples exceeds budget 1000"):
            DistEnsemble(3, 4, budget=1000)


class TestGeneratorFormulas:
    @pytest.mark.parametrize("n,expected", [(1, 4), (2, 14), (3, 16)])
    def test_sizes(self, n, expected):
        vocab = lab_vocabulary(n)
        forms = generator_formulas(vocab)
        assert len(forms) == expected
        assert len(set(forms)) == expected


# every ScalarOps method with its arity; the tracer in bench/spans.py
# instruments the same ten names
OPS_METHODS = {
    "poss": 1,
    "nec": 1,
    "cond_poss": 2,
    "cond_nec": 2,
    "related_z": 2,
    "strong_indep": 2,
    "strong_indep_direct": 2,
    "weak_indep": 2,
    "weak_indep_direct": 2,
    "entails_classically": 2,
}

MEASURES = frozenset({"poss", "nec", "cond_poss", "cond_nec"})


class TestBackendAgreement:
    def test_ops_agree_on_every_dist(self):
        # the sweep runs ScalarOps on the whole ensemble, the re-check on
        # one Dist: both must agree entry by entry, and the Dist side must
        # hand back plain ints and bools (CLI text and --jsonl records are
        # built from them)
        ens = DistEnsemble(2, 2)
        vec = ScalarOps(ens)
        scalars = [ScalarOps(ens.dist_at(i)) for i in range(ens.count)]
        forms = generator_formulas(ens.vocab)
        assert set(OPS_METHODS) == {
            name for name in vars(ScalarOps) if not name.startswith("_")
        }
        for name, arity in OPS_METHODS.items():
            want_type = int if name in MEASURES else bool
            for combo in itertools.product(forms, repeat=arity):
                row = np.broadcast_to(getattr(vec, name)(*combo), (ens.count,))
                for i, sca in enumerate(scalars):
                    got = getattr(sca, name)(*combo)
                    assert type(got) is want_type, (name, combo, type(got))
                    assert got == row[i], (name, combo, i)

    def test_unwrapped_relations_agree_on_every_dist(self):
        # library calls no ScalarOps method wraps: on the ensemble each
        # gives one verdict per distribution, equal to its plain bool on
        # that Dist
        ens = DistEnsemble(2, 2)
        dists = [ens.dist_at(i) for i in range(ens.count)]
        forms = generator_formulas(ens.vocab)
        calls = {ind.cond_weak_indep: 3, ind.contraction_dep: 2, ind.recover_strict_order: 2, measures.qpo_geq: 2}
        for fn, arity in calls.items():
            for combo in itertools.product(forms, repeat=arity):
                want = [fn(d, *combo) for d in dists]
                assert all(type(v) is bool for v in want), (fn.__name__, combo)
                row = np.broadcast_to(fn(ens, *combo), (ens.count,))
                assert row.tolist() == want, (fn.__name__, combo)

    def test_event_table_is_every_mask_of_every_dist(self):
        ens = DistEnsemble(2, 3)
        dists = [Dist(ens.vocab, 3, t) for t in itertools.product(range(4), repeat=4) if max(t) == 3]
        assert [ens.dist_at(i) for i in range(ens.count)] == dists
        for mask in range(1 << 4):
            assert ens.poss_mask(mask).tolist() == [d.poss_mask(mask) for d in dists], mask

    def test_classify_fields_are_plain(self):
        forms = generator_formulas(lab_vocabulary(2))
        for d in enumerate_dists(2, 2):
            for a, c in itertools.product(forms, repeat=2):
                rep = ind.classify(d, a, c)
                assert type(rep.unrelated_z) is bool
                assert type(rep.weak) is bool
                assert type(rep.strong) is bool
                cells = (rep.poss_ac, rep.poss_a_nc, rep.poss_na_c, rep.poss_na_nc)
                assert all(type(p) is int for p in cells)
                assert rep.unrelated_z is not ind.related_z(d, a, c)
                assert rep.weak is ind.weak_indep(d, a, c)
                assert rep.strong is ind.strong_indep(d, a, c)


class TestCheckLaw:
    def test_true_law_reports_full_cost(self):
        law = law_by_id("poss-disjunction-max")
        rep = check_law(law, DistEnsemble(2, 2))
        assert rep.holds
        assert rep.counterexample is None
        assert rep.evaluations == law_cost(law, 65, 14)

    def test_false_law_counterexample_reverifies(self):
        rep = check_law(law_by_id("strong-symmetric"), DistEnsemble(2, 2))
        assert not rep.holds
        ce = rep.counterexample
        a, c = ce.formulas
        assert ind.strong_indep(ce.dist, a, c) != ind.strong_indep(ce.dist, c, a)

    def test_first_counterexample_is_deterministic(self):
        r1 = check_law(law_by_id("weak-contraposition-split"), DistEnsemble(2, 2))
        r2 = check_law(law_by_id("weak-contraposition-split"), DistEnsemble(2, 2))
        assert r1.counterexample == r2.counterexample

    def test_budget_gate(self):
        with pytest.raises(BudgetError):
            check_law(law_by_id("strong-symmetric"), DistEnsemble(2, 3), budget=10)

    def test_backend_disagreement_raises(self):
        # false on the ensemble, true on every single Dist
        law = Law("single-dist-only", 1, "", lambda o, x: isinstance(o.dist, Dist))
        with pytest.raises(RuntimeError, match="backend disagreement on law single-dist-only"):
            check_law(law, DistEnsemble(1, 1))

    def test_law_by_id_unknown(self):
        with pytest.raises(KeyError):
            law_by_id("no-such-law")

    def test_refused_sweeps_build_no_ensemble(self, monkeypatch):
        # at (3, 3) the raw tuples fit the default budget but the
        # evaluations do not: the refusal comes from count_dists alone
        def refuse(*args):
            raise AssertionError("a refused sweep built a DistEnsemble")

        # check_law is handed its grid, so it is built before the patch
        ensemble = DistEnsemble(3, 3)
        monkeypatch.setattr(lawlab, "DistEnsemble", refuse)
        with pytest.raises(BudgetError, match="full catalog needs 4453909950 evaluations"):
            run_catalog(3, 3)
        with pytest.raises(BudgetError, match="criteria table needs 5797478400 evaluations"):
            criteria_table(3, 3)
        with pytest.raises(BudgetError, match="law strong-symmetric needs 15097600 evaluations"):
            check_law(law_by_id("strong-symmetric"), ensemble)


def _reference_check(law, n, top, ensemble):
    """check_law as a per-tuple loop: one predicate call per generator
    tuple in product order, the first failing row's first False as the
    counterexample.  Returns the report and every row, stacked."""
    ops = ScalarOps(ensemble)
    gens = generator_formulas(ensemble.vocab)
    rows, report, done = [], None, 0
    for combo in itertools.product(gens, repeat=law.arity):
        row = np.broadcast_to(law.predicate(ops, *combo), (ensemble.count,))
        rows.append(row)
        done += ensemble.count
        if report is None and not np.all(row):
            i = int(np.argmin(row))
            report = LawReport(law.law_id, n, top, done, False, Counterexample(ensemble.dist_at(i), combo))
    if report is None:
        report = LawReport(law.law_id, n, top, done, True, None)
    return report, np.stack(rows).reshape((len(gens),) * law.arity + (ensemble.count,))


def _event_ids(vocab):
    return np.array([model_mask(g, vocab.n) for g in generator_formulas(vocab)])


class TestSweepKernel:
    # (1, 4) lies above the lab's top: only an ensemble reaches it
    @pytest.mark.parametrize("n,top", [(2, 2), (2, 3), (1, 4)])
    def test_matches_the_per_tuple_loop(self, n, top):
        ens = DistEnsemble(n, top)
        ids = _event_ids(ens.vocab)
        for law in (*CATALOG, *CELLS.values()):
            want, rows = _reference_check(law, n, top, ens)
            assert check_law(law, ens, budget=10**9) == want, law.law_id
            grid = _grid(law, ScalarOps(ens), [ids] * law.arity, n, ens.count)
            assert np.array_equal(grid, rows), law.law_id

    def test_grids_stay_chunked_at_3_2(self, monkeypatch):
        # one grid per first-argument value: none exceeds 16^2 x 6305 cells
        sizes = []
        grid = lawlab._grid

        def recording(*args):
            out = grid(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(lawlab, "_grid", recording)
        reports = run_catalog(3, 2, budget=10**9)
        assert {r.law_id for r in reports if not r.holds} == FAILING_LAWS
        assert max(sizes) == 16**2 * 6305

    def test_event_id_leaves_equal_only_themselves(self):
        ids = np.arange(4)
        x, y = _EventIds(ids, 1), _EventIds(ids, 1)
        assert x == x and x != y and not (x == y)
        assert hash(x) != hash(y)
        assert model_mask(Not(x), 1).tolist() == [3, 2, 1, 0]

    def test_entailment_on_event_ids_has_a_source_axis(self):
        ens = DistEnsemble(2, 2)
        ids = np.arange(16)
        a, b = _EventIds(ids[:, None], 2), _EventIds(ids[None, :], 2)
        got = ScalarOps(ens).entails_classically(a, b)
        assert got.shape == (16, 16, 1)
        assert got[..., 0].tolist() == [[x & ~y & 15 == 0 for y in range(16)] for x in range(16)]
        assert ScalarOps(ens).entails_classically(FALSE, TRUE) is True


class TestCatalog:
    def test_shape(self):
        assert len(CATALOG) == 72
        ids = [law.law_id for law in CATALOG]
        assert len(set(ids)) == 72
        assert all(0 <= law.arity <= 3 for law in CATALOG)
        assert all(law.note for law in CATALOG)

    def test_verdicts_at_2_3(self):
        reports = run_catalog(2, 3)
        assert {r.law_id for r in reports if not r.holds} == FAILING_LAWS
        for r in reports:
            assert r.holds == (r.counterexample is None)

    def test_budget_gate(self):
        with pytest.raises(BudgetError, match="full catalog"):
            run_catalog(2, 3, budget=1000)


class TestCriteriaTable:
    def test_cell_statements_pinned(self):
        assert {cell: law.note for cell, law in CELLS.items()} == CELL_STATEMENTS
        assert list(CELLS) == list(CELL_STATEMENTS)
        assert [law.law_id for law in CELLS.values()] == [f"{r.lower()}-{c.lower()}" for r, c in CELL_STATEMENTS]

    def test_cells_compile_at_import(self, monkeypatch):
        assert list(CELLS) == [(r, c) for r in RELATIONS for c in CRITERIA]
        for (relation, criterion), law in CELLS.items():
            assert law.note == _cell(relation, criterion)
            assert law.arity == 3
        ids = [law.law_id for law in CELLS.values()]
        assert len(set(ids)) == len(ids) == 24
        assert not set(ids) & {law.law_id for law in CATALOG}

        def refuse(*args):
            raise AssertionError("a sweep compiled a statement")

        monkeypatch.setattr(lawlab, "_law", refuse)
        assert list(criteria_table(1, 1)) == list(CELLS)
        assert len(run_catalog(1, 1)) == len(CATALOG)

    def test_verdicts_at_2_3(self):
        cells = criteria_table(2, 3, budget=20_000_000)
        assert len(cells) == len(RELATIONS) * len(CRITERIA) == 24
        got = {cell: rep.holds for cell, rep in cells.items()}
        assert got == TABLE_2_3

    def test_default_budget_is_too_small_here(self):
        # the 24 cells at (2, 3) cost ~11.5M evaluations; callers must opt in
        with pytest.raises(BudgetError, match="criteria table"):
            criteria_table(2, 3)

    def test_failing_cells_carry_counterexamples(self):
        for rep in criteria_table(2, 2).values():
            assert rep.holds == (rep.counterexample is None)

    def test_cell_laws_match_their_cells(self):
        cells = criteria_table(2, 2)
        reports = {r.law_id: r for r in run_catalog(2, 2)}
        for law_id, cell in CELL_LAWS.items():
            law = law_by_id(law_id)
            assert law.note == _cell(*cell)
            assert law.predicate.__code__ == CELLS[cell].predicate.__code__
            rep = reports[law_id]
            assert (rep.holds, rep.counterexample) == (cells[cell].holds, cells[cell].counterexample)


def _assert_grids_agree(ensemble, compiled, oracle, arity, what):
    """The compiled predicate's grid equals the oracle's over every
    generator tuple and distribution, one first-argument chunk at a time
    (as check_law sweeps), so no grid outgrows 16^2 x 6305 cells at (3, 2)."""
    ops, ids, n = ScalarOps(ensemble), _event_ids(ensemble.vocab), ensemble.vocab.n
    chunks = [[ids[j : j + 1]] + [ids] * (arity - 1) for j in range(len(ids))] if arity else [[]]
    for pools in chunks:
        got = _grid(Law("compiled", arity, "", compiled), ops, pools, n, ensemble.count)
        want = _grid(Law("oracle", arity, "", oracle), ops, pools, n, ensemble.count)
        assert np.array_equal(got, want), what


def _assert_laws_agree(n, top):
    ens = DistEnsemble(n, top, budget=10**9)
    for law, oracle in zip(CATALOG, law_oracle.CATALOG):
        _assert_grids_agree(ens, law.predicate, oracle.predicate, law.arity, law.law_id)


def _assert_cells_agree(n, top):
    # the eight cell laws are covered by the catalog comparison
    ens = DistEnsemble(n, top, budget=10**9)
    assert list(CELLS) == [(r, c) for r in law_oracle.RELATIONS for c in law_oracle.CRITERIA]
    for (relation, criterion), law in CELLS.items():
        if (relation, criterion) in CELL_LAWS.values():
            continue
        oracle = law_oracle.composition_predicate(relation, criterion)
        _assert_grids_agree(ens, law.predicate, oracle, 3, (relation, criterion))


class TestStatements:
    def test_catalog_matches_the_oracle_ids_order_and_arity(self):
        assert [(law.law_id, law.arity) for law in CATALOG] == [
            (law.law_id, law.arity) for law in law_oracle.CATALOG
        ]

    def test_each_note_compiles_to_its_predicate(self):
        for law in CATALOG:
            compiled = _law(law.law_id, law.note)
            assert compiled.arity == law.arity, law.law_id
            assert compiled.predicate.__code__ == law.predicate.__code__, law.law_id

    # one test per grid, so the (2, 3) tests keep their names
    def test_every_law_agrees_with_the_oracle_at_2_3(self):
        _assert_laws_agree(2, 3)

    def test_every_law_agrees_with_the_oracle_at_3_2(self):
        _assert_laws_agree(3, 2)

    def test_every_cell_agrees_with_the_oracle_at_2_3(self):
        _assert_cells_agree(2, 3)

    def test_every_cell_agrees_with_the_oracle_at_3_2(self):
        _assert_cells_agree(3, 2)

    @pytest.mark.parametrize("law_id", ["qpo-dominance", "strong-exclusion-dep"])
    @pytest.mark.parametrize("n,top", [(2, 3), (3, 2)])
    def test_entailment_laws_agree_with_the_oracle(self, law_id, n, top):
        # entails has no distribution axis; the laws mix it with rows
        law = law_by_id(law_id)
        oracle = next(o for o in law_oracle.CATALOG if o.law_id == law_id)
        ens = DistEnsemble(n, top)
        _assert_grids_agree(ens, law.predicate, oracle.predicate, 2, law_id)
        report = check_law(law, ens, budget=10**9)
        assert report == check_law(oracle, ens, budget=10**9)
        assert report.holds

    def test_distribution_free_statements(self):
        ens = DistEnsemble(2, 3)
        rep = check_law(_law("conjunction-entails-conjunct", "entails(a & b, a)"), ens)
        assert rep.holds and rep.evaluations == 14 * 14 * ens.count
        rep = check_law(_law("everything-entails", "entails(a, b)"), ens)
        assert not rep.holds
        assert rep.counterexample == Counterexample(ens.dist_at(0), (TRUE, FALSE))
        assert rep.evaluations == 2 * ens.count

    def test_arity_is_the_free_variables_in_order(self):
        law = _law("x", "implies(poss(c) == top, nec(~a) < top)")
        assert law.arity == 2
        assert law.predicate.__code__.co_varnames == ("o", "a", "c")
        assert _law("x", "poss(true) > poss(false)").arity == 0

    def test_predicates_see_only_numpy_and_the_formula_names(self):
        for law in CATALOG:
            assert law.predicate.__globals__.keys() == {"__builtins__", "np", "And", "Or", "Not", "TRUE", "FALSE"}
            assert law.predicate.__globals__["__builtins__"] == {}

    @pytest.mark.parametrize("statement", [
        "poss(d) > 0",                          # unknown name
        "related(a, c)",                        # unknown function
        "poss(a, c) > 0",                       # wrong argument count
        "cond_nec(a) > 0",                      # wrong argument count
        "iff(strong_indep(a, c))",              # wrong argument count
        "poss(f=a) > 0",                        # keyword argument
        "poss(a) == a",                         # a formula where a level belongs
        "poss(poss(a)) > 0",                    # a level where a formula belongs
        "strong_indep(a, c) == top",            # a truth value where a level belongs
        "poss(a)",                              # a level where a truth value belongs
        "poss(a & strong_indep(a, c)) > 0",     # a truth value where a formula belongs
        "0 < poss(a) < top",                    # chained comparison
        "poss(a) in poss(c)",                   # other comparison
        "poss(a) >= 1",                         # other literal
        "poss(a) > 0.5",                        # other literal
        "poss(a) > False",                      # other literal
        "strong_indep(a, 'c')",                 # other literal
        "o.top > 0",                            # attribute
        "poss(a) > np.maximum(0, 0)",           # attribute
        "poss(a[0]) > 0",                       # subscript
        "poss(a) + 0 > 0",                      # level arithmetic
        "strong_indep(a, c) & weak_indep(a, c)",  # formula operator on truth values
        "not a",                                # truth operator on a formula
        "lambda: 0",                            # anything else
        "poss(a) >",                            # not an expression
    ])
    def test_excluded_forms_raise(self, statement):
        with pytest.raises(ValueError, match=re.escape(f"law statement {statement!r}")):
            _law("excluded", statement)


class TestRelationProbe:
    def test_realized_relation_counts(self):
        assert len(_realized_relations(1)) == 5
        assert len(_realized_relations(2)) == 149

    def test_exact_probe_printed(self):
        rep = completeness_probe_exact(mode="printed")
        assert (rep.atoms, rep.candidates, rep.satisfying, rep.realized) == (1, 1 << 16, 60, 5)
        assert len(rep.unrealized) == 55

    def test_exact_probe_schema(self):
        rep = completeness_probe_exact(mode="schema")
        assert (rep.atoms, rep.candidates, rep.satisfying, rep.realized) == (1, 1 << 16, 20, 5)
        assert len(rep.unrealized) == 15

    def test_axioms_sound_on_realized(self):
        for bits in _realized_relations(1):
            assert relation_axioms_hold(bits, 1, mode="printed")
            assert relation_axioms_hold(bits, 1, mode="schema")

    def test_unrealized_satisfier_exists(self):
        rep = completeness_probe_exact(mode="schema")
        bits = rep.unrealized[0]
        assert relation_axioms_hold(bits, 1, mode="schema")
        assert bits not in _realized_relations(1)

    def test_sampled_probe_pinned(self):
        # the README's figures: every one of the 500 draws (seed 0) is distinct
        rep = completeness_probe_sampled()
        assert (rep.atoms, rep.candidates, rep.satisfying, rep.realized) == (2, 500, 109, 1)
        rep = completeness_probe_sampled(mode="schema")
        assert (rep.atoms, rep.candidates, rep.satisfying, rep.realized) == (2, 500, 50, 1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown axiom mode"):
            completeness_probe_exact(mode="nonsense")
        with pytest.raises(ValueError, match="unknown axiom mode"):
            relation_axioms_hold(0, 1, mode="nonsense")

    @pytest.mark.parametrize("mode,satisfying", [("printed", 60), ("schema", 20)])
    def test_every_one_atom_relation(self, mode, satisfying):
        # all 2^16 relations at once, straight through _admitted: the exact
        # probe reports the same admitted set, realized and unrealized
        admitted = set(np.flatnonzero(_admitted(range(1 << 16), 1, mode)).tolist())
        assert len(admitted) == satisfying
        rep = completeness_probe_exact(mode=mode)
        realized = _realized_relations(1)
        assert rep.satisfying == len(admitted)
        assert rep.realized == len(admitted & realized)
        assert set(rep.unrealized) == admitted - realized

    @pytest.mark.parametrize("n", [1, 2])
    def test_out_of_range_relation_rejected(self, n):
        pairs = (1 << (1 << n)) ** 2
        for bits in (-1, 1 << pairs):
            with pytest.raises(ValueError, match="relation bits"):
                relation_axioms_hold(bits, n)
        # the extremes are in range: nothing dependent, and everything
        # dependent, (true, true) included
        assert relation_axioms_hold(0, n) is False
        assert relation_axioms_hold((1 << pairs) - 1, n) is False

    @pytest.mark.parametrize("n", [0, -1, 4])
    def test_atoms_outside_the_lab_rejected(self, n):
        # checked before the bitset bound 2**(E*E), a 2**32-bit integer at 4 atoms
        with pytest.raises(ValueError, match=r"lab vocabulary supports 1\.\.3 atoms"):
            relation_axioms_hold(0, n)

    def test_three_atom_ensemble_rejected(self):
        # refused before the (256, 256, count) broadcast
        with pytest.raises(ValueError, match=r"realized relations support 1\.\.2 atoms, got 3"):
            realized_relations(DistEnsemble(3, 1))


def _reference_forced_pairs(events, full, mode):
    forced_in = set()
    if mode == "printed":
        for x in range(events):
            forced_in.add((x, 0))
            forced_in.add((x, full ^ x))
    else:
        for x in range(events):
            for y in range(events):
                if x & y == 0:
                    forced_in.add((x, y))
    return forced_in, {(full, full)}


def _reference_axioms_hold(bits, n, mode):
    """The five axioms as first transcribed: pair sets and a triple loop
    over a bit-reading closure, the oracle for the matrix check."""
    events = 1 << (1 << n)
    full = events - 1

    def dep(x, y):
        return bool((bits >> (x * events + y)) & 1)

    forced_in, forced_out = _reference_forced_pairs(events, full, mode)
    if any(not dep(x, y) for x, y in forced_in):
        return False
    if any(dep(x, y) for x, y in forced_out):
        return False
    for x in range(events):
        for y in range(events):
            for z in range(events):
                if dep(x | y, full ^ y) and dep(y | z, full ^ z) and not dep(x | z, full ^ z):
                    return False
                if dep(x, y & z) and not (dep(x, y) or dep(x, z)):
                    return False
    return True


class TestAxiomOracle:
    MODES = ("printed", "schema")

    @pytest.mark.parametrize("mode", MODES)
    def test_every_exact_probe_candidate(self, mode):
        # the one-atom relations that set the pairs the pinning axioms
        # force and clear (true, true): every other relation breaks one of
        # those axioms, so the oracle's admitted list is the probe's
        events = 4
        forced_in, forced_out = _reference_forced_pairs(events, events - 1, mode)
        free = [
            1 << (x * events + y)
            for x in range(events)
            for y in range(events)
            if (x, y) not in forced_in and (x, y) not in forced_out
        ]
        base = sum(1 << (x * events + y) for x, y in forced_in)
        candidates = [
            base + sum(bit for take, bit in zip(picks, free) if take)
            for picks in itertools.product((0, 1), repeat=len(free))
        ]
        admitted = []
        for bits in candidates:
            want = _reference_axioms_hold(bits, 1, mode)
            assert relation_axioms_hold(bits, 1, mode) is want, (bits, mode)
            if want:
                admitted.append(bits)
            # with (true, true) set as well, some of them break only the
            # axiom that excludes that pair
            bits |= 1 << (events * events - 1)
            assert relation_axioms_hold(bits, 1, mode) is _reference_axioms_hold(bits, 1, mode)
        rep = completeness_probe_exact(mode=mode)
        assert rep.candidates == 1 << 16
        assert rep.satisfying == len(admitted)
        realized = _realized_relations(1)
        assert rep.unrealized == tuple(sorted(b for b in admitted if b not in realized))

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_realized_relation(self, n):
        for bits in _realized_relations(n):
            for mode in self.MODES:
                assert relation_axioms_hold(bits, n, mode) is _reference_axioms_hold(bits, n, mode)

    def test_seeded_two_atom_relations(self):
        # mutations of realized relations (0-6 flipped pairs) mostly pass
        # the forced pairs and reach the triple axioms; uniform bitsets
        # mostly do not
        rng = random.Random(0)
        pool = sorted(_realized_relations(2))
        relations = []
        for _ in range(1600):
            bits = rng.choice(pool)
            for _ in range(rng.randint(0, 6)):
                bits ^= 1 << rng.randrange(256)
            relations.append(bits)
        relations += [rng.getrandbits(256) for _ in range(400)]
        for mode in self.MODES:
            verdicts = [_reference_axioms_hold(bits, 2, mode) for bits in relations]
            assert 0 < sum(verdicts) < len(relations)
            for bits, want in zip(relations, verdicts):
                assert relation_axioms_hold(bits, 2, mode) is want, (bits, mode)


def _mask_formula(mask, vocab):
    """A DNF formula whose model mask is exactly the given world set."""
    f = FALSE
    for w in range(vocab.world_count):
        if (mask >> w) & 1:
            world = TRUE
            for i in range(vocab.n):
                x = vocab.atom(i)
                world = And(world, x if (w >> i) & 1 else Not(x))
            f = Or(f, world)
    return f


class TestRealizedRelationMatchesDefinition:
    # the probe reads strong dependence off the cell form; the definition
    # goes through cond_nec, so each bit is checked against the other route
    @staticmethod
    def _check(ens, picks):
        vocab = ens.vocab
        events = 1 << vocab.world_count
        forms = [_mask_formula(x, vocab) for x in range(events)]
        assert [model_mask(f, vocab.n) for f in forms] == list(range(events))
        rels = realized_relations(ens)
        assert len(rels) == ens.count
        for i in picks:
            d, bits = ens.dist_at(i), rels[i]
            for x, y in itertools.product(range(events), repeat=2):
                dep = bool((bits >> (x * events + y)) & 1)
                assert dep == (not ind.strong_indep(d, forms[x], forms[y])), (d.levels, x, y)

    @pytest.mark.parametrize("top", [1, 2, 3])
    def test_every_dist_one_atom(self, top):
        ens = DistEnsemble(1, top)
        self._check(ens, range(ens.count))

    def test_subsample_two_atoms(self):
        for top in (1, 2, 3):
            ens = DistEnsemble(2, top)
            self._check(ens, range(0, ens.count, 9))


class TestRealizedRelationKey:
    def test_relation_depends_only_on_preorder_and_zero_set(self):
        # the impossibility level is an absolute anchor: two distributions
        # with the same world preorder can still differ on which worlds sit
        # at level 0, and that changes the realized relation
        seen = {}
        ens = DistEnsemble(2, 4)
        for i, rel in enumerate(realized_relations(ens)):
            d = ens.dist_at(i)
            order = sorted(set(d.levels))
            ranks = tuple(order.index(x) for x in d.levels)
            zeros = tuple(x == 0 for x in d.levels)
            key = (ranks, zeros)
            assert seen.setdefault(key, rel) == rel
        # 2 * 75 - 1: each of the 75 weak orders of four worlds, with its
        # lowest block at 0 or not, except one block alone at 0
        assert len(seen) == 149


class TestRealizedRelationScope:
    @pytest.mark.parametrize("n,count", [(1, 5), (2, 149)])
    def test_top_2n_realizes_every_top(self, n, count):
        # the union over tops 1..2^n+1 of the relations of plain Dists,
        # each pair read with the definitional (conditional-necessity) call
        vocab = lab_vocabulary(n)
        events = 1 << vocab.world_count
        leaves = [_EventIds(x, n) for x in range(events)]
        pairs = list(itertools.product(range(events), repeat=2))
        union = set()
        for top in range(1, (1 << n) + 2):
            for levels in itertools.product(range(top + 1), repeat=vocab.world_count):
                if max(levels) == top:
                    d = Dist(vocab, top, levels)
                    union.add(sum(1 << (x * events + y) for x, y in pairs if not ind.strong_indep(d, leaves[x], leaves[y])))
        assert len(union) == count
        assert _realized_relations(n) == union
