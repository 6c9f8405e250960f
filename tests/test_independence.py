import pytest
from hypothesis import given

from ordindep import (
    TRUE,
    And,
    Atom,
    Dist,
    Not,
    Or,
    Vocabulary,
    classify,
    cond_weak_indep,
    nec,
    poss,
    related_z,
    strong_indep,
    strong_indep_direct,
    weak_indep,
    weak_indep_direct,
)
from ordindep.lawlab import DistEnsemble, ScalarOps, _law, check_law, law_by_id

from strategies import dist_with_formulas

AC = Vocabulary(("a", "c"))
A, C = Atom(0), Atom(1)

WORKED = Dist(AC, 3, (1, 1, 2, 3))


class TestWorkedExample:
    def test_classify_report(self):
        rep = classify(WORKED, A, C)
        assert rep.unrelated_z
        assert rep.weak
        assert rep.strong
        assert (rep.poss_ac, rep.poss_a_nc, rep.poss_na_c, rep.poss_na_nc) == (3, 1, 2, 1)

    def test_strong_both_routes(self):
        assert strong_indep(WORKED, A, C)
        assert strong_indep_direct(WORKED, A, C)

    def test_disjunctive_evidence_still_strong(self):
        assert strong_indep(WORKED, Or(A, Not(C)), C)

    def test_no_contraction_dependence(self):
        # c survives contracting by a: accepted, and still accepted given !a
        assert nec(WORKED, C) > 0
        assert weak_indep(WORKED, Not(A), C)

    def test_conditional_weak_form(self):
        assert cond_weak_indep(WORKED, C, TRUE, A)

    def test_order_recovery(self):
        # strong_indep(a | c, ~c) reads poss(a) > poss(c) (strong-order-embedding-strict):
        # poss(a) = 3 is not strictly above poss(c) = 3, but beats poss(!c) = 1
        assert not strong_indep(WORKED, Or(A, C), Not(C))
        assert strong_indep(WORKED, Or(A, Not(C)), Not(Not(C)))


class TestFrozenWitnesses:
    def test_zadeh_relatedness(self):
        d = Dist(AC, 3, (1, 3, 2, 0))
        assert related_z(d, A, C)
        assert not related_z(WORKED, A, C)

    def test_weak_without_strong(self):
        d = Dist(AC, 3, (2, 0, 3, 2))
        assert weak_indep(d, A, C)
        assert not strong_indep(d, A, C)

    def test_strong_is_asymmetric(self):
        d = Dist(AC, 3, (0, 0, 3, 1))
        assert strong_indep(d, A, C)
        assert not strong_indep(d, C, A)

    def test_contraction_dependence_witness(self):
        # c leaves when contracting by a: accepted, but not given !a
        d = Dist(AC, 3, (0, 0, 0, 3))
        assert nec(d, C) > 0
        assert not weak_indep(d, Not(A), C)


class TestDefinitionAgreement:
    @given(dist_with_formulas(count=2))
    def test_strong_routes_agree(self, dfg):
        d, a, c = dfg
        assert strong_indep(d, a, c) == strong_indep_direct(d, a, c)

    @given(dist_with_formulas(count=2))
    def test_weak_routes_agree(self, dfg):
        d, a, c = dfg
        assert weak_indep(d, a, c) == weak_indep_direct(d, a, c)


class TestRelationChain:
    @given(dist_with_formulas(count=2))
    def test_strong_implies_weak_implies_unrelated(self, dfg):
        d, a, c = dfg
        rep = classify(d, a, c)
        if rep.strong:
            assert rep.weak
        if rep.weak:
            assert rep.unrelated_z

    @given(dist_with_formulas(count=2))
    def test_classify_matches_pieces(self, dfg):
        d, a, c = dfg
        rep = classify(d, a, c)
        assert rep.unrelated_z == (not related_z(d, a, c))
        assert rep.weak == weak_indep(d, a, c)
        assert rep.strong == strong_indep(d, a, c)

    @given(dist_with_formulas(count=2))
    def test_cells_populate_report(self, dfg):
        d, a, c = dfg
        rep = classify(d, a, c)
        assert rep.poss_ac == poss(d, And(a, c))
        assert rep.poss_a_nc == poss(d, And(a, Not(c)))
        assert rep.poss_na_c == poss(d, And(Not(a), c))
        assert rep.poss_na_nc == poss(d, And(Not(a), Not(c)))


class TestOrderRecovery:
    @given(dist_with_formulas(count=2))
    def test_matches_strict_level_comparison(self, dfg):
        # iff(strong_indep(a | c, ~c), poss(a) > poss(c)), on vocabularies and tops past the lab's grids
        d, a, c = dfg
        assert law_by_id("strong-order-embedding-strict").predicate(ScalarOps(d), a, c)


# Contraction as weak dependence on the negation: by the Harper identity
# (Alchourron, Gardenfors and Makinson 1985), contracting by a keeps what
# both the beliefs and their revision by !a keep, so an accepted c leaves
# (nec(a) >= nec(a | c)) exactly when c is not accepted given !a.
HARPER = "iff(nec(c) > 0 and nec(a) >= nec(a | c), nec(c) > 0 and not weak_indep(~a, c))"


class TestContraction:
    @pytest.mark.parametrize(("n", "top", "evaluations"), [(1, 3, 112), (2, 3, 34_300), (3, 2, 1_614_080)])
    def test_harper_identity_holds(self, n, top, evaluations):
        report = check_law(_law("contraction-harper", HARPER), DistEnsemble(n, top))
        assert (report.holds, report.evaluations) == (True, evaluations)

    @pytest.mark.parametrize(("n", "top"), [(2, 3), (3, 2)])
    def test_unnegated_side_is_refuted(self, n, top):
        mutant = HARPER.replace("weak_indep(~a, c)", "weak_indep(a, c)")
        report = check_law(_law("contraction-harper-unnegated", mutant), DistEnsemble(n, top))
        assert not report.holds
