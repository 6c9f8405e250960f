"""Acceptance suite: one test per criterion, one visible verdict line each.

Each test gathers every deviation before failing, so a red criterion
reports the full set of mismatches, not just the first.

Criteria 3 and 4 assert three claims as refutations, not as laws.  Under
the definitions in `ordindep.independence` (strong: N(c|a) = N(c) > 0;
weak: N(c) > 0 and N(c|a) > 0) each one is false.  At both grids each
must be refuted, and its counterexample must falsify the claim again
through the scalar library calls; a refuted claim that starts to hold
fails its criterion.

* strong-dep-disjunction-merge, dep(a, c) and dep(b, c) imply
  dep(a|b, c).  Take 0 < poss(!c) < top, a = c and b = !c: learning c
  raises N(c) to top and learning !c drops it to 0, so both pairs are
  dependent; but a|b is a tautology and learning it changes nothing.
* Strong x DCD in the criteria table: the same statement in its
  two-premise table form, so the same proof applies.
* weak-disjunction-iff, wi(a|b, c) iff wi(a, c) and wi(b, c).  The
  if-half holds (it is the Weak x DCI cell); the only-if half fails,
  since learning a|b can leave c accepted while learning one disjunct
  does not: the exception-subclass pattern of the penguin example.

One distribution refutes all three with contingent propositions of
positive possibility, a|b not a tautology: levels (0, 3, 1, 0) over
!a!b, a!b, !ab, ab at top 3, with a, b, a for the law's a, b, c.
`test_refuted_claims_nondegenerate_witness` pins it with plain calls to
`ordindep.independence`, independently of the law checker.
"""

from __future__ import annotations

import time

from ordindep import (
    Atom,
    ConsistencyError,
    Dist,
    Not,
    Or,
    TriState,
    Vocabulary,
    compute_pi_star,
    criteria_table,
    law_by_id,
    model_mask,
    parse_formula,
    parse_kb,
    poss,
    run_catalog,
)
from ordindep import independence as ind
from ordindep.lawlab import (
    CELLS,
    CRITERIA,
    RELATIONS,
    DistEnsemble,
    ScalarOps,
    check_law,
    format_counterexample,
    law_cost,
)
from ordindep.ranking import RuleOrigin

from checks import constraints_satisfied, raisable_worlds
from conftest import ACCEPTANCE_VERDICTS

# documented non-properties: these must FAIL and produce a concrete,
# re-verifiable counterexample
DOCUMENTED_NONPROPERTIES = frozenset({
    "strong-symmetric",
    "strong-negation-transparent",
    "weak-contraposition-split",
})

# catalog laws the definitions refute (proofs in the module docstring);
# checked like the documented non-properties
REFUTED_LAWS = frozenset({"strong-dep-disjunction-merge"})

# recorded side checks, not gated here: the three encode statements whose
# as-printed readings the checker refutes (their two-premise readings are
# covered by table cells that do hold)
SIDE_CHECKS = frozenset({
    "weak-min-form-not-implied",
    "weak-or-merge-printed",
    "weak-or-conjunction-printed",
})

# the two equivalence forms belong to the table criterion, not the catalog one
CLAIMED_EQUIVALENCES = frozenset({"weak-conjunction-iff"})
REFUTED_EQUIVALENCES = frozenset({"weak-disjunction-iff"})

CLAIMED_CELLS = (
    [("Zadeh", c) for c in ("DCI", "DCI-r", "DCD", "DCD-r")]
    + [("Strong", c) for c in ("CCD-r", "CCI-r", "DCI")]
    + [("Weak", c) for c in ("CCD-r", "CCI-r", "DCI", "DCD")]
)

# the two-premise table form of strong-dep-disjunction-merge
REFUTED_CELLS = (("Strong", "DCD"),)

GRIDS = ((2, 3), (3, 2))
BIG_BUDGET = 1_000_000_000


def report(criterion: int, name: str, problems: list[str], note: str = "") -> None:
    status = "PASS" if not problems else "FAIL"
    suffix = f"  ({note})" if note else ""
    lines = [f"criterion {criterion} ({name}): {status}{suffix}"]
    lines += [f"    - {p}" for p in problems]
    text = "\n".join(lines)
    ACCEPTANCE_VERDICTS.append(text)
    print(text)
    assert not problems, text


def test_criterion_1_penguin_scenario(data_dir):
    t0 = time.perf_counter()
    problems: list[str] = []
    doc = parse_kb((data_dir / "penguin.kb").read_text())
    ranking = compute_pi_star(doc.base())

    got_strata = tuple(sorted(s) for s in ranking.strata)
    if got_strata != ([1, 3], [0, 2]):
        problems.append(f"strata {got_strata} != ([1, 3], [0, 2])")
    if ranking.priorities != (2, 1, 2, 1):
        problems.append(f"priorities {ranking.priorities} != (2, 1, 2, 1)")
    expected_levels = (2, 0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 1, 2, 0, 2, 0)
    if ranking.pi_star.levels != expected_levels:
        problems.append(f"pi* levels {ranking.pi_star.levels} != {expected_levels}")

    vocab = doc.vocab
    f = lambda s: parse_formula(s, vocab)
    for ev, cl, want in (
        ("p", "b", TriState.ACCEPTED),
        ("p", "f", TriState.REJECTED),
        ("p", "l", TriState.IGNORED),
    ):
        got = ranking.query(f(ev), f(cl))
        if got is not want:
            problems.append(f"query({ev}, {cl}) = {got}, wanted {want}")

    fixed = parse_kb((data_dir / "penguin_fixed.kb").read_text())
    repaired = compute_pi_star(fixed.injected_base())
    injected = [i for i, r in enumerate(repaired.rules) if r.origin is RuleOrigin.INDEPENDENCE]
    if len(injected) != 1 or repaired.priorities[injected[0]] != 2:
        problems.append(f"injected rule priorities {[repaired.priorities[i] for i in injected]} != [2]")
    got = repaired.query(f("p"), f("l"))
    if got is not TriState.ACCEPTED:
        problems.append(f"repaired query(p, l) = {got}, wanted Accepted")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget is 1s")
    report(1, "penguin scenario", problems, note=f"{elapsed * 1000:.0f}ms")


def test_criterion_2_definition_characterization_agreement():
    t0 = time.perf_counter()
    problems: list[str] = []
    expected_counts = {(2, 3): 175, (3, 2): 6305}
    for n, top in GRIDS:
        ensemble = DistEnsemble(n, top)
        if ensemble.count != expected_counts[(n, top)]:
            problems.append(
                f"grid ({n}, {top}) enumerates {ensemble.count} dists,"
                f" wanted {expected_counts[(n, top)]}"
            )
        for law_id in ("strong-defs-agree", "weak-defs-agree"):
            rep = check_law(law_by_id(law_id), ensemble)
            if not rep.holds:
                problems.append(
                    f"{law_id} at ({n}, {top}):\n"
                    + format_counterexample(rep.counterexample, indent=8)
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s, budget is 30s")
    report(2, "definition/characterization agreement", problems, note=f"{elapsed:.2f}s")


def refutation_problems(label: str, n: int, top: int, holds: bool, ce, predicate) -> list[str]:
    """A refuted claim must stay refuted at (n, top), and its counterexample
    must falsify the claim again through the scalar library calls."""
    if holds:
        return [f"{label} at ({n}, {top}) holds; a counterexample was expected"]
    if bool(predicate(ScalarOps(ce.dist), *ce.formulas)):
        return [
            f"{label} counterexample at ({n}, {top}) does not re-verify:\n"
            + format_counterexample(ce, indent=8)
        ]
    return []


def test_claim_sets_disjoint_and_named():
    law_sets = {
        "DOCUMENTED_NONPROPERTIES": DOCUMENTED_NONPROPERTIES,
        "REFUTED_LAWS": REFUTED_LAWS,
        "SIDE_CHECKS": SIDE_CHECKS,
        "CLAIMED_EQUIVALENCES": CLAIMED_EQUIVALENCES,
        "REFUTED_EQUIVALENCES": REFUTED_EQUIVALENCES,
    }
    seen: dict[str, str] = {}
    for name, ids in law_sets.items():
        for law_id in ids:
            assert law_id not in seen, f"{law_id} is in both {seen[law_id]} and {name}"
            seen[law_id] = name
            law_by_id(law_id)  # raises KeyError on a misspelled id
    assert not set(CLAIMED_CELLS) & set(REFUTED_CELLS)
    assert len(set(CLAIMED_CELLS)) == len(CLAIMED_CELLS)
    for relation, criterion in (*CLAIMED_CELLS, *REFUTED_CELLS):
        assert relation in RELATIONS and criterion in CRITERIA, (relation, criterion)


def test_refuted_claims_nondegenerate_witness():
    vocab = Vocabulary(("a", "b"))
    d = Dist(vocab, 3, (0, 3, 1, 0))  # worlds !a!b, a!b, !ab, ab
    a, b = Atom(0), Atom(1)
    a_or_b = Or(a, b)
    full = (1 << vocab.world_count) - 1

    for f in (a, b, a_or_b):
        assert model_mask(f, vocab.n) not in (0, full), "witness propositions must be contingent"
        assert poss(d, f) > 0
    assert poss(d, Not(a)) > 0 and poss(d, Not(b)) > 0

    # strong-dep-disjunction-merge and Strong x DCD with (a, b, c) = (a, b, a):
    # both premises dependent, the disjunction independent
    assert not ind.strong_indep(d, a, a)
    assert not ind.strong_indep(d, b, a)
    assert ind.strong_indep(d, a_or_b, a)

    # only-if half of weak-disjunction-iff: the disjunction is weakly
    # independent while one disjunct is not
    assert ind.weak_indep(d, a_or_b, a)
    assert not ind.weak_indep(d, b, a)


def test_criterion_3_law_catalog():
    problems: list[str] = []
    skipped = SIDE_CHECKS | CLAIMED_EQUIVALENCES | REFUTED_EQUIVALENCES
    refuted = DOCUMENTED_NONPROPERTIES | REFUTED_LAWS
    for n, top in GRIDS:
        reports = {r.law_id: r for r in run_catalog(n, top, budget=BIG_BUDGET)}
        for law_id, rep in reports.items():
            if law_id in skipped:
                continue
            if law_id in refuted:
                problems += refutation_problems(
                    law_id, n, top, rep.holds, rep.counterexample, law_by_id(law_id).predicate
                )
            elif not rep.holds:
                problems.append(
                    f"{law_id} refuted at ({n}, {top}):\n"
                    + format_counterexample(rep.counterexample, indent=8)
                )
    report(3, "law catalog", problems, note=f"asserted refuted: {', '.join(sorted(REFUTED_LAWS))}")


def test_criterion_4_criteria_table():
    problems: list[str] = []
    for n, top in GRIDS:
        ensemble = DistEnsemble(n, top)
        cells = criteria_table(n, top, budget=BIG_BUDGET)
        for relation, criterion in CLAIMED_CELLS:
            cell = cells[(relation, criterion)]
            if not cell.holds:
                problems.append(
                    f"{relation} x {criterion} refuted at ({n}, {top}):\n"
                    + format_counterexample(cell.counterexample, indent=8)
                )
        for relation, criterion in REFUTED_CELLS:
            cell = cells[(relation, criterion)]
            problems += refutation_problems(
                f"{relation} x {criterion}", n, top, cell.holds, cell.counterexample,
                CELLS[(relation, criterion)].predicate,
            )
        for law_id in sorted(CLAIMED_EQUIVALENCES | REFUTED_EQUIVALENCES):
            law = law_by_id(law_id)
            rep = check_law(law, ensemble, budget=BIG_BUDGET)
            if law_id in REFUTED_EQUIVALENCES:
                problems += refutation_problems(
                    law_id, n, top, rep.holds, rep.counterexample, law.predicate
                )
            elif not rep.holds:
                problems.append(
                    f"{law_id} refuted at ({n}, {top}):\n"
                    + format_counterexample(rep.counterexample, indent=8)
                )
    refuted = [f"{r} x {c}" for r, c in REFUTED_CELLS] + sorted(REFUTED_EQUIVALENCES)
    report(4, "criteria table and equivalence forms", problems,
           note=f"asserted refuted: {', '.join(refuted)}")


def test_criterion_5_order_reconstruction():
    problems: list[str] = []
    strict = check_law(law_by_id("strong-order-embedding-strict"), DistEnsemble(2, 3))
    if not strict.holds:
        problems.append(
            "strict-order reconstruction refuted:\n"
            + format_counterexample(strict.counterexample, indent=8)
        )
    weak_form = check_law(law_by_id("strong-order-embedding-weak-form"), DistEnsemble(2, 3))
    verdict = "holds" if weak_form.holds else "refuted"
    report(5, "order reconstruction", problems, note=f"weak-form variant: {verdict}")


def test_criterion_6_pi_star_maximality(data_dir):
    problems: list[str] = []
    for name, injected in (
        ("penguin.kb", False),
        ("penguin_fixed.kb", True),
        ("nolegs.kb", True),
    ):
        doc = parse_kb((data_dir / name).read_text())
        base = doc.injected_base() if injected else doc.base()
        ranking = compute_pi_star(base)
        if not constraints_satisfied(ranking.pi_star, ranking.rules):
            problems.append(f"{name}: some rule constraint fails on pi*")
        loose = raisable_worlds(ranking)
        if loose:
            problems.append(f"{name}: worlds can be raised without violation: {loose}")
    try:
        compute_pi_star(parse_kb((data_dir / "contradictory.kb").read_text()).base())
        problems.append("contradictory.kb unexpectedly stratified")
    except ConsistencyError:
        pass
    report(6, "pi* maximality on the corpus", problems)


def test_criterion_7_rational_monotony_sweep():
    problems: list[str] = []
    law = law_by_id("rational-monotony")
    rep = check_law(law, DistEnsemble(3, 2), budget=50_000_000)
    if not rep.holds:
        problems.append(
            "rational monotony refuted:\n"
            + format_counterexample(rep.counterexample, indent=8)
        )
    expected = law_cost(law, 6305, 16)
    if rep.evaluations != expected:
        problems.append(f"swept {rep.evaluations} evaluations, wanted {expected}")
    report(7, "rational monotony sweep", problems)
