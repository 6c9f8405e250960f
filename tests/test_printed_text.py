"""Every formula the CLI prints reads back as a formula with the same models.

Covered: the rule lines of `rank` (and the residual rules an inconsistent
base lists on stderr), its `indep` status lines, the distribution `dist`
writes, and the counterexamples of `check` (text and --jsonl records) and
`table` at the (2,3) and (3,2) grids.  Not covered: the four cell labels
that `indep` prints, which the command builds without a formatter.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from ordindep import (
    ConsistencyError,
    Dist,
    RuleOrigin,
    Vocabulary,
    compute_pi_star,
    cond_weak_indep,
    model_mask,
    parse_dist,
    parse_formula,
    parse_kb,
)
from ordindep.cli import main
from ordindep.lawlab import CRITERIA, RELATIONS, _print_check, _print_table, criteria_table, run_catalog

CORPUS = ("penguin.kb", "penguin_fixed.kb", "nolegs.kb", "contradictory.kb")
SEEDS = range(40)


def _same_models(got, want, vocab: Vocabulary) -> bool:
    return model_mask(got, vocab.n) == model_mask(want, vocab.n)


def _formula_text(rng: random.Random, names: tuple[str, ...], depth: int) -> str:
    """A fully parenthesized formula over names, with every operator."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names) if rng.random() < 0.9 else rng.choice(("true", "FALSE"))
    op = rng.choice(("!", "&", "|", "->", "<->"))
    if op == "!":
        return "!" + _formula_text(rng, names, depth - 1)
    return f"({_formula_text(rng, names, depth - 1)} {op} {_formula_text(rng, names, depth - 1)})"


def _generated_kb(seed: int) -> str:
    """A small rule base: 2 to 4 atoms, 1 to 5 rules, up to 2 indep lines."""
    rng = random.Random(seed)
    names = tuple(rng.sample(("p", "b", "f", "l", "x_1", "Legs", "_q"), rng.randint(2, 4)))
    lines = [f"atoms: {' '.join(names)}"]
    for _ in range(rng.randint(1, 5)):
        lines.append(f"rule: {_formula_text(rng, names, 2)} |~ {_formula_text(rng, names, 2)}")
    for _ in range(rng.randint(0, 2)):
        parts = (_formula_text(rng, names, 2) for _ in range(3))
        lines.append("indep: {} wrt {} given {}".format(*parts))
    return "\n".join(lines) + "\n"


@pytest.fixture(params=[*CORPUS, *(f"seed{s}" for s in SEEDS)])
def kb_text(request, data_dir) -> str:
    if request.param in CORPUS:
        return (data_dir / request.param).read_text(encoding="utf-8")
    return _generated_kb(int(request.param[len("seed"):]))


def _reread_rule(text: str, vocab: Vocabulary):
    (rule,) = parse_kb(f"atoms: {' '.join(vocab.atoms)}\nrule: {text}\n").rules
    return rule


def _assert_rule_lines(lines: list[str], rules, vocab: Vocabulary) -> None:
    assert len(lines) == len(rules)
    for line, rule in zip(lines, rules):
        assert line.startswith("  ")
        text = line[2:]
        if rule.origin is RuleOrigin.INDEPENDENCE:
            assert text.endswith("  [indep]"), line
            text = text[: -len("  [indep]")]
        printed = _reread_rule(text, vocab)
        assert _same_models(printed.antecedent, rule.antecedent, vocab), line
        assert _same_models(printed.consequent, rule.consequent, vocab), line


def test_rank_and_dist_print_what_they_evaluate(kb_text, tmp_path, capsys):
    path = tmp_path / "base.kb"
    path.write_text(kb_text, encoding="utf-8")
    doc = parse_kb(kb_text)
    vocab = doc.vocab
    code = main(["rank", str(path)])
    out, err = capsys.readouterr()
    try:
        ranking = compute_pi_star(doc.injected_base())
    except ConsistencyError as e:
        assert code == 1
        _assert_rule_lines(err.splitlines()[1:], e.residual, vocab)
        return
    assert code == 0
    listed, _, tail = out.partition("\n\n")
    rule_lines = [line for line in listed.splitlines() if not line.startswith("stratum ")]
    rules = [ranking.rules[i] for stratum in ranking.strata for i in sorted(stratum)]
    _assert_rule_lines(rule_lines, rules, vocab)

    status = [line for line in tail.splitlines() if line.startswith("indep ")]
    assert len(status) == len(doc.directives)
    for line, d in zip(status, doc.directives):
        text, verdict = line[len("indep ") :].rsplit(": ", 1)
        (printed,) = parse_kb(f"atoms: {' '.join(vocab.atoms)}\nrule: true |~ true\nindep: {text}\n").directives
        for part in ("conclusion", "extra", "context"):
            assert _same_models(getattr(printed, part), getattr(d, part), vocab), (line, part)
        ok = cond_weak_indep(ranking.pi_star, printed.conclusion, printed.context, printed.extra)
        assert verdict == ("satisfied" if ok else "NOT satisfied"), line

    assert main(["dist", str(path)]) == 0
    assert parse_dist(capsys.readouterr().out) == ranking.pi_star


def test_generated_bases_cover_both_outcomes():
    # the seeds give consistent bases, with and without indep lines, and
    # inconsistent ones, so each branch of the test above runs
    consistent, with_directives, inconsistent = 0, 0, 0
    for seed in SEEDS:
        doc = parse_kb(_generated_kb(seed))
        try:
            compute_pi_star(doc.injected_base())
        except ConsistencyError:
            inconsistent += 1
            continue
        consistent += 1
        with_directives += bool(doc.directives)
    assert consistent >= 10 and with_directives >= 5 and inconsistent >= 5


# -- law lab counterexamples ----------------------------------------------

GRIDS = ((2, 3), (3, 2))
BUDGET = 10**9


@pytest.fixture(scope="module")
def lab_runs(tmp_path_factory):
    """Per grid: the check reports with the text and --jsonl records the
    CLI writes for them, and the table's reports with its text; each sweep
    runs once."""
    runs = {}
    for atoms, top in GRIDS:
        jsonl = tmp_path_factory.mktemp("check") / "check.jsonl"
        reports = run_catalog(atoms, top, BUDGET)
        table = criteria_table(atoms, top, BUDGET)
        check_out, table_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(check_out):
            _print_check(reports, str(jsonl))
        with contextlib.redirect_stdout(table_out):
            _print_table(table)
        records = [json.loads(line) for line in jsonl.read_text(encoding="utf-8").splitlines()]
        runs[atoms, top] = (reports, check_out.getvalue(), records, table, table_out.getvalue())
    return runs


def _assert_counterexample_text(formulas_line: str, dist_line: str, ce) -> None:
    """The two lines format_counterexample writes, read back."""
    vocab = ce.dist.vocab
    shown = formulas_line.strip().removeprefix("formulas: ")
    texts = [] if shown == "(none)" else shown.split(", ")
    assert len(texts) == len(ce.formulas)
    for text, formula in zip(texts, ce.formulas):
        assert _same_models(parse_formula(text, vocab), formula, vocab), formulas_line
    head, cells = dist_line.strip().split(": ", 1)
    assert head == f"dist (top {ce.dist.top})"
    worlds = "".join(f"{world}: {level}\n" for world, level in (c.rsplit("=", 1) for c in cells.split("; ")))
    assert parse_dist(f"atoms: {' '.join(vocab.atoms)}\ntop: {ce.dist.top}\n{worlds}") == ce.dist


def _failing(reports) -> list:
    return [rep for rep in reports if not rep.holds]


def test_lab_counterexamples_read_back(lab_runs):
    checked = 0
    for reports, check_out, records, table, table_out in lab_runs.values():
        lines = check_out.splitlines()
        fails = [i for i, line in enumerate(lines) if line.startswith("FAIL ")]
        assert len(fails) == len(_failing(reports))
        for i, rep in zip(fails, _failing(reports)):
            assert lines[i].startswith(f"FAIL {rep.law_id} ")
            _assert_counterexample_text(lines[i + 1], lines[i + 2], rep.counterexample)

        assert len(records) == len(reports)
        for record, rep in zip(records, reports):
            assert record["law"] == rep.law_id
            if rep.holds:
                assert record["counterexample"] is None
                continue
            ce = rep.counterexample
            shown = record["counterexample"]
            vocab = Vocabulary(shown["dist"]["atoms"])
            assert Dist(vocab, shown["dist"]["top"], shown["dist"]["levels"]) == ce.dist
            assert len(shown["formulas"]) == len(ce.formulas)
            for text, formula in zip(shown["formulas"], ce.formulas):
                assert _same_models(parse_formula(text, vocab), formula, vocab), (rep.law_id, text)

        lines = table_out.splitlines()
        heads = [i for i, line in enumerate(lines) if line.startswith("counterexample for ")]
        # in the order the table prints them: by criterion, then relation
        failing = [(rel, crit) for crit in CRITERIA for rel in RELATIONS if not table[rel, crit].holds]
        assert len(heads) == len(failing)
        for i, (relation, criterion) in zip(heads, failing):
            assert lines[i] == f"counterexample for {relation} {criterion}:"
            _assert_counterexample_text(lines[i + 1], lines[i + 2], table[relation, criterion].counterexample)
        checked += len(fails) + len(heads)
    # every failing report at both grids: the scope this guard covers
    assert checked == 37
