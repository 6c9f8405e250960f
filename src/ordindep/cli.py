"""Command line frontend.

Subcommands: rank, query, dist, indep, check, table.  Exit status is 0 on
success, 1 when a rule base is inconsistent, and 2 on any other error: a
parse or usage error, an unreadable file, a lab grid out of scope or a
sweep over its budget.
All output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import sys

from .independence import classify, cond_weak_indep
from .logic import format_formula
from .parsing import (
    ParseError,
    ParsedDocument,
    format_dist,
    format_rule,
    parse_dist,
    parse_formula,
    parse_kb,
)
from .ranking import ConsistencyError, RuleOrigin, StratifiedRanking, compute_pi_star


def _read(path: str) -> str:
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not text
        return fh.read()


def _load_ranking(path: str) -> tuple[ParsedDocument, StratifiedRanking]:
    doc = parse_kb(_read(path))
    return doc, compute_pi_star(doc.injected_base())


def _print_ranking(doc: ParsedDocument, ranking: StratifiedRanking) -> None:
    vocab = ranking.vocab
    for level, stratum in enumerate(ranking.strata):
        print(f"stratum {level} (priority {level + 1}):")
        for i in sorted(stratum):
            rule = ranking.rules[i]
            tag = "  [indep]" if rule.origin is RuleOrigin.INDEPENDENCE else ""
            print(f"  {format_rule(rule, vocab)}{tag}")
    print()
    print(f"pi* (top = {ranking.pi_star.top}):")
    for w in range(vocab.world_count):
        print(f"{vocab.format_world(w)}: {ranking.pi_star.levels[w]}")
    for d in doc.directives:
        ok = cond_weak_indep(ranking.pi_star, d.conclusion, d.context, d.extra)
        text = (
            f"{format_formula(d.conclusion, vocab)} wrt "
            f"{format_formula(d.extra, vocab)} given "
            f"{format_formula(d.context, vocab)}"
        )
        print(f"indep {text}: {'satisfied' if ok else 'NOT satisfied'}")
    if ranking.pi_star.is_total_order():
        print(
            "warning: pi* totally orders the worlds; stop adding independence assumptions",
            file=sys.stderr,
        )


def _cmd_rank(args) -> int:
    doc, ranking = _load_ranking(args.kb)
    _print_ranking(doc, ranking)
    return 0


def _cmd_query(args) -> int:
    doc, ranking = _load_ranking(args.kb)
    evidence = parse_formula(args.evidence, ranking.vocab)
    conclusion = parse_formula(args.conclusion, ranking.vocab)
    print(ranking.query(evidence, conclusion))
    return 0


def _cmd_dist(args) -> int:
    _, ranking = _load_ranking(args.kb)
    sys.stdout.write(format_dist(ranking.pi_star))
    return 0


def _cmd_indep(args) -> int:
    d = parse_dist(_read(args.dist))
    vocab = d.vocab
    a = parse_formula(args.antecedent, vocab)
    c = parse_formula(args.conclusion, vocab)
    report = classify(d, a, c)
    fa, fc = format_formula(a, vocab), format_formula(c, vocab)
    print(f"poss({fa} & {fc}) = {report.poss_ac}")
    print(f"poss({fa} & !({fc})) = {report.poss_a_nc}")
    print(f"poss(!({fa}) & {fc}) = {report.poss_na_c}")
    print(f"poss(!({fa}) & !({fc})) = {report.poss_na_nc}")
    print(f"zadeh unrelated: {'yes' if report.unrelated_z else 'no'}")
    print(f"weak independence: {'yes' if report.weak else 'no'}")
    print(f"strong independence: {'yes' if report.strong else 'no'}")
    return 0


def _counterexample_record(ce):
    if ce is None:
        return None
    vocab = ce.dist.vocab
    return {
        "formulas": [format_formula(f, vocab) for f in ce.formulas],
        "dist": {"atoms": list(vocab.atoms), "top": ce.dist.top, "levels": list(ce.dist.levels)},
    }


def _budget(args) -> int:
    from .lawlab import DEFAULT_BUDGET

    return DEFAULT_BUDGET if args.budget is None else args.budget


# check and table import the law lab (and numpy) only when they run, and
# check imports json only for --jsonl
def _cmd_check(args) -> int:
    from .lawlab import format_counterexample, run_catalog

    reports = run_catalog(args.atoms, args.top, _budget(args))
    failures = 0
    for rep in reports:
        mark = "ok  " if rep.holds else "FAIL"
        print(f"{mark} {rep.law_id} ({rep.evaluations} evaluations)")
        if not rep.holds:
            failures += 1
            print(format_counterexample(rep.counterexample))
    print(f"{len(reports) - failures} of {len(reports)} laws hold")
    if args.jsonl:
        import json

        with open(args.jsonl, "w", encoding="utf-8") as fh:
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
    return 0


def _cmd_table(args) -> int:
    from .lawlab import CRITERIA, RELATIONS, criteria_table, format_counterexample

    reports = criteria_table(args.atoms, args.top, _budget(args))
    width = max(len("criterion"), max(len(c) for c in CRITERIA))
    header = "criterion".ljust(width) + "".join(rel.rjust(8) for rel in RELATIONS)
    print(header)
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
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordindep",
        description="Ordinal independence relations and default-rule ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="stratify a rule base and print pi*")
    p_rank.add_argument("kb")
    p_rank.set_defaults(fn=_cmd_rank)

    p_query = sub.add_parser("query", help="query a rule base")
    p_query.add_argument("kb")
    p_query.add_argument("-e", "--evidence", required=True)
    p_query.add_argument("-c", "--conclusion", required=True)
    p_query.set_defaults(fn=_cmd_query)

    p_dist = sub.add_parser("dist", help="dump pi* of a rule base as a distribution file")
    p_dist.add_argument("kb")
    p_dist.set_defaults(fn=_cmd_dist)

    p_indep = sub.add_parser("indep", help="classify a pair of formulas on a distribution")
    p_indep.add_argument("dist")
    p_indep.add_argument("-a", "--antecedent", required=True)
    p_indep.add_argument("-c", "--conclusion", required=True)
    p_indep.set_defaults(fn=_cmd_indep)

    p_check = sub.add_parser("check", help="run the law catalog at desk scale")
    p_check.add_argument("--atoms", type=int, required=True)
    p_check.add_argument("--top", type=int, required=True)
    p_check.add_argument("--budget", type=int)
    p_check.add_argument("--jsonl", help="also write line-delimited records here")
    p_check.set_defaults(fn=_cmd_check)

    p_table = sub.add_parser("table", help="print the composition criteria table")
    p_table.add_argument("--atoms", type=int, required=True)
    p_table.add_argument("--top", type=int, required=True)
    p_table.add_argument("--budget", type=int)
    p_table.set_defaults(fn=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        for rule in e.residual:
            print(f"  {format_rule(rule, e.vocab)}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # ValueError includes the law lab's BudgetError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
