"""Walk through the penguin knowledge bases end to end.

Loads each .kb file from data/, prints the stratification, the least
specific distribution, and the query results, and shows how an
independence directive repairs the blocked-inheritance defect.
"""

from __future__ import annotations

import sys
from pathlib import Path

from ordindep import (
    StratifiedRanking,
    TriState,
    compute_pi_star,
    cond_weak_indep,
    format_rule,
    parse_formula,
    parse_kb,
)
from ordindep.parsing import world_keys
from ordindep.ranking import RuleOrigin

DATA = Path(__file__).resolve().parent.parent / "data"


def show_ranking(ranking: StratifiedRanking) -> None:
    for i, stratum in enumerate(ranking.strata):
        print(f"  stratum {i} (priority {i + 1}):")
        for j in sorted(stratum):
            rule = ranking.rules[j]
            tag = "  [indep]" if rule.origin is RuleOrigin.INDEPENDENCE else ""
            print(f"    {format_rule(rule, ranking.vocab)}{tag}")
    print(f"  top = {len(ranking.strata)}")
    print(f"  worlds at each level:")
    by_level: dict[int, list[str]] = {}
    for key, level in zip(world_keys(ranking.vocab), ranking.pi_star.levels):
        by_level.setdefault(level, []).append(key)
    for level in sorted(by_level, reverse=True):
        print(f"    {level}: {', '.join(by_level[level])}")


def run_queries(ranking: StratifiedRanking, pairs: list[tuple[str, str]]) -> None:
    for ev, cl in pairs:
        e = parse_formula(ev, ranking.vocab)
        c = parse_formula(cl, ranking.vocab)
        verdict = ranking.query(e, c)
        marker = {
            TriState.ACCEPTED: "",
            TriState.REJECTED: "  <- the converse is accepted",
            TriState.IGNORED: "  <- neither direction is accepted",
        }[verdict]
        print(f"  given {ev}, conclude {cl}?  {verdict}{marker}")


def main() -> int:
    print("=== penguin.kb: the classic four-rule base ===")
    doc = parse_kb((DATA / "penguin.kb").read_text())
    ranking = compute_pi_star(doc.base())
    show_ranking(ranking)
    print("queries:")
    run_queries(
        ranking,
        [("p", "b"), ("p", "!f"), ("p", "f"), ("b", "f"), ("p", "l")],
    )
    print()
    print("The last query shows the inheritance defect: penguins are")
    print("exceptional birds with respect to flying, and that single")
    print("exception blocks every other property birds normally have.")
    print("Legs have nothing to do with flying, yet (p, l) is ignored.")
    print()

    vocab = doc.vocab
    p = parse_formula("p", vocab)
    b = parse_formula("b", vocab)
    leg = parse_formula("l", vocab)
    print(
        "weak independence of l from p in context b, before repair:",
        cond_weak_indep(ranking.pi_star, leg, b, p),
    )
    print()

    print("=== penguin_fixed.kb: same base plus one independence directive ===")
    doc_fixed = parse_kb((DATA / "penguin_fixed.kb").read_text())
    ranking_fixed = compute_pi_star(doc_fixed.injected_base())
    show_ranking(ranking_fixed)
    print("queries:")
    run_queries(ranking_fixed, [("p", "l"), ("p", "!f"), ("p", "b")])
    print(
        "weak independence of l from p in context b, after repair:",
        cond_weak_indep(ranking_fixed.pi_star, leg, b, p),
    )
    print()

    print("=== nolegs.kb: a second exception class, two directives ===")
    doc_big = parse_kb((DATA / "nolegs.kb").read_text())
    ranking_big = compute_pi_star(doc_big.injected_base())
    show_ranking(ranking_big)
    print("queries:")
    run_queries(
        ranking_big,
        [("n", "b"), ("n", "!l"), ("n", "l"), ("n", "f"), ("p", "l")],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
