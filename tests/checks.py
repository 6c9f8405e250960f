"""Shared non-strategy helpers: feasibility and maximality of a ranking,
and the benchmark's input generator."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from ordindep import And, Dist, Not, StratifiedRanking, poss


def constraints_satisfied(dist: Dist, rules) -> bool:
    """Every rule strictly accepted: poss(A&B) > poss(A&!B)."""
    return all(
        poss(dist, And(r.antecedent, r.consequent))
        > poss(dist, And(r.antecedent, Not(r.consequent)))
        for r in rules
    )


def raisable_worlds(ranking: StratifiedRanking) -> list[tuple[int, int]]:
    """(world, level) pairs where a single-world raise keeps all rules satisfied.

    Empty for a maximally compact ranking: every raise must break a rule.
    """
    d = ranking.pi_star
    found = []
    for w, lv in enumerate(d.levels):
        for target in range(lv + 1, d.top + 1):
            raised = d.levels[:w] + (target,) + d.levels[w + 1 :]
            if constraints_satisfied(Dist(d.vocab, d.top, raised), ranking.rules):
                found.append((w, target))
    return found


def bench_gen():
    """The benchmark's seeded input generator, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
