"""Shared non-strategy helpers: the formula of an event, feasibility and
maximality of a ranking, and the benchmark's modules."""

from __future__ import annotations

import importlib.util
import sys
from functools import reduce
from pathlib import Path

from ordindep import FALSE, And, Atom, Dist, Formula, Not, Or, StratifiedRanking, poss


def event_formula(mask: int, n: int) -> Formula:
    """A formula whose models are exactly the worlds in mask."""

    def world(w):
        return reduce(And, [Atom(i) if (w >> i) & 1 else Not(Atom(i)) for i in range(n)])

    return reduce(Or, [world(w) for w in range(1 << n) if (mask >> w) & 1], FALSE)


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


def bench_module(name: str):
    """The benchmark's module ``bench/<name>.py``, loaded from its file:
    ``gen`` is its seeded input generator, ``spans`` its tracer."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
