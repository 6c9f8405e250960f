"""Seeded input generators for the benchmark workloads.

Everything here is plain text built from a ``random.Random``; nothing
imports ordindep, so the program under test only ever sees the generated
strings.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# -- rank-synthetic: chain-of-exceptions bases ---------------------------------


@dataclass(frozen=True)
class ChainBase:
    """One generated ``.kb`` text plus what the generator knows about it."""

    text: str
    chain: tuple[str, ...]  # atom names in chain order
    rules: int  # rule lines, before directive injection
    directives: tuple[tuple[str, str, str], ...]  # (conclusion, extra, context)
    signs: str  # "+" or "-" per exception rule, in chain order


def chain_base(rng: random.Random, n_atoms: int, n_directives: int = 3) -> ChainBase:
    """A penguin-shaped chain: ``x_i |~ x_{i+1}`` plus ``x_i & x_{i+1} |~ ±x_{i+2}``.

    Signs, the order of the ``atoms:`` line and the directives are seeded.
    Half of the exception rules (rounded down) are negated, so every base
    of one size has the same number of overrides; only their positions
    move.  Directives read ``x_{j+1} wrt x_k given x_j`` with ``x_k``
    downstream of ``x_{j+2}``, which never contradicts an override.
    """
    chain = tuple(f"x{i:02d}" for i in range(n_atoms))
    order = list(chain)
    rng.shuffle(order)
    n_over = n_atoms - 2
    negated = set(rng.sample(range(n_over), n_over // 2))
    lines = [f"# seeded chain-of-exceptions base, {n_atoms} atoms", f"atoms: {' '.join(order)}"]
    for i in range(n_atoms - 1):
        lines.append(f"rule: {chain[i]} |~ {chain[i + 1]}")
    for i in range(n_over):
        sign = "!" if i in negated else ""
        lines.append(f"rule: {chain[i]} & {chain[i + 1]} |~ {sign}{chain[i + 2]}")
    directives = []
    for j in rng.sample(range(n_atoms - 3), min(n_directives, n_atoms - 3)):
        k = rng.randrange(j + 3, n_atoms)
        directives.append((chain[j + 1], chain[k], chain[j]))
        lines.append(f"indep: {chain[j + 1]} wrt {chain[k]} given {chain[j]}")
    return ChainBase(
        "\n".join(lines) + "\n",
        chain,
        (n_atoms - 1) + n_over,
        tuple(directives),
        "".join("-" if i in negated else "+" for i in range(n_over)),
    )


def query_pool(rng: random.Random, chain: tuple[str, ...], size: int) -> list[tuple[str, str]]:
    """Distinct (evidence, conclusion) texts over a chain's atoms.

    Evidence is two literals and the conclusion one literal further down
    the chain, with exactly one of the three negated: every query parses to
    the same shape, so answers from the cache and answers computed afresh
    are the only two cost classes.
    """
    pool: list[tuple[str, str]] = []
    seen = set()
    n = len(chain)
    while len(pool) < size:
        i, j = rng.sample(range(n - 1), 2)
        lits = [chain[i], chain[j], chain[rng.randrange(min(i, j) + 1, n)]]
        k = rng.randrange(3)
        lits[k] = "!" + lits[k]
        pair = (f"{lits[0]} & {lits[1]}", lits[2])
        if pair not in seen:
            seen.add(pair)
            pool.append(pair)
    return pool


def zipf_stream(rng: random.Random, size: int, count: int, s: float = 1.1) -> list[int]:
    """``count`` indices into a pool of ``size``, Zipf-weighted toward the front."""
    weights = [1.0 / (r + 1) ** s for r in range(size)]
    return rng.choices(range(size), weights=weights, k=count)


@dataclass(frozen=True)
class RankCase:
    """One rank-synthetic round: a base, its query pool and its query stream."""

    base: ChainBase
    pool: tuple[tuple[str, str], ...]
    stream: tuple[int, ...]  # indices into pool, in arrival order


# 14 atoms (16,384 worlds) rather than 16: a 16-atom build takes about 6 s,
# which leaves three builds per run and a seed-to-seed spread near 30%.
# The traced run still builds one 16-atom base of the same generator.
RANK_ATOMS = 14
RANK_CASES = 8
QUERY_POOL = 60
QUERY_STREAM = 100


def rank_cases(seed: int) -> list[RankCase]:
    rng = random.Random(f"rank-synthetic/{seed}")
    cases = []
    for _ in range(RANK_CASES):
        base = chain_base(rng, RANK_ATOMS)
        pool = query_pool(rng, base.chain, QUERY_POOL)
        cases.append(RankCase(base, tuple(pool), tuple(zipf_stream(rng, QUERY_POOL, QUERY_STREAM))))
    return cases


def scaling_base(seed: int, n_atoms: int) -> ChainBase:
    """A base from the same generator at another size (8, 12 and 16 atoms)."""
    return chain_base(random.Random(f"rank-scaling/{seed}/{n_atoms}"), n_atoms)


# -- cli-corpus: the shipped files and seeded formula pairs ---------------------

CORPUS_KBS = ("penguin", "penguin_fixed", "nolegs", "contradictory")
SAMPLE_DIST = "data/sample.dist"
SAMPLE_DIST_ATOMS = ("a", "c")

# README facts, asked in every round on top of the seeded pairs
README_QUERIES = (
    ("data/penguin.kb", "p", "l", "Ignored"),
    ("data/penguin_fixed.kb", "p", "l", "Accepted"),
)


def kb_path(name: str) -> str:
    return f"data/{name}.kb"


def kb_atoms(text: str) -> tuple[str, ...]:
    for raw in text.splitlines():
        head, _, rest = raw.split("#", 1)[0].partition(":")
        if head.strip() == "atoms":
            return tuple(rest.split())
    raise ValueError("no atoms line")


def literals(atoms) -> list[str]:
    return [lit for a in atoms for lit in (a, "!" + a)]


def evidence_formulas(atoms) -> list[str]:
    """Query evidence pool: every literal and every conjunction of two atoms."""
    return literals(atoms) + [f"{a} & {b}" for a, b in itertools.combinations(atoms, 2)]


def indep_formulas(atoms) -> list[str]:
    """indep pool: literals, then & and | of two literals on distinct atoms."""
    out = literals(atoms)
    for a, b in itertools.combinations(atoms, 2):
        for x in (a, "!" + a):
            for y in (b, "!" + b):
                out += [f"{x} & {y}", f"{x} | {y}"]
    return out


def corpus_commands(atoms_of: dict[str, tuple[str, ...]]) -> list[list[str]]:
    """Every command a cli-corpus round can issue (the transcript key set)."""
    cmds = []
    for name in CORPUS_KBS:
        path, atoms = kb_path(name), atoms_of[name]
        cmds += [["rank", path], ["dist", path]]
        for e in evidence_formulas(atoms):
            for c in literals(atoms):
                cmds.append(["query", path, "-e", e, "-c", c])
    pool = indep_formulas(SAMPLE_DIST_ATOMS)
    for a in pool:
        for c in pool:
            cmds.append(["indep", SAMPLE_DIST, "-a", a, "-c", c])
    return cmds


def corpus_round(rng: random.Random, atoms_of: dict[str, tuple[str, ...]]) -> list[list[str]]:
    """One round: rank, dist and a seeded query per file, the README
    queries, and two seeded indep pairs, in seeded order."""
    cmds = []
    for name in CORPUS_KBS:
        path, atoms = kb_path(name), atoms_of[name]
        e = rng.choice(evidence_formulas(atoms))
        c = rng.choice(literals(atoms))
        cmds += [["rank", path], ["dist", path], ["query", path, "-e", e, "-c", c]]
    for path, e, c, _ in README_QUERIES:
        cmds.append(["query", path, "-e", e, "-c", c])
    pool = indep_formulas(SAMPLE_DIST_ATOMS)
    for _ in range(2):
        cmds.append(["indep", SAMPLE_DIST, "-a", rng.choice(pool), "-c", rng.choice(pool)])
    rng.shuffle(cmds)
    return cmds


# -- lawlab-sweep -----------------------------------------------------------------

# The default --budget (10,000,000) refuses table at (2,3) and both commands
# at (3,2), so every sweep command passes this one explicitly.
LAW_BUDGET = 2_000_000_000
SWEEP = (("check", 2, 3), ("table", 2, 3), ("check", 3, 2), ("table", 3, 2))


def sweep_case(cmd: str, atoms: int, top: int) -> str:
    return f"{cmd}_{atoms}x{top}"


def sweep_argv(cmd: str, atoms: int, top: int) -> list[str]:
    return [cmd, "--atoms", str(atoms), "--top", str(top), "--budget", str(LAW_BUDGET)]


def sweep_round(rng: random.Random) -> list[tuple[str, int, int]]:
    order = list(SWEEP)
    rng.shuffle(order)
    return order


def command_key(argv: list[str]) -> str:
    return "\t".join(argv)
