"""Run the relation-axiom completeness probe in both readings of the axioms.

The one-atom probe checks all 2^16 candidate dependence relations
outright; the two-atom probe samples mutations of realized relations (500
draws, seed 0) and counts the distinct ones. Realized relations are read
off the law lab's event table for every distribution at top 2^n, which
realizes the relations of every top. The axioms are law catalog
statements (five in the printed reading, four in the schema reading), and
each probe checks all its candidates at once, through the same event-id
sweep that `ordindep check` and `ordindep table` run the catalog and the
criteria table through.
"""

from __future__ import annotations

import sys

from ordindep import completeness_probe_exact, completeness_probe_sampled


def _print(mode: str, rep, what: str) -> None:
    print(f"  {mode:>7}: {rep.candidates} {what}, "
          f"{rep.satisfying} satisfy the axioms, "
          f"{rep.realized} realized by a distribution, "
          f"{len(rep.unrealized)} admitted but unrealized")


def main() -> int:
    print("--- relation axiom probe (1 atom, exact)")
    for mode in ("printed", "schema"):
        _print(mode, completeness_probe_exact(mode=mode), "candidate relations")
    print("--- relation axiom probe (2 atoms, sampled mutations)")
    for mode in ("printed", "schema"):
        _print(mode, completeness_probe_sampled(mode=mode), "distinct sampled relations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
