"""Run the relation-axiom completeness probe in both readings of the axioms.

The one-atom probe checks all 2^16 candidate dependence relations
outright; the two-atom probe checks every relation one event pair away
from a realized one: each of the 149 realized relations with each of
its 256 pair bits flipped, 38,144 distinct relations. Realized relations
are read off the law lab's event table for every distribution at top
2^n, which realizes the relations of every top. The axioms are law
catalog statements (five in the printed reading, four in the schema
reading), and each probe checks a whole stack of candidates at once
(the one-atom probe all of them, the two-atom probe the 256 neighbors
of one realized relation), through the same event-id sweep that
`ordindep check` and `ordindep table` run the catalog and the criteria
table through.
"""

from __future__ import annotations

import sys

from ordindep import completeness_probe_exact, completeness_probe_neighbors


def _print(mode: str, rep, what: str) -> None:
    print(f"  {mode:>7}: {rep.candidates} {what}, "
          f"{rep.satisfying} satisfy the axioms, "
          f"{rep.realized} realized by a distribution, "
          f"{len(rep.unrealized)} admitted but unrealized")


def main() -> int:
    print("--- relation axiom probe (1 atom, exact)")
    for mode in ("printed", "schema"):
        _print(mode, completeness_probe_exact(mode=mode), "candidate relations")
    print("--- relation axiom probe (2 atoms, one pair from a realized relation)")
    for mode in ("printed", "schema"):
        _print(mode, completeness_probe_neighbors(mode=mode), "neighbor relations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
