"""Run the relation-axiom completeness probe in both readings of the axioms.

The one-atom probe checks every candidate dependence relation outright;
the two-atom probe samples mutations of realized relations (500 draws,
seed 0). Realized relations are read off the law lab's event table for
every distribution at tops 1-3. The axioms are law catalog statements
(five in the printed reading, four in the schema reading), and each
probe checks all its candidates at once, through the same event-id
sweep that `ordindep check` and `ordindep table` run the catalog and the
criteria table through.
"""

from __future__ import annotations

import sys

from ordindep import completeness_probe_exact, completeness_probe_sampled


def main() -> int:
    print("--- relation axiom probe (1 atom, exact)")
    for mode in ("printed", "schema"):
        rep = completeness_probe_exact(mode=mode)
        print(f"  {mode:>7}: {rep.candidates} candidate relations, "
              f"{rep.satisfying} satisfy the axioms, "
              f"{rep.realized} realized by a distribution, "
              f"{len(rep.unrealized)} admitted but unrealized")
    print("--- relation axiom probe (2 atoms, sampled mutations)")
    for mode in ("printed", "schema"):
        rep = completeness_probe_sampled(mode=mode)
        print(f"  {mode:>7}: {rep.candidates} sampled non-realized relations, "
              f"{rep.satisfying} satisfy the axioms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
