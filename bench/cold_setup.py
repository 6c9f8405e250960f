"""Time one rank-synthetic set-up in a fresh interpreter.

Usage: PYTHONPATH=src python bench/cold_setup.py SEED

Prints the wall seconds of ``run.rank_setup(SEED)``: generating the bases,
importing ordindep (and numpy), filling the per-atom stripe cache and
building one 8-atom base.  The interpreter start and the benchmark's own
imports are not timed.
"""

import sys
import time

import run


def main() -> int:
    seed = int(sys.argv[1])
    t0 = time.perf_counter()
    run.rank_setup(seed)
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
