#!/usr/bin/env python3
"""Replay the sphere-quotient benchmark's cap-search draws and count their work.

    python3 tools/search_sweep.py SEED DRAWS

Draw i is the search op of ``sphere_cycle`` in ``bench/run.py`` at cycle i
of seed SEED (the full sizes), run as the benchmark runs it: canonicalize,
then ``sphere_cap_search``.  Rearrangements are counted by wrapping
``capfold.directions.rearrange``.  One line per draw gives its index, the
gap the search reports (the best gap of its ``CapScanError`` if it raises)
and its rearrangements; the summary gives the draws below 1e-3 and at
1e-10, the total rearrangements and the worst search's.
"""

import importlib.util
import os
import sys
from pathlib import Path

# one BLAS thread, as the benchmark sets before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench():
    sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    bench = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench._import_capfold()
    return bench


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    seed, draws = int(argv[0]), int(argv[1])
    bench = load_bench()
    from capfold import directions
    from capfold.exceptions import CapScanError

    calls = []
    cold = directions.rearrange

    def counted(*args, **kwargs):
        calls.append(1)
        return cold(*args, **kwargs)

    directions.rearrange = counted
    ctx = bench.Context(bench.SIZES["full"])
    gaps, counts = [], []
    try:
        for i in range(draws):
            search = bench.sphere_cycle(ctx, bench.cycle_rng(seed, i))[-1]
            calls.clear()
            try:
                _, gap = search.call()
            except CapScanError as exc:
                gap = exc.best_gap
            gaps.append(gap)
            counts.append(len(calls))
            print(f"{i:4d} {gap:.3e} {len(calls):4d}")
    finally:
        ctx.cleanup()
    print(f"below 1e-3: {sum(g < 1e-3 for g in gaps)} of {draws}")
    print(f"at 1e-10: {sum(g <= 1e-10 for g in gaps)} of {draws}")
    print(f"rearrangements: {sum(counts)} total, {max(counts)} worst")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
