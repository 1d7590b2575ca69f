#!/usr/bin/env python3
"""Alternating benchmark runs in two checkouts, compared metric by metric.

    python3 tools/bench_pairs.py PARENT CHANGE WORKLOAD SEED PAIRS > pairs.json

PARENT and CHANGE are the roots of two checkouts.  Each run is the command
of CHANGE's BENCHMARK.json (``python3 bench/run.py``) with ``--workload
WORKLOAD --seed SEED --seconds 20 --trace 0``, in a fresh interpreter
started in the checkout's root.  Pair i runs the parent first when i is
even and the change first when it is odd.  A run's result is read from its
last stdout line, not from ``.bench_out/``, where a second run with the
same arguments overwrites the first.

For each end-to-end metric of BENCHMARK.json the JSON written to stdout
gives both sides' runs, medians and quartiles, the pairs the change wins
(ties count for neither side), the change of the median in percent, and
whether the medians differ by more than the parent's quartile distance.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 20


def run(root: Path, command: list, workload: str, seed: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command + args, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def main(argv: list) -> int:
    if len(argv) != 5:
        sys.exit(__doc__.split("\n\n")[1])
    roots = {"parent": Path(argv[0]), "change": Path(argv[1])}
    workload, seed, pairs = argv[2], int(argv[3]), int(argv[4])
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    results = {"parent": [], "change": []}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            results[side].append(run(roots[side], spec["command"], workload, seed))
    report = {"workload": workload, "seed": seed, "pairs": pairs, "seconds": SECONDS}
    for side, runs in results.items():
        report[f"{side}_failed_of_attempted"] = [[r["failed"], r["attempted"]] for r in runs]
    report["metrics"] = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        old, new = ([r["metrics"][name]["value"] for r in results[s]] for s in results)
        before, after = spread(old), spread(new)
        report["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": before,
            "change": after,
            "change_wins": sum((b < a) if lower else (b > a) for a, b in zip(old, new)),
            "median_change_pct": 100.0 * (after["median"] / before["median"] - 1.0),
            "beyond_parent_iqr": abs(after["median"] - before["median"]) > before["q3"] - before["q1"],
        }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
