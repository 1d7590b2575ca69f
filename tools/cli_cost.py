#!/usr/bin/env python3
"""Wall time and peak RSS of fresh ``capfold`` CLI processes in two checkouts.

    python3 tools/cli_cost.py PARENT CHANGE RUNS > cost.json

The benchmark times warm operations inside one process, so it cannot see
what a CLI run pays before its first operation: imports and one-off
set-up.  This tool runs each command below as ``python3 -m capfold.cli`` in
a fresh interpreter, with ``PYTHONPATH=<root>/src`` and
``OPENBLAS_NUM_THREADS=1``, RUNS times per checkout.  Run i runs the parent
first when i is even and the change first when it is odd.  One child runs
at a time; its wall time is measured around its start and ``os.wait4``,
and its peak RSS is the ``ru_maxrss`` that ``os.wait4`` returns for that
child alone (``RUSAGE_CHILDREN`` would give the maximum over all children).

The JSON written to stdout gives, per command and side, the runs, median
and quartiles of ``wall_s`` and ``peak_rss_mb`` (MiB, as the benchmark's
``peak_rss_mb``).  ``sphere`` and ``fem`` are controls that no disk
constant reaches.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DOMAINS = {
    "quartic.json": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.03, 0.02]],
    "bent.json": [[1.0, 0.0], [0.3, 0.0]],
}

COMMANDS = {
    "certify-quartic-96x192": ["certify", "quartic.json", "--n-r", "96", "--n-theta", "192"],
    "certify-bent-32x64": ["certify", "bent.json", "--n-r", "32", "--n-theta", "64"],
    "scan-bent-24x48": ["scan", "bent.json", "--n-r", "24", "--n-theta", "48"],
    "constants": ["constants"],
    "sphere-n3": ["sphere", "--n", "3"],
    "fem-square-h0.05": ["fem", "square", "--h", "0.05"],
}


def run(root: Path, argv: list, workdir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    command = ["python3", "-m", "capfold.cli", *argv, "--output", os.devnull]
    start = time.perf_counter()
    child = subprocess.Popen(command, cwd=workdir, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    if code != 0:
        sys.exit(f"{root}: {' '.join(argv)} exited {code}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def main(argv: list) -> int:
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    roots = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    runs = int(argv[2])
    if runs < 2:
        sys.exit("RUNS must be at least 2, for the quartiles")
    results = {name: {"parent": [], "change": []} for name in COMMANDS}
    with tempfile.TemporaryDirectory() as workdir:
        for filename, coeffs in DOMAINS.items():
            Path(workdir, filename).write_text(json.dumps({"schema": 1, "coeffs": coeffs}))
        for i in range(runs):
            for name, command in COMMANDS.items():
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    results[name][side].append(run(roots[side], command, workdir))
    report = {"runs": runs, "commands": {}}
    for name, sides in results.items():
        report["commands"][name] = {"argv": COMMANDS[name]}
        for side, samples in sides.items():
            report["commands"][name][side] = {
                metric: spread([s[metric] for s in samples])
                for metric in ("wall_s", "peak_rss_mb")
            }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
