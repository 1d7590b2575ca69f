#!/usr/bin/env python3
"""Compare the reports and demo outputs of two checkouts byte for byte.

    python3 tools/same_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  The tool writes its
input files (two domains, a disk measure and a corpus) into a temporary
directory and runs each command below, and each demo under ``demos/``, once
per checkout in a fresh interpreter started in that directory, with
``PYTHONPATH=<root>/src`` and ``OPENBLAS_NUM_THREADS=1``.  The CLI runs as
``python3 -m capfold.cli`` and writes its report to stdout.

For every command it prints one JSON line per output (stdout, stderr and
the exit code), marked ``same`` or not; a same output carries its length
in bytes, and a differing one the first differing line number and up to
``CONTEXT`` lines of each side from there.  A final JSON line gives the
line count of ``src/capfold/*.py`` in each checkout.  It exits 1 if any
output differs.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONTEXT = 3

DOMAINS = {
    "bent.json": [[1.0, 0.0], [0.3, 0.0]],
    "quintic.json": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.05, 0.0]],
}

CORPUS = [
    {"kind": "disk", "radius": 1.0, "name": "disk"},
    {"kind": "rectangle", "a": 2.0, "b": 1.0, "name": "rectangle:2x1"},
]

COMMANDS = {
    "certify-bent-32x64": ["certify", "bent.json", "--n-r", "32", "--n-theta", "64"],
    "certify-quintic-96x192": ["certify", "quintic.json", "--n-r", "96", "--n-theta", "192"],
    "scan-bent-24x48": ["scan", "bent.json", "--n-r", "24", "--n-theta", "48"],
    "renormalize-disk-12x24": ["renormalize", "disk.json"],
    "rearrange-disk-12x24": ["rearrange", "disk.json", "--r", "0.5", "--angle", "0.3"],
    "sphere-n3": ["sphere", "--n", "3"],
    "sphere-n5-res8": ["sphere", "--n", "5", "--resolution", "8"],
    "fem-disk-h0.05": ["fem", "disk", "--h", "0.05"],
    "fem-two-disks-h0.05": ["fem", "two_disks:0.2,0.2", "--h", "0.05"],
    "corpus-h0.05": ["corpus", "corpus.json", "--h", "0.05"],
    "constants-n3": ["constants", "--n", "3"],
}


def disk_measure(n_r: int, n_theta: int) -> dict:
    """The area measure of the unit disk on an n_r x n_theta polar grid of
    midpoint radii, as a schema-1 measure document."""
    dr, dt = 1.0 / n_r, 2.0 * math.pi / n_theta
    atoms = []
    for i in range(n_r):
        r = (i + 0.5) * dr
        for j in range(n_theta):
            t = j * dt
            atoms.append([r * math.cos(t), r * math.sin(t), r * dr * dt])
    return {"schema": 1, "space": "disk", "n": 1, "atoms": atoms}


def write_inputs(workdir: Path) -> None:
    for filename, coeffs in DOMAINS.items():
        (workdir / filename).write_text(json.dumps({"schema": 1, "coeffs": coeffs}))
    (workdir / "disk.json").write_text(json.dumps(disk_measure(12, 24)))
    (workdir / "corpus.json").write_text(json.dumps(CORPUS))


def run(root: Path, argv: list, workdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True)
    return {"stdout": done.stdout, "stderr": done.stderr, "exit": str(done.returncode)}


def compare(name: str, parent: str, change: str) -> dict:
    if parent == change:
        return {"output": name, "same": True, "bytes": len(parent.encode())}
    a, b = parent.splitlines(), change.splitlines()
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return {
        "output": name,
        "same": False,
        "first_line": first + 1,
        "parent": a[first:first + CONTEXT],
        "change": b[first:first + CONTEXT],
    }


def source_lines(root: Path) -> int:
    return sum(
        len(path.read_text().splitlines()) for path in (root / "src" / "capfold").glob("*.py")
    )


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    roots = [Path(a).resolve() for a in argv]
    # "{root}" in an argument stands for the checkout's root
    commands = {name: ["python3", "-m", "capfold.cli", *cli] for name, cli in COMMANDS.items()}
    for demo in sorted((roots[1] / "demos").glob("*.py")):
        commands[f"demo-{demo.stem}"] = ["python3", "{root}/demos/" + demo.name]
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        for name, command in commands.items():
            parent, change = (
                run(root, [a.format(root=root) for a in command], workdir) for root in roots
            )
            for stream in ("stdout", "stderr", "exit"):
                line = compare(f"{name} {stream}", parent[stream], change[stream])
                differs |= not line["same"]
                print(json.dumps(line), flush=True)
    parent_lines, change_lines = map(source_lines, roots)
    print(json.dumps({"src_lines": {"parent": parent_lines, "change": change_lines}}))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
