"""capfold benchmark: three seeded workloads run as a closed loop.

Run from the repository root:

    python3 bench/run.py --workload planar-certify --seed 1 --seconds 20 --trace 0

One client sends ops one after another; each op starts only after the last
one has finished.  Ops call capfold's public functions and are timed from
outside; their outputs are checked.  A workload is a fixed prologue plus a
cycle of ops whose inputs are drawn from ``--seed``; whole cycles run until
``--seconds`` have passed, so every run has the same mix of ops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
prologue and the first cycle alternately without and with the span tracer
(``tracing.py``) and prints the per-layer metrics.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary.  A full record,
with the environment and every op, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

if __name__ == "__main__":
    # One BLAS thread, set before numpy loads OpenBLAS.  The machine this
    # benchmark was built on has two vCPUs shared with other tenants; with a
    # second BLAS thread the FEM ops also waited on the other vCPU, which the
    # single-threaded calibration below cannot see.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Seed kept out of tuning; a later speed claim is checked on it as well.
HELD_OUT_SEED = 90210

SETUP_SAMPLES = 3

# Op times are reported in reference seconds.  The machine this benchmark
# was built on is shared: its speed drifted by up to 2x over tens of
# seconds, which moved raw latencies by 10-40 % (quartile distance over
# median, ten seeds) from run to run.  Each op's wall time is therefore scaled by
# CALIBRATION_REF_S over the time calibration() takes around that op, so a
# reference second is the time in which calibration() would run
# 1 / CALIBRATION_REF_S times.  Raw wall times stay in the run record.
CALIBRATION_REF_S = 0.0025
TAIL_BEYOND = 10  # op_tail_s leaves this many ops beyond it

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

# The 96x192 simple-folded op certifies this fixed domain, z + 0.3 z^2: it
# is the ROADMAP's reference and takes about 20 s, so a seeded domain there
# would make each run's cost depend on one draw.
BENT = [1.0, 0.3]

# Ground truth for the counter self-check (ROADMAP baseline).
BENT_SCAN_BASELINE = {"rearranges": 265, "solves": 530, "moments": 8846}
TWO_DISK_MESH_BASELINE = {"vertices": 73217, "triangles": 145156}

# Input sizes: the full benchmark and a smoke run small enough for a test.
SIZES = {
    "full": {
        "certify_large": 96, "certify_bent": True, "certify_symmetric_ops": 34,
        "certify_small": 32, "certify_small_ops": 6,
        "fem_h": 0.02, "two_disk": "two_disks:0.1,0.2", "two_disk_h": 0.01,
        "conformal_ops": 8,
        "s3_res": 16, "s5_res": 8, "search_res": 10, "s3_quotient_ops": 6,
        "known_failure": True, "self_check": True,
    },
    "smoke": {
        "certify_large": 24, "certify_bent": False, "certify_symmetric_ops": 2,
        "certify_small": 16, "certify_small_ops": 0,
        "fem_h": 0.1, "two_disk": "two_disks:0.2,0.2", "two_disk_h": 0.05,
        "conformal_ops": 1,
        "s3_res": 6, "s5_res": 4, "search_res": 6, "s3_quotient_ops": 2,
        "known_failure": False, "self_check": False,
    },
}


def _import_capfold():
    if not (SRC / "capfold" / "__init__.py").is_file():
        sys.exit(f"error: capfold sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import capfold.cli  # noqa: F401


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One timed call into capfold and the check of its output.

    ``call`` is timed.  ``check`` gets its return value and returns a
    failure reason or None.  ``expected`` names a CapfoldError subclass the
    op is documented to raise for its input; such an error passes when
    ``check_error`` accepts it.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    expected: type | None = None
    check_error: Callable[[Exception], str | None] | None = None


def execute(op: Op):
    """Run one op; returns (latency_s, status, reason)."""
    from capfold.exceptions import CapfoldError

    start = time.perf_counter()
    try:
        result = op.call()
    except CapfoldError as exc:
        latency = time.perf_counter() - start
        if op.expected is not None and isinstance(exc, op.expected):
            reason = op.check_error(exc)
            return latency, ("expected-error" if reason is None else "failed"), reason
        return latency, "failed", f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    reason = op.check(result)
    return latency, ("ok" if reason is None else "failed"), reason


def _relative_error(value, target):
    return abs(value - target) / abs(target)


class Context:
    """Work directory and the inputs shared by every cycle of a run."""

    def __init__(self, sizes: dict):
        from capfold.measures import sphere_quadrature

        self.sizes = sizes
        self.calibration_points = np.linspace(0.0, 3.0, 18432)
        self.work = OUT / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._files = 0
        s = sizes
        self.sphere = {
            ("s3", s["s3_res"]): sphere_quadrature(3, resolution=s["s3_res"]),
            ("s5", s["s5_res"]): sphere_quadrature(5, resolution=s["s5_res"]),
            ("s3", s["search_res"]): sphere_quadrature(3, resolution=s["search_res"]),
        }
        if s["known_failure"]:
            self.sphere[("s3", 16)] = sphere_quadrature(3, resolution=16)
            self.sphere[("s3", 10)] = sphere_quadrature(3, resolution=10)

    def path(self, stem: str) -> str:
        self._files += 1
        return str(self.work / f"{stem}-{self._files}.json")

    def cleanup(self):
        for child in self.work.iterdir():
            child.unlink()
        self.work.rmdir()


# --- planar-certify ----------------------------------------------------------

def seeded_domain(rng) -> list:
    """z + c2 z^2 + c3 z^3 with 0.2 <= |c2| <= 0.3 and |c3| <= 0.05.

    2|c2| + 3|c3| < 1, so the domain is univalent by the coefficient test.
    """
    c2 = rng.uniform(0.2, 0.3) * np.exp(2j * np.pi * rng.uniform())
    c3 = rng.uniform(0.0, 0.05) * np.exp(2j * np.pi * rng.uniform())
    return [1.0, complex(c2), complex(c3)]


def symmetric_domain(rng) -> list:
    """z + c z^(k+1) with k in {3, 4, 6} and |c| <= 0.05.

    k-fold rotation symmetry makes the pullback measure multiple on the
    standard grid (k divides n_theta), so certify takes the multiple-direct
    branch.  (k+1)|c| < 1, so the domain is univalent.
    """
    k = int(rng.choice([3, 4, 6]))
    c = rng.uniform(0.0, 0.05) * np.exp(2j * np.pi * rng.uniform())
    return [1.0] + [0.0] * (k - 1) + [complex(c)]


def certify_op(ctx: Context, label: str, coeffs, n_r: int, branch: str) -> Op:
    from capfold import cli

    domain = ctx.path("domain")
    with open(domain, "w") as fh:
        json.dump({"schema": 1, "coeffs": [[complex(c).real, complex(c).imag]
                                           for c in coeffs]}, fh)
    out = ctx.path("certify")
    argv = ["certify", domain, "--n-r", str(n_r), "--n-theta", str(2 * n_r),
            "--output", out]

    def check(code):
        if code != 0:
            return f"exit code {code}"
        with open(out) as fh:
            doc = json.load(fh)
        if not doc["holds"]:
            return f"bound does not hold: margin {doc['margin']}"
        if doc["branch"] != branch:
            return f"branch {doc['branch']}, expected {branch}"
        if branch == "simple-folded" and not doc["gap"] < 1e-3:
            return f"gap {doc['gap']} >= 1e-3"
        return None

    return Op(f"certify-{n_r}x{2 * n_r}-{label}", lambda: cli.run(argv), check)


def planar_prologue(ctx: Context) -> list:
    return []


def planar_cycle(ctx: Context, rng) -> list:
    """Many cheap multiple-direct ops and a few scans.

    The multiple-direct ops (18,432 atoms, no scan) are most of the ops, so
    op_p50_s follows the kernel, renormalize and CLI cost; the scans take
    most of the time, so ops_per_s follows scan_caps.  The cheap ops are
    spread between the scans so that they sample the whole run.
    """
    s = ctx.sizes
    large = s["certify_large"]
    cheap = [
        certify_op(ctx, "identity", [1.0], large, "multiple-direct"),
        certify_op(ctx, "z+0.05z^5", [1.0, 0, 0, 0, 0.05], large, "multiple-direct"),
    ]
    for _ in range(s["certify_symmetric_ops"]):
        cheap.append(certify_op(ctx, "symmetric", symmetric_domain(rng), large,
                                "multiple-direct"))
    scans = [certify_op(ctx, "bent", BENT, large, "simple-folded")] if s["certify_bent"] else []
    for _ in range(s["certify_small_ops"]):
        scans.append(certify_op(ctx, "seeded", seeded_domain(rng), s["certify_small"],
                                "simple-folded"))
    ops = []
    per_scan = -(-len(cheap) // (len(scans) + 1))
    for i, scan in enumerate(scans):
        ops += cheap[i * per_scan:(i + 1) * per_scan] + [scan]
    return ops + cheap[len(scans) * per_scan:]


# --- fem-corpus ----------------------------------------------------------------

def fem_op(ctx: Context, kind: str, spec: str, h: float, check_mu) -> Op:
    from capfold import cli
    from capfold.specfun import planar_bound

    out = ctx.path("fem")
    argv = ["fem", spec, "--h", repr(h), "--output", out]

    def check(code):
        if code != 0:
            return f"exit code {code}"
        with open(out) as fh:
            doc = json.load(fh)
        mu, area = doc["eigenvalues"], doc["area"]
        if not mu[2] * area <= planar_bound() * 1.02:
            return f"mu2*A = {mu[2] * area} above the two-disk bound"
        return check_mu(mu, area)

    return Op(f"fem-{kind}", lambda: cli.run(argv), check)


def _disk_check(mu, area):
    from capfold.specfun import mu1_disk

    if _relative_error(mu[1], mu1_disk()) > 0.01:
        return f"disk mu1 {mu[1]} not within 1% of {mu1_disk()}"
    return None


def _square_check(mu, area):
    for i in (1, 2):
        if _relative_error(mu[i], math.pi**2) > 0.01:
            return f"square mu{i} {mu[i]} not within 1% of pi^2"
    return None


def _rectangle_check(mu, area):
    if _relative_error(mu[2] * area, 2 * math.pi**2) > 0.02:
        return f"rectangle mu2*A {mu[2] * area} not within 2% of 2 pi^2"
    return None


def _no_extra_check(mu, area):
    return None


def fem_prologue(ctx: Context) -> list:
    return []


def fem_cycle(ctx: Context, rng) -> list:
    s = ctx.sizes
    h = s["fem_h"]
    ops = [
        fem_op(ctx, "two-disks", s["two_disk"], s["two_disk_h"], _no_extra_check),
        fem_op(ctx, "disk", "disk", h, _disk_check),
        fem_op(ctx, "square", "square", h, _square_check),
        fem_op(ctx, "rectangle", "rectangle:2x1", h, _rectangle_check),
    ]
    for _ in range(s["conformal_ops"]):
        # z + c2 z^2 with |c2| near 0.25: about 18k vertices at h = 0.02 for
        # every draw, so each run meshes the same amount
        c2 = rng.uniform(0.24, 0.26) * np.exp(2j * np.pi * rng.uniform())
        coeffs = [[1.0, 0.0], [c2.real, c2.imag]]
        spec = json.dumps({"kind": "conformal", "name": "conformal", "coeffs": coeffs})
        ops.append(fem_op(ctx, "conformal", spec, h, _no_extra_check))
    return ops


# --- sphere-quotient ---------------------------------------------------------

def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _sphere_measure(base, density):
    from capfold.measures import DiscreteMeasure

    m = DiscreteMeasure("sphere", base.points, base.weights * density(base.points))
    return m.scaled(1.0 / m.total_mass)


def quotient_op(ctx: Context, rng, n: int, res: int) -> Op:
    """rearrange on a seeded cap, direction_form, sphere_modified_quotient."""
    from capfold import bounds, caps, measures

    base = ctx.sphere[(f"s{n}", res)]
    a = _unit(rng, n + 1) * rng.uniform(0.0, 0.3)
    b = rng.uniform(0.0, 0.1)
    m = _sphere_measure(base, lambda x: 1.0 + x @ a + b * x[:, 0] ** 2)
    cap = caps.Cap(float(rng.uniform(-0.5, 0.5)), _unit(rng, n + 1), "sphere")

    def call():
        nu, trace = caps.rearrange(m, cap)
        form = measures.direction_form(nu)
        return bounds.sphere_modified_quotient(m, cap, form.max_direction, trace=trace)

    def check(q):
        if not q["quotient"] < q["constant"] * 1.01:
            return f"quotient {q['quotient']} >= 1.01 x {q['constant']}"
        if not q["denominator"] >= 1.0 / (n + 1) - 1e-3:
            return f"denominator {q['denominator']} < 1/(n+1) - 1e-3"
        return None

    return Op(f"sphere-quotient-s{n}", call, check)


def search_op(ctx: Context, m, kind: str, expect_failure: bool = False) -> Op:
    """canonicalize, then sphere_cap_search for a cap with gap < 1e-3."""
    from capfold import directions
    from capfold.exceptions import CapScanError

    def call():
        canon, _ = directions.canonicalize(m)
        return directions.sphere_cap_search(canon)

    def check(result):
        _, gap = result
        return None if gap < 1e-3 else f"cap-search gap {gap} >= 1e-3"

    def check_error(exc):
        # the documented failure: the search reports an honest best gap
        if not exc.best_gap >= 1e-3:
            return f"CapScanError with best gap {exc.best_gap} below tolerance"
        return None

    if expect_failure:
        return Op(kind, call, check, CapScanError, check_error)
    return Op(kind, call, check)


def degree_op(rng) -> Op:
    from capfold import directions

    seed = int(rng.integers(0, 2**31))

    def check(degrees):
        want = {"deg_psi": 2, "deg_phi": 4}
        return None if degrees == want else f"degrees {degrees}, expected {want}"

    return Op("sphere-degree", lambda: directions.sphere_degree_check(3, seed=seed), check)


def sphere_prologue(ctx: Context) -> list:
    """The known cap-search failure and the same density at res 10.

    Density 1 + 0.3 x1 + 0.1 x0^2 on S^3: at res 16 the search stops at best
    gap 2.5e-3 and raises CapScanError; at res 10 it succeeds.
    """
    if not ctx.sizes["known_failure"]:
        return []

    def density(x):
        return 1.0 + 0.3 * x[:, 1] + 0.1 * x[:, 0] ** 2

    return [
        search_op(ctx, _sphere_measure(ctx.sphere[("s3", 16)], density),
                  "sphere-search-known-res16", expect_failure=True),
        search_op(ctx, _sphere_measure(ctx.sphere[("s3", 10)], density),
                  "sphere-search-known-res10"),
    ]


def sphere_cycle(ctx: Context, rng) -> list:
    s = ctx.sizes
    ops = [quotient_op(ctx, rng, 3, s["s3_res"]) for _ in range(s["s3_quotient_ops"])]
    ops.append(quotient_op(ctx, rng, 5, s["s5_res"]))
    ops.append(degree_op(rng))
    u = _unit(rng, 4)
    amp = rng.uniform(0.15, 0.3)
    m = _sphere_measure(ctx.sphere[("s3", s["search_res"])],
                        lambda x: 1.0 + amp * (x @ u))
    ops.append(search_op(ctx, m, "sphere-search"))
    return ops


@dataclass
class Workload:
    """Ops run once per run (prologue) and per cycle; why: see BENCHMARK.json."""

    name: str
    prologue: Callable[[Context], list]
    cycle: Callable[[Context, object], list]


WORKLOADS = {
    w.name: w for w in (
        Workload("planar-certify", planar_prologue, planar_cycle),
        Workload("fem-corpus", fem_prologue, fem_cycle),
        Workload("sphere-quotient", sphere_prologue, sphere_cycle),
    )
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(samples: int) -> list:
    """Wall time of fresh interpreters importing capfold.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import capfold.cli"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def tail(latencies):
    """Latency with TAIL_BEYOND ops beyond it, never below the median.

    Returns (value, percentile, count).  Runs with at most 2 * TAIL_BEYOND
    ops have no such percentile above the median, so the median is used.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration(ctx) -> float:
    """Machine speed probe: the faster of two runs of a fixed workload.

    The workload is single threaded, does not call capfold and does what
    capfold's ops do most: numpy arithmetic on 18,432-element arrays (the
    35-term series of the J1 kernel) and an interpreted Python loop.
    """
    x = ctx.calibration_points
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        q = 0.25 * x * x
        term = np.full_like(q, 0.5)
        acc = term.copy()
        for k in range(1, 36):
            term = -term * q / (k * (k + 1))
            acc += term
        total = 0
        for i in range(20000):
            total += i % 7
        best = min(best, time.perf_counter() - start)
    return best


def run_op(op, records):
    latency, status, reason = execute(op)
    records.append({"kind": op.kind, "latency_s": latency,
                    "status": status, "reason": reason})
    return latency


def run_traced(op, records, tracer):
    tracer.op_id = len(records)
    tracer.install()
    try:
        return run_op(op, records)
    finally:
        tracer.restore()


def cycle_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def timed_run(workload, ctx, seed, seconds):
    """Whole cycles until ``seconds`` have passed; end-to-end metrics.

    A calibration point is taken before the first op and after every op.
    An op's reference latency scales its wall time by the median of the
    two points before and the two after it; throughput scales the summed
    op time by the median of all points of the run.
    """
    records = []
    cal = [calibration(ctx)]
    start = time.perf_counter()
    for op in workload.prologue(ctx):
        run_op(op, records)
        cal.append(calibration(ctx))
    cycles = 0
    while True:
        for op in workload.cycle(ctx, cycle_rng(seed, cycles)):
            run_op(op, records)
            cal.append(calibration(ctx))
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    for i, r in enumerate(records):
        # cal[i] precedes op i and cal[i + 1] follows it
        r["ref_latency_s"] = (
            r["latency_s"] * CALIBRATION_REF_S / statistics.median(cal[max(0, i - 1):i + 3])
        )
    raw = [r["latency_s"] for r in records]
    ref = [r["ref_latency_s"] for r in records]
    tail_value, tail_pct, tail_n = tail(ref)
    metrics = {
        "ops_per_s": len(ref) / (sum(raw) * CALIBRATION_REF_S / statistics.median(cal)),
        "op_p50_s": statistics.median(ref),
        "op_tail_s": tail_value,
    }
    info = {
        "cycles": cycles, "elapsed_s": elapsed, "tail_percentile": tail_pct,
        "tail_samples": tail_n, "calibration_s": cal,
        "raw_wall_clock": {"ops_per_s": len(raw) / sum(raw),
                           "op_p50_s": statistics.median(raw), "op_tail_s": tail(raw)[0]},
    }
    return records, metrics, info


def traced_run(workload, ctx, seed, seconds):
    """Passes over the prologue and first cycle until ``seconds`` have passed.

    Each op of a pass runs untraced and then traced, so the two latencies
    of a pair see the same machine state; their ratio is the overhead.
    """
    ops = workload.prologue(ctx) + workload.cycle(ctx, cycle_rng(seed, 0))
    records, passes, untraced_s, traced_s = [], [], [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        untraced_s.append(0.0)
        traced_s.append(0.0)
        for op in ops:
            untraced_s[-1] += run_op(op, records)
            traced_s[-1] += run_traced(op, records, tracer)
        passes.append(tracer.spans)
        if time.perf_counter() - start >= seconds:
            break
    metrics, repeat = tracing.layer_metrics(passes, traced_s, untraced_s)
    info = {"passes": len(passes), "counters_repeat": repeat,
            "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return records, metrics, info, passes


def self_check(first_pass, kinds):
    """Counters of the first traced pass against the ROADMAP baseline.

    ``kinds`` maps op ids to op kinds.  The outcome is reported and never
    gates ``correct``: a change that does less work moves these counts.
    """
    out = {}
    bent_ops = {i for i, kind in kinds.items() if kind == "certify-96x192-bent"}
    if bent_ops:
        scan = "directions.scan_caps"
        got = {
            key: tracing.count_under(first_pass, name, scan, bent_ops)
            for key, name in (("rearranges", "caps.rearrange"),
                              ("solves", "moebius.renormalize"),
                              ("moments", "measures.moment_vector_raw"))
        }
        out["bent z+0.3z^2 96x192 scan_caps"] = {
            "got": got, "baseline": BENT_SCAN_BASELINE, "holds": got == BENT_SCAN_BASELINE,
        }
    for rec in first_pass:
        if kinds[rec[4]] == "fem-two-disks" and rec[0] == "fem.build_mesh":
            got = {k: rec[5][k] for k in TWO_DISK_MESH_BASELINE}
            out["two_disks:0.1,0.2 h=0.01 mesh"] = {
                "got": got, "baseline": TWO_DISK_MESH_BASELINE,
                "holds": got == TWO_DISK_MESH_BASELINE,
            }
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": {}}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"][Path(path).name] = fn()
                break
    return out


def _git_commit():
    # the ceiling keeps git from looking for a repository above the tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def benchmark(workload_name, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result line dict, full record dict)."""
    _import_capfold()
    workload = WORKLOADS[workload_name]
    ctx = Context(SIZES["smoke" if smoke else "full"])
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "held_out_seed": HELD_OUT_SEED,
              "environment": environment()}
    try:
        if trace:
            records, metrics, info, passes = traced_run(workload, ctx, seed, seconds)
            if ctx.sizes["self_check"]:
                kinds = {i: r["kind"] for i, r in enumerate(records)}
                info["self_check"] = self_check(passes[0], kinds)
            units = {m: u for m, (u, _) in tracing.LAYER_METRICS.items()}
            spans_path = OUT / f"spans-{workload_name}-seed{seed}.jsonl"
            with open(spans_path, "w") as fh:
                for number, spans in enumerate(passes):
                    for rec in spans:
                        fh.write(json.dumps([number] + rec) + "\n")
            info["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            setup = measure_setup(1 if smoke else SETUP_SAMPLES)
            records, metrics, info = timed_run(workload, ctx, seed, seconds)
            metrics = {"setup_s": statistics.median(setup), **metrics,
                       "peak_rss_mb": peak_rss_mb()}
            info["setup_samples_s"] = setup
            units = END_TO_END
    finally:
        ctx.cleanup()
    failed = sum(r["status"] == "failed" for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    record.update(info=info, ops=records, result=result)
    return result, record


def summary_lines(record) -> list:
    result, info, ops = record["result"], record["info"], record["ops"]
    env = record["environment"]
    lines = [
        f"capfold benchmark: workload {record['workload']}, seed {record['seed']}, "
        f"trace {record['trace']}",
        "environment: " + json.dumps(env, sort_keys=True),
    ]
    kinds = {}
    for r in ops:
        k = kinds.setdefault(r["kind"], {"n": 0, "ok": 0, "expected-error": 0,
                                         "failed": 0, "latency": []})
        k["n"] += 1
        k[r["status"]] += 1
        k["latency"].append(r["latency_s"])
    lines.append("output checks (kind: ops, ok, expected errors, failed, median wall s):")
    for name, k in sorted(kinds.items()):
        lines.append(f"  {name}: {k['n']}, {k['ok']}, {k['expected-error']}, "
                     f"{k['failed']}, {statistics.median(k['latency']):.4f}")
    for r in ops:
        if r["status"] == "failed":
            lines.append(f"  FAILED {r['kind']}: {r['reason']}")
    attempted = result["attempted"]
    raised = sum(r["status"] != "ok" for r in ops)
    lines.append(f"fail_frac: {result['failed'] / attempted:.6f} (unexpected failures); "
                 f"{raised / attempted:.6f} counting documented errors")
    if not record["trace"]:
        lines.append(f"cycles: {info['cycles']}, elapsed {info['elapsed_s']:.3f} s, "
                     f"op_tail_s at p{info['tail_percentile']:.1f} of "
                     f"{info['tail_samples']} ops")
        lines.append("setup samples s: " + ", ".join(f"{t:.4f}" for t in info["setup_samples_s"]))
        cal = info["calibration_s"]
        lines.append(f"calibration: median {statistics.median(cal) * 1e3:.3f} ms over "
                     f"{len(cal)} points (reference {CALIBRATION_REF_S * 1e3:.3f} ms); "
                     "raw wall clock: " + ", ".join(
                         f"{k} = {v:.6g}" for k, v in info["raw_wall_clock"].items()))
        for name, m in result["metrics"].items():
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    else:
        lines.append(f"traced passes: {info['passes']}, counters repeat exactly: "
                     f"{info['counters_repeat']}, spans in {info['spans_file']}")
        for name, check in info.get("self_check", {}).items():
            lines.append(f"counter self-check {name}: {json.dumps(check, sort_keys=True)}")
        for name, (unit, moves) in tracing.LAYER_METRICS.items():
            value = result["metrics"][name]["value"]
            lines.append(f"  {name} = {value:.6g} {unit}  [moves {moves}]")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    result, record = benchmark(args.workload, args.seed, args.seconds, args.trace,
                               args.smoke)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for line in summary_lines(record):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
