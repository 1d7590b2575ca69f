"""Span tracer for the capfold benchmark.

The tracer wraps capfold's public functions from outside the package.  The
modules import each other with ``from .caps import rearrange``-style
imports, so every module holds its own binding of a function; the tracer
replaces the function at each of those bindings, not only in the module
that defines it.  ``restore`` puts the original functions back.

Spans (name, start, end, parent span, op id, counters) are kept in memory
and written out when the benchmark ends.  A span's self time is its
duration minus the durations of its child spans; calls are single threaded,
so child spans never overlap.
"""

from __future__ import annotations

import statistics
import sys
import time

# Public functions traced per module of src/capfold.
TARGETS = {
    "specfun": ("j1_over_x",),
    "measures": ("moment_vector_raw", "direction_form", "pullback_measure"),
    "moebius": ("renormalize", "pushforward"),
    "caps": ("rearrange", "fold_measure", "image_cap"),
    "directions": (
        "scan_caps", "canonicalize", "sphere_cap_search", "sphere_degree_check",
    ),
    "bounds": ("planar_bound_certificate", "sphere_modified_quotient"),
    "fem": ("build_mesh", "assemble", "neumann_eigs"),
    "cli": ("run",),
}

# Per-layer metrics: name -> (unit, the end-to-end metric it should move).
# Counts are per traced pass and repeat exactly for one seed; self times
# are the median over traced passes.
LAYER_METRICS = {
    "specfun.j1_over_x.calls": ("count", "ops_per_s/op_p50_s on planar-certify; none elsewhere"),
    "specfun.j1_over_x.points": ("count", "ops_per_s/op_p50_s on planar-certify; none elsewhere"),
    "specfun.j1_over_x.self_s": ("s", "ops_per_s/op_p50_s on planar-certify, mostly the 96x192 op"),
    "measures.moment_vector_raw.calls": ("count", "ops_per_s/op_p50_s on planar-certify"),
    "measures.moment_vector_raw.self_s": ("s", "ops_per_s/op_p50_s on planar-certify; a little on sphere-quotient"),
    "measures.direction_form.calls": ("count", "op_p50_s on planar-certify and sphere-quotient"),
    "measures.direction_form.self_s": ("s", "op_p50_s on planar-certify; a little on sphere-quotient"),
    "measures.pullback_measure.self_s": ("s", "op_p50_s on planar-certify"),
    "moebius.renormalize.calls": ("count", "op_p50_s on planar-certify and sphere-quotient"),
    "moebius.renormalize.self_s": ("s", "op_p50_s on planar-certify and sphere-quotient"),
    "moebius.renormalize.iterations": ("count", "op_p50_s on planar-certify and sphere-quotient"),
    "moebius.renormalize.failures": ("count", "fail_frac on planar-certify and sphere-quotient"),
    "moebius.renormalize.moments_per_solve": ("ratio", "op_p50_s on planar-certify and sphere-quotient"),
    "moebius.pushforward.self_s": ("s", "op_p50_s on planar-certify and sphere-quotient"),
    "caps.rearrange.calls": ("count", "ops_per_s on planar-certify; every sphere-quotient op"),
    "caps.rearrange.self_s": ("s", "ops_per_s on planar-certify; op_p50_s on sphere-quotient"),
    "caps.fold_measure.self_s": ("s", "ops_per_s on planar-certify; op_p50_s on sphere-quotient"),
    "caps.image_cap.self_s": ("s", "ops_per_s on planar-certify; op_p50_s on sphere-quotient"),
    "directions.scan_caps.calls": ("count", "ops_per_s on planar-certify"),
    "directions.scan_caps.self_s": ("s", "ops_per_s on planar-certify"),
    "directions.scan_caps.rearranges_per_scan": ("ratio", "ops_per_s on planar-certify"),
    "directions.canonicalize.self_s": ("s", "op_p50_s on planar-certify"),
    "directions.sphere_cap_search.calls": ("count", "op_tail_s on sphere-quotient"),
    "directions.sphere_cap_search.self_s": ("s", "op_tail_s on sphere-quotient"),
    "directions.sphere_cap_search.failures": ("count", "fail_frac on sphere-quotient"),
    "directions.sphere_degree_check.self_s": ("s", "ops_per_s on sphere-quotient"),
    "bounds.planar_bound_certificate.self_s": ("s", "op_p50_s on planar-certify"),
    "bounds.sphere_modified_quotient.self_s": ("s", "op_p50_s on sphere-quotient"),
    "fem.build_mesh.self_s": ("s", "ops_per_s/op_tail_s on fem-corpus; none elsewhere"),
    "fem.build_mesh.vertices": ("count", "ops_per_s/op_tail_s on fem-corpus; none elsewhere"),
    "fem.build_mesh.triangles": ("count", "ops_per_s/op_tail_s on fem-corpus; none elsewhere"),
    "fem.assemble.self_s": ("s", "ops_per_s/op_tail_s on fem-corpus; none elsewhere"),
    "fem.neumann_eigs.self_s": ("s", "ops_per_s/op_tail_s on fem-corpus; none elsewhere"),
    "cli.run.self_s": ("s", "op_p50_s on planar-certify and fem-corpus, for small ops"),
    "trace.overhead_frac": ("ratio", "none: traced over untraced op time, minus one"),
    "trace.uncovered_frac": ("ratio", "none: share of op wall time outside every layer span"),
    "trace.spans": ("count", "none: spans recorded per traced pass"),
}


def _counters(name, args, result):
    """Work counts read from a call's arguments and result."""
    if name == "specfun.j1_over_x":
        return {"points": int(getattr(args[0], "size", 1))}
    if name == "moebius.renormalize":
        return {"iterations": int(result.iterations)}
    if name == "fem.build_mesh":
        return {"vertices": len(result.vertices), "triangles": len(result.triangles)}
    return None


class Tracer:
    """Records one span per call of a traced capfold function.

    Calls are recorded between ``install`` and ``restore``; outside them
    capfold runs unwrapped.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id, counters]
        self.op_id = -1
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def install(self):
        """Wrap every traced function at every capfold module binding."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "capfold" or key.startswith("capfold."))
        ]
        for short, names in TARGETS.items():
            home = sys.modules[f"capfold.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op_id, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = time.perf_counter()
            rec[5] = _counters(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _self_times(spans):
    self_t = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            self_t[rec[3]] -= rec[2] - rec[1]
    return self_t


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def count_under(spans, name, ancestor, op_ids=None):
    """Number of ``name`` spans called, at any depth, inside an ``ancestor`` span.

    ``spans`` is a whole pass (parents are list indices); ``op_ids``, if
    given, keeps only the spans of those ops.
    """
    return sum(
        1 for idx, rec in enumerate(spans)
        if rec[0] == name and (op_ids is None or rec[4] in op_ids)
        and _has_ancestor(spans, idx, ancestor)
    )


def pass_counts(spans):
    """Deterministic counters of one traced pass (keys as in LAYER_METRICS)."""
    calls, extra, errors = {}, {}, {}
    for name, _, _, _, _, info in spans:
        calls[name] = calls.get(name, 0) + 1
        for key, value in (info or {}).items():
            if key == "error":
                errors[name] = errors.get(name, 0) + 1
            else:
                extra[(name, key)] = extra.get((name, key), 0) + value
    out = {}
    for metric, (unit, _) in LAYER_METRICS.items():
        func, stat = metric.rsplit(".", 1)
        if unit != "count" or func == "trace":
            continue
        if stat == "calls":
            out[metric] = calls.get(func, 0)
        elif stat == "failures":
            out[metric] = errors.get(func, 0)
        else:
            out[metric] = extra.get((func, stat), 0)
    solves = calls.get("moebius.renormalize", 0)
    scans = calls.get("directions.scan_caps", 0)
    moments = count_under(spans, "measures.moment_vector_raw", "moebius.renormalize")
    rearranges = count_under(spans, "caps.rearrange", "directions.scan_caps")
    out["moebius.renormalize.moments_per_solve"] = moments / solves if solves else 0.0
    out["directions.scan_caps.rearranges_per_scan"] = rearranges / scans if scans else 0.0
    out["trace.spans"] = len(spans)
    return out


def pass_self_times(spans):
    """Summed self time per traced function over one pass."""
    totals = {}
    for rec, self_t in zip(spans, _self_times(spans)):
        totals[rec[0]] = totals.get(rec[0], 0.0) + self_t
    return totals


def covered_time(spans):
    """Time inside top-level spans (disjoint, so their durations add up)."""
    return sum(rec[2] - rec[1] for rec in spans if rec[3] < 0)


def layer_metrics(passes, traced_op_s, untraced_op_s):
    """Per-layer metrics from traced passes.

    ``passes`` is a list of span lists, one per traced pass over the same
    ops; ``traced_op_s`` / ``untraced_op_s`` are the summed op latencies of
    each traced and untraced pass over those ops.
    """
    counts = [pass_counts(p) for p in passes]
    metrics = dict(counts[0])
    selfs = [pass_self_times(p) for p in passes]
    for metric in LAYER_METRICS:
        func, stat = metric.rsplit(".", 1)
        if stat == "self_s":
            metrics[metric] = statistics.median(s.get(func, 0.0) for s in selfs)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_op_s) / statistics.median(untraced_op_s) - 1.0
    )
    uncovered = [
        1.0 - covered_time(p) / op_s for p, op_s in zip(passes, traced_op_s)
    ]
    metrics["trace.uncovered_frac"] = statistics.median(uncovered)
    repeat = all(c == counts[0] for c in counts[1:])
    return {m: metrics[m] for m in LAYER_METRICS}, repeat
