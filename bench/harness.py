"""Runs one workload for a fixed time and assembles its result.

An untraced run reports the end-to-end metrics.  A traced run alternates
untraced and traced iterations: the traced ones give the per-layer metrics,
and the ratio of the two medians of the workload's headline timing is the
tracing overhead.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from math import ceil
from time import perf_counter

import numpy as np

from tracing import Tracer
from workloads import ROOT, WORKLOADS, McStudySpec

END_TO_END = {
    "op_s": "s",
    "side_op_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SIZED_LAYERS = (
    "dictionary.feature_matrix", "dictionary.feature_time_derivatives",
    "model.kron_squared_cols", "fitting.assemble_gram", "dynamics.sample",
)
LAYER_TIMES = SIZED_LAYERS + (
    "linalg.eigh", "linalg.solve", "baselines.sindy_fit", "baselines.gedmd_fit",
    "approx.limit_gram_system",
    "cli.generate", "cli.fit", "cli.simulate", "cli.report", "cli.reduce",
    "dynamics.save_training", "dynamics.load_training", "model.save_model",
    "model.load_model", "reduction.reduced_identification_pipeline",
)
REPLAYS = ("model.simulate_step_us", "dynamics.rk4_integrate_step_us",
           "baselines.sindy_rhs_many_call_us")
COUNTS = {
    "fitting.gram_dim": "count", "linalg.rank": "count",
    "linalg.null_dim": "count", "fitting.stacked_bytes": "bytes",
    "approx.limit_nodes": "count", "model.rk4_steps": "count",
    "cli.artifact_bytes": "bytes",
}
PER_LAYER = {
    **{f"{stem}_s": "s" for stem in LAYER_TIMES},
    **{f"{stem}_s.m{m}": "s" for stem in SIZED_LAYERS for m in McStudySpec().sizes},
    **{name: "us" for name in REPLAYS},
    **COUNTS,
    "trace.overhead_pct": "%",
}

SETUPS = 3
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class Record:
    """Timings, counts and checked operations of one or more iterations."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.totals = defaultdict(float)
        self.counts = {}
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def time(self, name, seconds, total=False):
        """One sample, or with ``total`` a share of the iteration's total."""
        if total:
            self.totals[name] += seconds
        else:
            self.samples[name].append(seconds)

    def count(self, name, value):
        self.counts[name] = int(value)

    def op(self, name, problems):
        """One checked operation; any problem marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)

    def merge(self, other: "Record"):
        for name, values in other.samples.items():
            self.samples[name].extend(values)
        for name, value in other.totals.items():
            self.samples[name].append(value)
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def summarize(values):
    """(median, count, (percentile, value) or None).

    The percentile is the highest of PERCENTILES (nearest rank) that has at
    least ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        rank = max(1, ceil(p / 100.0 * n))
        if n - rank >= 10:
            return statistics.median(ordered), n, (p, ordered[rank - 1])
    return statistics.median(ordered), n, None


def blas_threads():
    """Thread count reported by the OpenBLAS library NumPy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(name, seed, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name, "seed": seed, "traced": bool(trace),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _source_digest(spec) -> str:
    digest = hashlib.sha256(repr(spec).encode())
    for path in sorted((ROOT / "src" / "qendy").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_counts_across_runs(name, seed, spec, counts, rec):
    """Compare with the counts an earlier traced run of the same code and
    inputs recorded in this checkout, then record these."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"counts-{name}-{seed}-{_source_digest(spec)}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            rec.op("counts", [f"exact counts {counts} differ from an earlier run's {earlier}"])
            return
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def _layer_totals(spans, sizes, runs_per_size, rec):
    totals = defaultdict(float)
    for metric, start, end, _, size in spans:
        totals[f"{metric}_s"] += end - start
        if size in sizes:
            totals[f"{metric}_s.m{size}"] += (end - start) / runs_per_size
    for name, value in totals.items():
        rec.samples[name].append(value)


def run_workload(name, seed, seconds, trace, spec=None, import_s=0.0):
    """Set up, run for ``seconds`` and return (report lines, result dict)."""
    cls, spec_cls = WORKLOADS[name]
    spec = spec if spec is not None else spec_cls()
    env = environment(name, seed, trace)

    setup_times = []
    for _ in range(SETUPS):
        start = perf_counter()
        workload = cls(spec, seed)
        setup_times.append(perf_counter() - start)

    tracer = Tracer() if trace else None
    plain, traced = Record(), Record()
    counts_first = None
    spans_out = []
    deadline = perf_counter() + seconds
    iteration = 0
    while iteration < (2 if trace else 1) or perf_counter() < deadline:
        use = tracer if trace and iteration % 2 else None
        rec = Record()
        workload.iteration(rec, use)
        if use is None:
            plain.merge(rec)
        else:
            spans, counts = tracer.take()
            spans_out.append(spans)
            _layer_totals(spans, workload.sizes, getattr(workload, "runs_per_size", 1), rec)
            counts = {k: v for k, v in {**counts, **rec.counts}.items() if k in COUNTS}
            if counts_first is None:
                counts_first = counts
            elif counts != counts_first:
                rec.op("counts", [f"exact counts {counts} differ within the run "
                                  f"from {counts_first}"])
            traced.merge(rec)
        iteration += 1

    checks = Record()
    checks.merge(plain)
    checks.merge(traced)
    if trace:
        _check_counts_across_runs(name, seed, spec, counts_first, checks)
        (ROOT / ".bench_out" / f"trace-{name}-{seed}.json").write_text(json.dumps(
            [[list(span) for span in spans] for spans in spans_out]) + "\n")
    for problem in checks.problems:
        print(f"bench: {name}: check failed: {problem}", file=sys.stderr)

    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    primary, secondary = workload.primary, workload.secondary
    if trace:
        metrics = {}
        for metric, unit in PER_LAYER.items():
            if metric in COUNTS:
                value = counts_first.get(metric, 0)
            elif metric == "trace.overhead_pct":
                value = 100.0 * (statistics.median(traced.samples[primary[0]])
                                 / statistics.median(plain.samples[primary[0]]) - 1.0)
            else:
                values = traced.samples.get(metric)
                value = statistics.median(values) if values else 0.0
            metrics[metric] = {"value": value, "unit": unit}
        lines.append(f"{name} tracing overhead on {primary[0]}: "
                     f"{metrics['trace.overhead_pct']['value']:+.2f}%")
    else:
        values = {}
        for key, (sample, meaning) in (("op_s", primary), ("side_op_s", secondary)):
            median, n, tail = summarize(plain.samples[sample])
            values[key] = median
            tail_text = (f", p{tail[0]:g} {tail[1]:.6g} s" if tail
                         else ", no percentile with 10 samples beyond it")
            lines.append(f"{name} {sample}: median {median:.6g} s ({meaning}), "
                         f"n {n}{tail_text}")
            rate = workload.rates.get(sample)
            if rate:
                lines.append(f"{name} {rate}: {1.0 / median:.6g} 1/s")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["setup_s"] = import_s + statistics.median(setup_times)
        lines.append(f"{name} peak_rss_mb: {values['peak_rss_mb']:.1f} MB")
        lines.append(f"{name} setup_s: {values['setup_s']:.4f} s (import {import_s:.4f} s "
                     f"+ median of {SETUPS} set-ups {sorted(setup_times)})")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    lines.append(f"{name} fail_ratio: {checks.failed}/{checks.attempted}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return lines, result
