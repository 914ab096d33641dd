"""Benchmark entry point: one workload, its output checks, its metrics.

    python3 perfbench/run.py --workload table2_sweep --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` measures the same work untraced, then replays one repeat
of it under layer spans (for ``table2_sweep`` also the known outlier
kernel, outside the layer totals) and profiles a fixed slice of it
under cProfile, and prints the per-layer metrics, per-kernel (or
per-case) rows, and any one-item outliers; the spans are written to
``.perfbench/``.  The last line of
standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``setup_s`` is the median over fresh interpreters: this one, from its
start to its workload being ready, and the workload's ``setup_reps - 1``
others started with ``--setup-only``, which set the workload up and
print the monotonic clock instead.  Every end-to-end time is at
nominal host speed (see ``hostspeed.py``); the traced run's
``host.ref_ms`` is the reference job's median time in the measured
run.  A run whose outputs disagree with the references (golden cycles,
recorded fuzz statuses) or whose traced counts differ from its
untraced counts reports ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from hostspeed import host_reference_s, normalized  # noqa: E402
from layers import (  # noqa: E402
    SPAN_LAYERS, SimCounts, Spans, outliers, profile_shares)
from workloads import WORKLOADS, Pass, quantile  # noqa: E402

OUT_DIR = ROOT / ".perfbench"


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``, 10 ms
    resolution)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def setup_seconds(name: str, seed: int, reps: int, own_s: float) -> float:
    """Median, over fresh interpreters, of the time from starting one
    to its workload being ready to run (imports, references; for serve
    a started service whose workers are warm).  ``own_s`` is this
    interpreter's.  Each time is normalized by the host's speed right
    after it (and for the others right before it)."""
    times = [normalized(own_s, host_reference_s())]
    for _ in range(reps - 1):
        before = host_reference_s()
        start = time.monotonic()
        ready = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", "0", "--setup-only"],
            check=True, capture_output=True, text=True).stdout
        raw = float(ready.split()[-1]) - start
        times.append(normalized(raw, (before + host_reference_s()) / 2))
    return statistics.median(times)


def end_to_end(result: Pass, setup_s: float, rss_mb: float) -> dict:
    wall = result.wall_s
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (result.ops / wall, "1/s"),
        "sim_kcycles_per_s": (result.counts.total_cycles / wall / 1e3,
                              "kcycles/s"),
        "ok_frac": (result.ok / result.attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
        "latency_p50_s": (quantile(result.latencies, 0.5), "s"),
        "latency_p90_s": (quantile(result.latencies, 0.9), "s"),
        "goodput_rps": (result.good / wall, "1/s"),
    }


def per_layer(workload, plain: Pass, traced: Pass, spans: Spans,
              shares: dict) -> dict:
    layer = spans.layer_self()
    instrs = spans.thread_instrs
    metrics = {f"{name}_s": (layer.get(name, 0.0), "s")
               for name in SPAN_LAYERS}
    for engine in ("vgiw", "simt", "sgmf"):
        metrics[f"{engine}.ns_per_instr"] = (
            layer.get(f"{engine}.run", 0.0) * 1e9 / instrs if instrs else 0.0,
            "ns/instr")
    looked_up = traced.cache_hits + traced.cache_misses
    metrics.update({
        "interp.thread_instrs": (instrs, "count"),
        "compiler.cache_hit_ratio": (
            traced.cache_hits / looked_up if looked_up else 0.0, "frac"),
        "memory.self_share": (shares.get("memory", 0.0), "frac"),
        "vgiw.timing_self_share": (shares.get("vgiw.timing", 0.0), "frac"),
        "ir.vecops.self_share": (shares.get("ir.vecops", 0.0), "frac"),
        "compiler.placement.self_share": (
            shares.get("compiler.placement", 0.0), "frac"),
        "harness.unattributed_s": (traced.wall_s - sum(layer.values()), "s"),
        "host.ref_ms": (statistics.median(plain.references) * 1e3, "ms"),
        "trace.overhead_frac": (
            traced.repeat_wall_s / plain.repeat_wall_s - 1.0, "frac"),
    })
    for key in SimCounts.KEYS:
        metrics[key] = (traced.counts.values[key], "count")
    serve = (workload.serve_layers() if hasattr(workload, "serve_layers")
             else {})
    for key in ("serve.admit_s_p50", "serve.queue_s_p50", "serve.queue_s_p90",
                "serve.compile_s_p50", "serve.execute_s_p50",
                "serve.execute_s_p90", "serve.overhead_s_p50",
                "loadgen.late_max_s"):
        metrics[key] = (serve.get(key, 0.0), "s")
    metrics["serve.batch_size_mean"] = (
        serve.get("serve.batch_size_mean", 0.0), "requests")
    return metrics


def item_report(workload, spans: Spans, extra: Spans, seed: int,
                wall_s: float) -> None:
    """Print per-item rows and outliers, the ``extra`` spans' items
    included; write the spans to .perfbench/."""
    if hasattr(workload, "kernel_rows"):
        rows = workload.kernel_rows()
        found = []
    else:
        span_rows = {**spans.item_rows(), **extra.item_rows()}
        instrs = {**spans.item_instrs, **extra.item_instrs}
        rows = {item: dict(row) for item, row in span_rows.items()}
        for item, row in rows.items():
            row["thread_instrs"] = instrs.get(item, 0)
        found = outliers(span_rows, instrs, wall_s)
    print(f"# per-item rows ({workload.name}, seed {seed})")
    for item, row in sorted(rows.items(), key=lambda kv: str(kv[0])):
        cells = " ".join(f"{k}={v:.6g}" for k, v in sorted(row.items()))
        print(f"#   {item}: {cells}")
    for hit in found:
        print(f"# outlier: {hit['item']} in {hit['layer']}: "
              f"{hit['self_s']:.3f} s self, {hit['ns_per_instr']:.0f} "
              f"ns/instr vs {hit['others_ns_per_instr']:.0f} for all others")
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{workload.name}-seed{seed}.json", "w") as fh:
        json.dump({"rows": rows, "outliers": found, "spans": spans.dump(),
                   "extra_spans": extra.dump()}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the monotonic "
                             "clock, and stop (timed by setup_seconds)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        try:
            workload.setup()
            print(time.monotonic())
        finally:
            workload.close()
        return 0
    try:
        workload.setup()
        setup_s = setup_seconds(args.workload, args.seed,
                                workload.setup_reps, process_age_s())
        plain = workload.measure(args.seconds)
        rss = workload.peak_rss_mb()
        mismatches = list(plain.mismatches)
        attempted, failed = plain.attempted, plain.failed
        if not args.trace:
            metrics = end_to_end(plain, setup_s, rss)
        else:
            spans, extra = Spans(), Spans()
            if workload.in_process:
                spans.install()
            try:
                traced = workload.replay(spans)
            finally:
                spans.uninstall()
            outlier_wall_s = 0.0
            if hasattr(workload, "outlier"):
                extra.install()
                try:
                    outlier = workload.outlier(extra)
                finally:
                    extra.uninstall()
                mismatches += outlier.mismatches
                attempted += outlier.attempted
                failed += outlier.failed
                outlier_wall_s = outlier.wall_s
            if traced.counts.values != plain.counts.values:
                mismatches.append(
                    f"traced counts {traced.counts.values} != untraced "
                    f"{plain.counts.values}")
            mismatches += traced.mismatches
            attempted += traced.attempted
            failed += traced.failed
            shares = profile_shares(workload.profile)
            metrics = per_layer(workload, plain, traced, spans, shares)
            item_report(workload, spans, extra, args.seed,
                        traced.wall_s + outlier_wall_s)
    finally:
        workload.close()

    for line in mismatches:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not mismatches and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
