"""``--jobs`` fan-out: byte-identical reports, fault isolation, traces.

The process-pool path's contract (``docs/performance.md`` §4): any
``jobs`` width produces byte-identical reports and archives to a serial
sweep, the PR-1 degraded-row machinery still works per worker, and the
workers' metrics/trace registries merge back deterministically.
"""

import json
import os

import pytest

from repro.evalharness import (
    RunOptions,
    generate_report,
    run_suite,
    runs_to_json,
    trace_file_for,
)
from repro.obs import Metrics
from repro.resilience import FaultSpec, WatchdogConfig

KERNELS = ["nn/euclid", "bfs/Kernel", "kmeans/invert_mapping"]


# ----------------------------------------------------------------------
# Naming rule for per-kernel trace files
# ----------------------------------------------------------------------
def test_trace_file_for_inserts_kernel_before_extension():
    assert trace_file_for("sweep.json", "nn/nearest") == "sweep.nn_nearest.json"
    assert trace_file_for("out/t.json", "bfs/Kernel") == "out/t.bfs_Kernel.json"


def test_trace_file_for_defaults_extension():
    assert trace_file_for("sweep", "nn/euclid") == "sweep.nn_euclid.json"


# ----------------------------------------------------------------------
# Determinism: jobs=N reproduces the serial sweep byte for byte
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_runs():
    return run_suite(KERNELS, scale="tiny")


def test_jobs_report_byte_identical_to_serial(serial_runs):
    parallel = run_suite(KERNELS, options=RunOptions(scale="tiny", jobs=2))
    assert list(parallel) == list(serial_runs)  # input order, not completion
    assert generate_report(parallel, scale="tiny") == \
        generate_report(serial_runs, scale="tiny")
    assert runs_to_json(parallel) == runs_to_json(serial_runs)


def test_jobs_merges_worker_metrics(serial_runs):
    serial_metrics, parallel_metrics = Metrics(), Metrics()
    run_suite(KERNELS, options=RunOptions(scale="tiny",
                                          metrics=serial_metrics))
    run_suite(KERNELS, options=RunOptions(scale="tiny", jobs=2,
                                          metrics=parallel_metrics))
    # Counter aggregates are order-independent, so the merged registry
    # matches the serial one exactly (gauges keep the last kernel's
    # value, which is the same kernel in both orders).  The one honest
    # difference: the parent's in-memory cache holds no entries under
    # --jobs (the workers own theirs), so its size gauge reads 0.
    serial_dict = serial_metrics.as_dict()
    parallel_dict = parallel_metrics.as_dict()
    assert serial_dict["gauges"].pop("compile/cache.entries") > 0
    assert parallel_dict["gauges"].pop("compile/cache.entries") == 0
    assert parallel_dict == serial_dict


def test_jobs_rejects_nothing_but_reports_cache_counters(serial_runs):
    metrics = Metrics()
    run_suite(KERNELS, options=RunOptions(scale="tiny", jobs=2,
                                          metrics=metrics))
    # Each kernel compiled exactly once *somewhere*: the folded
    # compile-scope counters show the worker misses.
    assert metrics.value("compile/cache.misses") > 0


# ----------------------------------------------------------------------
# Fault isolation under --jobs
# ----------------------------------------------------------------------
def test_seeded_faults_same_degraded_rows_serial_vs_jobs():
    inject = {"nn/euclid": FaultSpec("stuck_at", seed=7)}
    wd = WatchdogConfig(max_cycles=5e6)
    opts = RunOptions(scale="tiny", inject=inject, watchdog=wd)
    serial = run_suite(KERNELS, options=opts)
    parallel = run_suite(KERNELS, options=opts.replace(jobs=2))
    assert serial.degraded == parallel.degraded == ["nn/euclid"]
    assert sorted(serial) == sorted(parallel)  # healthy rows survive
    # The deterministic fault campaign produces the same structured
    # failure log in a worker process as in the serial loop.
    assert json.dumps(parallel.failure_logs(), sort_keys=True, default=str) \
        == json.dumps(serial.failure_logs(), sort_keys=True, default=str)
    assert generate_report(parallel, scale="tiny") == \
        generate_report(serial, scale="tiny")


# ----------------------------------------------------------------------
# Per-kernel trace files (serial and parallel)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jobs", [1, 2])
def test_trace_path_writes_one_file_per_kernel(tmp_path, jobs):
    base = str(tmp_path / "sweep.json")
    runs = run_suite(KERNELS[:2], options=RunOptions(
        scale="tiny", jobs=jobs, trace_path=base))
    assert len(runs) == 2
    for name in KERNELS[:2]:
        path = trace_file_for(base, name)
        assert os.path.exists(path), f"missing per-kernel trace {path}"
        doc = json.load(open(path))
        assert doc["traceEvents"], f"empty timeline in {path}"
    # No kernel overwrote another: the files differ.
    a, b = (open(trace_file_for(base, n)).read() for n in KERNELS[:2])
    assert a != b
