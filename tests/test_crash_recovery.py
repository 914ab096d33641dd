"""Crash-safe evaluation: atomic I/O, resume by re-running against the
result store, worker-crash recovery, and per-kernel wall-clock
timeouts.

Companion to ``tests/test_parallel_suite.py`` (which pins the happy
paths of the ``--jobs`` pool); this file kills things on purpose.
See ``docs/resilience.md`` §7.
"""

import json
import os
import pickle

import pytest

from repro.evalharness import ResultCache, RunOptions
from repro.evalharness.report import generate_report
from repro.evalharness.runner import (
    KILL_ENV,
    run_suite,
)
from repro.resilience import FaultSpec, RetryPolicy, WorkerCrashError
from repro.resilience.atomicio import (
    atomic_pickle,
    atomic_write_bytes,
    atomic_write_text,
)

KERNELS = ["nn/euclid", "bfs/Kernel", "kmeans/invert_mapping"]
SCALE = "tiny"


def _report(suite):
    return generate_report(suite, scale=SCALE)


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted serial sweep; every scenario must match it."""
    suite = run_suite(KERNELS, scale=SCALE)
    return _report(suite)


# ---------------------------------------------------------------------
# atomic I/O (repro.resilience.atomicio)
# ---------------------------------------------------------------------
def test_atomic_write_bytes_and_text(tmp_path):
    p = tmp_path / "sub" / "blob.bin"  # parent dir is created on demand
    atomic_write_bytes(str(p), b"\x00\x01\x02")
    assert p.read_bytes() == b"\x00\x01\x02"
    atomic_write_text(str(p), "after")
    assert p.read_text() == "after"
    assert os.listdir(tmp_path / "sub") == ["blob.bin"]  # no temp litter


def test_atomic_pickle_roundtrip(tmp_path):
    p = tmp_path / "value.pkl"
    atomic_pickle(str(p), {"cycles": 42.0})
    with open(p, "rb") as fh:
        assert pickle.load(fh) == {"cycles": 42.0}


def test_atomic_pickle_unpicklable_leaves_nothing(tmp_path):
    p = tmp_path / "value.pkl"
    with pytest.raises(Exception):
        atomic_pickle(str(p), lambda: None)
    assert os.listdir(tmp_path) == []  # no destination, no temp file


# ---------------------------------------------------------------------
# resume = re-run against the same result store
# ---------------------------------------------------------------------
TINY = RunOptions(scale=SCALE)


def _with_store(store_dir):
    """Sweep options writing finished runs to ``store_dir``."""
    return TINY.replace(result_cache=ResultCache(store_dir))


def _entries(store_dir):
    return sorted(f for f in os.listdir(store_dir)
                  if f.endswith(".result.pkl"))


def test_journaled_sweep_report_unchanged(tmp_path, baseline):
    """Arming the result store (the sweep's durable record) leaves the
    report untouched and records one entry per finished kernel."""
    store = str(tmp_path / "store")
    suite = run_suite(KERNELS, options=_with_store(store))
    assert _report(suite) == baseline
    assert len(_entries(store)) == len(KERNELS)


def test_resume_after_parent_death_is_byte_identical(tmp_path, baseline):
    """Simulate a parent killed mid-sweep: the store holds only the
    first two kernels' entries.  Re-running the sweep against it
    replays those two, executes the third, and the report is
    byte-identical; the store is complete afterwards."""
    store = str(tmp_path / "store")
    run_suite(KERNELS[:2], options=_with_store(store))
    assert len(_entries(store)) == 2

    rcache = ResultCache(store)
    resumed = run_suite(KERNELS, options=TINY.replace(result_cache=rcache))
    assert _report(resumed) == baseline
    assert (rcache.hits, rcache.misses) == (2, 1)
    assert len(_entries(store)) == len(KERNELS)


def test_resume_with_nothing_to_do_is_byte_identical(tmp_path, baseline):
    store = str(tmp_path / "store")
    run_suite(KERNELS, options=_with_store(store))
    rcache = ResultCache(store)
    replayed = run_suite(KERNELS, options=TINY.replace(result_cache=rcache))
    assert _report(replayed) == baseline
    assert (rcache.hits, rcache.misses) == (len(KERNELS), 0)


def test_resume_replays_identical_fault_logs(tmp_path):
    """The fault spec travels in the worker payload and the retry seeds
    are deterministic, so the degraded row — which a re-run against
    the store re-executes rather than replays — reproduces its fault
    logs byte for byte."""
    inject = {"bfs/Kernel": FaultSpec(kind="abort", seed=3, rate=1.0)}
    full = run_suite(KERNELS, options=TINY.replace(inject=inject))
    assert full.degraded == ["bfs/Kernel"]
    want_logs = json.dumps(full.failure_logs(), sort_keys=True)

    store = str(tmp_path / "store")
    run_suite(KERNELS, options=_with_store(store).replace(inject=inject))
    # only the healthy kernels were stored
    assert len(_entries(store)) == len(KERNELS) - 1

    resumed = run_suite(KERNELS,
                        options=_with_store(store).replace(inject=inject))
    assert json.dumps(resumed.failure_logs(), sort_keys=True) == want_logs
    assert _report(resumed) == _report(full)


# ---------------------------------------------------------------------
# worker-crash recovery (SIGKILL mid-suite)
# ---------------------------------------------------------------------
def test_suite_survives_worker_sigkill(tmp_path, baseline, monkeypatch):
    """Satellite (a): SIGKILL a pool worker mid-kernel.  The driver
    respawns the pool, requeues the victims, and the finished sweep is
    byte-identical to an uninterrupted serial one."""
    token = tmp_path / "kill.token"
    token.write_text("once")
    monkeypatch.setenv(KILL_ENV, f"bfs/Kernel:{token}")

    suite = run_suite(KERNELS, options=TINY.replace(jobs=2))

    assert not token.exists(), "the kill hook never fired"
    assert suite.ok, f"unexpected degraded rows: {suite.degraded}"
    assert _report(suite) == baseline


def test_exhausted_crash_budget_degrades(tmp_path, monkeypatch):
    """A kernel that keeps killing workers becomes a degraded row
    carrying WorkerCrashError instead of looping forever."""
    token = tmp_path / "kill.token"
    token.write_text("once")
    monkeypatch.setenv(KILL_ENV, f"nn/euclid:{token}")

    # max_attempts=1 → a single crash exhausts the budget; a one-kernel
    # sweep keeps the in-flight window at 1, so nothing else is blamed.
    suite = run_suite(["nn/euclid"], options=TINY.replace(
        jobs=2, retry=RetryPolicy(max_attempts=1)))
    assert suite.degraded == ["nn/euclid"]
    failure = suite.failures["nn/euclid"]
    assert failure.error_type == "WorkerCrashError"
    assert "worker process died" in failure.message


def test_worker_crash_propagates_without_isolation(tmp_path, monkeypatch):
    token = tmp_path / "kill.token"
    token.write_text("once")
    monkeypatch.setenv(KILL_ENV, f"nn/euclid:{token}")
    with pytest.raises(WorkerCrashError):
        run_suite(["nn/euclid"], options=TINY.replace(jobs=2,
                                                      isolate=False))


# ---------------------------------------------------------------------
# wall-clock timeout
# ---------------------------------------------------------------------
def test_wall_clock_timeout_degrades_kernel():
    suite = run_suite(["nn/euclid"], options=TINY.replace(timeout=1e-3))
    assert suite.degraded == ["nn/euclid"]
    failure = suite.failures["nn/euclid"]
    assert failure.error_type == "SimulationHangError"
    assert "wall-clock timeout" in failure.message

