"""Simulator performance: micro throughput + the committed sweep baseline.

Two layers (``docs/performance.md`` is the narrative):

* **Micro benches** — simulator throughput on the Figure 1a kernel
  (node-fires / warp-instructions per second), catching engine-level
  regressions in isolation.
* **The committed baseline** — ``BENCH_simulator_performance.json`` at
  the repo root records the Table 2 ``small`` sweep's wall-clock
  trajectory (serial and ``--jobs 4``) per measured revision.
  ``bench_committed_baseline`` gates the recorded numbers (≥ 1.3×
  serial, ≥ 3× at ``jobs=4`` over the first entry, and — for records
  carrying ``"vectorized": true`` — ≥ 2× over the last scalar-execution
  record); ``bench_golden_cycles_byte_identical`` re-checks the suite's
  cycle counts against ``benchmarks/golden_cycles_small.json`` so a
  speedup can never silently change a reported number.  A second
  golden, ``benchmarks/golden_cycles_medium.json``, pins the same 63
  pairs at ``medium``; it takes minutes serial, so it is checked only
  by a ``REPRO_SCALE=medium`` run of this file or by regenerating it
  and diffing against the committed copy.

Re-measure and print a fresh trajectory record with::

    PYTHONPATH=src python benchmarks/bench_simulator_performance.py \
        --remeasure --jobs 4

Regenerate a golden cycle file (only legitimate when the timing
model itself changed — see ``docs/benchmarking.md`` §3) with::

    PYTHONPATH=src python benchmarks/bench_simulator_performance.py \
        --regen-golden [--scale medium]

A host-side change proves itself cycle-identical at a scale by
regenerating that scale's file and showing ``git diff`` empty.
"""

import json
import os

from repro.kernels import make_fig1_workload
from repro.sgmf import SGMFCore
from repro.simt import FermiSM
from repro.vgiw import VGIWCore

N_THREADS = 512

_HERE = os.path.dirname(os.path.abspath(__file__))
#: Scales with a committed golden cycle file.
GOLDEN_SCALES = ("small", "medium")
BASELINE_PATH = os.path.join(
    os.path.dirname(_HERE), "BENCH_simulator_performance.json"
)

#: Acceptance floors for the latest trajectory entry vs. the baseline.
MIN_SERIAL_SPEEDUP = 1.3
MIN_JOBS4_SPEEDUP = 3.0
#: Floor for ``"vectorized": true`` records vs. the last record without
#: the flag — the batch-execution engines must pay for their complexity
#: on the same workload (the PR 8 gate; ``docs/benchmarking.md`` §2).
MIN_VECTORIZED_SPEEDUP = 2.0


# ----------------------------------------------------------------------
# Micro benches: engine throughput on the Figure 1a kernel
# ----------------------------------------------------------------------
def bench_vgiw_simulator(benchmark):
    def run():
        kernel, mem, params = make_fig1_workload(n_threads=N_THREADS)
        return VGIWCore().run(kernel, mem, params, N_THREADS)

    result = benchmark(run)
    assert result.n_threads == N_THREADS


def bench_fermi_simulator(benchmark):
    def run():
        kernel, mem, params = make_fig1_workload(n_threads=N_THREADS)
        return FermiSM().run(kernel, mem, params, N_THREADS)

    result = benchmark(run)
    assert result.sm.warps_launched == N_THREADS // 32


def bench_sgmf_simulator(benchmark):
    def run():
        kernel, mem, params = make_fig1_workload(n_threads=N_THREADS)
        return SGMFCore().run(kernel, mem, params, N_THREADS)

    result = benchmark(run)
    assert result.n_threads == N_THREADS


# ----------------------------------------------------------------------
# The committed sweep baseline
# ----------------------------------------------------------------------
def load_trajectory():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def golden_path(scale: str = "small") -> str:
    return os.path.join(_HERE, f"golden_cycles_{scale}.json")


def check_golden(runs, scale: str = "small") -> int:
    """Compare a SuiteResult at ``scale`` against that scale's golden
    cycle file; returns the number of (kernel, engine) pairs checked."""
    path = golden_path(scale)
    with open(path) as fh:
        golden = json.load(fh)
    checked = 0
    mismatches = []
    for name, engines in golden.items():
        run = runs.get(name)
        assert run is not None, f"golden kernel {name} missing from sweep"
        for eng, want in engines.items():
            got = getattr(run, eng, None)
            got_cycles = None if got is None else got.cycles
            checked += 1
            if got_cycles != want:
                mismatches.append((name, eng, got_cycles, want))
    assert not mismatches, (
        f"cycle counts diverged from {os.path.relpath(path, _HERE)} "
        f"(host-side optimisations must be cycle-identical): {mismatches}"
    )
    return checked


def bench_committed_baseline():
    """The recorded trajectory meets the PR's acceptance floors."""
    doc = load_trajectory()
    traj = doc["trajectory"]
    assert len(traj) >= 2, "need a baseline entry and at least one follow-up"
    base, latest = traj[0], traj[-1]
    serial_speedup = base["serial_s"] / latest["serial_s"]
    jobs4_speedup = base["serial_s"] / latest["jobs4_s"]
    assert serial_speedup >= MIN_SERIAL_SPEEDUP, (
        f"serial speedup {serial_speedup:.2f}x below "
        f"{MIN_SERIAL_SPEEDUP}x floor"
    )
    assert jobs4_speedup >= MIN_JOBS4_SPEEDUP, (
        f"--jobs 4 speedup {jobs4_speedup:.2f}x below "
        f"{MIN_JOBS4_SPEEDUP}x floor"
    )
    assert latest["golden"] == "byte-identical"
    # The recorded ratios stay consistent with the raw seconds.
    assert abs(latest["speedup_serial"] - serial_speedup) < 0.1
    assert abs(latest["speedup_jobs4"] - jobs4_speedup) < 0.1

    if latest.get("vectorized"):
        scalar = [e for e in traj if not e.get("vectorized")]
        assert scalar, "a vectorized record needs a scalar denominator"
        denom = scalar[-1]
        vec_speedup = denom["serial_s"] / latest["serial_s"]
        floor = doc["floors"].get(
            "speedup_vectorized", MIN_VECTORIZED_SPEEDUP
        )
        assert vec_speedup >= floor, (
            f"vectorized speedup {vec_speedup:.2f}x (vs. "
            f"{denom['label']!r}) below {floor}x floor"
        )
        assert abs(latest["speedup_vectorized"] - vec_speedup) < 0.1

    # The warm-stream floor: once a "resultcache" section is committed,
    # its record must keep clearing its own floor (the PR 10 gate;
    # benchmarks/bench_result_cache.py holds the full contract).
    if "resultcache" in doc:
        rc = doc["resultcache"]
        warm_speedup = rc["record"]["cold_s"] / rc["record"]["warm_s"]
        assert warm_speedup >= rc["floors"]["speedup_warm"], (
            f"warm-stream speedup {warm_speedup:.2f}x below the "
            f"{rc['floors']['speedup_warm']}x floor"
        )
        assert rc["record"]["golden"] == "byte-identical"


def bench_golden_cycles_byte_identical(suite_runs, scale):
    """The current sweep reproduces the golden cycles bit-for-bit.

    Uses the session-wide suite fixture (no extra sweep).  Only
    meaningful at a scale with a golden file (``GOLDEN_SCALES``).
    """
    if scale not in GOLDEN_SCALES:
        import pytest

        pytest.skip(f"no golden cycle file is recorded at --scale {scale}")
    checked = check_golden(suite_runs, scale)
    assert checked >= 60  # 21 kernels x 3 engines (unmappable SGMF = None)


# ----------------------------------------------------------------------
# --remeasure: time the sweep and print a fresh trajectory record
# ----------------------------------------------------------------------
def _remeasure(jobs: int) -> dict:
    import multiprocessing
    import platform
    import time

    from repro.evalharness.runner import RunOptions, run_suite

    t0 = time.time()
    runs = run_suite(None, options=RunOptions(scale="small"))
    serial_s = time.time() - t0
    check_golden(runs)

    t0 = time.time()
    run_suite(None, options=RunOptions(scale="small", jobs=jobs))
    jobsn_s = time.time() - t0

    doc = load_trajectory()
    base = doc["trajectory"][0]
    scalar = [e for e in doc["trajectory"] if not e.get("vectorized")]
    record = {
        "label": "remeasure",
        "date": time.strftime("%Y-%m-%d"),
        "host": (f"{multiprocessing.cpu_count()} cores, "
                 f"python {platform.python_version()}"),
        "serial_s": round(serial_s, 2),
        "jobs4_s": round(jobsn_s, 2),
        "speedup_serial": round(base["serial_s"] / serial_s, 2),
        "speedup_jobs4": round(base["serial_s"] / jobsn_s, 2),
        "golden": "byte-identical",
    }
    if scalar:
        # Every engine runs the batched functional pass: a fresh record
        # is a vectorized one, measured against the last scalar record.
        record["vectorized"] = True
        record["speedup_vectorized"] = round(
            scalar[-1]["serial_s"] / serial_s, 2
        )
    return record


def _regen_golden(scale: str) -> int:
    """Rewrite ``golden_cycles_<scale>.json`` from a fresh sweep.

    Only legitimate when the timing model itself changed; the commit
    must say why the cycles moved (``docs/benchmarking.md`` §3)."""
    from repro.evalharness.runner import run_suite

    runs = run_suite(None, scale=scale)
    golden = {}
    for name in sorted(runs):
        run = runs[name]
        engines = {}
        for eng in ("vgiw", "fermi", "sgmf"):
            # An unmappable kernel's engine is pinned as null.
            res = getattr(run, eng, None)
            engines[eng] = None if res is None else res.cycles
        golden[name] = engines
    # No trailing newline: a regen at ``small`` reproduces the
    # committed file byte for byte.
    with open(golden_path(scale), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
    return sum(len(v) for v in golden.values())


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--remeasure", action="store_true",
                    help="time the small sweep (serial + --jobs) and "
                         "print a trajectory record to append to "
                         "BENCH_simulator_performance.json")
    ap.add_argument("--regen-golden", action="store_true",
                    help="rewrite benchmarks/golden_cycles_<scale>.json "
                         "from a fresh sweep (timing-model changes "
                         "only; see docs/benchmarking.md)")
    ap.add_argument("--scale", choices=GOLDEN_SCALES, default="small",
                    help="scale of the golden file --regen-golden "
                         "rewrites (default small)")
    ap.add_argument("--jobs", type=int, default=4)
    opts = ap.parse_args()
    if opts.remeasure:
        print(json.dumps(_remeasure(opts.jobs), indent=2))
    elif opts.regen_golden:
        pairs = _regen_golden(opts.scale)
        print(f"rewrote {golden_path(opts.scale)} "
              f"({pairs} kernel x engine pairs)")
    else:
        ap.error("nothing to do (did you mean --remeasure, "
                 "--regen-golden, or "
                 "`pytest benchmarks/bench_simulator_performance.py`?)")
