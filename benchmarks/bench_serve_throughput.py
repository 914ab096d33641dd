"""Serve throughput: the batched service vs a serial run_kernel loop.

The serving layer's headline claim (``docs/serving.md``): a 2-worker
warm pool answering a seeded request stream over Table 2 kernels at
``--scale small`` sustains **>= 2.5x** the throughput of the historical
client pattern — a serial loop calling ``run_kernel`` once per request
— while returning byte-identical per-request results (equal
``result_digest``).  On the single-core measurement host the win comes
from request coalescing (equal requests share one execution) and the
workers' warm compile caches, not from parallelism.

Two gates:

* ``bench_serve_committed_record`` — the measured record in
  ``BENCH_simulator_performance.json`` (key ``"serve"``) clears the
  floor and carries the p50/p99 latency split;
* ``bench_serve_live_digest_identity`` — a live (cheap, ``tiny``-scale)
  serve run reproduces the serial digests bit-for-bit.

Re-measure and print a fresh record with::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --remeasure
"""

import json
import os
import time

from repro.evalharness import RunOptions, run_kernel
from repro.serve import ExecutionService, LoadGen, result_digest

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(
    os.path.dirname(_HERE), "BENCH_simulator_performance.json"
)

#: The measured stream: Table 2 kernels at the paper's ``small`` scale.
STREAM_KERNELS = ("nn/euclid", "gaussian/Fan1", "hotspot/hotspot_kernel")
N_REQUESTS = 40
SEED = 0
WORKERS = 2
CONCURRENCY = 16

#: Acceptance floor: serve throughput over the serial run_kernel loop.
MIN_SERVE_SPEEDUP = 2.5


def load_baseline():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Gate 1: the committed record
# ----------------------------------------------------------------------
def bench_serve_committed_record():
    """The recorded serve measurement clears the 2.5x floor and carries
    the latency split."""
    doc = load_baseline()
    record = doc["serve"]["record"]
    floor = doc["serve"]["floors"]["speedup_serve"]
    assert floor >= MIN_SERVE_SPEEDUP
    speedup = record["serial_s"] / record["serve_s"]
    assert speedup >= floor, (
        f"serve speedup {speedup:.2f}x below the {floor}x floor"
    )
    # The recorded ratio stays consistent with the raw seconds.
    assert abs(record["speedup_serve"] - speedup) < 0.1
    assert record["golden"] == "byte-identical"
    # The p50/p99 latency split is recorded (host seconds).
    for component in ("total_s", "queue_s", "execute_s"):
        split = record["latency"][component]
        assert split["p50"] > 0
        assert split["p99"] >= split["p50"]


# ----------------------------------------------------------------------
# Gate 2: live identity (cheap: tiny scale, small stream)
# ----------------------------------------------------------------------
def bench_serve_live_digest_identity():
    """A live serve run's per-request digests equal serial run_kernel's."""
    options = RunOptions(scale="tiny")
    gen = LoadGen(list(STREAM_KERNELS), n_requests=8, options=options,
                  seed=SEED, mode="closed", concurrency=4)
    serial = {
        name: result_digest(run_kernel(name, options=options))
        for name in {req.kernel for req in gen.requests()}
    }
    with ExecutionService(workers=WORKERS) as svc:
        report = gen.run(svc)
    assert len(report.responses) == 8
    for req, resp in zip(gen.requests(), report.responses):
        assert resp.status == "ok", (req.kernel, resp.error)
        assert resp.digest == serial[req.kernel]


# ----------------------------------------------------------------------
# --remeasure: time both paths and print a fresh record
# ----------------------------------------------------------------------
def _remeasure() -> dict:
    import multiprocessing
    import platform

    options = RunOptions(scale="small")
    gen = LoadGen(list(STREAM_KERNELS), n_requests=N_REQUESTS,
                  options=options, seed=SEED, mode="closed",
                  concurrency=CONCURRENCY)
    stream = gen.requests()

    # Serial baseline: the historical client pattern — one run_kernel
    # call per request, no shared cache, results digested for identity.
    t0 = time.monotonic()
    serial_digests = [result_digest(run_kernel(req.kernel, options=options))
                      for req in stream]
    serial_s = time.monotonic() - t0

    # The service: 2-worker warm pool, closed-loop seeded clients.
    with ExecutionService(workers=WORKERS) as svc:
        report = gen.run(svc)
        stats = svc.stats()
    serve_s = report.wall_s

    assert all(r.status == "ok" for r in report.responses)
    identical = [r.digest for r in report.responses] == serial_digests
    latency = {name: {k: round(v, 4) for k, v in
                      report.latency(name).as_dict().items()}
               for name in ("total_s", "queue_s", "compile_s",
                            "execute_s")}
    return {
        "label": "remeasure",
        "date": time.strftime("%Y-%m-%d"),
        "host": (f"{multiprocessing.cpu_count()} cores, "
                 f"python {platform.python_version()}"),
        "requests": N_REQUESTS,
        "kernels": list(STREAM_KERNELS),
        "scale": "small",
        "workers": WORKERS,
        "concurrency": CONCURRENCY,
        "serial_s": round(serial_s, 2),
        "serve_s": round(serve_s, 2),
        "speedup_serve": round(serial_s / serve_s, 2),
        "latency": latency,
        "batches": stats["batches"]["count"],
        "mean_batch_size": round(stats["batches"]["mean_size"], 2),
        "golden": "byte-identical" if identical else "DIVERGED",
    }


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--remeasure", action="store_true",
                    help="time the serial loop and the 2-worker service "
                         "on the seeded stream; print a record for the "
                         "\"serve\" section of "
                         "BENCH_simulator_performance.json")
    args = ap.parse_args()
    if args.remeasure:
        print(json.dumps(_remeasure(), indent=2))
    else:
        ap.error("nothing to do (did you mean --remeasure, or "
                 "`pytest benchmarks/bench_serve_throughput.py`?)")
