"""Result cache: warm serve streams replay instead of re-simulating.

The result-cache headline claim (``docs/serving.md``): replaying a
seeded request stream against a service whose content-addressed result
cache was populated by the identical cold stream answers **>= 5x**
faster — every warm response arrives at admission with status
``"cached"`` and a digest equal to its cold counterpart, so the win is
pure memoization, never a different answer.

Two gates:

* ``bench_resultcache_committed_record`` — the measured record in
  ``BENCH_simulator_performance.json`` (key ``"resultcache"``) clears
  the floor and its digests were byte-identical;
* ``bench_resultcache_live_warm_identity`` — a live (cheap,
  ``tiny``-scale) cold/warm pair reproduces the contract end to end:
  warm statuses all ``"cached"``, digests equal, zero extra batches.

Re-measure and print a fresh record with::

    PYTHONPATH=src python benchmarks/bench_result_cache.py --remeasure
"""

import json
import os
import tempfile

from repro.evalharness import ResultCache, RunOptions
from repro.serve import ExecutionService, LoadGen

_HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE_PATH = os.path.join(
    os.path.dirname(_HERE), "BENCH_simulator_performance.json"
)

#: The measured stream (same shape as bench_serve_throughput's).
STREAM_KERNELS = ("nn/euclid", "gaussian/Fan1", "hotspot/hotspot_kernel")
N_REQUESTS = 40
SEED = 0
WORKERS = 2
CONCURRENCY = 16

#: Acceptance floor: warm (cache-hit) stream wall-clock vs. cold.
MIN_WARM_SPEEDUP = 5.0


def load_baseline():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def _stream_pair(scale: str, n_requests: int, concurrency: int):
    """Run the seeded stream cold then warm against one service with a
    fresh result-cache directory; returns both LoadReports + stats."""
    options = RunOptions(scale=scale)
    gen = LoadGen(list(STREAM_KERNELS), n_requests=n_requests,
                  options=options, seed=SEED, mode="closed",
                  concurrency=concurrency)
    with tempfile.TemporaryDirectory() as cache_dir:
        with ExecutionService(workers=WORKERS,
                              result_cache=ResultCache(cache_dir)) as svc:
            cold = gen.run(svc)
            warm = gen.run(svc)
            stats = svc.stats()
    return cold, warm, stats


# ----------------------------------------------------------------------
# Gate 1: the committed record
# ----------------------------------------------------------------------
def bench_resultcache_committed_record():
    """The recorded warm-stream measurement clears the 5x floor."""
    doc = load_baseline()
    record = doc["resultcache"]["record"]
    floor = doc["resultcache"]["floors"]["speedup_warm"]
    assert floor >= MIN_WARM_SPEEDUP
    speedup = record["cold_s"] / record["warm_s"]
    assert speedup >= floor, (
        f"warm-stream speedup {speedup:.2f}x below the {floor}x floor"
    )
    assert abs(record["speedup_warm"] - speedup) < 0.1 * speedup
    assert record["golden"] == "byte-identical"
    assert record["warm_statuses"] == {"cached": record["requests"]}


# ----------------------------------------------------------------------
# Gate 2: live identity (cheap: tiny scale, small stream)
# ----------------------------------------------------------------------
def bench_resultcache_live_warm_identity():
    """A live warm replay is all-``cached`` with cold-equal digests."""
    cold, warm, stats = _stream_pair("tiny", n_requests=8, concurrency=4)
    # The cold stream itself may already hit entries stored by its own
    # earlier batches (which only makes the cold denominator faster).
    assert all(r.status in ("ok", "cached") for r in cold.responses)
    assert any(r.status == "ok" for r in cold.responses)
    assert all(r.status == "cached" for r in warm.responses)
    assert ([r.digest for r in warm.responses]
            == [r.digest for r in cold.responses])
    # The whole warm stream (plus any intra-cold repeats) was answered
    # at admission by the cache.
    assert stats["requests"]["cached"] >= 8
    assert stats["result_cache"]["hits"] >= 8
    assert warm.wall_s < cold.wall_s


# ----------------------------------------------------------------------
# --remeasure: time both streams and print a fresh record
# ----------------------------------------------------------------------
def _remeasure() -> dict:
    import multiprocessing
    import platform
    import time

    cold, warm, stats = _stream_pair("small", n_requests=N_REQUESTS,
                                     concurrency=CONCURRENCY)
    identical = ([r.digest for r in warm.responses]
                 == [r.digest for r in cold.responses])
    # Repeat requests late in the cold stream may already be cache
    # hits; that only *shrinks* cold_s, so the speedup is conservative.
    assert all(r.status in ("ok", "cached") for r in cold.responses)
    warm_statuses = warm.status_counts
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
        "cold_statuses": cold.status_counts,
        "cold_s": round(cold.wall_s, 3),
        "warm_s": round(warm.wall_s, 3),
        "speedup_warm": round(cold.wall_s / warm.wall_s, 1),
        "warm_statuses": warm_statuses,
        "warm_latency_total_s": {
            k: round(v, 5)
            for k, v in warm.latency("total_s").as_dict().items()
        },
        "result_cache": stats["result_cache"],
        "golden": "byte-identical" if identical else "DIVERGED",
    }


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--remeasure", action="store_true",
                    help="time the seeded stream cold and warm against "
                         "a result-cached service; print a record for "
                         "the \"resultcache\" section of "
                         "BENCH_simulator_performance.json")
    args = ap.parse_args()
    if args.remeasure:
        print(json.dumps(_remeasure(), indent=2))
    else:
        ap.error("nothing to do (did you mean --remeasure, or "
                 "`pytest benchmarks/bench_result_cache.py`?)")
