"""CLI: drive the execution service with a seeded load generator.

Usage::

    python -m repro.serve [--workers N] [--requests N] [--seed S]
                          [--scale tiny|small|medium]
                          [--kernels name,name,...]
                          [--policy fifo|sjf]
                          [--mode closed|open]
                          [--concurrency N] [--rate R]
                          [--queue-limit N] [--deadline SECONDS]
                          [--timeout SECONDS]
                          [--result-cache DIR]
                          [--validate-cache-fraction F]
                          [--trace FILE] [--report FILE]
                          [--golden-out FILE]

Runs an in-process :class:`~repro.serve.ExecutionService` (a pool of
``--workers`` persistent worker processes), submits ``--requests``
seeded requests in the chosen loop mode, and prints a JSON
throughput/latency report (service stats + per-component p50/p99).

``--result-cache DIR`` arms the content-addressed result cache:
repeat submissions of an already-served (kernel, options, input) are
answered at admission with status ``"cached"`` — same digest, no queue
time, no execution.  ``--validate-cache-fraction F`` re-executes a
seeded fraction of those hits and reports digest divergence as a typed
degraded response.  See ``docs/serving.md``.

``--golden-out FILE`` additionally writes the per-request identity rows
(``index, kernel, status, digest`` — timing-independent and
deterministic for a given seed) as sorted JSON; the CI smoke job
compares this byte-for-byte against a committed golden.  ``--trace``
exports the service's per-request Chrome-trace spans for Perfetto.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.evalharness.options import RunOptions
from repro.evalharness.resultcache import ResultCache
from repro.kernels.registry import all_names
from repro.obs import Metrics, Tracer
from repro.serve.loadgen import LoadGen
from repro.serve.scheduler import SCHED_POLICIES
from repro.serve.service import ExecutionService


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve",
        description="Load-test the batched execution service.")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker-process pool width (default 2)")
    parser.add_argument("--requests", type=int, default=20,
                        help="number of requests to submit (default 20)")
    parser.add_argument("--seed", type=int, default=0,
                        help="load-generator seed (kernel choice)")
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "medium"),
                        help="workload scale for every request "
                             "(default tiny)")
    parser.add_argument("--kernels", default=None,
                        help="comma-separated candidate kernels "
                             "(default: the full Table 2 suite)")
    parser.add_argument("--policy", default="fifo",
                        choices=SCHED_POLICIES,
                        help="batch dispatch policy (default fifo)")
    parser.add_argument("--mode", default="closed",
                        choices=("closed", "open"),
                        help="closed loop (concurrency-bound) or open "
                             "loop (rate-bound)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop client count (default 4)")
    parser.add_argument("--rate", type=float, default=10.0,
                        help="open-loop arrival rate, requests/s")
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="admission bound; past it requests are "
                             "rejected (default 64)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-request deadline; still-queued "
                             "requests are shed when it expires")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per execution attempt")
    parser.add_argument("--result-cache", default=None, metavar="DIR",
                        help="content-addressed result-cache directory: "
                             "repeat submissions are answered at "
                             "admission with status 'cached'")
    parser.add_argument("--validate-cache-fraction", type=float,
                        default=0.0, metavar="FRACTION",
                        help="re-execute this (seeded, deterministic) "
                             "fraction of result-cache hits and report "
                             "digest divergence as degraded (default 0)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write the per-request Chrome-trace spans "
                             "to FILE (Perfetto / chrome://tracing)")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="write the JSON report to FILE instead of "
                             "stdout")
    parser.add_argument("--golden-out", default=None, metavar="FILE",
                        help="write deterministic per-request identity "
                             "rows (kernel/status/digest) for CI "
                             "comparison")
    args = parser.parse_args(argv)

    if not 0.0 <= args.validate_cache_fraction <= 1.0:
        parser.error("--validate-cache-fraction must be in [0, 1], got "
                     f"{args.validate_cache_fraction}")

    if args.kernels:
        kernels = [n.strip() for n in args.kernels.split(",") if n.strip()]
        known = set(all_names(include_extras=True))
        unknown = [n for n in kernels if n not in known]
        if unknown:
            parser.error(f"unknown kernels: {unknown}")
    else:
        kernels = all_names()

    tracer = Tracer() if args.trace else None
    metrics = Metrics()
    options = RunOptions(
        scale=args.scale, timeout=args.timeout,
        validate_cache_fraction=args.validate_cache_fraction)
    loadgen = LoadGen(kernels, args.requests, options=options,
                      seed=args.seed, mode=args.mode,
                      concurrency=args.concurrency, rate=args.rate,
                      deadline_s=args.deadline)
    service = ExecutionService(
        workers=args.workers, policy=args.policy,
        queue_limit=args.queue_limit, tracer=tracer, metrics=metrics,
        result_cache=(None if args.result_cache is None
                      else ResultCache(args.result_cache)))
    with service:
        report = loadgen.run(service)

    doc = {"load": report.as_dict(), "service": service.stats()}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.report}", file=sys.stderr)
    else:
        print(text)

    if args.golden_out:
        rows = [dict(row, index=i)
                for i, row in enumerate(report.identities())]
        with open(args.golden_out, "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.golden_out}", file=sys.stderr)

    if args.trace:
        tracer.dump(args.trace)
        print(f"wrote {args.trace}", file=sys.stderr)

    counts = report.status_counts
    bad = counts.get("degraded", 0)
    print(f"# {report.n_requests} requests, "
          f"{report.throughput_rps:.2f} req/s, statuses: {counts}",
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
