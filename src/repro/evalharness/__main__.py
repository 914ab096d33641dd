"""CLI: regenerate every table/figure of the paper.

Usage::

    python -m repro.evalharness [--scale tiny|small|medium]
                                [--kernels name,name,...]
                                [--jobs N]
                                [--result-cache DIR]
                                [--validate-cache-fraction F]
                                [--out FILE] [--json FILE]
                                [--trace FILE] [--metrics]
                                [--inject kernel=kind[:seed[:rate]]]...
                                [--max-cycles N] [--stall-cycles N]
                                [--no-isolate]
                                [--timeout SECONDS]

``--inject`` arms a deterministic fault campaign on one kernel (it may
be repeated); combined with the default fault isolation the affected
kernel shows up as a degraded row while the rest of the sweep completes
normally.  ``--max-cycles``/``--stall-cycles`` arm the forward-progress
watchdog in every simulator.  See ``docs/resilience.md``.

``--jobs N`` fans the kernels out to ``N`` worker processes; the report
is byte-identical to a serial sweep (results are reassembled in input
order).  ``--result-cache DIR`` memoises whole runs by content key
(kernel IR hash, options fingerprint, input digest), so an unchanged
re-sweep replays stored results instead of simulating — still
byte-identical.  It is
also how a killed sweep resumes: re-run the same command against the
same ``--result-cache DIR`` and every kernel that finished before the
crash is replayed, the rest executed.
``--validate-cache-fraction F`` re-executes a seeded fraction of hits
and hard-fails on digest divergence.  See ``docs/performance.md`` and
``docs/serving.md``.

``--trace FILE`` records a per-kernel cycle-level timeline and writes
one Chrome-trace JSON per kernel — ``FILE`` is the base name, each
kernel gets ``FILE`` with ``.<kernel>`` inserted before the extension
(slashes in kernel names become underscores; e.g. ``--trace trace.json``
with kernel ``nn/nearest`` writes ``trace.nn_nearest.json``).  Open the
files in Perfetto / ``chrome://tracing``.  ``--metrics`` records the
cross-engine metric registry and appends its column group to the
report.  See ``docs/observability.md``.

``--timeout`` bounds each kernel attempt in host wall-clock seconds.
See ``docs/resilience.md`` §7.3.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.evalharness.options import RunOptions
from repro.evalharness.report import generate_report
from repro.evalharness.resultcache import ResultCache
from repro.evalharness.runner import run_suite, trace_file_for
from repro.evalharness.serialize import runs_to_json
from repro.kernels.registry import all_names
from repro.obs import Metrics
from repro.resilience import FAULT_KINDS, FaultSpec, WatchdogConfig


def _parse_inject(arg: str, parser: argparse.ArgumentParser):
    if "=" not in arg:
        parser.error(f"--inject wants kernel=kind[:seed[:rate]], got {arg!r}")
    name, spec_text = arg.split("=", 1)
    try:
        spec = FaultSpec.parse(spec_text)
    except ValueError as exc:
        parser.error(f"--inject {arg!r}: {exc}")
    return name.strip(), spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.evalharness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"))
    parser.add_argument("--kernels", default=None,
                        help="comma-separated registry names "
                             "(default: the full Table 2 suite)")
    parser.add_argument("--out", default=None,
                        help="write the markdown report to this file")
    parser.add_argument("--json", default=None,
                        help="also archive raw results as JSON")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run kernels in N worker processes "
                             "(default 1 = serial); reports are "
                             "byte-identical to a serial sweep")
    parser.add_argument("--result-cache", default=None, metavar="DIR",
                        help="content-addressed result-cache directory: "
                             "re-runs of an unchanged kernel/options/input "
                             "replay the stored run instead of simulating "
                             "(byte-identical reports; safe under --jobs; "
                             "re-running a killed sweep against the same "
                             "DIR resumes it)")
    parser.add_argument("--validate-cache-fraction", type=float, default=0.0,
                        metavar="FRACTION",
                        help="re-execute this (seeded, deterministic) "
                             "fraction of result-cache hits and hard-fail "
                             "on any digest divergence (default 0)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="record a cycle-level timeline and write one "
                             "Chrome-trace JSON per kernel: FILE with "
                             ".<kernel> inserted before the extension "
                             "(Perfetto / chrome://tracing)")
    parser.add_argument("--metrics", action="store_true",
                        help="record the cross-engine metric registry and "
                             "append its column group to the report")
    parser.add_argument("--inject", action="append", default=[],
                        metavar="KERNEL=KIND[:SEED[:RATE]]",
                        help="arm a fault campaign on one kernel "
                             f"(kinds: {', '.join(FAULT_KINDS)}); repeatable")
    parser.add_argument("--max-cycles", type=float, default=None,
                        help="watchdog: hard simulated-cycle budget per run")
    parser.add_argument("--stall-cycles", type=float, default=None,
                        help="watchdog: max cycles without a retirement")
    parser.add_argument("--no-isolate", action="store_true",
                        help="let the first kernel failure abort the sweep "
                             "(the historical behaviour)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per kernel attempt; a "
                             "timed-out kernel is retried then degraded")
    args = parser.parse_args(argv)

    names = None
    if args.kernels:
        names = [n.strip() for n in args.kernels.split(",") if n.strip()]
        known = set(all_names(include_extras=True))
        unknown = [n for n in names if n not in known]
        if unknown:
            parser.error(f"unknown kernels: {unknown}")

    inject = dict(_parse_inject(arg, parser) for arg in args.inject)
    known = set(names if names is not None else all_names())
    unknown = [n for n in inject if n not in known]
    if unknown:
        parser.error(f"--inject targets kernels not in this sweep: {unknown}")

    watchdog = None
    if args.max_cycles is not None or args.stall_cycles is not None:
        watchdog = WatchdogConfig(max_cycles=args.max_cycles,
                                  stall_cycles=args.stall_cycles)
    elif inject:
        # Fault campaigns need an armed watchdog so hang-type faults
        # (mem_drop) are caught instead of inflating the sweep runtime.
        watchdog = WatchdogConfig(max_cycles=5e6)

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if not 0.0 <= args.validate_cache_fraction <= 1.0:
        parser.error("--validate-cache-fraction must be in [0, 1], got "
                     f"{args.validate_cache_fraction}")

    metrics = Metrics() if args.metrics else None

    options = RunOptions(scale=args.scale, isolate=not args.no_isolate,
                         watchdog=watchdog, inject=inject,
                         metrics=metrics, jobs=args.jobs,
                         trace_path=args.trace,
                         result_cache=(None if args.result_cache is None
                                       else ResultCache(args.result_cache)),
                         validate_cache_fraction=args.validate_cache_fraction,
                         timeout=args.timeout)

    t0 = time.time()
    runs = run_suite(names, options=options)
    report = generate_report(runs, scale=args.scale, metrics=metrics)
    elapsed = time.time() - t0

    if args.trace:
        for name in list(runs) + sorted(getattr(runs, "failures", {})):
            path = trace_file_for(args.trace, name)
            if os.path.exists(path):
                print(f"wrote {path}", file=sys.stderr)

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(runs_to_json(runs))
        print(f"wrote {args.json}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"wrote {args.out} ({elapsed:.0f}s)")
    else:
        print(report)
        print(f"# generated in {elapsed:.0f}s", file=sys.stderr)
    failures = getattr(runs, "failures", {})
    if failures:
        print(f"# degraded kernels: {', '.join(sorted(failures))}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
