"""Evaluation runner: one workload across the three architectures.

``run_kernel`` executes a Table 2 workload on Fermi, VGIW and (when the
kernel fits its fabric) SGMF, verifies every machine's final memory
against the reference interpreter, attaches energy breakdowns, and
returns a :class:`KernelRun`.  ``run_suite`` does that for the whole
registry and is the single data source for every figure's rows.

Fault isolation
---------------

A ten-minute sweep must not die because one kernel hangs or corrupts
memory.  ``run_suite`` therefore wraps every kernel in a try/except with
a bounded, deterministic retry (see
:class:`repro.resilience.RetryPolicy`): each retry gets a re-seeded
fault injector and a backed-off watchdog budget.  Kernels that exhaust
their retries become *degraded rows*: the returned :class:`SuiteResult`
still behaves as the historical ``Dict[str, KernelRun]`` over the
healthy runs, but additionally carries ``.failures`` — a mapping of
kernel name to :class:`repro.resilience.KernelFailure` with every
attempt's error, fault log, and (for hangs) the watchdog's diagnostic
snapshot.  ``docs/resilience.md`` documents the semantics.

Crash safety
------------

Fault isolation protects against *in-process* failures; three further
layers protect against the process-level ones (``docs/resilience.md``
§7):

* ``result_cache_dir=DIR`` stores every healthy per-kernel run the
  moment it lands (:mod:`repro.evalharness.resultcache`); re-running a
  killed sweep against the same directory replays the finished kernels
  and reassembles a byte-identical report.
* ``jobs > 1`` runs the sweep on :class:`repro.serve.ExecutionService`,
  whose pool survives worker death (SIGKILL, OOM, segfault): it
  respawns the pool, requeues the kernels that were in flight under a
  bounded crash budget, and degrades the ones that keep killing
  workers with :class:`~repro.resilience.WorkerCrashError`.
* ``timeout=SECONDS`` arms a per-kernel wall-clock guard
  (:func:`~repro.resilience.wall_clock_limit`) that feeds the same
  retry/degraded-row machinery as the cycle watchdog.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.compiler.cache import CompileCache, cached_optimize_kernel
from repro.evalharness.options import RunOptions
from repro.evalharness.resultcache import ResultCache
from repro.interp import interpret
from repro.kernels.base import Workload
from repro.kernels.registry import all_names, make_workload
from repro.obs import Metrics, Tracer
from repro.power import (
    EnergyBreakdown,
    energy_fermi,
    energy_sgmf,
    energy_vgiw,
)
from repro.resilience import (
    AttemptRecord,
    FaultInjector,
    KernelFailure,
    ReproError,
    RetryPolicy,
    wall_clock_limit,
)
from repro.resilience.errors import ResultCacheDivergenceError
from repro.resilience.errors import VerificationError  # re-export (was local)
from repro.sgmf import SGMFCore, SGMFRunResult, SGMFUnmappableError
from repro.simt import FermiRunResult, FermiSM
from repro.vgiw import VGIWCore, VGIWRunResult

__all__ = [
    "KernelRun",
    "RunOptions",
    "SuiteResult",
    "VerificationError",
    "run_kernel",
    "run_suite",
    "trace_file_for",
]

#: Test-only crash hook: ``"<kernel>:<token-file>"``.  A
#: :mod:`repro.serve` pool worker assigned ``<kernel>`` consumes
#: (unlinks) the token file and SIGKILLs itself, so the crash fires
#: exactly once and the requeued attempt succeeds.  Shared by
#: ``tests/test_crash_recovery.py``, ``tests/test_serve.py`` and the CI
#: crash-recovery smoke job.
KILL_ENV = "REPRO_SUITE_KILL"


@dataclass
class KernelRun:
    """All measurements for one workload across the machines."""

    name: str
    app: str
    n_threads: int
    n_blocks: int
    fermi: FermiRunResult
    vgiw: VGIWRunResult
    sgmf: Optional[SGMFRunResult]  # None when unmappable
    fermi_energy: EnergyBreakdown
    vgiw_energy: EnergyBreakdown
    sgmf_energy: Optional[EnergyBreakdown]
    #: observability attachments (populated when run_kernel was given a
    #: tracer / metrics registry; see repro.obs)
    trace: Optional[Tracer] = None
    metrics: Optional[Metrics] = None
    #: host seconds this run spent building the workload and optimising
    #: its kernels (neither serialized nor digested)
    compile_s: float = field(default=0.0, compare=False)

    @property
    def speedup_vs_fermi(self) -> float:
        return self.fermi.cycles / self.vgiw.cycles

    @property
    def speedup_vs_sgmf(self) -> Optional[float]:
        if self.sgmf is None:
            return None
        return self.sgmf.cycles / self.vgiw.cycles

    def efficiency_vs_fermi(self, level: str = "system") -> float:
        return getattr(self.fermi_energy, level) / getattr(self.vgiw_energy, level)

    def efficiency_vs_sgmf(self, level: str = "system") -> Optional[float]:
        if self.sgmf_energy is None:
            return None
        return getattr(self.sgmf_energy, level) / getattr(self.vgiw_energy, level)

    @property
    def sgmf_mappable(self) -> bool:
        return self.sgmf is not None


def _resolve_options(scale: Optional[str],
                     options: Optional[RunOptions]) -> RunOptions:
    """Shared front door of ``run_kernel`` / ``run_suite``: ``scale``
    stays first-class and composes with ``options`` only when it does
    not conflict."""
    if options is None:
        return RunOptions() if scale is None else RunOptions(scale=scale)
    if scale is not None and scale != options.scale:
        raise TypeError(
            f"scale={scale!r} conflicts with options.scale="
            f"{options.scale!r}; set it on the RunOptions"
        )
    return options


def run_kernel(
    name: str,
    scale: Optional[str] = None,
    options: Optional[RunOptions] = None,
) -> KernelRun:
    """Run one registry workload on all three machines.

    The execution options travel in one :class:`RunOptions` value
    object (``options=``); ``scale`` stays first-class.  See
    ``docs/api.md`` for the field-by-field reference.

    Option semantics: ``watchdog`` arms the forward-progress watchdog
    in every simulator; ``faults`` threads a (single-run) fault
    injector through them.  ``tracer`` / ``metrics`` (see
    :mod:`repro.obs`) are shared by the three machines — engines write
    to distinct trace ``pid`` lanes and metric scopes, so one export
    carries the whole cross-machine comparison.  ``cache`` (a
    :class:`repro.compiler.CompileCache`) memoises the per-kernel pure
    computations — the optimisation pipeline, VGIW place & route, the
    SGMF whole-kernel mapping, the Fermi CFG analyses — across runs
    (``run_suite`` threads one through the whole sweep).  ``timeout``
    bounds the run in host wall-clock seconds.  Suite-only fields
    (``retry``, ``isolate``, ``inject``, ``jobs``, ``trace_path``) are
    ignored here.  Everything defaults to off, so the measurement path is
    unchanged.
    """
    o = _resolve_options(scale, options)
    cache = o.cache
    rcache = _resolve_result_cache(o)
    # Beyond the shared bypass policy, a caller-supplied tracer/metrics
    # registry expects to receive this run's events, so it is not
    # answered from the cache either.
    if (rcache is None or o.tracer is not None or o.metrics is not None
            or ResultCache.bypasses(name, o)):
        with wall_clock_limit(o.timeout, sim="run_kernel", kernel=name):
            return _execute_kernel(name, o, cache)
    key = ResultCache.key_for(name, o)
    entry = rcache.get(key)
    if entry is not None:
        if rcache.should_validate(key, o.validate_cache_fraction,
                                  o.validate_cache_seed):
            with wall_clock_limit(o.timeout, sim="run_kernel", kernel=name):
                fresh = _execute_kernel(name, o, cache)
            rcache.validate(key, entry, fresh)
        return entry.run
    with wall_clock_limit(o.timeout, sim="run_kernel", kernel=name):
        run = _execute_kernel(name, o, cache)
    rcache.put(key, name, run)
    return run


def _resolve_result_cache(o: RunOptions) -> Optional[ResultCache]:
    """The run's :class:`ResultCache`: an explicit ``result_cache``
    wins, else a fresh disk-backed one is built from
    ``result_cache_dir``, else none."""
    if o.result_cache is not None:
        return o.result_cache
    if o.result_cache_dir is not None:
        return ResultCache(o.result_cache_dir)
    return None


def _execute_kernel(name: str, o: RunOptions,
                    cache: Optional[CompileCache]) -> KernelRun:
    """The measurement path proper: one workload, three machines.

    Takes a fully-resolved :class:`RunOptions` (no adapter, no
    wall-clock guard — ``_run_one`` and ``repro.serve`` arm their own,
    per attempt)."""
    t0 = time.monotonic()
    workload = make_workload(name, o.scale)
    tracer, metrics = o.tracer, o.metrics
    if o.optimize:
        kernel = cached_optimize_kernel(
            workload.kernel, params=workload.params, cache=cache
        )
        # SGMF's compiler must conserve fabric capacity, so it keeps
        # loops rolled; Fermi and VGIW get the fully optimised kernel.
        sgmf_kernel = cached_optimize_kernel(
            workload.kernel, params=workload.params, unroll=False,
            cache=cache,
        )
    else:
        kernel = sgmf_kernel = workload.kernel
    compile_s = time.monotonic() - t0

    golden = None
    if o.verify:
        golden = workload.memory.clone()
        interpret(kernel, golden, workload.params, workload.n_threads)

    def check(mem, arch: str) -> None:
        if golden is not None and not np.array_equal(mem.data, golden.data):
            bad = int(np.count_nonzero(mem.data != golden.data))
            raise VerificationError(
                f"{arch} final memory diverges from the interpreter "
                f"for {name}",
                kernel=name, arch=arch, words_diverged=bad,
            )

    mem_f = workload.memory.clone()
    fermi = FermiSM(o.fermi_config).run(
        kernel, mem_f, workload.params, workload.n_threads,
        watchdog=o.watchdog, faults=o.faults, tracer=tracer,
        metrics=metrics, compile_cache=cache,
    )
    check(mem_f, "Fermi")

    mem_v = workload.memory.clone()
    vgiw = VGIWCore(o.vgiw_config).run(
        kernel, mem_v, workload.params, workload.n_threads, profile=True,
        watchdog=o.watchdog, faults=o.faults, tracer=tracer,
        metrics=metrics, compile_cache=cache,
    )
    check(mem_v, "VGIW")

    sgmf: Optional[SGMFRunResult] = None
    sgmf_bd: Optional[EnergyBreakdown] = None
    try:
        mem_s = workload.memory.clone()
        sgmf = SGMFCore(o.sgmf_config).run(
            sgmf_kernel, mem_s, workload.params, workload.n_threads,
            watchdog=o.watchdog, faults=o.faults, tracer=tracer,
            metrics=metrics, compile_cache=cache,
        )
        check(mem_s, "SGMF")
        sgmf_bd = energy_sgmf(sgmf)
    except SGMFUnmappableError:
        pass

    return KernelRun(
        name=name,
        app=workload.app,
        n_threads=workload.n_threads,
        n_blocks=vgiw.n_blocks,
        fermi=fermi,
        vgiw=vgiw,
        sgmf=sgmf,
        fermi_energy=energy_fermi(fermi),
        vgiw_energy=energy_vgiw(vgiw),
        sgmf_energy=sgmf_bd,
        trace=tracer,
        metrics=metrics,
        compile_s=compile_s,
    )


class SuiteResult(Mapping):
    """Suite results plus degraded rows.

    Behaves exactly like the historical ``Dict[str, KernelRun]`` over
    the *healthy* runs (iteration, ``len``, ``[]``, ``.items()``, ...),
    so every experiment generator and archived analysis keeps working.
    Failed kernels live in ``.failures`` (name →
    :class:`~repro.resilience.KernelFailure`).
    """

    def __init__(self, runs: Dict[str, KernelRun],
                 failures: Optional[Dict[str, KernelFailure]] = None):
        self.runs: Dict[str, KernelRun] = dict(runs)
        self.failures: Dict[str, KernelFailure] = dict(failures or {})

    # -- Mapping protocol over the healthy runs -------------------------
    def __getitem__(self, name: str) -> KernelRun:
        return self.runs[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __repr__(self) -> str:
        return (f"SuiteResult({len(self.runs)} ok, "
                f"{len(self.failures)} degraded)")

    # -- degraded-row accessors -----------------------------------------
    @property
    def ok(self) -> bool:
        """True when no kernel was degraded."""
        return not self.failures

    @property
    def degraded(self) -> List[str]:
        """Names of the kernels reported as degraded rows."""
        return sorted(self.failures)

    def failure_logs(self) -> Dict[str, List[dict]]:
        """Structured per-kernel failure logs (what the report embeds)."""
        return {name: f.failure_log for name, f in self.failures.items()}


def _run_one(
    name: str,
    opts: RunOptions,
    cache: Optional[CompileCache],
    rcache: Optional[ResultCache] = None,
) -> Tuple[Optional[KernelRun], Optional[KernelFailure]]:
    """One kernel of a sweep, with PR 1's retry/degraded-row machinery.

    ``opts`` is the sweep's resolved :class:`RunOptions` with the
    per-kernel tracer/metrics already substituted in (``opts.retry``
    must be materialised); the kernel's fault campaign, if any, is
    ``opts.inject[name]``.  Returns ``(run, None)`` on success or
    ``(None, failure)`` when the kernel exhausted its retries; the
    failure carries the attempts' registries.  With
    ``opts.isolate=False`` the first failure propagates (the historical
    behaviour).  ``opts.timeout`` bounds each attempt in host
    wall-clock seconds via :func:`~repro.resilience.wall_clock_limit`;
    the resulting ``SimulationHangError`` flows through the same retry
    machinery as a watchdog hang.  Shared verbatim by the serial loop
    and the :mod:`repro.serve` worker (which runs ``--jobs`` sweeps) so
    the paths cannot drift.

    ``rcache`` arms the result-cache short circuit: a hit returns the
    stored run (its attached per-kernel tracer/metrics replay the
    observability) without executing; a successful miss is stored.
    Runs :meth:`ResultCache.bypasses` names skip the cache.  Only
    healthy runs are cached: degraded rows always re-execute.  A
    sampled fraction of hits (``opts.validate_cache_fraction``) is
    re-executed and compared against the cached digest; divergence
    raises :class:`~repro.resilience.ResultCacheDivergenceError` *out
    of* the retry machinery — it must abort the sweep, not degrade a
    row.
    """
    if rcache is not None and not ResultCache.bypasses(name, opts):
        key = ResultCache.key_for(name, opts)
        entry = rcache.get(key)
        if entry is not None:
            if rcache.should_validate(key, opts.validate_cache_fraction,
                                      opts.validate_cache_seed):
                fresh_run, _ = _run_one(name, opts, cache)
                rcache.validate(key, entry, fresh_run)
            return entry.run, None
        run, failure = _run_one(name, opts, cache)
        if failure is None:
            rcache.put(key, name, run)
        return run, failure

    spec = (opts.inject or {}).get(name)
    retry = opts.retry
    if not opts.isolate:
        injector = FaultInjector(spec) if spec is not None else None
        with wall_clock_limit(opts.timeout, sim="suite", kernel=name):
            run = _execute_kernel(name, opts.replace(faults=injector), cache)
        return run, None

    attempts: List[AttemptRecord] = []
    for attempt in range(max(1, retry.max_attempts)):
        injector = (
            FaultInjector(spec.reseeded(retry.seed_delta(attempt)))
            if spec is not None else None
        )
        wd = retry.budget_for(opts.watchdog, attempt)
        try:
            with wall_clock_limit(opts.timeout, sim="suite", kernel=name):
                run = _execute_kernel(
                    name, opts.replace(faults=injector, watchdog=wd), cache)
            return run, None
        except ReproError as exc:
            attempts.append(
                AttemptRecord.from_error(attempt, exc, injector, wd))
        except Exception as exc:  # noqa: BLE001 — isolation boundary
            # Anything non-ReproError is a harness bug, but the sweep
            # must still finish; record it as a degraded row too.
            attempts.append(
                AttemptRecord.from_error(attempt, exc, injector, wd))
    failure = KernelFailure.from_attempts(name, attempts)
    failure.trace, failure.metrics = opts.tracer, opts.metrics
    return None, failure


def trace_file_for(base: str, kernel_name: str) -> str:
    """Per-kernel trace path: ``report.json`` + ``nn/nearest`` →
    ``report.nn_nearest.json`` (slashes sanitised; documented in
    ``docs/observability.md``)."""
    safe = kernel_name.replace("/", "_")
    root, ext = os.path.splitext(base)
    if not ext:
        ext = ".json"
    return f"{root}.{safe}{ext}"


def _run_on_service(names: List[str], o: RunOptions, cache: CompileCache,
                    rcache: Optional[ResultCache]):
    """``run_suite(jobs > 1)``: the sweep as a client of
    :class:`repro.serve.ExecutionService` with ``jobs`` workers.

    One request per kernel, waited on in input order.  The service
    owns the pool and its crash recovery (blame, requeue, crash budget
    ``retry.max_attempts``, respawn); it answers result-cache hits at
    admission and records each kernel's tracer/metrics in a fresh
    registry returned on the response.  With ``isolate=False`` the
    first failure in input order is raised with its original type (a
    worker death as :class:`~repro.resilience.WorkerCrashError`, never
    requeued); a result-cache divergence is raised either way.  The
    workers' compile-cache counters are folded into ``cache``.

    Returns ``{name: (run, failure)}``.
    """
    # repro.serve imports this module; import it at call time.
    from repro.serve import ExecutionService, SubmitRequest

    want_trace = o.trace_path is not None or o.tracer is not None
    request_opts = o.replace(tracer=Tracer() if want_trace else None,
                             cache=None, faults=None, result_cache=None)
    service = ExecutionService(
        workers=o.jobs, queue_limit=max(1, len(names)),
        crash_budget=o.retry.max_attempts if o.isolate else 1,
        result_cache=rcache,
        validate_cache_fraction=o.validate_cache_fraction,
        validate_cache_seed=o.validate_cache_seed,
    ).start()
    outcomes = {}
    try:
        tickets = [service.submit(SubmitRequest(name, request_opts,
                                                want_run=True))
                   for name in names]
        for name, ticket in zip(names, tickets):
            response = service.wait(ticket)
            failure = response.failure
            if failure is None and not response.ok:  # rejected
                failure = KernelFailure(name, response.error_type,
                                        response.error)
            if failure is not None and (
                    not o.isolate
                    or isinstance(failure.error, ResultCacheDivergenceError)):
                raise failure.error or ReproError(failure.message,
                                                  kernel=name)
            outcomes[name] = (response.run, failure)
    finally:
        service.stop(drain=False)
    cache.merge_stats(service.cache_stats)
    return outcomes


def run_suite(
    names: Optional[Iterable[str]] = None,
    scale: Optional[str] = None,
    options: Optional[RunOptions] = None,
) -> SuiteResult:
    """Run the whole Table 2 suite (the data behind every figure).

    Execution options travel in one :class:`RunOptions` value object
    (``options=``); ``scale`` stays first-class.

    Options (``RunOptions`` fields)
    -------------------------------
    isolate:
        When True (default) a failing kernel is retried per ``retry``
        and, if still failing, reported as a degraded row instead of
        aborting the sweep.  When False the first failure propagates
        (the historical behaviour).
    watchdog:
        Optional :class:`~repro.resilience.WatchdogConfig` armed in all
        three simulators for every kernel.
    retry:
        Bounded-retry policy; defaults to :class:`RetryPolicy()` (two
        attempts, halved watchdog budget, seed shifted by 1009).  Its
        ``max_attempts`` also bounds the worker-crash requeue budget
        under ``jobs > 1``.
    inject:
        Optional per-kernel fault campaigns: ``{name: FaultSpec}``.
        Kernels absent from the mapping run fault-free.
    tracer / metrics:
        Optional shared :class:`repro.obs.Tracer` /
        :class:`repro.obs.Metrics` threaded through every kernel on
        every machine (``--trace`` / ``--metrics`` on the CLI).  Under
        ``jobs > 1`` (and whenever a result cache is armed) each kernel
        records into its own registry and the parent merges them back
        in kernel order, so the aggregate is independent of completion
        order.
    jobs:
        Process-pool width (``--jobs`` on the CLI).  ``1`` (default)
        runs serially in-process.  ``N > 1`` submits the kernels to a
        :class:`repro.serve.ExecutionService` with ``N`` workers;
        results are reassembled in the input name order, so reports
        are byte-identical to a serial sweep.  Fault isolation still
        applies per kernel inside each worker — a degraded kernel in
        one worker never disturbs the others — and the service
        additionally survives worker *death* (see
        :func:`_run_on_service`).
    cache:
        Compile memoisation (see :mod:`repro.compiler.cache`).  By
        default a fresh in-memory :class:`CompileCache` is created for
        the sweep; pass ``cache=`` to reuse one across sweeps.
        Hit/miss counters land in ``metrics``
        under the ``compile/`` scope.
    result_cache / result_cache_dir:
        Whole-run memoisation (``--result-cache DIR``; see
        :mod:`repro.evalharness.resultcache`).  A kernel whose content
        key — kernel IR hash, options fingerprint, input digest — was
        seen before returns the stored :class:`KernelRun` without
        executing; its per-kernel tracer/metrics replay too, so reports
        stay byte-identical to a cold sweep across ``--jobs``.  Kernels
        under a fault campaign bypass the cache, and only healthy runs
        are stored.  Counters land in ``metrics`` under the
        ``resultcache/`` scope.  This is also crash resume:
        every healthy run is stored the moment it finishes, so
        re-running a killed sweep against the same ``result_cache_dir``
        replays the finished kernels and executes only the rest.
        Degraded rows and fault-campaign kernels re-execute; they are deterministic, so the report and fault
        logs come out byte-identical.
    validate_cache_fraction / validate_cache_seed:
        Seeded trust-but-verify sampling for cache hits
        (``--validate-cache-fraction``): the selected fraction is
        re-executed and compared against the cached digest; any
        divergence raises
        :class:`~repro.resilience.ResultCacheDivergenceError` and
        aborts the sweep (never a degraded row).
    trace_path:
        Base path for per-kernel Chrome-trace files.  Each kernel gets
        its own tracer and its own file (``trace_file_for``:
        ``OUT.<kernel>.json``) so a multi-kernel sweep no longer
        overwrites one file per kernel.
    timeout:
        Per-kernel wall-clock budget in host seconds (``--timeout``).
        Each attempt is bounded by
        :func:`~repro.resilience.wall_clock_limit`; a timed-out
        attempt raises ``SimulationHangError`` into the normal
        retry/degraded-row machinery.
    """
    o = _resolve_options(scale, options)
    o = o.replace(retry=o.retry or RetryPolicy())
    names = list(names) if names is not None else all_names()
    tracer, metrics = o.tracer, o.metrics
    cache = o.cache
    if cache is None:
        cache = CompileCache()
    rcache = _resolve_result_cache(o)

    if o.jobs > 1:
        outcomes = _run_on_service(names, o, cache, rcache)
    else:
        outcomes = {}
        # With a result cache armed the serial path mirrors the
        # jobs-mode contract: per-kernel registries, merged in name
        # order at the end, so a cache hit (which replays the stored
        # registries) reproduces identical aggregate streams.
        per_kernel_obs = rcache is not None
        for name in names:
            if per_kernel_obs:
                ktracer = (Tracer() if (o.trace_path is not None
                                        or tracer is not None) else None)
                kmetrics = Metrics() if metrics is not None else None
            else:
                ktracer = Tracer() if o.trace_path is not None else tracer
                kmetrics = metrics
            outcomes[name] = _run_one(
                name, o.replace(tracer=ktracer, metrics=kmetrics), cache,
                rcache)

    # -- assemble in *input* order (not completion order): the merged
    # metrics/trace streams and the report row order are then identical
    # to a serial sweep.  A run or failure carries the kernel's own
    # registries (a cache hit's are the ones recorded at store time).
    runs: Dict[str, KernelRun] = {}
    failures: Dict[str, KernelFailure] = {}
    for name in names:
        run, failure = outcomes[name]
        if failure is not None:
            failures[name] = done = failure
        else:
            runs[name] = done = run
        if (done.metrics is not None and metrics is not None
                and done.metrics is not metrics):
            metrics.merge(done.metrics)
        if done.trace is not None:
            if o.trace_path is not None:
                done.trace.dump(trace_file_for(o.trace_path, name))
            if tracer is not None and done.trace is not tracer:
                tracer.merge(done.trace)

    cache.record_metrics(metrics)
    if rcache is not None:
        rcache.record_metrics(metrics)
    return SuiteResult(runs, failures)
