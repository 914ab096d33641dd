"""The execution service: a warm worker pool behind a batching queue.

:class:`ExecutionService` accepts :class:`~repro.serve.api.SubmitRequest`
submissions, coalesces compatible ones (same kernel, same
``RunOptions.fingerprint()``) into batches, executes each batch *once*
on a pool of persistent worker processes, and fans the result out to
every member request.  The workers stay warm: each keeps a module-level
:class:`~repro.compiler.CompileCache`, so after the first execution of
a (kernel, options) point the optimisation pipeline, VGIW place &
route, SGMF mapping and Fermi CFG analyses are all cache hits — on the
single-core hosts this simulator targets, batching + warm caches (not
parallelism) are what make the service beat a serial ``run_kernel``
loop.

Failure containment is the sweep harness's — ``run_suite(jobs > 1)``
runs on this service, so it is the one crash-tolerant pool:

* a kernel that fails *in-process* (verification, hang, fault — a
  ``RunOptions.inject`` campaign included) comes back as a
  ``"degraded"`` response carrying its
  :class:`~repro.resilience.KernelFailure`, via the same
  :func:`~repro.evalharness.runner._run_one` retry machinery serial
  sweeps use;
* a worker that dies *hard* (SIGKILL, OOM, segfault) breaks the pool —
  the dispatcher respawns it and requeues every in-flight request
  under a bounded per-request crash budget, after which the request
  degrades with :class:`~repro.resilience.WorkerCrashError`;
* overload is shed, not raised: a full queue rejects at admission, and
  a request whose ``deadline_s`` expires while queued is dropped with
  status ``"deadline"`` (a dispatched request's execution is bounded
  by its remaining budget through
  :func:`~repro.resilience.wall_clock_limit`).

One dispatcher thread decides every queued request's fate.  It sleeps
on one wake-up event — set by :meth:`ExecutionService.submit`, by each
pool future as it finishes and by :meth:`ExecutionService.stop` — for
at most the time to the earliest queued deadline.  Each wake collects
the finished batches, sheds every expired queued request, then
dispatches.

Observability: the service records every event once — counters,
queue-depth gauges, batch-size and latency histograms — into the
``serve/`` scope of one :class:`repro.obs.Metrics` registry, and
:meth:`ExecutionService.stats` is a view over that scope.  With a
:class:`repro.obs.Tracer` it emits one Chrome-trace span per request on
the ``serve`` process lane, so a load run opens directly in Perfetto.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional

from repro.compiler.cache import CompileCache
from repro.evalharness.options import RunOptions
from repro.evalharness.resultcache import ResultCache
from repro.evalharness.runner import KILL_ENV, _run_one
from repro.kernels.registry import all_names
from repro.obs import Metrics, Tracer
from repro.resilience import (
    KernelFailure,
    OptionKeyError,
    ResultCacheDivergenceError,
    RetryPolicy,
    WorkerCrashError,
)
from repro.serve.api import (
    LATENCY_SERIES,
    RESPONSE_STATUSES,
    RunResponse,
    SubmitRequest,
    Ticket,
    latency_samples,
    result_digest,
    run_summary,
)
from repro.serve.scheduler import Batch, BatchScheduler, QueueEntry

__all__ = ["ExecutionService"]


# ----------------------------------------------------------------------
# The pool worker (module top level: picklable under every start method)
# ----------------------------------------------------------------------
#: This worker process's warm compile cache.  This is the "persistent
#: worker" in persistent worker pool: the process (and this cache)
#: survives across batches, so repeat kernels skip the whole compile
#: pipeline.  Its memory tier is a bounded LRU
#: (``CompileCache.MAX_ENTRIES``), so a long-lived worker cannot grow
#: without limit.
_WARM_CACHE = CompileCache()


def _maybe_kill_for_test(name: str) -> None:
    """Honour the :data:`~repro.evalharness.runner.KILL_ENV` crash hook
    (test/CI only).

    The token file is the once-latch: whichever worker unlinks it first
    dies; every later assignment of the same kernel runs normally.
    """
    spec = os.environ.get(KILL_ENV)
    if not spec:
        return
    target, _, token = spec.partition(":")
    if target != name or not token:
        return
    try:
        os.unlink(token)
    except OSError:
        return  # token already consumed — the retry must succeed
    os.kill(os.getpid(), signal.SIGKILL)


def _serve_worker(payload):
    """Execute one batch's kernel once; ship back result + timing split.

    ``payload`` is ``(batch_id, kernel, opts, budget_s)`` where ``opts``
    is the service-resolved :class:`RunOptions` (``retry``
    materialised; ``tracer`` / ``metrics`` fresh registries or
    ``None``) and ``budget_s`` is the batch's tightest remaining
    deadline (bounds the execution through ``opts.timeout`` →
    :func:`~repro.resilience.wall_clock_limit`).

    Returns ``(batch_id, run, failure, compile_s, execute_s, digest,
    summary, cache_delta, cache_entries)`` — ``run``/``failure`` exactly
    as :func:`~repro.evalharness.runner._run_one` reports them,
    ``compile_s`` the finished run's workload build and optimisation
    (:attr:`KernelRun.compile_s`), ``execute_s`` the rest of the
    worker's time (all of it when no run finished), ``cache_delta`` the
    compile-cache counter increments this batch caused (the parent
    folds them into its aggregate), and ``cache_entries`` the ``(pid,
    entries)`` size of this worker's bounded compile cache.
    """
    (batch_id, kernel, opts, budget_s) = payload
    _maybe_kill_for_test(kernel)
    cache = _WARM_CACHE
    before = cache.stats()

    timeout = opts.timeout
    if budget_s is not None:
        timeout = budget_s if timeout is None else min(timeout, budget_s)

    t0 = time.monotonic()
    run, failure = _run_one(kernel, opts.replace(timeout=timeout), cache)
    compile_s = 0.0 if run is None else run.compile_s
    execute_s = time.monotonic() - t0 - compile_s

    digest = None if run is None else result_digest(run)
    summary = {} if run is None else run_summary(run)
    after = cache.stats()
    cache_delta = {k: after[k] - before.get(k, 0)
                   for k in after if k != "entries"}
    return (batch_id, run, failure, compile_s, execute_s, digest,
            summary, cache_delta, (os.getpid(), after["entries"]))


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class ExecutionService:
    """Batched multi-device execution service (see module docstring).

    Parameters
    ----------
    workers:
        Worker-process pool width (also the in-flight batch bound).
    policy:
        Batch dispatch order: ``"fifo"`` or ``"sjf"``
        (:mod:`repro.serve.scheduler`).
    queue_limit:
        Admission bound; a submission past it is *rejected* (typed
        response), never queued unboundedly.
    crash_budget:
        How many worker crashes one request may survive (requeues)
        before degrading with :class:`WorkerCrashError`.
    result_cache:
        Arm the content-addressed result cache
        (:class:`repro.evalharness.ResultCache`; pass
        ``ResultCache(directory)`` for a disk-backed one, or share one
        live cache across services): a request whose content key —
        kernel IR hash, options fingerprint, input digest — was
        answered before is completed *at admission* with status
        ``"cached"``, never touching the queue or the worker pool;
        every batch completion populates the cache.  Trust-but-verify
        sampling is per request: the hits a request's
        ``RunOptions.validate_cache_fraction`` selects (seeded,
        deterministic) are *not* short-circuited — they execute
        normally and the fresh digest is compared against the cached
        one.  A match counts as a validation; a mismatch degrades the
        response with ``ResultCacheDivergenceError`` and bumps the
        ``divergences`` counter (the service's typed-response contract
        holds even for this hard failure).
    retention_limit:
        Bound on responses held for pickup.  :meth:`wait` *consumes*
        its response; a response never picked up is evicted LRU-first
        past this bound (``evicted`` counter), after which its ticket
        is unknown.  :meth:`result` stays a non-consuming peek.
    tracer / metrics:
        Optional :class:`repro.obs.Tracer` / :class:`repro.obs.Metrics`
        (default: a fresh ``Metrics()``); the service records into the
        ``serve/`` metric scope, which :meth:`stats` reads back (a
        registry shared by two services reports their sum), and one
        trace span per request; when the result cache is armed,
        :meth:`stop` adds what it counted meanwhile to the
        ``resultcache/`` scope.  (These are the service's own
        registries; a request's ``RunOptions.tracer`` / ``metrics``
        only asks for a per-request registry on ``response.run``.)

    Use as a context manager, or call :meth:`start` / :meth:`stop`::

        with ExecutionService(workers=2) as svc:
            t = svc.submit(SubmitRequest("nn/euclid",
                                         RunOptions(scale="tiny")))
            resp = svc.wait(t)
    """

    def __init__(self, workers: int = 2, policy: str = "fifo",
                 queue_limit: int = 64, crash_budget: int = 2,
                 result_cache: Optional[ResultCache] = None,
                 retention_limit: int = 1024, tracer=None,
                 metrics=None):
        self.workers = max(1, int(workers))
        self.scheduler = BatchScheduler(policy=policy,
                                        queue_limit=queue_limit)
        self.crash_budget = max(1, int(crash_budget))
        self.result_cache = result_cache
        self.retention_limit = max(1, int(retention_limit))
        self.tracer = tracer
        self.metrics = Metrics() if metrics is None else metrics
        self._scope = self.metrics.scope("serve")
        #: result-cache counters at start(), published as a delta by stop()
        self._rcache_base: Optional[Dict[str, int]] = None
        self._known = frozenset(all_names(include_extras=True))

        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: landed responses awaiting pickup, oldest first (bounded by
        #: ``retention_limit``; wait() pops, result() peeks)
        self._responses: "OrderedDict[int, RunResponse]" = OrderedDict()
        self._events: Dict[int, threading.Event] = {}

        self._running = False
        self._stopping = threading.Event()
        #: the dispatcher's one wake-up: set by submit, by each pool
        #: future as it finishes, and by stop
        self._wake = threading.Event()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._t0_mono = 0.0

        self.cache_stats: Dict[str, int] = {}
        #: latest compile-cache size per live worker pid
        self._cache_entries: Dict[int, int] = {}

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ExecutionService":
        if self._running:
            return self
        self._stopping.clear()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._cache_entries.clear()
        if self.result_cache is not None:
            self._rcache_base = self.result_cache.stats()
        self._t0_mono = time.monotonic()
        self._running = True
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the service.  ``drain=True`` (default) finishes every
        queued and in-flight request first; ``drain=False`` sheds the
        queue as ``"rejected"`` and finishes only the in-flight work."""
        if not self._running:
            return
        if not drain:
            while True:
                batch = self.scheduler.next_batch()
                if batch is None:
                    break
                for entry in batch.entries:
                    self._finish(entry, RunResponse(
                        request_id=entry.ticket.request_id,
                        kernel=entry.request.kernel, status="rejected",
                        client=entry.request.client,
                        error="service is stopping",
                        error_type="ServiceStopped"))
        self._stopping.set()
        self._wake.set()
        if self._dispatcher is not None:
            self._dispatcher.join()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if self.result_cache is not None:
            self.result_cache.record_metrics(self.metrics,
                                             since=self._rcache_base)
        self._running = False

    def __enter__(self) -> "ExecutionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client surface -------------------------------------------------
    def submit(self, request: SubmitRequest) -> Ticket:
        """Admit one request.  Always returns a :class:`Ticket`;
        admission failures surface as an (immediately available)
        ``"rejected"`` response, never an exception."""
        rid = next(self._ids)
        ticket = Ticket(rid, request.kernel, time.time())
        with self._lock:
            self._events[rid] = threading.Event()
            self._scope.inc("requests_submitted")

        def reject(message: str, error_type: str) -> Ticket:
            self._finish(None, RunResponse(
                request_id=rid, kernel=request.kernel, status="rejected",
                client=request.client, error=message,
                error_type=error_type))
            return ticket

        # The service owns the caches; a tracer/metrics field only asks
        # for a registry.
        owned = [n for n in request.options.live_fields_set()
                 if n not in ("tracer", "metrics")]
        if owned:
            return reject(
                f"options carry live object fields ({', '.join(owned)}); "
                f"the service owns its own caches",
                "LiveOptionsError")
        if request.kernel not in self._known:
            return reject(f"unknown kernel {request.kernel!r}",
                          "UnknownKernelError")
        if not self._running or self._stopping.is_set():
            return reject("service is not accepting submissions",
                          "ServiceStopped")

        # A set tracer/metrics asks for a per-request registry: a fresh
        # one (the caller's object is never pickled or written to).
        options = request.options
        opts = options.replace(
            retry=options.retry or RetryPolicy(),
            tracer=None if options.tracer is None else Tracer(),
            metrics=None if options.metrics is None else Metrics(),
        )
        try:
            fingerprint = opts.fingerprint()
        except OptionKeyError as exc:
            # An unkeyable config can neither batch nor cache; keep the
            # typed-response contract instead of raising at the caller.
            return reject(str(exc), "OptionKeyError")

        cache_key = cached = None
        admit_mono = time.monotonic()
        if self.result_cache is not None:
            cache_key, cached, recheck = self.result_cache.lookup(
                request.kernel, opts)
            if cached is not None and not recheck:
                run = cached.run
                self._finish(None, RunResponse(
                    request_id=rid, kernel=request.kernel,
                    status="cached", client=request.client,
                    digest=cached.digest, summary=run_summary(run),
                    run=run if request.want_run else None,
                    total_s=time.monotonic() - admit_mono))
                return ticket
            # A rechecked hit executes normally; the fresh run is
            # validated against it when its batch completes.
        now = time.monotonic()
        entry = QueueEntry(
            request=request, ticket=ticket,
            key=(request.kernel, fingerprint, opts.tracer is not None,
                 opts.metrics is not None),
            opts=opts, enqueued_mono=now,
            deadline_mono=(None if request.deadline_s is None
                           else now + request.deadline_s),
            crash_budget=self.crash_budget,
            cache_key=cache_key, cached=cached,
        )
        if not self.scheduler.offer(entry):
            return reject(
                f"queue full (limit {self.scheduler.queue_limit})",
                "QueueFullError")
        self._wake.set()
        self._scope.gauge("queue_depth", self.scheduler.depth())
        return ticket

    def wait(self, ticket: Ticket,
             timeout: Optional[float] = None) -> Optional[RunResponse]:
        """Block until ``ticket``'s response lands, then *consume* it;
        ``None`` on timeout.

        Pickup evicts the response from the retention map — each ticket
        is waited at most once (a second ``wait`` raises ``KeyError``,
        as does a ticket whose un-picked-up response aged past
        ``retention_limit``).  Waiting changes nothing else: the
        dispatcher sheds an expired queued request whether or not
        anyone waits on it.
        """
        rid = ticket.request_id
        with self._lock:
            event = self._events.get(rid)
        if event is None:
            raise KeyError(
                f"unknown ticket {rid} (never submitted, already "
                f"picked up, or evicted past the retention limit)")
        if not event.wait(timeout):
            return None
        with self._lock:
            self._events.pop(rid, None)
            return self._responses.pop(rid, None)

    def result(self, ticket: Ticket) -> Optional[RunResponse]:
        """Non-consuming peek: the response if it landed and has not
        been picked up by :meth:`wait` (or evicted), else ``None``."""
        with self._lock:
            return self._responses.get(ticket.request_id)

    # -- dispatcher -----------------------------------------------------
    def _dispatch_loop(self) -> None:
        """Each wake: collect finished batches, shed expired queued
        requests, dispatch; then sleep until the next wake-up or the
        earliest queued deadline."""
        in_flight: Dict[Any, Batch] = {}
        wake = self._wake
        while True:
            wake.clear()
            crashed: List[Batch] = []
            for future in [f for f in in_flight if f.done()]:
                batch = in_flight.pop(future)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    crashed.append(batch)
                except Exception as exc:  # noqa: BLE001 — typed rows
                    self._finish_batch_error(batch, exc)
                else:
                    self._finish_batch(batch, payload)
            if crashed:
                # The executor is broken: every other in-flight future
                # is poisoned too.  Blame them all.
                crashed.extend(in_flight.values())
                in_flight.clear()
                self._recover(crashed)

            now = time.monotonic()
            expired, soonest = self.scheduler.pop_expired(now)
            for entry in expired:
                self._finish_deadline(entry, now)

            while len(in_flight) < self.workers:
                batch = self.scheduler.next_batch()
                if batch is None:
                    break
                self._dispatch(in_flight, batch)
            if (not in_flight and self._stopping.is_set()
                    and self.scheduler.depth() == 0):
                return
            wake.wait(None if soonest is None
                      else max(0.0, soonest - time.monotonic()))

    def _finish_deadline(self, entry: QueueEntry, now: float) -> None:
        """Complete one still-queued entry as ``"deadline"``."""
        waited = now - entry.enqueued_mono
        self._finish(entry, RunResponse(
            request_id=entry.ticket.request_id,
            kernel=entry.request.kernel, status="deadline",
            client=entry.request.client,
            error=(f"deadline of {entry.request.deadline_s:.3f}s "
                   f"expired after {waited:.3f}s in queue"),
            error_type="DeadlineExceeded",
            queue_s=waited, total_s=waited))

    def _dispatch(self, in_flight: Dict[Any, Batch], batch: Batch) -> None:
        batch.dispatch_mono = time.monotonic()
        budgets = [e.deadline_mono - batch.dispatch_mono
                   for e in batch.entries if e.deadline_mono is not None]
        budget_s = max(0.001, min(budgets)) if budgets else None
        opts: RunOptions = batch.entries[0].opts
        future = self._pool.submit(
            _serve_worker, (batch.batch_id, batch.kernel, opts, budget_s))
        future.add_done_callback(lambda _: self._wake.set())
        in_flight[future] = batch
        with self._lock:
            self._scope.observe("batch_size", len(batch.entries))
        self._scope.gauge("queue_depth", self.scheduler.depth())
        self._scope.gauge("in_flight", len(in_flight))

    def _finish_batch(self, batch: Batch, payload) -> None:
        (_, run, failure, compile_s, execute_s, digest, summary,
         cache_delta, (pid, entries)) = payload
        now = time.monotonic()
        self.scheduler.observe(batch.key, execute_s)
        for k, v in cache_delta.items():
            self.cache_stats[k] = self.cache_stats.get(k, 0) + v
        self._cache_entries[pid] = entries
        # One healthy execution populates the result cache for every
        # entry in the batch (they share one content key, so one store
        # answers all future equals at admission).
        stored_key = batch.entries[0].cache_key if batch.entries else None
        if failure is None and stored_key is not None:
            self.result_cache.put(stored_key, batch.kernel, run)
        for entry in batch.entries:
            request: SubmitRequest = entry.request
            outcome = failure
            if entry.cached is not None:
                # Trust-but-verify: a divergence is a typed degraded
                # response (the service never raises), loudly counted.
                try:
                    self.result_cache.validate(entry.cache_key,
                                               entry.cached, run)
                except ResultCacheDivergenceError as exc:
                    outcome = KernelFailure.from_error(batch.kernel, exc)
            if outcome is None:
                response = RunResponse(
                    request_id=entry.ticket.request_id,
                    kernel=request.kernel, status="ok",
                    client=request.client, digest=digest,
                    summary=dict(summary),
                    run=run if request.want_run else None)
            else:
                response = self._degraded(entry, outcome)
            response.queue_s = batch.dispatch_mono - entry.enqueued_mono
            response.compile_s = compile_s
            response.execute_s = execute_s
            response.total_s = now - entry.enqueued_mono
            response.batch_id = batch.batch_id
            response.batch_size = len(batch.entries)
            self._finish(entry, response)

    @staticmethod
    def _degraded(entry: QueueEntry, failure: KernelFailure,
                  **timing) -> RunResponse:
        return RunResponse(
            request_id=entry.ticket.request_id,
            kernel=entry.request.kernel, status="degraded",
            client=entry.request.client, error=failure.message,
            error_type=failure.error_type, failure=failure, **timing)

    def _finish_batch_error(self, batch: Batch, exc: Exception) -> None:
        """The worker raised instead of reporting — a request with
        ``isolate=False``, or a harness bug: degrade the batch's
        requests rather than killing the service."""
        now = time.monotonic()
        failure = KernelFailure.from_error(batch.kernel, exc)
        for entry in batch.entries:
            self._finish(entry, self._degraded(
                entry, failure,
                queue_s=batch.dispatch_mono - entry.enqueued_mono,
                total_s=now - entry.enqueued_mono,
                batch_id=batch.batch_id, batch_size=len(batch.entries)))

    def _recover(self, batches: List[Batch]) -> None:
        """Worker died hard: respawn the pool, requeue the in-flight
        requests under their crash budgets.  The sweep's ``--jobs``
        path runs on this, so it is the only crash recovery."""
        with self._lock:
            self._scope.inc("worker_crashes")
        self._pool.shutdown(wait=False)
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._cache_entries.clear()
        requeue: List[QueueEntry] = []
        now = time.monotonic()
        for batch in batches:
            for entry in batch.entries:
                entry.crash_budget -= 1
                if entry.crash_budget > 0:
                    requeue.append(entry)
                    continue
                # One attempt record per crash the request survived.
                exc = WorkerCrashError(
                    "worker process died (SIGKILL/OOM/segfault) while "
                    "this kernel was in flight",
                    kernel=entry.request.kernel)
                self._finish(entry, self._degraded(
                    entry, KernelFailure.from_error(
                        entry.request.kernel, exc, self.crash_budget),
                    queue_s=batch.dispatch_mono - entry.enqueued_mono,
                    total_s=now - entry.enqueued_mono,
                    batch_id=batch.batch_id))
        self.scheduler.requeue(requeue)

    # -- completion -----------------------------------------------------
    def _finish(self, entry: Optional[QueueEntry],
                response: RunResponse) -> None:
        if self.tracer is not None and entry is not None:
            # One span per request on the "serve" lane, in µs since
            # service start (the native Chrome-trace time base).
            start_us = (entry.enqueued_mono - self._t0_mono) * 1e6
            self.tracer.complete(
                f"{response.kernel} #{response.request_id}", "serve",
                start_us, response.total_s * 1e6, pid="serve",
                tid=0, status=response.status,
                batch=response.batch_id, client=response.client)
        with self._lock:
            self._scope.inc(f"requests_{response.status}")
            for series, value in latency_samples(response).items():
                self._scope.observe(series, value)
            self._responses[response.request_id] = response
            event = self._events.get(response.request_id)
            # Bounded retention: responses nobody picks up age out
            # LRU-first (landed order) once past the cap, events too —
            # a long-lived service no longer leaks one response per
            # request forever.
            while len(self._responses) > self.retention_limit:
                old_rid, _ = self._responses.popitem(last=False)
                self._events.pop(old_rid, None)
                self._scope.inc("responses_evicted")
        if event is not None:
            event.set()

    # -- reporting ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-able service report (counts, batching, latency split),
        read from the ``serve/`` scope of :attr:`metrics`."""
        scope = self._scope
        with self._lock:
            requests = {status: scope.value(f"requests_{status}", 0)
                        for status in ("submitted",) + RESPONSE_STATUSES}
            sizes = scope.histogram("batch_size")
            latency = {name: scope.histogram(name).as_dict()
                       for name in LATENCY_SERIES}
            held = len(self._responses)
            evicted = scope.value("responses_evicted", 0)
            crashes = scope.value("worker_crashes", 0)
        uptime = (time.monotonic() - self._t0_mono) if self._t0_mono else 0.0
        completed = sum(requests[s] for s in RESPONSE_STATUSES)
        report = {
            "workers": self.workers,
            "policy": self.scheduler.policy,
            "uptime_s": uptime,
            "requests": requests,
            "throughput_rps": (completed / uptime) if uptime > 0 else 0.0,
            "batches": {
                "count": sizes.count,
                "batched_requests": int(sizes.total),
                "mean_size": sizes.mean,
                "max_size": int(sizes.max or 0),
            },
            "queue": {
                "limit": self.scheduler.queue_limit,
                "peak_depth": self.scheduler.peak_depth,
            },
            "latency": latency,
            "retention": {
                "limit": self.retention_limit,
                "held": held,
                "evicted": evicted,
            },
            "worker_crashes": crashes,
            "compile_cache": dict(
                self.cache_stats,
                entries=sum(self._cache_entries.values())),
        }
        if self.result_cache is not None:
            report["result_cache"] = self.result_cache.stats()
        return report
