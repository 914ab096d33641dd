"""Concurrent-safety tests for the batched execution service.

The contracts under test (``docs/serving.md``):

* N seeded clients against a 2-worker pool get results byte-identical
  (per-request digests) to serial ``run_kernel`` calls;
* overload surfaces as *typed responses* — ``"rejected"``
  (queue full / unknown kernel / live options) and ``"deadline"`` —
  never as exceptions;
* a worker SIGKILLed mid-batch is respawned and the in-flight requests
  requeued and completed (same recovery contract as ``run_suite
  --jobs``).
"""

import json
import os

import pytest

import repro.serve.service as service_mod
from repro.arch import FabricSpec, UnitKind, VGIWConfig
from repro.compiler import CompileCache
from repro.evalharness import ResultCache, RunOptions, run_kernel, run_suite
from repro.evalharness.runner import KILL_ENV
from repro.obs import Metrics, Tracer
from repro.resilience import FaultSpec
from repro.serve import (
    BatchScheduler,
    ExecutionService,
    LoadGen,
    LoadReport,
    SubmitRequest,
    result_digest,
)

TINY = RunOptions(scale="tiny")
KERNELS = ["nn/euclid", "gaussian/Fan1", "hotspot/hotspot_kernel"]


# ----------------------------------------------------------------------
# Determinism: serve == serial, request by request
# ----------------------------------------------------------------------
def test_seeded_clients_match_serial_digests():
    """Closed-loop seeded clients vs a 2-worker pool: every response's
    digest equals the serial ``run_kernel`` digest for that request."""
    gen = LoadGen(KERNELS, n_requests=10, options=TINY, seed=42,
                  mode="closed", concurrency=4)
    serial = {
        name: result_digest(run_kernel(name, options=TINY))
        for name in {req.kernel for req in gen.requests()}
    }
    with ExecutionService(workers=2) as svc:
        report = gen.run(svc)
    assert report.n_requests == 10
    assert len(report.responses) == 10
    for req, resp in zip(gen.requests(), report.responses):
        assert resp.status == "ok"
        assert resp.kernel == req.kernel
        assert resp.digest == serial[req.kernel]


def test_batched_requests_share_one_execution():
    """Identical requests coalesce: one batch, one digest fanned out."""
    with ExecutionService(workers=1) as svc:
        tickets = [svc.submit(SubmitRequest("nn/euclid", TINY))
                   for _ in range(5)]
        responses = [svc.wait(t, timeout=120) for t in tickets]
    digests = {r.digest for r in responses}
    assert all(r.status == "ok" for r in responses)
    assert len(digests) == 1
    # At least the tail of the stream coalesced behind the first
    # dispatch; the whole stream forms at most 2 batches.
    assert len({r.batch_id for r in responses}) <= 2
    assert max(r.batch_size for r in responses) >= 2


def test_incompatible_options_do_not_batch():
    """Different fingerprints (verify on/off) never share a batch."""
    with ExecutionService(workers=1) as svc:
        slow = svc.submit(SubmitRequest("nn/euclid",
                                        RunOptions(scale="small")))
        a = svc.submit(SubmitRequest("nn/euclid", TINY))
        b = svc.submit(SubmitRequest("nn/euclid",
                                     TINY.replace(verify=False)))
        ra = svc.wait(a, timeout=120)
        rb = svc.wait(b, timeout=120)
        svc.wait(slow, timeout=120)
    assert ra.status == rb.status == "ok"
    assert ra.batch_id != rb.batch_id


# ----------------------------------------------------------------------
# Typed degraded responses, not exceptions
# ----------------------------------------------------------------------
def test_unknown_kernel_is_rejected_not_raised():
    with ExecutionService(workers=1) as svc:
        resp = svc.wait(svc.submit(SubmitRequest("no/such", TINY)),
                        timeout=30)
    assert resp.status == "rejected"
    assert resp.error_type == "UnknownKernelError"
    assert "no/such" in resp.error


def test_live_options_fields_are_rejected():
    polluted = TINY.replace(cache=CompileCache())
    with ExecutionService(workers=1) as svc:
        resp = svc.wait(svc.submit(SubmitRequest("nn/euclid", polluted)),
                        timeout=30)
    assert resp.status == "rejected"
    assert resp.error_type == "LiveOptionsError"
    assert "cache" in resp.error


def test_tracer_and_metrics_requests_get_their_own_registries():
    """A set tracer/metrics asks for a fresh per-request registry,
    recorded in the worker and returned on ``response.run``; the
    caller's objects stay untouched, and requests of another shape do
    not coalesce with it."""
    mine = Metrics()
    observed = TINY.replace(tracer=Tracer(), metrics=mine)
    with ExecutionService(workers=1) as svc:
        tickets = [svc.submit(SubmitRequest("nn/euclid", observed,
                                            want_run=True)),
                   svc.submit(SubmitRequest("nn/euclid", TINY,
                                            want_run=True))]
        resp, plain = (svc.wait(t, timeout=120) for t in tickets)
    assert resp.status == plain.status == "ok"
    assert resp.digest == plain.digest
    assert resp.batch_id != plain.batch_id
    assert resp.run.metrics is not mine
    assert resp.run.metrics.as_dict() != Metrics().as_dict()
    assert resp.run.trace.events
    assert mine.as_dict() == Metrics().as_dict()
    assert plain.run.metrics is None and plain.run.trace is None


# ----------------------------------------------------------------------
# Fault campaigns: honoured, structured, never cached
# ----------------------------------------------------------------------
EUCLID_ABORT = TINY.replace(inject={
    "nn/euclid": FaultSpec(kind="abort", abort_after=1, seed=3)})


def test_fault_campaign_is_honoured_and_never_cached(tmp_path):
    """Regression: the worker used to drop ``inject``, answer ``"ok"``,
    and store that fault-free result under the campaign's key."""
    with ExecutionService(workers=1,
                          result_cache=ResultCache(str(tmp_path))) as svc:
        first = svc.wait(svc.submit(SubmitRequest("nn/euclid",
                                                  EUCLID_ABORT)),
                         timeout=120)
        again = svc.wait(svc.submit(SubmitRequest("nn/euclid",
                                                  EUCLID_ABORT)),
                         timeout=120)
    assert first.status == again.status == "degraded"
    assert first.error_type == "FaultInjectedError"
    assert first.failure.error_type == "FaultInjectedError"
    assert not os.listdir(tmp_path)


def test_degraded_response_failure_log_equals_serial_sweep():
    serial = run_suite(["nn/euclid"], options=EUCLID_ABORT)
    metered = EUCLID_ABORT.replace(metrics=Metrics())
    with ExecutionService(workers=1) as svc:
        resp = svc.wait(svc.submit(SubmitRequest("nn/euclid", metered)),
                        timeout=120)
    want = serial.failures["nn/euclid"].failure_log
    assert resp.failure.n_attempts == len(want) == 2
    assert json.dumps(resp.failure.failure_log, sort_keys=True) == \
        json.dumps(want, sort_keys=True)
    # The failed attempts' per-request registry rides back with it.
    assert resp.failure.metrics.value("fermi/run.threads") > 0


def test_queue_full_rejects_with_typed_response():
    """With a 1-deep queue and a busy worker, overload is shed as
    ``QueueFullError`` responses while admitted requests complete."""
    with ExecutionService(workers=1, queue_limit=1) as svc:
        blocker = svc.submit(SubmitRequest("nn/euclid",
                                           RunOptions(scale="small")))
        tickets = [svc.submit(SubmitRequest(k, TINY)) for k in KERNELS]
        responses = [svc.wait(t, timeout=120) for t in tickets]
        svc.wait(blocker, timeout=120)
    rejected = [r for r in responses if r.status == "rejected"]
    assert rejected, "expected at least one queue-full rejection"
    assert all(r.error_type == "QueueFullError" for r in rejected)
    assert all(r.status == "ok"
               for r in responses if r.status != "rejected")


def test_deadline_expired_in_queue_is_shed():
    """A request whose deadline passes while queued behind a slow batch
    is dropped with status ``"deadline"`` — without executing."""
    with ExecutionService(workers=1) as svc:
        blocker = svc.submit(SubmitRequest("nn/euclid",
                                           RunOptions(scale="small")))
        doomed = svc.submit(SubmitRequest("gaussian/Fan1", TINY,
                                          deadline_s=0.0))
        resp = svc.wait(doomed, timeout=120)
        svc.wait(blocker, timeout=120)
    assert resp.status == "deadline"
    assert resp.error_type == "DeadlineExceeded"
    assert resp.digest is None


# ----------------------------------------------------------------------
# Worker-crash recovery
# ----------------------------------------------------------------------
def test_worker_sigkill_mid_batch_recovers(tmp_path, monkeypatch):
    """A SIGKILLed worker breaks the pool; the service respawns it and
    requeues the in-flight batch, which then completes ok."""
    token = tmp_path / "kill.token"
    token.write_text("armed")
    monkeypatch.setenv(KILL_ENV, f"nn/euclid:{token}")
    want = result_digest(run_kernel("nn/euclid", options=TINY))
    with ExecutionService(workers=2, crash_budget=2) as svc:
        tickets = [svc.submit(SubmitRequest("nn/euclid", TINY))
                   for _ in range(4)]
        responses = [svc.wait(t, timeout=300) for t in tickets]
        crashes = svc.stats()["worker_crashes"]
    assert crashes >= 1
    assert not os.path.exists(token)  # the kill latch fired exactly once
    assert all(r.status == "ok" for r in responses)
    assert all(r.digest == want for r in responses)


# ----------------------------------------------------------------------
# Bounded memory in a long-lived worker
# ----------------------------------------------------------------------
def test_long_lived_worker_compile_cache_stays_bounded(monkeypatch):
    """More distinct (kernel, vgiw_config) points than the compile
    namespace's cap, pushed through one warm worker: its memory tier
    stays at or below the cap and the evictions are counted.  The pool
    forks after the warm cache is swapped for a 4-entry one, so the
    worker inherits it."""
    monkeypatch.setattr(service_mod, "_WARM_CACHE",
                        CompileCache(max_entries=4))
    counts = dict(FabricSpec().counts)
    counts[UnitKind.COMPUTE] -= 1
    counts[UnitKind.SPECIAL] += 1
    configs = [VGIWConfig(), VGIWConfig(fabric=FabricSpec(counts=counts))]
    with ExecutionService(workers=1) as svc:
        tickets = [svc.submit(SubmitRequest(
                       kernel, TINY.replace(vgiw_config=config)))
                   for kernel in KERNELS[:2] for config in configs]
        responses = [svc.wait(t, timeout=300) for t in tickets]
        stats = svc.stats()["compile_cache"]
    assert all(r.status == "ok" for r in responses)
    assert 0 < stats["entries"] <= 4
    assert stats["evictions"] > 0
    assert stats["misses"] > 4


# ----------------------------------------------------------------------
# Scheduler unit behaviour + observability wiring
# ----------------------------------------------------------------------
def test_scheduler_rejects_bad_policy():
    with pytest.raises(ValueError, match="fifo"):
        BatchScheduler(policy="lifo")


def test_fifo_scheduler_learns_nothing():
    """Only ``sjf`` reads the execution-time estimates, so ``fifo``
    keeps none (one per distinct options fingerprint otherwise)."""
    sched = BatchScheduler(policy="fifo", queue_limit=8)
    for i in range(50):
        sched.observe((f"k{i}", "f"), 1.0)
    assert sched._estimates == {}


def test_sjf_dispatches_learned_short_kernel_first():
    from repro.serve.scheduler import QueueEntry

    sched = BatchScheduler(policy="sjf", queue_limit=8)

    def entry(key):
        return QueueEntry(request=None, ticket=None, key=key, opts=None,
                          enqueued_mono=0.0, deadline_mono=None,
                          crash_budget=1)

    sched.observe(("slow", "f"), 10.0)
    sched.observe(("fast", "f"), 0.1)
    assert sched.offer(entry(("slow", "f")))
    assert sched.offer(entry(("fast", "f")))
    batch = sched.next_batch()
    assert batch.key == ("fast", "f")


def test_serve_metrics_scope_and_trace_spans():
    metrics = Metrics()
    tracer = Tracer()
    with ExecutionService(workers=1, metrics=metrics,
                          tracer=tracer) as svc:
        resp = svc.wait(svc.submit(SubmitRequest("nn/euclid", TINY)),
                        timeout=120)
    assert resp.status == "ok"
    assert metrics.value("serve/requests_submitted") == 1
    assert metrics.value("serve/requests_ok") == 1
    assert metrics.histograms["serve/batch_size"].count == 1
    hist = metrics.histograms["serve/execute_s"]
    assert hist.count == 1 and hist.total > 0
    spans = [e for e in tracer.events if e.cat == "serve"]
    assert len(spans) == 1
    assert "nn/euclid" in spans[0].name

    stats = svc.stats()
    assert stats["requests"]["ok"] == 1
    for component in ("queue_s", "compile_s", "execute_s", "total_s"):
        assert stats["latency"][component]["count"] == 1


def test_stats_is_a_view_over_the_metrics_registry():
    """``stats()`` reads the ``serve/`` scope: two services sharing one
    registry report their sum, and the batch figures are the
    ``batch_size`` histogram's exact count and total."""
    metrics = Metrics()
    for _ in range(2):
        with ExecutionService(workers=1, metrics=metrics) as svc:
            tickets = [svc.submit(SubmitRequest("nn/euclid", TINY))
                       for _ in range(3)]
            assert all(svc.wait(t, timeout=120).status == "ok"
                       for t in tickets)
    stats = svc.stats()
    sizes = metrics.histograms["serve/batch_size"]
    assert stats["requests"]["submitted"] == 6
    assert stats["requests"]["ok"] == 6
    assert stats["batches"]["count"] == sizes.count
    assert stats["batches"]["batched_requests"] == 6
    assert stats["batches"]["max_size"] == sizes.max
    assert stats["latency"]["total_s"]["count"] == 6
    assert set(stats["requests"]) == {"submitted", "ok", "cached",
                                      "degraded", "rejected", "deadline"}


def test_concurrent_submissions_lose_no_counts():
    """Client threads (more than cores) record into the one registry
    at once, with a short switch interval: no update is lost."""
    import sys
    import threading

    n_threads, per_thread = 8, 50
    with ExecutionService(workers=1) as svc:
        def client():
            for _ in range(per_thread):
                svc.wait(svc.submit(SubmitRequest("no/such", TINY)),
                         timeout=30)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client)
                       for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        stats = svc.stats()
    total = n_threads * per_thread
    assert stats["requests"]["submitted"] == total
    assert stats["requests"]["rejected"] == total


def test_rejected_requests_feed_no_latency_series():
    """Regression: rejected requests never ran and carry
    ``total_s == 0.0``; they used to be counted in ``total_s`` and pull
    its percentiles to zero.  The service and ``LoadReport`` now follow
    one rule (``latency_samples``)."""
    with ExecutionService(workers=1, queue_limit=1) as svc:
        blocker = svc.submit(SubmitRequest("nn/euclid",
                                           RunOptions(scale="small")))
        tickets = [svc.submit(SubmitRequest(k, TINY))
                   for k in KERNELS * 2]
        responses = [svc.wait(t, timeout=120) for t in tickets]
        responses.append(svc.wait(blocker, timeout=120))
        stats = svc.stats()
    answered = [r for r in responses if r.status == "ok"]
    assert len(answered) < len(responses), "expected rejections"
    assert {r.status for r in responses} <= {"ok", "rejected"}
    report = LoadReport(mode="closed", n_requests=len(responses),
                        wall_s=1.0, responses=responses)
    for name in ("total_s", "queue_s", "compile_s", "execute_s"):
        assert stats["latency"][name]["count"] == len(answered)
        assert report.latency(name).count == len(answered)
    assert stats["latency"]["total_s"]["min"] > 0.0
    assert stats["latency"]["total_s"]["p50"] == pytest.approx(
        report.latency("total_s").percentile(50))


# ----------------------------------------------------------------------
# Bounded retention + deadline shedding
# ----------------------------------------------------------------------
def test_wait_consumes_response_and_result_peeks():
    """``wait`` picks the response up exactly once; ``result`` is a
    non-consuming peek before and returns ``None`` after."""
    with ExecutionService(workers=1) as svc:
        ticket = svc.submit(SubmitRequest("nn/euclid", TINY))
        resp = svc.wait(ticket, timeout=120)
        assert resp.status == "ok"
        assert svc.result(ticket) is None  # consumed by the wait
        with pytest.raises(KeyError, match="picked up"):
            svc.wait(ticket, timeout=1)


def test_unclaimed_responses_evict_past_retention_limit():
    """Responses nobody waits for age out LRU-first at the retention
    cap instead of accumulating forever."""
    import time

    with ExecutionService(workers=1, retention_limit=2) as svc:
        tickets = [svc.submit(SubmitRequest("nn/euclid", TINY))
                   for _ in range(5)]
        deadline = time.monotonic() + 120
        while (svc.stats()["requests"]["ok"] < 5
               and time.monotonic() < deadline):
            time.sleep(0.05)
        stats = svc.stats()
        assert stats["retention"] == {"limit": 2, "held": 2,
                                      "evicted": 3}
        assert svc.result(tickets[0]) is None  # evicted, not held
        assert svc.result(tickets[-1]).status == "ok"
        with pytest.raises(KeyError, match="evicted"):
            svc.wait(tickets[0], timeout=1)


def test_dispatcher_sheds_expired_request_without_a_waiter():
    """Nobody waits on the ticket, yet an expired queued request lands
    its ``"deadline"`` response as the deadline passes: the dispatcher
    sleeps no later than the earliest queued deadline."""
    import time

    with ExecutionService(workers=1) as svc:
        blocker = svc.submit(SubmitRequest("hotspot/hotspot_kernel",
                                           RunOptions(scale="medium")))
        doomed = svc.submit(SubmitRequest("gaussian/Fan1", TINY,
                                          deadline_s=0.05))
        deadline = time.monotonic() + 10
        resp = None
        while resp is None and time.monotonic() < deadline:
            time.sleep(0.01)
            resp = svc.result(doomed)  # peek — never wait
        assert resp is not None and resp.status == "deadline"
        assert resp.total_s - 0.05 < 0.1
        blocked = svc.wait(blocker, timeout=120)
    assert blocked.status == "ok"
    assert blocked.total_s > 0.5  # the request really waited behind it


def test_pop_expired_returns_expired_entries_and_soonest_deadline():
    from repro.serve.scheduler import QueueEntry

    sched = BatchScheduler(queue_limit=8)
    entries = [QueueEntry(request=None, ticket=None, key=("k", "f"),
                          opts=None, enqueued_mono=0.0, deadline_mono=d,
                          crash_budget=1)
               for d in (5.0, None, 1.0, 3.0, 2.0)]
    for entry in entries:
        assert sched.offer(entry)
    expired, soonest = sched.pop_expired(2.5)
    assert expired == [entries[2], entries[4]]
    assert soonest == 3.0
    assert sched.depth() == 3
    assert sched.pop_expired(10.0) == ([entries[0], entries[3]], None)
    assert sched.next_batch().entries == [entries[1]]


def test_next_batch_leaves_expired_entries_for_the_shed():
    import time

    from repro.serve.scheduler import QueueEntry

    sched = BatchScheduler(queue_limit=8)
    stale, live = (QueueEntry(request=None, ticket=None, key=("k", "f"),
                              opts=None, enqueued_mono=0.0,
                              deadline_mono=d, crash_budget=1)
                   for d in (0.0, None))
    assert sched.offer(stale) and sched.offer(live)
    assert sched.next_batch().entries == [live]
    assert sched.next_batch() is None
    assert sched.pop_expired(time.monotonic()) == ([stale], None)


def test_requests_expired_at_admission_never_reach_a_worker():
    """Clients racing the dispatcher with ``deadline_s=0`` requests: a
    request admitted after the dispatcher's shed is still never
    dispatched, so no batch runs and every request is shed."""
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ExecutionService(workers=1, queue_limit=1024) as svc:
            def client():
                for _ in range(200):
                    svc.wait(svc.submit(SubmitRequest(
                        "nn/euclid", TINY, deadline_s=0.0)), timeout=60)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stats = svc.stats()
    finally:
        sys.setswitchinterval(interval)
    assert stats["requests"]["deadline"] == 800
    assert stats["batches"]["count"] == 0


def test_serve_worker_builds_the_workload_once(monkeypatch):
    """A batch runs one pass: the workload is built once, and the
    timing split is that pass's build-and-optimise prefix
    (``compile_s``) and the rest of it (``execute_s``)."""
    import dataclasses

    from repro.kernels import registry
    from repro.resilience import RetryPolicy

    entry = registry._BY_NAME["nn/euclid"]
    builds = []

    def factory(scale):
        builds.append(scale)
        return entry.factory(scale)

    monkeypatch.setitem(registry._BY_NAME, "nn/euclid",
                        dataclasses.replace(entry, factory=factory))
    monkeypatch.setattr(service_mod, "_WARM_CACHE", CompileCache())
    opts = TINY.replace(retry=RetryPolicy())
    (_, run, failure, compile_s, execute_s, digest, _, cache_delta,
     _) = service_mod._serve_worker((1, "nn/euclid", opts, None))
    assert failure is None
    assert builds == ["tiny"]
    assert compile_s == run.compile_s > 0
    assert execute_s > 0
    assert digest == result_digest(run_kernel("nn/euclid", options=TINY))
    assert cache_delta["hits"] == 0 and cache_delta["misses"] > 0
