"""Request/response types of the execution service (:mod:`repro.serve`).

The serving layer speaks three small value objects:

* :class:`SubmitRequest` — *what* to run: a registry kernel name plus a
  :class:`~repro.evalharness.RunOptions` (the same consolidated options
  object ``run_kernel`` / ``run_suite`` consume).  Optional per-request
  ``deadline_s`` and a ``client`` label for attribution.
* :class:`Ticket` — the service's immediate acknowledgement of a
  submission: the request id to wait on.
* :class:`RunResponse` — the terminal outcome.  *Every* submission gets
  exactly one response; overload and failure arrive as typed degraded
  rows (``status`` of ``"rejected"`` / ``"deadline"`` / ``"degraded"``),
  never as exceptions out of the service.

Result identity
---------------

``run_kernel`` is deterministic, so a response can prove it returned
*the* result (not merely *a* result): :func:`result_digest` hashes the
engine-agnostic run summaries (cycles, memory-system counters per
machine) into a stable content digest.  A batched execution fans the
same digest out to every member request, and the digest equals the one
a serial ``run_kernel`` call with the same options produces — the CI
smoke job and ``tests/test_serve.py`` compare exactly this.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.evalharness.options import RunOptions

__all__ = [
    "LATENCY_SERIES",
    "RESPONSE_STATUSES",
    "RunResponse",
    "SubmitRequest",
    "Ticket",
    "result_digest",
]

#: Every terminal state a submission can reach.
RESPONSE_STATUSES: Tuple[str, ...] = ("ok", "cached", "degraded",
                                      "rejected", "deadline")

#: The latency series a response can feed (see :func:`latency_samples`).
LATENCY_SERIES: Tuple[str, ...] = ("total_s", "queue_s", "compile_s",
                                   "execute_s", "cached_s")


@dataclass(frozen=True)
class SubmitRequest:
    """One kernel-execution request.

    ``options`` must not carry the live objects the service owns
    (``cache``, ``faults``, ``result_cache``): it warms its own compile
    caches, and a fault campaign travels as the picklable ``inject``;
    a submission carrying one is rejected (typed response, not an
    exception).  A set ``tracer`` / ``metrics`` asks for a fresh
    per-request registry of that kind, recorded in the worker and
    returned on ``response.run``; the caller's object is never
    written to.  ``deadline_s`` is a
    relative budget in host seconds from submission: a request still
    queued when it expires is shed with status ``"deadline"``, and a
    dispatched request's execution is bounded by its remaining budget
    through :func:`~repro.resilience.wall_clock_limit`.  ``want_run``
    asks for the full :class:`~repro.evalharness.KernelRun` on the
    response (digest and summary are always included).
    """

    kernel: str
    options: RunOptions = field(default_factory=RunOptions)
    deadline_s: Optional[float] = None
    want_run: bool = False
    client: str = "anon"


@dataclass(frozen=True)
class Ticket:
    """Acknowledgement of a submission; wait on it for the response."""

    request_id: int
    kernel: str
    submitted_s: float  # wall-clock (time.time) submission stamp


@dataclass
class RunResponse:
    """The terminal outcome of one submission.

    ``status`` is one of :data:`RESPONSE_STATUSES`:

    ``"ok"``
        The kernel ran and verified; ``digest`` / ``summary`` (and
        ``run`` when requested) describe the result.
    ``"cached"``
        The result cache answered at admission — nothing was queued or
        executed.  ``digest`` / ``summary`` / ``run`` carry the stored
        result exactly as an ``"ok"`` response would (the digest equals
        the one a fresh execution produces); ``batch_id`` is ``None``
        and the timing split collapses to the (sub-millisecond)
        admission latency.
    ``"degraded"``
        The kernel was executed but failed (verification, hang, fault
        campaign, exhausted worker-crash budget...); ``failure`` is the
        :class:`~repro.resilience.KernelFailure` a sweep's degraded row
        embeds (attempts, fault logs), and ``error_type`` / ``error``
        summarise it.
    ``"rejected"``
        Admission control refused the submission (queue full, unknown
        kernel, live options fields, service stopped) — nothing ran.
    ``"deadline"``
        The request's ``deadline_s`` expired while it was still queued;
        it was shed without executing.

    The timing split (all host seconds) is ``queue_s`` (submission →
    dispatch), ``compile_s`` (the workload build and optimisation of
    the worker's one pass, :attr:`KernelRun.compile_s`), ``execute_s``
    (the rest of the worker's time; a degraded response has no
    finished run, so all of its worker time is ``execute_s``) and
    ``total_s`` (submission → response).  ``batch_id`` / ``batch_size``
    identify the coalesced execution that served this request
    (``batch_size > 1`` means the result was computed once and fanned
    out).
    """

    request_id: int
    kernel: str
    status: str
    client: str = "anon"
    digest: Optional[str] = None
    summary: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    queue_s: float = 0.0
    compile_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    batch_id: Optional[int] = None
    batch_size: int = 0
    run: Any = None  # KernelRun when want_run was set and status == "ok"
    failure: Any = None  # KernelFailure when status == "degraded"

    @property
    def ok(self) -> bool:
        """True when the response carries a valid result (a fresh
        ``"ok"`` execution or a ``"cached"`` replay of one)."""
        return self.status in ("ok", "cached")

    def identity(self) -> Dict[str, Any]:
        """The timing-independent identity row (what CI goldens hold)."""
        return {
            "kernel": self.kernel,
            "status": self.status,
            "digest": self.digest,
        }


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and other numerics for json.dumps."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)


def result_digest(run: Any) -> str:
    """Stable content digest of a :class:`~repro.evalharness.KernelRun`.

    Hashes the three engines' engine-agnostic summaries (cycles plus
    the memory-system counters) as sorted-keys JSON.  ``run_kernel`` is
    deterministic, so equal requests yield equal digests — across
    serve/serial, across batching decisions, across workers.
    """
    payload = {
        "kernel": run.name,
        "n_threads": run.n_threads,
        "fermi": run.fermi.summary(),
        "vgiw": run.vgiw.summary(),
        "sgmf": None if run.sgmf is None else run.sgmf.summary(),
    }
    blob = json.dumps(payload, sort_keys=True, default=_jsonable)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_summary(run: Any) -> Dict[str, Any]:
    """Small JSON-able summary for a response: per-engine cycles."""
    return {
        "fermi_cycles": run.fermi.cycles,
        "vgiw_cycles": run.vgiw.cycles,
        "sgmf_cycles": None if run.sgmf is None else run.sgmf.cycles,
    }


def latency_samples(response: RunResponse) -> Dict[str, float]:
    """The latency series ``response`` feeds, with its value in each.

    The one rule ``ExecutionService.stats()`` and ``LoadReport.latency``
    share: ``total_s`` counts answered requests; the ``queue_s`` /
    ``compile_s`` / ``execute_s`` split counts executed ones (``ok``,
    ``degraded``); ``cached_s`` counts cache hits.  Rejected and
    deadline-shed requests never ran and feed no series.
    """
    r = response
    if r.status == "cached":
        return {"total_s": r.total_s, "cached_s": r.total_s}
    if r.status in ("ok", "degraded"):
        return {"total_s": r.total_s, "queue_s": r.queue_s,
                "compile_s": r.compile_s, "execute_s": r.execute_s}
    return {}
