"""Seeded load generator + throughput/latency report for the service.

Drives an :class:`~repro.serve.service.ExecutionService` with a
deterministic request stream (kernel choice drawn from
``random.Random(seed)``) in one of two classic modes:

* **closed loop** — ``concurrency`` clients, each submitting its next
  request only after its previous response lands.  Offered load adapts
  to service speed; measures best-case latency at a given concurrency.
* **open loop** — requests arrive on a fixed schedule (``rate`` per
  second) regardless of completions.  Offered load is constant, so
  queueing (and deadline shedding / queue-full rejection) appears as
  soon as the service falls behind — the honest way to measure tail
  latency under overload.

Request *identity* is deterministic either way: request ``i`` of a
given ``(seed, kernels, n_requests)`` stream always names the same
kernel, and ``run_kernel`` is deterministic, so per-request
``(kernel, status, digest)`` rows are reproducible across runs, worker
counts and batching decisions — which is exactly what the CI smoke job
goldens (``--golden-out``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.evalharness.options import RunOptions
from repro.obs import Histogram
from repro.serve.api import RunResponse, SubmitRequest, latency_samples
from repro.serve.service import ExecutionService

__all__ = ["LoadGen", "LoadReport"]


@dataclass
class LoadReport:
    """Everything a load run measured, JSON-able via :meth:`as_dict`."""

    mode: str
    n_requests: int
    wall_s: float
    responses: List[RunResponse] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for resp in self.responses:
            counts[resp.status] = counts.get(resp.status, 0) + 1
        return counts

    def latency(self, component: str = "total_s") -> Histogram:
        """One latency series over the responses, by the service's rule
        (:func:`~repro.serve.api.latency_samples`)."""
        hist = Histogram()
        for resp in self.responses:
            value = latency_samples(resp).get(component)
            if value is not None:
                hist.observe(value)
        return hist

    def identities(self) -> List[Dict[str, Any]]:
        """Per-request ``(kernel, status, digest)`` rows in stream
        order — the deterministic identity a CI golden compares."""
        return [resp.identity() for resp in self.responses]

    def as_dict(self) -> Dict[str, Any]:
        sizes = [r.batch_size for r in self.responses if r.batch_size]
        return {
            "mode": self.mode,
            "requests": self.n_requests,
            "wall_s": round(self.wall_s, 4),
            "throughput_rps": round(self.throughput_rps, 3),
            "status_counts": self.status_counts,
            "latency": {
                name: self.latency(name).as_dict()
                for name in ("total_s", "queue_s", "compile_s",
                             "execute_s")
            },
            "batch": {
                "mean_size": (sum(sizes) / len(sizes)) if sizes else 0.0,
                "max_size": max(sizes) if sizes else 0,
            },
        }


class LoadGen:
    """Deterministic request stream over a kernel set (see module doc).

    ``kernels`` is the candidate set; request ``i`` draws uniformly
    from it with ``random.Random(seed)``.  All requests share one
    ``options`` (so a small kernel set coalesces aggressively — vary
    the set to control batchability).
    """

    def __init__(self, kernels: Sequence[str], n_requests: int,
                 options: Optional[RunOptions] = None, seed: int = 0,
                 mode: str = "closed", concurrency: int = 4,
                 rate: float = 10.0, deadline_s: Optional[float] = None,
                 want_run: bool = False):
        if mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
        if not kernels:
            raise ValueError("need at least one kernel")
        self.kernels = list(kernels)
        self.n_requests = int(n_requests)
        self.options = options or RunOptions()
        self.seed = seed
        self.mode = mode
        self.concurrency = max(1, int(concurrency))
        self.rate = float(rate)
        self.deadline_s = deadline_s
        self.want_run = want_run

    def requests(self) -> List[SubmitRequest]:
        """The deterministic request stream (index ``i`` → request)."""
        rng = random.Random(self.seed)
        return [
            SubmitRequest(
                kernel=rng.choice(self.kernels), options=self.options,
                deadline_s=self.deadline_s, want_run=self.want_run,
                client=f"loadgen-{i}")
            for i in range(self.n_requests)
        ]

    # -- driving --------------------------------------------------------
    def run(self, service: ExecutionService) -> LoadReport:
        """Drive ``service`` with the stream; responses land in stream
        order in the returned :class:`LoadReport`."""
        stream = self.requests()
        responses: List[Optional[RunResponse]] = [None] * len(stream)
        t0 = time.monotonic()
        if self.mode == "closed":
            self._run_closed(service, stream, responses)
        else:
            self._run_open(service, stream, responses)
        wall = time.monotonic() - t0
        return LoadReport(mode=self.mode, n_requests=len(stream),
                          wall_s=wall,
                          responses=[r for r in responses if r is not None])

    def _run_closed(self, service, stream, responses) -> None:
        cursor = iter(range(len(stream)))
        cursor_lock = threading.Lock()

        def client() -> None:
            while True:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    return
                ticket = service.submit(stream[i])
                responses[i] = service.wait(ticket)

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(min(self.concurrency, len(stream)))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def _run_open(self, service, stream, responses) -> None:
        interval = 1.0 / self.rate if self.rate > 0 else 0.0
        start = time.monotonic()
        tickets = []
        for i, request in enumerate(stream):
            due = start + i * interval
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            tickets.append(service.submit(request))
        for i, ticket in enumerate(tickets):
            responses[i] = service.wait(ticket)
