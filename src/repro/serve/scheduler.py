"""Batching scheduler: admission control + request coalescing.

The scheduler owns the bounded submission queue and decides which
requests share one execution.  Two requests are *compatible* when they
name the same kernel and their options have equal
:meth:`~repro.evalharness.RunOptions.fingerprint` — same scale, same
verification/optimisation settings, same architecture configs, same
watchdog — because ``run_kernel`` is deterministic over exactly those
inputs — and they ask for the same per-request tracer/metrics
registries.  A dispatch pops *every* queued request with the chosen key
into one :class:`Batch`; the pool executes the kernel once and the
service fans the result out to all members.  On the single-core hosts
the simulator targets, this coalescing — not parallelism — is the
serving layer's main throughput lever.

Policies
--------

``"fifo"``
    Dispatch the key of the oldest queued request.  Arrival-order fair.
``"sjf"``
    Shortest-kernel-first: dispatch the key with the smallest expected
    execution time, learned online as an exponentially-weighted moving
    average of observed ``execute_s`` per key (unseen keys estimate
    0.0, so new kernels are probed eagerly; ties break by arrival).
    Only this policy keeps the estimates.
    Improves mean latency under mixed workloads at the cost of
    fairness; the classic starvation caveat applies under sustained
    overload, which is what ``deadline_s`` shedding is for.

Thread safety: every public method takes the internal lock; the service
calls :meth:`offer` from client threads and :meth:`pop_expired` /
:meth:`next_batch` / :meth:`requeue` from its dispatcher thread, which
never blocks in here: it sleeps on its own wake-up event.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Batch", "BatchScheduler", "QueueEntry", "SCHED_POLICIES"]

SCHED_POLICIES: Tuple[str, ...] = ("fifo", "sjf")

#: (kernel, options fingerprint, wants a tracer, wants metrics)
BatchKey = Tuple[str, str, bool, bool]

#: EWMA smoothing for the SJF execution-time estimates.
_EWMA_ALPHA = 0.5


@dataclass
class QueueEntry:
    """One queued submission (service-internal)."""

    request: object  # SubmitRequest
    ticket: object  # Ticket
    key: BatchKey
    opts: object  # service-resolved RunOptions (pure, retry set)
    enqueued_mono: float  # time.monotonic() at admission
    deadline_mono: Optional[float]  # absolute monotonic expiry, or None
    crash_budget: int  # remaining worker-crash requeues
    seq: int = 0  # admission order (set by the scheduler)
    cache_key: Optional[str] = None  # result-cache key (cache armed)
    cached: object = None  # ResultCacheEntry this execution validates

    def expired(self, now: float) -> bool:
        return self.deadline_mono is not None and now > self.deadline_mono


@dataclass
class Batch:
    """A coalesced execution: compatible requests served by one run."""

    batch_id: int
    key: BatchKey
    entries: List[QueueEntry]
    dispatch_mono: float = 0.0  # stamped by the service at dispatch

    @property
    def kernel(self) -> str:
        return self.key[0]

    def __len__(self) -> int:
        return len(self.entries)


class BatchScheduler:
    """Bounded queue + batching policy (see module docstring)."""

    def __init__(self, policy: str = "fifo", queue_limit: int = 64):
        if policy not in SCHED_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; "
                f"choose from: {', '.join(SCHED_POLICIES)}"
            )
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.policy = policy
        self.queue_limit = queue_limit
        self._queue: List[QueueEntry] = []  # admission order
        self._lock = threading.Lock()
        self._estimates: Dict[BatchKey, float] = {}
        self._seq = 0
        self._batch_counter = 0
        #: high-water mark of the queue depth (reported by stats())
        self.peak_depth = 0

    # -- admission ------------------------------------------------------
    def offer(self, entry: QueueEntry) -> bool:
        """Admit ``entry``; ``False`` when the queue is full (the
        service turns that into a typed ``"rejected"`` response)."""
        with self._lock:
            if len(self._queue) >= self.queue_limit:
                return False
            self._seq += 1
            entry.seq = self._seq
            self._queue.append(entry)
            self.peak_depth = max(self.peak_depth, len(self._queue))
            return True

    def requeue(self, entries: List[QueueEntry]) -> None:
        """Put crash-requeued entries back at the *front* (they already
        waited their turn); exempt from the queue limit so recovery
        cannot itself be shed."""
        if not entries:
            return
        with self._lock:
            self._queue[0:0] = entries
            self.peak_depth = max(self.peak_depth, len(self._queue))

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- deadline shedding ----------------------------------------------
    def pop_expired(
            self, now: float) -> Tuple[List[QueueEntry], Optional[float]]:
        """Remove every queued entry whose deadline has expired.

        Returns ``(expired, soonest)``: the removed entries, and the
        earliest absolute monotonic deadline still queued (``None``
        when no queued entry has one).  The dispatcher sheds on every
        wake and sleeps no later than ``soonest``, so an expired
        request never consumes dispatch capacity and its
        ``"deadline"`` response lands as it expires."""
        with self._lock:
            expired = [e for e in self._queue if e.expired(now)]
            if expired:
                self._queue = [e for e in self._queue if not e.expired(now)]
            soonest = min((e.deadline_mono for e in self._queue
                           if e.deadline_mono is not None), default=None)
            return expired, soonest

    # -- learning (SJF) -------------------------------------------------
    def observe(self, key: BatchKey, execute_s: float) -> None:
        """Feed an observed execution time into the SJF estimates (a
        no-op under ``fifo``, which never reads them)."""
        if self.policy != "sjf":
            return
        with self._lock:
            old = self._estimates.get(key)
            self._estimates[key] = (
                execute_s if old is None
                else _EWMA_ALPHA * execute_s + (1 - _EWMA_ALPHA) * old
            )

    # -- dispatch -------------------------------------------------------
    def _pick_key(self, ready: List[QueueEntry]) -> BatchKey:
        """The key to dispatch next among ``ready`` (lock held,
        non-empty, in admission order)."""
        if self.policy == "fifo":
            return ready[0].key
        # sjf: smallest estimated execution time; arrival order breaks
        # ties (and orders the never-seen keys among themselves).
        first_seq: Dict[BatchKey, int] = {}
        for entry in ready:
            first_seq.setdefault(entry.key, entry.seq)
        return min(
            first_seq,
            key=lambda k: (self._estimates.get(k, 0.0), first_seq[k]),
        )

    def next_batch(self) -> Optional[Batch]:
        """Pop the next batch; ``None`` when nothing is ready.

        An expired entry is never dispatched: it stays queued for
        :meth:`pop_expired` to shed.  The clock is read under the lock,
        so this holds for an entry admitted after the last shed too."""
        with self._lock:
            now = time.monotonic()
            ready = [e for e in self._queue if not e.expired(now)]
            if not ready:
                return None
            key = self._pick_key(ready)
            members = [e for e in ready if e.key == key]
            self._queue = [e for e in self._queue
                           if e.key != key or e.expired(now)]
            self._batch_counter += 1
            return Batch(self._batch_counter, key, members)

    def __repr__(self) -> str:
        return (f"BatchScheduler(policy={self.policy!r}, "
                f"depth={self.depth()}/{self.queue_limit})")
