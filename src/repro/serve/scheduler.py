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
    Improves mean latency under mixed workloads at the cost of
    fairness; the classic starvation caveat applies under sustained
    overload, which is what ``deadline_s`` shedding is for.

Thread safety: every public method takes the internal lock; the service
calls :meth:`offer` from client threads and :meth:`next_batch` /
:meth:`requeue` from its dispatcher thread.
"""

from __future__ import annotations

import threading
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
        self._nonempty = threading.Condition(self._lock)
        self._estimates: Dict[BatchKey, float] = {}
        self._seq = 0
        self._batch_counter = 0
        #: high-water mark of the queue depth (reported by stats())
        self.peak_depth = 0

    # -- admission ------------------------------------------------------
    def offer(self, entry: QueueEntry) -> bool:
        """Admit ``entry``; ``False`` when the queue is full (the
        service turns that into a typed ``"rejected"`` response)."""
        with self._nonempty:
            if len(self._queue) >= self.queue_limit:
                return False
            self._seq += 1
            entry.seq = self._seq
            self._queue.append(entry)
            self.peak_depth = max(self.peak_depth, len(self._queue))
            self._nonempty.notify()
            return True

    def requeue(self, entries: List[QueueEntry]) -> None:
        """Put crash-requeued entries back at the *front* (they already
        waited their turn); exempt from the queue limit so recovery
        cannot itself be shed."""
        if not entries:
            return
        with self._nonempty:
            self._queue[0:0] = entries
            self.peak_depth = max(self.peak_depth, len(self._queue))
            self._nonempty.notify()

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- lazy deadline shedding -----------------------------------------
    def pop_expired(self, now: float) -> List[QueueEntry]:
        """Remove and return every queued entry whose deadline has
        expired.

        The dispatcher calls this at the top of every loop iteration,
        so under a saturated pool an expired request is shed (and its
        ``"deadline"`` response lands) within one dispatcher beat of
        expiry instead of sitting in the queue until its compatibility
        group happens to be pulled."""
        with self._lock:
            expired = [e for e in self._queue if e.expired(now)]
            if expired:
                self._queue = [e for e in self._queue if not e.expired(now)]
            return expired

    def take_if_expired(self, request_id: int, now: float):
        """Lazy shed at the waiter: ``(entry, deadline_mono)``.

        If the request is still queued and its deadline has expired,
        the entry is removed and returned (the service finishes it as
        ``"deadline"`` immediately — the caller is observing it *now*).
        Otherwise returns ``(None, deadline)`` where ``deadline`` is
        the queued entry's absolute monotonic expiry (``None`` when the
        request is deadline-free, already dispatched, or finished) so
        the waiter can bound its sleep and re-check on time."""
        with self._lock:
            for i, entry in enumerate(self._queue):
                if entry.ticket.request_id == request_id:
                    if entry.expired(now):
                        del self._queue[i]
                        return entry, None
                    return None, entry.deadline_mono
            return None, None

    # -- learning (SJF) -------------------------------------------------
    def observe(self, key: BatchKey, execute_s: float) -> None:
        """Feed an observed execution time into the SJF estimates."""
        with self._lock:
            old = self._estimates.get(key)
            self._estimates[key] = (
                execute_s if old is None
                else _EWMA_ALPHA * execute_s + (1 - _EWMA_ALPHA) * old
            )

    def estimate(self, key: BatchKey) -> float:
        with self._lock:
            return self._estimates.get(key, 0.0)

    # -- dispatch -------------------------------------------------------
    def _pick_key(self) -> BatchKey:
        """The key to dispatch next (lock held, queue non-empty)."""
        if self.policy == "fifo":
            return self._queue[0].key
        # sjf: smallest estimated execution time; arrival order breaks
        # ties (and orders the never-seen keys among themselves).
        first_seq: Dict[BatchKey, int] = {}
        for entry in self._queue:
            first_seq.setdefault(entry.key, entry.seq)
        return min(
            first_seq,
            key=lambda k: (self._estimates.get(k, 0.0), first_seq[k]),
        )

    def next_batch(self, timeout: Optional[float] = None) -> Optional[Batch]:
        """Pop the next batch, waiting up to ``timeout`` seconds for the
        queue to become non-empty; ``None`` on timeout."""
        with self._nonempty:
            if not self._queue:
                self._nonempty.wait(timeout)
            if not self._queue:
                return None
            key = self._pick_key()
            members = [e for e in self._queue if e.key == key]
            self._queue = [e for e in self._queue if e.key != key]
            self._batch_counter += 1
            return Batch(self._batch_counter, key, members)

    def wake(self) -> None:
        """Wake a dispatcher blocked in :meth:`next_batch` (shutdown)."""
        with self._nonempty:
            self._nonempty.notify_all()

    def __repr__(self) -> str:
        return (f"BatchScheduler(policy={self.policy!r}, "
                f"depth={self.depth()}/{self.queue_limit})")
