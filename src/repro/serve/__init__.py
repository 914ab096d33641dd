"""repro.serve: a batched multi-device execution service.

Accepts kernel-execution requests (:class:`SubmitRequest` →
:class:`Ticket` → :class:`RunResponse`), coalesces compatible requests
(same kernel, same :class:`~repro.evalharness.RunOptions` fingerprint)
into single executions on a pool of persistent warm workers, and sheds
overload as typed responses instead of exceptions.  ``python -m
repro.serve`` runs a seeded load generator against an in-process
service and prints a throughput/latency report.  See
``docs/serving.md``.
"""

from repro.serve.api import (
    RESPONSE_STATUSES,
    RunResponse,
    SubmitRequest,
    Ticket,
    result_digest,
)
from repro.serve.loadgen import LoadGen, LoadReport
from repro.serve.scheduler import Batch, BatchScheduler, SCHED_POLICIES
from repro.serve.service import ExecutionService

__all__ = [
    "Batch",
    "BatchScheduler",
    "ExecutionService",
    "LoadGen",
    "LoadReport",
    "RESPONSE_STATUSES",
    "RunResponse",
    "SCHED_POLICIES",
    "SubmitRequest",
    "Ticket",
    "result_digest",
]
