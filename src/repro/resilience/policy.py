"""Retry policy and structured failure records for fault isolation.

``run_suite`` wraps every kernel in a bounded retry loop: each attempt
gets a deterministically re-seeded fault injector (transient faults may
land elsewhere — or nowhere) and a backed-off watchdog budget (a
persistently hanging kernel costs geometrically less with every retry).
When the attempts are exhausted the kernel is reported as a *degraded
row*: a :class:`KernelFailure` carrying every attempt's error, fault
log, and (for hangs) the watchdog's diagnostic snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.resilience.errors import SimulationHangError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry for one kernel of a sweep."""

    #: total attempts per kernel (1 = no retry)
    max_attempts: int = 2
    #: watchdog budget multiplier applied per retry (in-process backoff:
    #: a kernel that hung once gets a cheaper budget the next time)
    budget_backoff: float = 0.5
    #: deterministic fault-seed shift per retry
    seed_step: int = 1009

    def budget_for(self, watchdog, attempt: int):
        """The (possibly backed-off) watchdog config for ``attempt``."""
        if watchdog is None or attempt == 0:
            return watchdog
        return watchdog.scaled(self.budget_backoff ** attempt)

    def seed_delta(self, attempt: int) -> int:
        return self.seed_step * attempt


@dataclass
class AttemptRecord:
    """One failed attempt at running a kernel."""

    attempt: int
    error_type: str
    message: str
    seed: Optional[int] = None
    max_cycles: Optional[float] = None
    fault_log: List[Dict[str, Any]] = field(default_factory=list)
    fault_log_text: Optional[str] = None
    snapshot: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "error_type": self.error_type,
            "message": self.message,
            "seed": self.seed,
            "max_cycles": self.max_cycles,
            "fault_log": list(self.fault_log),
            "fault_log_text": self.fault_log_text,
            "snapshot": self.snapshot,
        }

    @classmethod
    def from_error(cls, attempt: int, exc: BaseException,
                   injector=None, watchdog=None) -> "AttemptRecord":
        record = cls(
            attempt=attempt,
            error_type=type(exc).__name__,
            message=str(exc),
            seed=None if injector is None else injector.spec.seed,
            max_cycles=None if watchdog is None else watchdog.max_cycles,
        )
        if injector is not None:
            record.fault_log = injector.log_dicts()
            record.fault_log_text = injector.format_log()
        if isinstance(exc, SimulationHangError) and exc.snapshot is not None:
            record.snapshot = exc.snapshot.to_dict()
        return record


@dataclass
class KernelFailure:
    """A kernel that exhausted its retries: the degraded row's payload."""

    name: str
    error_type: str
    message: str
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: the exception that ended the kernel when it was not retried away
    #: (``isolate=False``, a worker crash, a result-cache divergence);
    #: ``run_suite`` re-raises it.  Not part of the failure log.
    error: Optional[BaseException] = field(default=None, compare=False,
                                           repr=False)
    #: the per-kernel registries the failed attempts recorded into (the
    #: counterparts of ``KernelRun.trace`` / ``KernelRun.metrics``)
    trace: Any = field(default=None, compare=False, repr=False)
    metrics: Any = field(default=None, compare=False, repr=False)

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    @property
    def failure_log(self) -> List[Dict[str, Any]]:
        """Structured log of every attempt (what the report embeds)."""
        return [a.to_dict() for a in self.attempts]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "failed": True,
            "name": self.name,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.failure_log,
        }

    def format(self) -> str:
        lines = [
            f"DEGRADED {self.name}: {self.error_type} after "
            f"{self.n_attempts} attempt(s): {self.message}"
        ]
        for a in self.attempts:
            lines.append(
                f"  attempt {a.attempt}: {a.error_type} "
                f"(seed={a.seed}, max_cycles={a.max_cycles}) — {a.message}"
            )
            if a.fault_log_text:
                lines.extend("    " + l for l in a.fault_log_text.splitlines())
        return "\n".join(lines)

    @classmethod
    def from_attempts(cls, name: str,
                      attempts: List[AttemptRecord]) -> "KernelFailure":
        last = attempts[-1]
        return cls(
            name=name,
            error_type=last.error_type,
            message=last.message,
            attempts=attempts,
        )

    @classmethod
    def from_error(cls, name: str, exc: BaseException,
                   attempts: int = 1) -> "KernelFailure":
        """The failure ``exc`` ended, logged as ``attempts`` identical
        attempts and kept as :attr:`error`."""
        failure = cls.from_attempts(
            name, [AttemptRecord.from_error(i, exc) for i in range(attempts)])
        failure.error = exc
        return failure
