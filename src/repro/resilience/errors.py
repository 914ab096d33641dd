"""Typed exception hierarchy for the whole reproduction.

Every failure the library can produce descends from :class:`ReproError`,
so callers (most importantly the fault-isolating
:func:`repro.evalharness.runner.run_suite`) can catch *one* type and
know they have a structured, reportable failure instead of a bare
``RuntimeError``/``AssertionError`` escaping a ten-minute sweep:

``ReproError``
    ├── ``CompileError``      — IR construction/validation, DFG build,
    │                           liveness, scheduling, partitioning
    ├── ``MappingError``      — a graph does not fit a fabric
    │                           (``CapacityError``, ``SGMFUnmappableError``)
    ├── ``SimulationError``   — runtime model protocol violations
    │       ├── ``SimulationHangError`` — deadlock/livelock caught by the
    │       │                   forward-progress watchdog (or a per-kernel
    │       │                   wall-clock timeout); carries a
    │       │                   :class:`~repro.resilience.watchdog.DiagnosticSnapshot`
    │       └── ``WorkerCrashError`` — a ``--jobs`` pool worker died
    │                           (SIGKILL/OOM) while running a kernel
    ├── ``VerificationError`` — a machine's final memory diverged from
    │                           the reference interpreter
    └── ``FaultInjectedError``— an injected fault deliberately aborted a run

Design notes
------------

* ``VerificationError`` used to subclass ``AssertionError``, which made
  it vanish under ``python -O`` idioms (``assert``-based call sites) and
  let ``pytest.raises(AssertionError)`` patterns swallow it silently.
  It now descends from :class:`ReproError`; import it from
  :mod:`repro.resilience`.
* Every :class:`ReproError` accepts keyword *context* (kernel, block,
  thread, cycle, ...) that is appended to the message and preserved in
  machine-readable form on ``.context`` for the structured failure logs
  the degraded suite report embeds.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class of every structured failure in the library.

    ``context`` keyword arguments are rendered into the message (sorted,
    so messages are deterministic) and kept on ``self.context``.
    """

    def __init__(self, message: str, **context: Any):
        self.context: Dict[str, Any] = dict(context)
        if context:
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(context.items())
            )
            message = f"{message} [{rendered}]"
        super().__init__(message)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (used by the degraded suite report)."""
        return {
            "type": type(self).__name__,
            "message": str(self),
            "context": {k: _jsonable(v) for k, v in self.context.items()},
        }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class CompileError(ReproError):
    """The compilation flow rejected or mangled a kernel."""


class MappingError(ReproError):
    """A dataflow graph cannot be mapped onto a fabric."""


class SimulationError(ReproError):
    """A simulator hit a runtime protocol violation."""


class SimulationHangError(SimulationError):
    """Deadlock/livelock: the forward-progress watchdog tripped.

    ``snapshot`` is a :class:`repro.resilience.watchdog.DiagnosticSnapshot`
    describing the machine state at the moment the watchdog fired (or
    ``None`` when the raising site had no snapshot to attach).
    """

    def __init__(self, message: str, snapshot: Optional[object] = None,
                 **context: Any):
        super().__init__(message, **context)
        self.snapshot = snapshot

    def to_dict(self) -> Dict[str, Any]:
        out = super().to_dict()
        if self.snapshot is not None and hasattr(self.snapshot, "to_dict"):
            out["snapshot"] = self.snapshot.to_dict()
        return out


class WorkerCrashError(SimulationError):
    """A process-pool worker died while running a kernel.

    Raised by the crash-tolerant ``run_suite`` driver when a worker is
    killed hard (SIGKILL, OOM, segfault) — there is no in-process
    exception to preserve, so this record is synthesised from the pool's
    ``BrokenProcessPool`` signal.  Kernels whose crash-retry budget is
    exhausted become degraded rows carrying this error.
    """


class VerificationError(ReproError):
    """A simulator's final memory diverged from the interpreter's."""


class OptionKeyError(ReproError):
    """An execution-option value cannot be keyed canonically.

    Raised by :meth:`repro.evalharness.RunOptions.fingerprint` when an
    option field holds an object with no stable value representation
    (no dataclass fields, no ``cache_key()`` hook, and a default
    ``repr`` that embeds a memory address).  Such a value would make
    every fingerprint process-unique, silently defeating request
    batching in :mod:`repro.serve` and the result cache — so it is an
    error, never an address embedded in the key.
    """


class ResultCacheError(ReproError):
    """The result cache itself failed (not the cached execution)."""


class ResultCacheDivergenceError(ResultCacheError):
    """Validation re-execution diverged from a cached result.

    Raised by the seeded validation mode
    (``validate_cache_fraction``): a sampled cache hit was re-executed
    and its image/cycle digest did not match the cached entry's.  This
    is a hard failure — it means either the cache was corrupted past
    what the tolerant loader can detect, or execution is not
    deterministic over the cache key, and every cached answer is
    suspect.
    """


class FaultInjectedError(SimulationError):
    """An injected ``abort`` fault deliberately killed the run (used to
    prove the harness isolates hard crashes)."""
