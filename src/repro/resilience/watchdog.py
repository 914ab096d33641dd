"""Forward-progress watchdog for the event-driven simulator loops.

Dataflow/CGRA machines are notoriously deadlock-prone under buffer
back-pressure: a token buffer of depth 1 feeding a cyclic dependency, a
dropped memory response, or a runaway basic-block scheduling loop will
silently spin the simulator forever (or until a bare recursion/counter
guard kills the whole process).  The watchdog turns both failure shapes
into a structured :class:`~repro.resilience.errors.SimulationHangError`:

* **livelock / budget** — the simulated clock passes a hard
  ``max_cycles`` budget;
* **deadlock / stall** — no *event retires* (thread completes, warp
  finishes) for ``stall_cycles`` simulated cycles even though the clock
  is still advancing.

The error carries a :class:`DiagnosticSnapshot` — in-flight tokens per
replica, reservation-buffer and MSHR occupancy, a stalled-unit
histogram, and the oldest in-flight thread's age — so a hang in a long
sweep is attributable without re-running under a debugger.

The checks are two float comparisons when armed and a single attribute
test when not, so leaving a (generous) watchdog on costs well under 5 %
of simulator wall-clock (see ``benchmarks/bench_watchdog_overhead.py``).
"""

from __future__ import annotations

import _weakrefset
import contextlib
import importlib._bootstrap
import signal
import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from repro.resilience.errors import SimulationHangError


@dataclass(frozen=True)
class WatchdogConfig:
    """Knobs for :class:`ForwardProgressWatchdog`.

    ``None`` disables the corresponding check; the default config is
    fully disarmed (zero-overhead pass-through).
    """

    #: hard budget on the simulated clock (cycles since ``start``).
    max_cycles: Optional[float] = None
    #: max simulated cycles without any retirement event.
    stall_cycles: Optional[float] = None

    @property
    def armed(self) -> bool:
        return self.max_cycles is not None or self.stall_cycles is not None

    def scaled(self, factor: float) -> "WatchdogConfig":
        """Budget backoff for retries: both limits scaled by ``factor``."""
        return replace(
            self,
            max_cycles=None if self.max_cycles is None
            else max(1.0, self.max_cycles * factor),
            stall_cycles=None if self.stall_cycles is None
            else max(1.0, self.stall_cycles * factor),
        )


@dataclass
class DiagnosticSnapshot:
    """Machine state at the moment a watchdog fired."""

    sim: str                     # "vgiw" | "sgmf" | "fermi"
    kernel: str
    cycle: float
    events_retired: int
    last_progress_cycle: float
    #: in-flight threads (tokens in virtual channels) per replica label
    in_flight: Dict[str, int] = field(default_factory=dict)
    #: outstanding entries per LDST/LVU reservation buffer
    reservation_occupancy: Dict[str, int] = field(default_factory=dict)
    #: outstanding L1 misses held in MSHRs (Fermi) / memory responses
    mshr_outstanding: int = 0
    #: accumulated issue-stall cycles per unit label (largest = culprit)
    stalled_units: Dict[str, float] = field(default_factory=dict)
    #: age (cycles) of the oldest thread still in flight
    oldest_thread_age: Optional[float] = None
    #: free-form extra diagnostics (CVT pending counts, pipe backlogs, ...)
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def stalled_unit(self) -> Optional[str]:
        """The unit with the largest accumulated stall (the likely
        head-of-line blocker), or ``None`` when nothing stalled."""
        if not self.stalled_units:
            return None
        return max(self.stalled_units.items(), key=lambda kv: kv[1])[0]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sim": self.sim,
            "kernel": self.kernel,
            "cycle": self.cycle,
            "events_retired": self.events_retired,
            "last_progress_cycle": self.last_progress_cycle,
            "in_flight": dict(self.in_flight),
            "reservation_occupancy": dict(self.reservation_occupancy),
            "mshr_outstanding": self.mshr_outstanding,
            "stalled_units": dict(self.stalled_units),
            "stalled_unit": self.stalled_unit,
            "oldest_thread_age": self.oldest_thread_age,
            "detail": {k: str(v) for k, v in self.detail.items()},
        }

    def format(self) -> str:
        """Human-readable multi-line rendering (goes into failure logs)."""
        lines = [
            f"hang snapshot: sim={self.sim} kernel={self.kernel} "
            f"cycle={self.cycle:.0f}",
            f"  events retired: {self.events_retired} "
            f"(last progress at cycle {self.last_progress_cycle:.0f})",
        ]
        if self.in_flight:
            pairs = ", ".join(
                f"{k}={v}" for k, v in sorted(self.in_flight.items())
            )
            lines.append(f"  in-flight threads: {pairs}")
        if self.reservation_occupancy:
            pairs = ", ".join(
                f"{k}={v}"
                for k, v in sorted(self.reservation_occupancy.items())
            )
            lines.append(f"  reservation buffers: {pairs}")
        if self.mshr_outstanding:
            lines.append(f"  MSHR outstanding: {self.mshr_outstanding}")
        if self.stalled_units:
            ranked = sorted(
                self.stalled_units.items(), key=lambda kv: -kv[1]
            )[:8]
            pairs = ", ".join(f"{k}:{v:.0f}" for k, v in ranked)
            lines.append(f"  stalled units (cycles): {pairs}")
            lines.append(f"  suspected blocker: {self.stalled_unit}")
        if self.oldest_thread_age is not None:
            lines.append(
                f"  oldest in-flight thread age: "
                f"{self.oldest_thread_age:.0f} cycles"
            )
        for key, value in sorted(self.detail.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


class ForwardProgressWatchdog:
    """Tracks retirement events against a simulated clock.

    Usage pattern inside a simulator main loop::

        wd = ForwardProgressWatchdog(config, sim="vgiw", kernel=name)
        wd.start(0.0)
        while ...:
            ... advance `time`, retire events ...
            if retired:
                wd.progress(time, retired)
            wd.check(time, snapshot_fn)    # may raise SimulationHangError

    ``snapshot_fn(now)`` is only invoked when the watchdog actually
    fires, so building the snapshot may be arbitrarily expensive.
    ``trace``, the run's enabled tracer or ``None``, feeds :meth:`snapshot`.
    """

    __slots__ = (
        "config", "sim", "kernel", "trace", "armed",
        "origin", "last_progress", "events_retired",
    )

    def __init__(self, config: Optional[WatchdogConfig], sim: str,
                 kernel: str, trace=None):
        self.config = config or WatchdogConfig()
        self.sim = sim
        self.kernel = kernel
        self.trace = trace
        self.armed = self.config.armed
        self.origin = 0.0
        self.last_progress = 0.0
        self.events_retired = 0

    def start(self, at: float) -> None:
        self.origin = at
        self.last_progress = at

    def progress(self, now: float, retired: int = 1) -> None:
        """Record ``retired`` retirement events at cycle ``now``."""
        self.events_retired += retired
        if now > self.last_progress:
            self.last_progress = now

    def check(
        self,
        now: float,
        snapshot_fn: Optional[Callable[[float], DiagnosticSnapshot]] = None,
    ) -> None:
        """Raise :class:`SimulationHangError` if a limit is exceeded."""
        if not self.armed:
            return
        cfg = self.config
        if cfg.max_cycles is not None and now - self.origin > cfg.max_cycles:
            self._fire(
                f"simulation exceeded its {cfg.max_cycles:.0f}-cycle budget",
                now, snapshot_fn,
            )
        if (
            cfg.stall_cycles is not None
            and now - self.last_progress > cfg.stall_cycles
        ):
            self._fire(
                f"no event retired for "
                f"{now - self.last_progress:.0f} cycles "
                f"(stall budget {cfg.stall_cycles:.0f})",
                now, snapshot_fn,
            )

    def snapshot(self, now: float, snapshot_fn) -> DiagnosticSnapshot:
        """``snapshot_fn(now)`` plus hang forensics when a tracer is
        set: the last 16 timeline events in ``detail["recent_trace"]``
        show what the machine did just before it stopped, and a
        ``watchdog/snapshot`` instant marks the moment."""
        snap = snapshot_fn(now)
        trace = self.trace
        if trace is not None:
            snap.detail["recent_trace"] = [e.brief() for e in trace.tail(16)]
            trace.instant("snapshot", "watchdog", now, pid=self.sim)
        return snap

    def _fire(self, reason: str, now: float,
              snapshot_fn) -> None:
        snapshot = None
        if snapshot_fn is not None:
            snapshot = self.snapshot(now, snapshot_fn)
            snapshot.events_retired = self.events_retired
            snapshot.last_progress_cycle = self.last_progress
        message = f"{self.sim}: {reason}"
        if snapshot is not None and snapshot.stalled_unit is not None:
            message += f"; suspected blocker {snapshot.stalled_unit}"
        raise SimulationHangError(
            message,
            snapshot=snapshot,
            sim=self.sim,
            kernel=self.kernel,
            cycle=round(now, 3),
            events_retired=self.events_retired,
        )


#: re-fire period of an expired :func:`wall_clock_limit` (seconds)
REFIRE_S = 0.01


@contextlib.contextmanager
def wall_clock_limit(seconds: Optional[float], sim: str, kernel: str):
    """Bound a simulator run by *host* wall-clock time.

    The simulated-cycle watchdog cannot catch a hang whose simulated
    clock advances arbitrarily slowly per host second (for example a
    pathological event storm), so the harness's per-kernel ``timeout``
    arms this guard around each attempt.  It raises the same
    :class:`~repro.resilience.errors.SimulationHangError` the watchdog
    uses, so the existing retry/degraded-row machinery applies
    unchanged.

    Implemented with ``SIGALRM`` (``signal.setitimer``), which is the
    only way to interrupt a tight pure-Python loop without cooperation
    from the loop body.  Outside the main thread, or on platforms
    without ``SIGALRM``, the guard degrades to a no-op — the
    simulated-cycle watchdog remains the backstop there.  Once expired,
    the alarm re-fires every :data:`REFIRE_S` until the guard exits:
    the interpreter swallows an exception raised inside a finalizer or
    weakref callback (a garbage collection can be running when the
    alarm lands), and the timeout must not be lost with it.  In the
    garbage collector's weakref callbacks the alarm does not raise at
    all (the raise would only be printed); the re-fire delivers it.

    ``seconds`` of ``None`` or ``<= 0`` disables the guard.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _fire(signum, frame):
        signal.setitimer(signal.ITIMER_REAL, REFIRE_S)
        if frame is not None:
            if frame.f_code is _GUARD_CODE:
                return  # arming or disarming: the finally disarms
            code = frame.f_code
            if (code.co_filename in _WEAKREF_FILES
                    or (code.co_filename, code.co_name) == _MODULE_LOCK_CB):
                return  # a weakref callback would swallow it: re-fire
        raise SimulationHangError(
            f"{sim}: wall-clock timeout after {seconds:g}s",
            sim=sim,
            kernel=kernel,
            wall_clock_limit_s=seconds,
        )

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: the guard's own generator code, whose frame the alarm must not unwind
_GUARD_CODE = wall_clock_limit.__wrapped__.__code__
#: source files of the weakref callbacks (``WeakSet._remove`` and kin)
#: the garbage collector runs, where a raise would only be printed
_WEAKREF_FILES = {_weakrefset.WeakSet.__init__.__code__.co_filename,
                  weakref.WeakValueDictionary.__init__.__code__.co_filename}
#: ``(file, name)`` of importlib's module-lock weakref callback; only
#: that function: elsewhere in the bootstrap (a blocked lock ``acquire``)
#: every re-fire would land in the same frame and never deliver
_MODULE_LOCK_CB = (importlib._bootstrap._get_module_lock.__code__.co_filename,
                   "cb")


def snapshot_from_replicas(
    sim: str,
    kernel: str,
    now: float,
    replicas,
    unit_name: Optional[Callable[[int], str]] = None,
    block: Optional[str] = None,
    detail: Optional[Dict[str, Any]] = None,
) -> DiagnosticSnapshot:
    """Build a snapshot from :class:`repro.vgiw.mtcgrf._ReplicaState`-
    shaped objects (shared by the VGIW and SGMF engines).

    * in-flight = injected threads whose completion lies in the future;
    * reservation occupancy = outstanding memory responses per LDST/LVU;
    * stalled units = accumulated issue-wait cycles per unit plus each
      replica's token-buffer injection wait (the back-pressure signal).
    """
    label = unit_name or (lambda uid: f"unit{uid}")
    prefix = f"{block}/" if block else ""
    in_flight: Dict[str, int] = {}
    reservation: Dict[str, int] = {}
    stalled: Dict[str, float] = {}
    oldest: Optional[float] = None
    for ridx, rep in enumerate(replicas):
        rname = f"{prefix}replica{ridx}"
        flying = 0
        for i, completion in enumerate(rep.window):
            if completion > now:
                flying += 1
                injected = (
                    rep.inject_times[i]
                    if i < len(rep.inject_times) else None
                )
                if injected is not None:
                    age = now - injected
                    if oldest is None or age > oldest:
                        oldest = age
        in_flight[rname] = flying
        for uid, heap_entries in rep.ldst_outstanding.items():
            pending = sum(1 for t in heap_entries if t > now)
            if pending:
                reservation[f"{prefix}{label(uid)}"] = pending
        for uid, waited in rep.unit_wait.items():
            if waited > 0:
                key = f"{prefix}{label(uid)}"
                stalled[key] = stalled.get(key, 0.0) + waited
        if rep.inject_wait > 0:
            stalled[f"{rname}/token_buffer"] = rep.inject_wait
    return DiagnosticSnapshot(
        sim=sim,
        kernel=kernel,
        cycle=now,
        events_retired=0,
        last_progress_cycle=0.0,
        in_flight=in_flight,
        reservation_occupancy=reservation,
        stalled_units=stalled,
        oldest_thread_age=oldest,
        detail=dict(detail or {}),
    )
