"""Cycle-level tracer: a bounded ring buffer of timeline events.

:class:`Tracer` records :class:`~repro.obs.events.TraceEvent`\\ s into a
``collections.deque`` ring buffer (oldest events are dropped,
``dropped`` counts them) and exports Chrome ``chrome://tracing`` /
Perfetto JSON.  Tracing is off when an engine is given ``tracer=None``;
the only cost it then pays is the ``tracer is not None`` guard at each
hook point.

Hook-point idiom inside an engine::

    if tracer is not None:
        tracer.complete("block:body", "vgiw.block", ts=t0, dur=t1 - t0,
                        pid="vgiw", threads=64)

The ``pid`` label becomes a Chrome trace *process*, so the three
engines' timelines stack as separate swimlane groups in one export.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, Union

from repro.obs.events import PH_COMPLETE, PH_COUNTER, PH_INSTANT, TraceEvent

__all__ = ["Tracer"]


class Tracer:
    """Bounded ring buffer of timeline events with Chrome JSON export.

    Parameters
    ----------
    capacity:
        Ring size in events.  When full, the *oldest* events are
        evicted (``dropped`` counts evictions) — for hang forensics the
        most recent window is the valuable part.
    """

    __slots__ = ("_ring", "dropped", "capacity")

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive: {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.dropped = 0

    # -- emission ------------------------------------------------------
    def emit(self, event: TraceEvent) -> None:
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(event)

    def complete(self, name: str, cat: str, ts: float, dur: float,
                 pid: str = "run", tid: Union[int, str] = 0,
                 **args: Any) -> None:
        """A span: ``[ts, ts + dur]``."""
        self.emit(TraceEvent(name, cat, PH_COMPLETE, ts, max(0.0, dur),
                             pid, tid, args or None))

    def instant(self, name: str, cat: str, ts: float,
                pid: str = "run", tid: Union[int, str] = 0,
                **args: Any) -> None:
        """A point marker at ``ts``."""
        self.emit(TraceEvent(name, cat, PH_INSTANT, ts, 0.0,
                             pid, tid, args or None))

    def counter(self, name: str, cat: str, ts: float,
                pid: str = "run", **values: Any) -> None:
        """A sampled counter track (one series per keyword)."""
        self.emit(TraceEvent(name, cat, PH_COUNTER, ts, 0.0,
                             pid, 0, dict(values)))

    def merge(self, other: "Tracer") -> None:
        """Append another tracer's events (in its emission order).

        Used by ``run_suite --jobs`` to fold per-worker tracers into
        the caller's shared tracer, kernel by kernel in deterministic
        order.  Ring-buffer semantics still apply: if the combined
        stream exceeds ``capacity`` the oldest events are evicted, and
        the other tracer's ``dropped`` count carries over.
        """
        self.dropped += other.dropped
        emit = self.emit
        for ev in other._ring:
            emit(ev)

    # -- access --------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """Events in emission order (oldest first)."""
        return list(self._ring)

    def tail(self, n: int = 16) -> List[TraceEvent]:
        """The most recent ``n`` events (watchdog snapshots attach
        these, see ``docs/observability.md``)."""
        if n <= 0:
            return []
        ring = self._ring
        if len(ring) <= n:
            return list(ring)
        return list(ring)[-n:]

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (f"Tracer({len(self._ring)}/{self.capacity} events, "
                f"{self.dropped} dropped)")

    def categories(self) -> Dict[str, int]:
        """Event count per category (tests and report summaries)."""
        out: Dict[str, int] = {}
        for ev in self._ring:
            out[ev.cat] = out.get(ev.cat, 0) + 1
        return out

    # -- export --------------------------------------------------------
    def to_chrome_trace(self) -> Dict[str, Any]:
        """The full trace as a Chrome/Perfetto ``traceEvents`` dict.

        Events are sorted by timestamp and the string process labels
        are mapped to integer pids with ``process_name`` metadata
        records, so the file loads in ``chrome://tracing``, Perfetto,
        and ``json.load`` alike.
        """
        pids: Dict[str, int] = {}

        def pid_of(label: str) -> int:
            pid = pids.get(label)
            if pid is None:
                pid = pids[label] = len(pids) + 1
            return pid

        events = [ev.to_chrome(pid_of)
                  for ev in sorted(self._ring, key=lambda e: e.ts)]
        meta = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": label}}
            for label, pid in sorted(pids.items(), key=lambda kv: kv[1])
        ]
        return {
            "traceEvents": meta + events,
            "displayTimeUnit": "ns",
            "otherData": {
                "clock": "simulated cycles (1 cycle == 1 us)",
                "dropped_events": self.dropped,
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_chrome_trace(), indent=indent)

    def dump(self, path: str, indent: Optional[int] = None) -> None:
        """Write the Chrome trace JSON to ``path`` atomically.

        Routed through :func:`repro.resilience.atomicio` so a crash
        mid-export leaves either the previous complete trace or the new
        one — never a truncated JSON that loads as an empty timeline.
        """
        from repro.resilience.atomicio import atomic_write_text

        atomic_write_text(path, self.to_json(indent=indent))
