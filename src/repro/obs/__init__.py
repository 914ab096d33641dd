"""repro.obs — observability layer: tracing, metrics, Chrome export.

The measurement substrate behind the paper's §5 evaluation and every
subsequent performance PR:

* :class:`Tracer` — structured timeline events (BBS reconfiguration
  windows, block launches/retires, warp divergences, cache misses,
  DRAM row activations, watchdog snapshots) in a bounded ring buffer
  with ``chrome://tracing`` / Perfetto JSON export;
* :class:`Metrics` — a registry of named counters / gauges / bounded
  :class:`Histogram` s with per-engine ``scope()`` namespaces and a
  shared cross-engine namespace (:data:`SHARED_COUNTERS`).

Engines accept ``tracer=`` / ``metrics=`` keyword arguments (see the
:class:`repro.engine.Engine` protocol) and attach both to their run
results (``result.trace`` / ``result.metrics``).  ``docs/observability.md``
documents the event taxonomy and counter naming convention.
"""

from repro.obs.events import (
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    TraceEvent,
)
from repro.obs.metrics import (
    Histogram,
    Metrics,
    MetricsScope,
    SHARED_COUNTERS,
    SHARED_GAUGES,
    record_shared_run_metrics,
)
from repro.obs.tracer import Tracer

__all__ = [
    "Histogram",
    "Metrics",
    "MetricsScope",
    "PH_COMPLETE",
    "PH_COUNTER",
    "PH_INSTANT",
    "SHARED_COUNTERS",
    "SHARED_GAUGES",
    "TraceEvent",
    "Tracer",
    "record_shared_run_metrics",
]
