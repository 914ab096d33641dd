"""Metric registry: named counters, gauges, and bounded histograms.

A :class:`Metrics` registry holds flat, ``/``-namespaced instruments::

    metrics = Metrics()
    vgiw = metrics.scope("vgiw")          # per-engine namespace
    vgiw.inc("bbs.reconfigurations", 12)  # -> "vgiw/bbs.reconfigurations"
    vgiw.gauge("run.cycles", 8123.0)
    vgiw.observe("block.span", 41.0)      # bounded histogram

Naming convention (see ``docs/observability.md``): the scope prefix is
the engine (``vgiw`` / ``fermi`` / ``sgmf``), the metric name is
``subsystem.quantity`` in ``snake_case``.  Every engine emits the
*shared* set :data:`SHARED_COUNTERS` / :data:`SHARED_GAUGES` with
identical names, so cross-engine comparisons (and the evalharness
metrics table) can zip the three scopes without per-engine plumbing —
the parity is enforced by ``tests/test_obs.py``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Histogram",
    "MAX_BUCKETS",
    "Metrics",
    "MetricsScope",
    "REL_ERROR",
    "SHARED_COUNTERS",
    "SHARED_GAUGES",
    "record_shared_run_metrics",
]

#: Counter names every engine records for every run (same kernel on all
#: three machines → the same shared counter namespace).
SHARED_COUNTERS: Tuple[str, ...] = (
    "run.threads",
    "mem.l1.accesses",
    "mem.l1.misses",
    "mem.l2.accesses",
    "mem.l2.misses",
    "mem.dram.reads",
    "mem.dram.writes",
    "mem.dram.row_activations",
)

#: Gauge names every engine records for every run.
SHARED_GAUGES: Tuple[str, ...] = (
    "run.cycles",
)


#: Relative error bound of :meth:`Histogram.percentile` against the
#: nearest-rank sample.
REL_ERROR = 0.01
#: The bucketed range: values at or below the floor share the zero
#: bucket (read as 0.0), values above the ceiling the top bucket.
HIST_FLOOR, HIST_CEIL = 1e-9, 1e9
_GAMMA = (1 + REL_ERROR) / (1 - REL_ERROR)  # ratio of bucket bounds
_LOG_GAMMA = math.log(_GAMMA)
#: Hard cap on one histogram's bucket count, whatever it observes.
MAX_BUCKETS = 1 + math.ceil(math.log(HIST_CEIL / HIST_FLOOR) / _LOG_GAMMA)


class Histogram:
    """Bounded, mergeable, log-bucketed histogram.

    ``count``, ``total``, ``min`` and ``max`` are exact.  Samples are
    also counted in sparse log buckets, so :meth:`percentile` is within
    :data:`REL_ERROR` (relative) of the nearest-rank sample whenever
    that sample lies in ``(HIST_FLOOR, HIST_CEIL]``.  Values outside
    the range (negatives too) share the zero or the top bucket, so a
    histogram never holds more than :data:`MAX_BUCKETS` buckets.
    :meth:`merge` adds bucket counts: merging equals observing every
    sample in one histogram.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # Bucket k >= 1 holds (HIST_FLOOR * _GAMMA**(k-1), ... * _GAMMA**k].
        index = 0 if value <= HIST_FLOOR else max(1, math.ceil(
            math.log(min(value, HIST_CEIL) / HIST_FLOOR) / _LOG_GAMMA))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]) within
        :data:`REL_ERROR`; 0.0 when empty."""
        if not self.count:
            return 0.0
        rank = min(self.count, max(1, math.ceil(p / 100.0 * self.count)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                break
        # The point within REL_ERROR of the whole of bucket ``index``.
        value = (HIST_FLOOR * 2 * _GAMMA ** index / (_GAMMA + 1)
                 if index else 0.0)
        return min(self.max, max(self.min, value))

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one (counts, sums
        and buckets add, min/max combine)."""
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": 0.0 if self.min is None else self.min,
            "max": 0.0 if self.max is None else self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


class Metrics:
    """Flat registry of counters, gauges, and bounded histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- aggregation ---------------------------------------------------
    def merge(self, other: "Metrics") -> None:
        """Fold another registry into this one.

        Counters and histograms compose exactly (they are additive);
        gauges take the *other* registry's value (last-writer-wins,
        matching sequential ``gauge()`` calls).  ``run_suite --jobs``
        uses this to aggregate per-worker registries in deterministic
        kernel order, so a parallel sweep's merged registry equals the
        serial one.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)

    # -- namespaces ----------------------------------------------------
    def scope(self, prefix: str) -> "MetricsScope":
        """A view that prepends ``prefix + "/"`` to every name."""
        return MetricsScope(self, prefix)

    def names(self, prefix: Optional[str] = None) -> List[str]:
        """All instrument names, optionally filtered to one scope."""
        all_names = sorted(
            set(self.counters) | set(self.gauges) | set(self.histograms)
        )
        if prefix is None:
            return all_names
        head = prefix.rstrip("/") + "/"
        return [n for n in all_names if n.startswith(head)]

    def scope_names(self) -> List[str]:
        """The distinct scope prefixes present in the registry."""
        return sorted({n.split("/", 1)[0] for n in self.names() if "/" in n})

    def value(self, name: str, default: Optional[float] = None):
        """Counter or gauge value (histograms return their mean)."""
        if name in self.counters:
            return self.counters[name]
        if name in self.gauges:
            return self.gauges[name]
        if name in self.histograms:
            return self.histograms[name].mean
        return default

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def format(self, prefix: Optional[str] = None) -> str:
        """Plain-text ``name = value`` dump (CLI ``--metrics`` output)."""
        lines = []
        for name in self.names(prefix):
            if name in self.histograms:
                h = self.histograms[name]
                lines.append(
                    f"{name} = n={h.count} mean={h.mean:.3g} "
                    f"min={0 if h.min is None else h.min:.3g} "
                    f"max={0 if h.max is None else h.max:.3g}"
                )
            else:
                value = self.value(name)
                if isinstance(value, float) and value != int(value):
                    lines.append(f"{name} = {value:.6g}")
                else:
                    lines.append(f"{name} = {int(value)}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return (len(self.counters) + len(self.gauges)
                + len(self.histograms))

    def __repr__(self) -> str:
        return (f"Metrics({len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, "
                f"{len(self.histograms)} histograms)")


class MetricsScope:
    """A prefixing view onto a :class:`Metrics` registry."""

    __slots__ = ("registry", "prefix")

    def __init__(self, registry: Metrics, prefix: str):
        self.registry = registry
        self.prefix = prefix.rstrip("/")

    def _name(self, name: str) -> str:
        return f"{self.prefix}/{name}"

    def inc(self, name: str, value: float = 1) -> None:
        self.registry.inc(self._name(name), value)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(self._name(name), value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(self._name(name), value)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self.registry, self._name(prefix))

    def names(self) -> List[str]:
        head = self.prefix + "/"
        return [n[len(head):] for n in self.registry.names(self.prefix)]

    def value(self, name: str, default: Optional[float] = None):
        return self.registry.value(self._name(name), default)

    def histogram(self, name: str) -> Histogram:
        """Histogram ``name`` (a fresh empty one when never observed)."""
        hist = self.registry.histograms.get(self._name(name))
        return Histogram() if hist is None else hist

    def __repr__(self) -> str:
        return f"MetricsScope({self.prefix!r} -> {self.registry!r})"


def record_shared_run_metrics(scope: MetricsScope, *, cycles: float,
                              n_threads: int, l1, l2, dram) -> None:
    """Record the cross-engine shared namespace for one run.

    ``l1``/``l2`` are :class:`~repro.memory.cache.CacheStats`, ``dram``
    a :class:`~repro.memory.dram.DRAMStats`.  Called by every engine at
    the end of ``run`` so the same kernel produces the same counter
    names on all three machines (:data:`SHARED_COUNTERS`).
    """
    scope.gauge("run.cycles", cycles)
    scope.inc("run.threads", n_threads)
    scope.inc("mem.l1.accesses", l1.accesses)
    scope.inc("mem.l1.misses", l1.misses)
    scope.inc("mem.l2.accesses", l2.accesses)
    scope.inc("mem.l2.misses", l2.misses)
    scope.inc("mem.dram.reads", dram.reads)
    scope.inc("mem.dram.writes", dram.writes)
    scope.inc("mem.dram.row_activations", dram.row_misses)
