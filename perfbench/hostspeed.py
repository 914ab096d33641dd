"""Host-speed reference: a fixed job timed next to the measured work.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
seconds to minutes with other tenants' load, and a median over one run
does not average that out.  To first order such a drift slows all
CPU-bound code alike, so each measured time is scaled by how much
slower than nominal this fixed job ran right before and right after
it::

    normalized_s = raw_s * NOMINAL_S / reference_s

and the benchmark reports seconds at nominal host speed.  The job never
calls the program, so no change to the program can move it.  It mixes
interpreted Python (dict and arithmetic work) with small numpy
operations, as the simulators do.

Each virtual CPU of a shared host runs at its own speed.  Work on one
thread is normalized by reference runs on that thread
(:class:`Stopwatch`); work spread over processes, such as the serve
workers or a fresh interpreter's set-up, by the mean speed of every CPU
the process may use (:func:`host_reference_s`).
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Optional

import numpy as np

#: The reference job's time on an uncontended 2-core host.
NOMINAL_S = 0.005
#: Runs per :class:`Stopwatch` reading; their median damps one-off
#: spikes of a run this short.
READING_RUNS = 3

_ARRAY = np.linspace(0.0, 1.0, 512)


def reference_s() -> float:
    """Seconds one run of the reference job takes now."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(25000):
        key = i & 127
        table[key] = table.get(key, 0) + i * i % 7
    for _ in range(330):
        values = np.sqrt(_ARRAY) * _ARRAY + 1.0
        values[_ARRAY > 0.5].sum()
    return time.perf_counter() - start


def host_reference_s(runs: int = 3,
                     until: Optional[float] = None) -> float:
    """Mean, over the CPUs this process may use, of the reference job's
    median time on each, the calling thread pinned to each in turn.
    Every CPU gets at least ``runs`` runs, and more until ``until`` (a
    ``time.time()``) if given."""
    cpus = sorted(os.sched_getaffinity(0))
    times: dict = {cpu: [] for cpu in cpus}
    try:
        while True:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times[cpu].append(reference_s())
            if len(times[cpus[0]]) >= runs and (until is None
                                                or time.time() >= until):
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(statistics.median(t) for t in times.values())


def normalized(raw_s: float, ref_s: float) -> float:
    """``raw_s`` at nominal host speed, given the reference time."""
    return raw_s * NOMINAL_S / ref_s


class Stopwatch:
    """Times consecutive operations at nominal host speed.

    A reading (the median of READING_RUNS reference runs) opens the
    stopwatch and follows every :meth:`lap`; each lap is normalized by
    the mean of the readings on either side of it.  The readings
    themselves are not timed.
    """

    def __init__(self) -> None:
        self.references: List[float] = []
        self._reference = self._probe()

    def _probe(self) -> float:
        ref = statistics.median(reference_s() for _ in range(READING_RUNS))
        self.references.append(ref)
        self._start = time.perf_counter()
        return ref

    def lap(self) -> float:
        """Normalized seconds since the previous lap (or the start)."""
        raw = time.perf_counter() - self._start
        before, self._reference = self._reference, self._probe()
        return normalized(raw, (before + self._reference) / 2)
