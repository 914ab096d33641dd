"""An interrupted batched SGMF replay leaves the memory state of a
thread-by-thread walk behind.

The batched path evaluates every thread functionally first, then times
the recorded visits thread by thread and commits the buffered stores
once after the replay.  When the replay raises, exactly the stores of
the threads whose timing finished are committed: a watchdog hang after
thread *k* keeps threads ``0..k``, a wall-clock timeout inside thread
*k* keeps ``0..k-1``.  The digests, messages and snapshot below were
recorded from the thread-at-a-time commit this replaced.
"""

import hashlib
import time

import numpy as np
import pytest

import repro.sgmf.core as sgmf_core
from repro.kernels import saxpy_kernel
from repro.memory import MemoryImage
from repro.resilience import SimulationHangError, WatchdogConfig, wall_clock_limit
from repro.sgmf import SGMFCore

N = 96


def _saxpy():
    mem = MemoryImage(4 * N + 8)
    params = {
        "a": 2.0,
        "x": mem.alloc_array("x", np.arange(N, dtype=float)),
        "y": mem.alloc_array("y", np.ones(N)),
        "out": mem.alloc("out", N),
        "n": N,
    }
    return mem, params


def _digest(mem):
    return hashlib.sha256(mem.data.tobytes()).hexdigest()[:16]


def _written(mem, params):
    out = params["out"]
    return int((mem.data[out:out + N] != 0).sum())


def test_complete_replay_commits_every_store():
    mem, params = _saxpy()
    assert SGMFCore().run(saxpy_kernel(), mem, params, N).cycles == 309.0
    assert _written(mem, params) == N
    assert _digest(mem) == "63620ff929cb4f11"


def test_watchdog_hang_keeps_finished_threads_stores():
    mem, params = _saxpy()
    with pytest.raises(SimulationHangError) as exc_info:
        SGMFCore().run(saxpy_kernel(), mem, params, N,
                       watchdog=WatchdogConfig(max_cycles=300))
    err = exc_info.value
    assert str(err) == (
        "sgmf: simulation exceeded its 300-cycle budget; suspected "
        "blocker unit44 [cycle=301.0, events_retired=62, kernel=saxpy, "
        "sim=sgmf]"
    )
    # Thread 61 finished and tripped the check: threads 0..61 stored.
    assert _written(mem, params) == 62
    assert _digest(mem) == "31969c03b3aaa9b2"
    assert err.snapshot.to_dict() == {
        "sim": "sgmf",
        "kernel": "saxpy",
        "cycle": 301.0,
        "events_retired": 62,
        "last_progress_cycle": 301.0,
        "in_flight": {"replica0": 0, "replica1": 0, "replica2": 0,
                      "replica3": 0},
        "reservation_occupancy": {},
        "mshr_outstanding": 0,
        "stalled_units": {"unit44": 56.0, "unit47": 56.0, "unit39": 56.0,
                          "unit60": 56.0, "unit101": 49.0, "unit94": 49.0,
                          "unit88": 49.0, "unit98": 49.0},
        "stalled_unit": "unit44",
        "oldest_thread_age": None,
        "detail": {},
    }


def test_wall_clock_timeout_keeps_finished_threads_stores(monkeypatch):
    # Thread 40's first timed visit stalls until the wall-clock alarm
    # raises inside it: threads 0..39 finished and stored, 40 did not.
    stalled_tid = 40
    timing_walk = sgmf_core.timing_walk

    def stalling_timing_walk(*args, **kwargs):
        enter = timing_walk(*args, **kwargs)

        def stalling_enter(rep):
            walk = enter(rep)

            def stalling_walk(wrd, tid, *rest):
                while tid == stalled_tid:
                    time.sleep(0.001)
                return walk(wrd, tid, *rest)

            return stalling_walk

        return stalling_enter

    monkeypatch.setattr(sgmf_core, "timing_walk", stalling_timing_walk)
    mem, params = _saxpy()
    with pytest.raises(SimulationHangError) as exc_info:
        with wall_clock_limit(0.5, sim="sgmf", kernel="saxpy"):
            SGMFCore().run(saxpy_kernel(), mem, params, N)
    assert str(exc_info.value) == (
        "sgmf: wall-clock timeout after 0.5s [kernel=saxpy, sim=sgmf, "
        "wall_clock_limit_s=0.5]"
    )
    assert _written(mem, params) == stalled_tid
    assert _digest(mem) == "37cf16562f191488"
