"""Resilience subsystem: watchdogs, typed errors, fault injection,
fault-isolating suite runs.

The tests here are the acceptance criteria of the resilience work:

* an engineered deadlock (token buffer of depth 1 feeding a cyclic
  control dependency) raises :class:`SimulationHangError` within the
  watchdog budget, and the diagnostic snapshot names the stalled unit;
* two fault-injection runs with the same seed produce **byte-identical**
  failure logs;
* ``run_suite`` with injected faults completes, returns partial results
  for the healthy kernels, and reports the injected failures as degraded
  rows — no uncaught exception escapes.
"""

from __future__ import annotations

import signal
import sys
import time
import types
from weakref import WeakSet

import pytest

from repro.arch.config import VGIWConfig
from repro.evalharness import (
    RunOptions,
    SuiteResult,
    generate_report,
    run_kernel,
    run_suite,
    runs_to_dict,
    runs_to_json,
)
from repro.interp import interpret
from repro.interp.interpreter import InterpreterError
from repro.ir import DType, KernelBuilder
from repro.memory.image import MemoryImage
from repro.resilience import (
    AttemptRecord,
    FaultInjectedError,
    FaultInjector,
    FaultSpec,
    MappingError,
    ReproError,
    RetryPolicy,
    SimulationError,
    SimulationHangError,
    VerificationError,
    WatchdogConfig,
    wall_clock_limit,
)
from repro.resilience import watchdog as watchdog_module
from repro.sgmf import SGMFCore, SGMFUnmappableError
from repro.simt import FermiSM
from repro.vgiw import VGIWCore


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def spin_kernel():
    """Cyclic control dependency that never makes progress."""
    kb = KernelBuilder("spin", params=["out"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_unless(i >= 0)  # never false
        kb.assign(i, i + 1)
    kb.store(kb.param("out"), i)
    return kb.build()


def copy_kernel():
    kb = KernelBuilder("copy", params=["src", "dst", "n"])
    i = kb.tid()
    with kb.if_(i < kb.param("n")):
        v = kb.load(kb.param("src") + i, DType.FLOAT)
        kb.store(kb.param("dst") + i, v)
    return kb.build()


def _copy_setup(n=16):
    mem = MemoryImage(256)
    src = mem.alloc_array("src", [float(i) * 1.5 for i in range(n)])
    dst = mem.alloc("dst", n)
    return mem, {"src": src, "dst": dst, "n": n}, n


# Hang snapshots pinned from the per-thread sequential walks.
VGIW_DEADLOCK_MESSAGE = (
    'vgiw: no event retired for 10049 cycles (stall budget 10000); '
    'suspected blocker loop.1/replica0/token_buffer [cycle=10049.0, '
    'events_retired=0, kernel=spin, sim=vgiw]'
)
VGIW_DEADLOCK_SNAPSHOT = {
 'sim': 'vgiw',
 'kernel': 'spin',
 'cycle': 10049.0,
 'events_retired': 0,
 'last_progress_cycle': 0.0,
 'in_flight': {'loop.1/replica0': 0,
               'loop.1/replica1': 0,
               'loop.1/replica2': 0,
               'loop.1/replica3': 0,
               'loop.1/replica4': 0,
               'loop.1/replica5': 0,
               'loop.1/replica6': 0,
               'loop.1/replica7': 0},
 'reservation_occupancy': {},
 'mshr_outstanding': 0,
 'stalled_units': {'loop.1/replica0/token_buffer': 35.0},
 'stalled_unit': 'loop.1/replica0/token_buffer',
 'oldest_thread_age': None,
 'detail': {'current_block': 'loop.1',
            'lvc_word_requests': '1336',
            'l1_misses': '0',
            'tile': '1',
            'cvt_pending': '{}'}}
VGIW_DEADLOCK_FORMAT = (
    'hang snapshot: sim=vgiw kernel=spin cycle=10049\n'
    '  events retired: 0 (last progress at cycle 0)\n'
    '  in-flight threads: loop.1/replica0=0, loop.1/replica1=0, '
    'loop.1/replica2=0, loop.1/replica3=0, loop.1/replica4=0, '
    'loop.1/replica5=0, loop.1/replica6=0, loop.1/replica7=0\n'
    '  stalled units (cycles): loop.1/replica0/token_buffer:35\n'
    '  suspected blocker: loop.1/replica0/token_buffer\n'
    '  current_block: loop.1\n'
    '  cvt_pending: {}\n'
    '  l1_misses: 0\n'
    '  lvc_word_requests: 1336\n'
    '  tile: 1'
)
SGMF_SPIN_MESSAGE = (
    'sgmf: simulation exceeded its 10000-cycle budget [cycle=10740.0, '
    'events_retired=0, kernel=spin, sim=sgmf]'
)
SGMF_SPIN_SNAPSHOT = {
 'sim': 'sgmf',
 'kernel': 'spin',
 'cycle': 10740.0,
 'events_retired': 0,
 'last_progress_cycle': 0.0,
 'in_flight': {'replica0': 0, 'replica1': 0, 'replica2': 0},
 'reservation_occupancy': {},
 'mshr_outstanding': 0,
 'stalled_units': {},
 'stalled_unit': None,
 'oldest_thread_age': None,
 'detail': {}}
SGMF_SPIN_FORMAT = (
    'hang snapshot: sim=sgmf kernel=spin cycle=10740\n'
    '  events retired: 0 (last progress at cycle 0)\n'
    '  in-flight threads: replica0=0, replica1=0, replica2=0'
)


# ----------------------------------------------------------------------
# Exception hierarchy
# ----------------------------------------------------------------------
def test_hierarchy_roots():
    assert issubclass(VerificationError, ReproError)
    assert not issubclass(VerificationError, AssertionError)
    assert issubclass(SimulationHangError, SimulationError)
    assert issubclass(FaultInjectedError, SimulationError)
    assert issubclass(SGMFUnmappableError, MappingError)
    assert issubclass(InterpreterError, SimulationError)
    from repro.compiler.placement import CapacityError
    assert issubclass(CapacityError, MappingError)


def test_repro_error_context_rendering():
    err = ReproError("boom", kernel="k", cycle=3)
    assert str(err) == "boom [cycle=3, kernel=k]"
    assert err.context == {"kernel": "k", "cycle": 3}
    d = err.to_dict()
    assert d["type"] == "ReproError" and d["context"]["cycle"] == 3


def test_interpreter_runaway_guard_is_typed():
    k = spin_kernel()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    with pytest.raises(InterpreterError, match="block visits"):
        interpret(k, mem, {"out": out}, 1, max_block_visits=100)
    # ... and a typed catch-all works where a bare except used to be needed.
    with pytest.raises(ReproError):
        interpret(k, mem, {"out": out}, 1, max_block_visits=100)


# ----------------------------------------------------------------------
# Watchdog: engineered deadlock / livelock
# ----------------------------------------------------------------------
def test_vgiw_deadlock_token_buffer_one():
    """Token buffer depth 1 + cyclic dependency: the watchdog must fire
    within its budget and the snapshot must name the stalled unit."""
    k = spin_kernel()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    cfg = VGIWConfig(token_buffer_depth=1)
    wd = WatchdogConfig(max_cycles=20_000, stall_cycles=10_000)
    with pytest.raises(SimulationHangError) as exc_info:
        VGIWCore(cfg).run(k, mem, {"out": out}, 8, watchdog=wd)
    err = exc_info.value
    assert err.context["sim"] == "vgiw"
    snap = err.snapshot
    assert snap is not None
    assert snap.cycle <= 2 * 20_000  # fired within (one block of) budget
    # The snapshot names a suspected blocker and it is the back-pressured
    # token buffer of the spinning block's replica.
    assert snap.stalled_unit is not None
    assert "token_buffer" in snap.stalled_unit
    assert "suspected blocker" in str(err)
    assert snap.in_flight  # per-replica in-flight token counts present
    d = err.to_dict()
    assert d["snapshot"]["stalled_unit"] == snap.stalled_unit
    assert AttemptRecord.from_error(0, err).snapshot == snap.to_dict()
    assert str(err) == VGIW_DEADLOCK_MESSAGE
    assert snap.to_dict() == VGIW_DEADLOCK_SNAPSHOT
    assert snap.format() == VGIW_DEADLOCK_FORMAT


def test_vgiw_runaway_guard_is_hang_error():
    k = spin_kernel()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    with pytest.raises(SimulationHangError, match="runaway block scheduling"):
        VGIWCore().run(k, mem, {"out": out}, 1, max_block_executions=50)


def _sgmf_spin(n_threads, **kwargs):
    k = spin_kernel()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    with pytest.raises(SimulationHangError) as exc_info:
        SGMFCore().run(k, mem, {"out": out}, n_threads, **kwargs)
    return exc_info.value


def test_sgmf_visit_guard_and_watchdog():
    err = _sgmf_spin(1, max_block_visits=100)
    assert "block visits" in str(err)
    err = _sgmf_spin(1, watchdog=WatchdogConfig(max_cycles=10_000))
    assert err.context["sim"] == "sgmf"
    # The watchdog snapshot reads the live replica states.
    assert err.snapshot is not None
    assert err.snapshot.in_flight
    assert AttemptRecord.from_error(0, err).snapshot == err.snapshot.to_dict()
    assert str(err) == SGMF_SPIN_MESSAGE
    assert err.snapshot.to_dict() == SGMF_SPIN_SNAPSHOT
    assert err.snapshot.format() == SGMF_SPIN_FORMAT
    # A wider launch trips the same check on its first thread, without
    # first running every thread up to the block-visit bound.
    start = time.monotonic()
    wide = _sgmf_spin(4, watchdog=WatchdogConfig(max_cycles=10_000))
    assert time.monotonic() - start < 5.0
    assert str(wide) == SGMF_SPIN_MESSAGE
    assert wide.snapshot.to_dict() == SGMF_SPIN_SNAPSHOT


def test_fermi_watchdog_budget():
    k = spin_kernel()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    with pytest.raises(SimulationHangError) as exc_info:
        FermiSM().run(k, mem, {"out": out}, 4,
                      watchdog=WatchdogConfig(max_cycles=10_000))
    err = exc_info.value
    assert err.context["sim"] == "fermi"
    assert err.snapshot is not None
    assert "resident_warps" in err.snapshot.detail
    assert AttemptRecord.from_error(0, err).snapshot == err.snapshot.to_dict()


def test_watchdog_disarmed_is_noop():
    k = copy_kernel()
    mem, params, n = _copy_setup()
    golden = mem.clone()
    interpret(k, golden, params, n)
    res = VGIWCore().run(k, mem, params, n,
                         watchdog=WatchdogConfig())  # fully disarmed
    assert res.cycles > 0
    assert mem == golden


def test_watchdog_config_scaling():
    wd = WatchdogConfig(max_cycles=1000.0, stall_cycles=100.0)
    half = wd.scaled(0.5)
    assert half.max_cycles == 500.0 and half.stall_cycles == 50.0
    assert WatchdogConfig().armed is False and wd.armed is True


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
def test_fault_spec_parse_and_validation():
    spec = FaultSpec.parse("token_corrupt:42:0.5")
    assert (spec.kind, spec.seed, spec.rate) == ("token_corrupt", 42, 0.5)
    assert FaultSpec.parse("mem_drop").seed == 0
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="gamma_ray")
    assert FaultSpec("abort", seed=3).reseeded(1009).seed == 1012


def test_mem_drop_trips_watchdog():
    """A dropped memory response must surface as a hang, not a wrong
    answer and not an infinite simulation."""
    k = copy_kernel()
    mem, params, n = _copy_setup()
    injector = FaultInjector(FaultSpec("mem_drop", seed=1, rate=1.0))
    with pytest.raises(SimulationHangError):
        VGIWCore().run(k, mem, params, n,
                       watchdog=WatchdogConfig(max_cycles=1e6),
                       faults=injector)
    assert injector.faults_injected > 0
    assert injector.log[0].kind == "mem_drop"


def test_abort_fault_raises_typed_error():
    k = copy_kernel()
    mem, params, n = _copy_setup()
    with pytest.raises(FaultInjectedError, match="injected abort"):
        VGIWCore().run(k, mem, params, n,
                       faults=FaultInjector(FaultSpec("abort")))


def test_injector_logs_byte_identical_per_seed():
    spec = FaultSpec("token_corrupt", seed=11, rate=0.2)
    logs = []
    for _ in range(2):
        k = copy_kernel()
        mem, params, n = _copy_setup()
        injector = FaultInjector(spec)
        try:
            VGIWCore().run(k, mem, params, n, faults=injector)
        except ReproError:
            pass  # corrupted addresses may fault; determinism still holds
        logs.append(injector.format_log())
    assert logs[0] == logs[1]
    assert "token_corrupt" in logs[0]


def test_stuck_at_caught_by_verification():
    with pytest.raises(VerificationError, match="diverges from the interpreter"):
        run_kernel("nn/euclid", options=RunOptions(
            scale="tiny",
            inject={"nn/euclid": FaultSpec("stuck_at", seed=7, payload=3)}))


def test_run_kernel_honours_inject():
    # run_kernel takes the campaign the sweep and the service take.
    with pytest.raises(FaultInjectedError, match="injected abort"):
        run_kernel("nn/euclid", options=RunOptions(
            scale="tiny", inject={"nn/euclid": FaultSpec("abort")}))


# ----------------------------------------------------------------------
# Fault-isolating run_suite
# ----------------------------------------------------------------------
SUBSET = ["nn/euclid", "gaussian/Fan2", "bfs/Kernel", "hotspot/hotspot_kernel"]

INJECT = {
    "nn/euclid": FaultSpec("stuck_at", seed=7, payload=3),
    "bfs/Kernel": FaultSpec("abort", seed=1),
}


@pytest.fixture(scope="module")
def degraded_suite():
    return run_suite(SUBSET, options=RunOptions(
        scale="tiny", watchdog=WatchdogConfig(max_cycles=5e6),
        inject=INJECT))


def test_suite_isolates_injected_failures(degraded_suite):
    runs = degraded_suite
    assert isinstance(runs, SuiteResult)
    # Healthy kernels produce partial results through the Mapping face.
    assert sorted(runs) == ["gaussian/Fan2", "hotspot/hotspot_kernel"]
    assert len(runs) == 2
    assert all(runs[name].vgiw.cycles > 0 for name in runs)
    # Injected kernels appear as degraded rows with structured logs.
    assert runs.degraded == ["bfs/Kernel", "nn/euclid"]
    assert not runs.ok
    for name, failure in runs.failures.items():
        assert failure.n_attempts == RetryPolicy().max_attempts
        assert failure.failure_log  # structured, per-attempt
        for attempt in failure.attempts:
            assert attempt.error_type and attempt.message
    assert runs.failures["bfs/Kernel"].error_type == "FaultInjectedError"
    assert runs.failures["nn/euclid"].error_type == "VerificationError"


def test_degraded_report_and_serialisation(degraded_suite):
    runs = degraded_suite
    report = generate_report(runs, scale="tiny")
    assert "Degraded" in report and "Failure logs" in report
    assert "bfs/Kernel" in report and "FaultInjectedError" in report
    data = runs_to_dict(runs)
    assert set(data) == set(SUBSET)
    assert data["bfs/Kernel"]["failed"] is True
    assert data["gaussian/Fan2"].get("failed") is None
    assert '"failed": true' in runs_to_json(runs)


def test_retry_reseeds_and_backs_off(degraded_suite):
    attempts = degraded_suite.failures["bfs/Kernel"].attempts
    policy = RetryPolicy()
    seeds = [a.seed for a in attempts]
    assert seeds == [INJECT["bfs/Kernel"].seed,
                     INJECT["bfs/Kernel"].seed + policy.seed_step]
    budgets = [a.max_cycles for a in attempts]
    assert budgets == [5e6, 5e6 * policy.budget_backoff]


def test_same_seed_suite_failure_logs_identical():
    inject = {"nn/euclid": FaultSpec("stuck_at", seed=7, payload=3)}
    results = [
        run_suite(["nn/euclid"], options=RunOptions(
            scale="tiny", watchdog=WatchdogConfig(max_cycles=5e6),
            inject=inject))
        for _ in range(2)
    ]
    fa, fb = (r.failures["nn/euclid"] for r in results)
    assert fa.format() == fb.format()  # byte-identical failure logs
    assert [a.fault_log_text for a in fa.attempts] == \
        [b.fault_log_text for b in fb.attempts]
    assert any(a.fault_log for a in fa.attempts)


def test_no_isolate_propagates_first_failure():
    with pytest.raises(FaultInjectedError):
        run_suite(["bfs/Kernel"], options=RunOptions(
            scale="tiny", isolate=False,
            inject={"bfs/Kernel": FaultSpec("abort")}))


def test_no_isolate_propagates_first_failure_under_jobs():
    """The ``--jobs`` twin: the service hands the worker's exception
    back and the sweep raises it with its original type."""
    with pytest.raises(FaultInjectedError):
        run_suite(["nn/euclid", "bfs/Kernel"], options=RunOptions(
            scale="tiny", jobs=2, isolate=False,
            inject={"bfs/Kernel": FaultSpec("abort")}))


@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_wall_clock_timeout_survives_a_swallowed_raise():
    """The alarm lands in a finalizer, where the interpreter swallows
    the raise; the guard re-fires and still stops the run."""

    class SlowFinalizer:
        def __del__(self):
            time.sleep(0.05)

    with pytest.raises(SimulationHangError, match="wall-clock timeout"):
        with wall_clock_limit(0.005, sim="suite", kernel="k"):
            SlowFinalizer()
            time.sleep(1.0)


def test_wall_clock_alarm_in_a_weakref_callback_waits_for_the_refire(
        monkeypatch):
    """An alarm landing in a ``WeakSet`` callback, where the raise would
    only be printed, returns and re-arms; anywhere else it raises."""
    monkeypatch.setattr(watchdog_module, "REFIRE_S", 60.0)
    callback = types.SimpleNamespace(f_code=WeakSet()._remove.__code__)
    with wall_clock_limit(60.0, sim="suite", kernel="k"):
        fire = signal.getsignal(signal.SIGALRM)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        fire(signal.SIGALRM, callback)
        assert signal.getitimer(signal.ITIMER_REAL)[0] > 30.0
        with pytest.raises(SimulationHangError, match="wall-clock timeout"):
            fire(signal.SIGALRM, sys._getframe())


def test_wall_clock_alarm_in_importlibs_module_lock_callback_refires():
    """importlib's module-lock weakref callback (``_get_module_lock``'s
    ``cb``) lives in ``<frozen importlib._bootstrap>``; an alarm landing
    there returns, and the re-fire delivers the timeout."""
    helper: dict = {}
    exec(compile("def cb(fire):\n"
                 "    fire(signal.SIGALRM, sys._getframe())\n",
                 "<frozen importlib._bootstrap>", "exec"),
         {"signal": signal, "sys": sys}, helper)
    returned = []
    with pytest.raises(SimulationHangError, match="wall-clock timeout"):
        with wall_clock_limit(30.0, sim="suite", kernel="k"):
            helper["cb"](signal.getsignal(signal.SIGALRM))
            returned.append(time.monotonic())
            time.sleep(1.0)
    assert returned, "the alarm raised inside the module-lock callback"
    assert time.monotonic() - returned[0] < 1.0


def test_wall_clock_alarm_elsewhere_in_importlibs_bootstrap_raises():
    """Only the module-lock callback is exempt: an alarm landing in any
    other ``<frozen importlib._bootstrap>`` frame (a lock ``acquire``
    blocked on another thread's import, say) raises there."""
    helper: dict = {}
    exec(compile("def acquire(fire):\n"
                 "    fire(signal.SIGALRM, sys._getframe())\n",
                 "<frozen importlib._bootstrap>", "exec"),
         {"signal": signal, "sys": sys}, helper)
    returned = []
    with pytest.raises(SimulationHangError, match="wall-clock timeout"):
        with wall_clock_limit(30.0, sim="suite", kernel="k"):
            helper["acquire"](signal.getsignal(signal.SIGALRM))
            returned.append(time.monotonic())
    assert not returned, "the alarm returned inside a bootstrap frame"


def test_suite_without_faults_is_all_healthy():
    runs = run_suite(["nn/euclid"], options=RunOptions(
        scale="tiny", watchdog=WatchdogConfig(max_cycles=1e9)))
    assert runs.ok and runs.degraded == []
    assert list(runs.items())[0][0] == "nn/euclid"
