"""Thread-major execution: the cases a full-width functional pass cannot
reproduce, pinned to the cycles, memory, errors and fault logs of the
per-thread sequential walk.

A dataflow engine evaluates a block (VGIW) or the whole kernel (SGMF)
across the thread vector at once.  That is exact only while no thread
observes another thread's (or its own earlier) store, every live value
is defined, every address is valid and no fault is armed.  Everything
else runs one thread at a time, one block visit at a time, through the
same functional kernel at width 1 and the same compiled timing walk.
The pins in ``tests/thread_major_pins.json`` were recorded from the
sequential per-thread walk; every case runs at 1, 3 and 8 threads.

Regenerate (only for an intended behaviour change)::

    PYTHONPATH=src:. python -c "import json, tests.test_thread_major as t; \
print(json.dumps(t.collect_pins(), indent=1, sort_keys=True))" \
> tests/thread_major_pins.json
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
from unittest import mock

import pytest

from repro.arch.config import VGIWConfig
from repro.compiler.dfg import NodeKind
from repro.compiler.pipeline import compile_kernel
from repro.ir import DType, KernelBuilder
from repro.ir.text import parse_kernel
from repro.kernels import saxpy_kernel
from repro.kernels.registry import make_workload
from repro.memory.image import MemoryImage
from repro.resilience import FaultInjector, FaultSpec, WatchdogConfig
from repro.sgmf import SGMFCore
from repro.sgmf.mapping import map_kernel
from repro.vgiw import VGIWCore
from repro.vgiw.mtcgrf import MTCGRFExecutor
from tests.test_resilience import _copy_setup as resilience_copy_setup
from tests.test_resilience import copy_kernel, spin_kernel
from tests.test_timing_codegen import _saxpy as saxpy_setup

PINS_PATH = os.path.join(os.path.dirname(__file__), "thread_major_pins.json")

WIDTHS = (1, 3, 8)


# ----------------------------------------------------------------------
# Hand-built kernels
# ----------------------------------------------------------------------
def _chain_kernel():
    """Thread t loads buf[t], then stores buf[t + 1]: in thread-major
    order every thread reads what the previous thread stored."""
    return parse_kernel(
        "kernel chain(buf)\n"
        "entry:\n"
        "  %a = add %arg.buf, %tid !int\n"
        "  %v = load %a !int\n"
        "  %w = add %v, #1 !int\n"
        "  %b = add %a, #1 !int\n"
        "  store %b, %w !int\n"
        "  ret\n"
    )


def _own_store_block_kernel():
    """Each thread stores a word and re-reads it inside one block."""
    return parse_kernel(
        "kernel reread(buf, out)\n"
        "entry:\n"
        "  %a = add %arg.buf, %tid !int\n"
        "  %s = mul %tid, #3 !int\n"
        "  store %a, %s !int\n"
        "  %v = load %a !int\n"
        "  %w = add %v, #1 !int\n"
        "  %b = add %arg.out, %tid !int\n"
        "  store %b, %w !int\n"
        "  ret\n"
    )


def _own_store_loop_kernel():
    """A private read-modify-write across loop iterations: SGMF's whole-
    kernel pass sees each thread re-read its own earlier store."""
    kb = KernelBuilder("rmw_loop", params=["buf"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_unless(i < 3)
        a = kb.param("buf") + kb.tid()
        v = kb.load(a, DType.INT)
        kb.store(a, v + kb.tid() + 1)
        kb.assign(i, i + 1)
    return kb.build()


def _lv_missing_kernel():
    """Threads 2.. reach ``join`` through ``right``, whose spill of %x is
    redirected by :func:`_drop_spill` after compilation (a valid kernel
    always stores a live value before any block fetches it)."""
    return parse_kernel(
        "kernel lvmiss(out)\n"
        "entry:\n"
        "  %p = lt %tid, #2 !pred\n"
        "  br %p, left, right\n"
        "left:\n"
        "  %x = add %tid, #5 !int\n"
        "  jmp join\n"
        "right:\n"
        "  %x = add %tid, #9 !int\n"
        "  jmp join\n"
        "join:\n"
        "  %y = add %arg.out, %tid !int\n"
        "  store %y, %x !int\n"
        "  ret\n"
    )


def _drop_spill(dfg):
    """Point ``dfg``'s live-value stores at a slot nobody fetches."""
    for node in dfg.nodes:
        if node.kind is NodeKind.LVSTORE:
            node.lv_id = 99
            node.out_reg = "dead"


def _bad_address_kernel():
    """Thread 0 stores in range; thread 1 stores 1000 words past it."""
    return parse_kernel(
        "kernel oob(out)\n"
        "entry:\n"
        "  %o = mul %tid, #1000 !int\n"
        "  %a = add %arg.out, %o !int\n"
        "  store %a, %tid !int\n"
        "  ret\n"
    )


def _nan_address_kernel():
    """Thread 1 loads NaN and uses it as an address."""
    return parse_kernel(
        "kernel nanaddr(inp, out)\n"
        "entry:\n"
        "  %a = add %arg.inp, %tid !int\n"
        "  %f = load %a !float\n"
        "  %g = load %f !float\n"
        "  %b = add %arg.out, %tid !int\n"
        "  store %b, %g !float\n"
        "  ret\n"
    )


def _memory(case):
    mem = MemoryImage(64)
    if case == "nan_address":
        inp = mem.alloc_array("inp", [3.0, float("nan")] + [5.0] * 6)
        return mem, {"inp": inp, "out": mem.alloc("out", 8)}
    if case == "own_store_block":
        buf = mem.alloc("buf", 16)
        return mem, {"buf": buf, "out": mem.alloc("out", 16)}
    if case in ("chain", "own_store_loop"):
        return mem, {"buf": mem.alloc("buf", 16)}
    return mem, {"out": mem.alloc("out", 8)}


KERNELS = {
    "chain": _chain_kernel,
    "own_store_block": _own_store_block_kernel,
    "own_store_loop": _own_store_loop_kernel,
    "lv_missing": _lv_missing_kernel,
    "bad_address": _bad_address_kernel,
    "nan_address": _nan_address_kernel,
    "visit_bound": spin_kernel,
}


def _digest(mem):
    return hashlib.sha256(mem.data.tobytes()).hexdigest()[:16]


def _outcome(run, mem):
    """``[cycles, memory digest]``, or ``[error type, message]`` plus the
    rendered snapshot of a hang."""
    try:
        res = run()
    except Exception as exc:  # noqa: BLE001 - the error is the pin
        out = [type(exc).__name__, str(exc)]
        snapshot = getattr(exc, "snapshot", None)
        if snapshot is not None:
            out.append(snapshot.format())
        return out
    return [res.cycles, _digest(mem)]


def run_case(case, engine, n):
    kernel = KERNELS[case]()
    mem, params = _memory(case)
    if engine == "vgiw":
        if case == "lv_missing":
            kernel = compile_kernel(kernel)
            _drop_spill(kernel.blocks["right"].dfg)
        return _outcome(lambda: VGIWCore().run(
            kernel, mem, params, n, max_block_executions=60), mem)
    mapping = map_kernel(kernel)
    if case == "lv_missing":
        _drop_spill(mapping.dfgs["right"])
    with mock.patch("repro.sgmf.mapping.map_kernel", lambda k, spec: mapping):
        return _outcome(lambda: SGMFCore().run(
            kernel, mem, params, n, max_block_visits=100), mem)


# ----------------------------------------------------------------------
# Fault campaigns: VGIW and SGMF, every fault kind, two kernels
# ----------------------------------------------------------------------
def _copy_setup():
    mem, params, n = resilience_copy_setup()
    return copy_kernel(), mem, params, n


def _euclid_setup():
    wl = make_workload("nn/euclid", scale="tiny")
    return wl.kernel, wl.memory.clone(), wl.params, wl.n_threads


def _loop_setup():
    """A loop-carried counter: the kernel with live values to corrupt."""
    mem, params = _memory("own_store_loop")
    return _own_store_loop_kernel(), mem, params, 8


FAULT_WORKLOADS = {"copy": _copy_setup, "euclid": _euclid_setup,
                   "loop": _loop_setup}


FAULT_SPECS = {
    "token_corrupt": FaultSpec("token_corrupt", seed=3, rate=0.05),
    "token_corrupt_0.2": FaultSpec("token_corrupt", seed=11, rate=0.2),
    "stuck_at": FaultSpec("stuck_at", seed=7, payload=3),
    "lvc_corrupt": FaultSpec("lvc_corrupt", seed=5, rate=0.2),
    "mem_drop": FaultSpec("mem_drop", seed=1, rate=0.05),
    "abort": FaultSpec("abort", seed=2),
    "abort_late": FaultSpec("abort", seed=2, abort_after=2),
}

FAULT_WATCHDOG = WatchdogConfig(max_cycles=1e6)


def run_fault_case(workload, engine, kind):
    """``[outcome, fault log]`` of one fault campaign."""
    kernel, mem, params, n = FAULT_WORKLOADS[workload]()
    injector = FaultInjector(FAULT_SPECS[kind])
    core = VGIWCore() if engine == "vgiw" else SGMFCore()
    outcome = _outcome(lambda: core.run(
        kernel, mem, params, n, watchdog=FAULT_WATCHDOG, faults=injector),
        mem)
    return [outcome, injector.format_log()]


# ----------------------------------------------------------------------
# Generated kernels: a cycle digest in the style of test_placement
# ----------------------------------------------------------------------
DIGEST_SEEDS = range(200)


def fuzz_digest_lines():
    """One line per (case, engine): cycles plus a memory digest, or the
    error, for every generated case the differential fuzzer would run."""
    from repro.compiler.optimize import optimize_variants
    from repro.engine import create_engine
    from repro.fuzz import generate_case
    from repro.fuzz.oracle import DEFAULT_WATCHDOG

    lines = []
    for seed in DIGEST_SEEDS:
        case = generate_case(seed)
        unrolled, rolled = optimize_variants(case.kernel, case.params)
        for engine in ("vgiw", "sgmf"):
            mem = case.build_memory()
            kernel = rolled if engine == "sgmf" else unrolled
            out = _outcome(lambda: create_engine(engine).run(
                kernel, mem, case.params, case.n_threads,
                watchdog=DEFAULT_WATCHDOG), mem)
            lines.append(f"{seed} {case.n_threads} {engine} {out!r}")
    return lines


def collect_pins():
    """Every pin this module checks (see the module docstring)."""
    return {
        "cases": {
            f"{case} {engine} {n}": run_case(case, engine, n)
            for case in KERNELS for engine in ("vgiw", "sgmf")
            for n in WIDTHS
        },
        "faults": {
            f"{workload} {engine} {kind}": run_fault_case(
                workload, engine, kind)
            for workload in FAULT_WORKLOADS
            for engine in ("vgiw", "sgmf") for kind in FAULT_SPECS
        },
        "fuzz_digest": hashlib.sha256(
            "\n".join(fuzz_digest_lines()).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("engine", ["vgiw", "sgmf"])
@pytest.mark.parametrize("case", sorted(KERNELS))
def test_hand_built_case_matches_sequential_walk(case, engine, n, pins):
    assert run_case(case, engine, n) == pins["cases"][f"{case} {engine} {n}"]


@pytest.mark.parametrize("kind", sorted(FAULT_SPECS))
@pytest.mark.parametrize("engine", ["vgiw", "sgmf"])
@pytest.mark.parametrize("workload", sorted(FAULT_WORKLOADS))
def test_fault_log_matches_sequential_walk(workload, engine, kind, pins):
    want = pins["faults"][f"{workload} {engine} {kind}"]
    assert run_fault_case(workload, engine, kind) == want


def test_thread_major_pins_exercise_every_path(pins):
    """The pins are not vacuous: each kind of failure is among them."""
    outcomes = {tuple(v[:1]) for v in pins["cases"].values()}
    for err in ("SimulationError", "MemoryError_", "ValueError",
                "SimulationHangError"):
        assert (err,) in outcomes
    logs = [log for _, log in pins["faults"].values()]
    for kind in ("token_corrupt", "stuck_at", "lvc_corrupt", "mem_drop",
                 "abort"):
        assert any(f"\n#0 {kind} " in log for log in logs), kind


def test_generated_kernel_cycles_are_pinned(pins):
    """200 generated cases (1-12 threads, many below 4), VGIW and SGMF:
    cycles and final memory are those of the sequential walk."""
    lines = fuzz_digest_lines()
    assert sum(1 for ln in lines if int(ln.split()[1]) < 4) >= 40
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == pins["fuzz_digest"]


# ----------------------------------------------------------------------
# VGIW's two per-thread paths: packet streaming and thread-major visits
# ----------------------------------------------------------------------
_REPLICA_FIELDS = ("next_inject", "window", "inject_times", "inject_wait",
                   "unit_next", "unit_wait", "ldst_outstanding")


def _vgiw_block_records(workload, n, thread_major, monkeypatch):
    """Every ``execute_block`` call of one VGIW run of ``workload`` at
    ``n`` threads with a 16-deep token buffer: its per-replica outcomes,
    end cycle and each replica's state after the call.  ``thread_major``
    makes every vector skip the functional batch.  Also returns how many
    vectors ran batched."""
    records, batched = [], []
    execute = MTCGRFExecutor.execute_block
    functional = MTCGRFExecutor._functional_batch

    def recording_execute(self, cb, tids, start):
        outcomes, end = execute(self, cb, tids, start)
        states = [{f: copy.deepcopy(getattr(rep, f)) for f in _REPLICA_FIELDS}
                  for rep in self.last_replicas]
        records.append((cb.name, outcomes, end, states))
        return outcomes, end

    def batch_or_none(self, plan, tids):
        batch = None if thread_major else functional(self, plan, tids)
        batched.append(batch is not None)
        return batch

    if workload == "saxpy":
        kernel = saxpy_kernel()
        mem, params = saxpy_setup(n)
    else:
        wl = make_workload(workload, scale="tiny")
        kernel, mem, params = wl.kernel, wl.memory.clone(), wl.params
    config = dataclasses.replace(VGIWConfig(), token_buffer_depth=16)
    with monkeypatch.context() as m:
        m.setattr(MTCGRFExecutor, "execute_block", recording_execute)
        m.setattr(MTCGRFExecutor, "_functional_batch", batch_or_none)
        res = VGIWCore(config).run(kernel, mem, params, n)
    return records, sum(batched), res


@pytest.mark.parametrize("workload,n", [("saxpy", 200),
                                        ("hotspot/hotspot_kernel", 256)])
def test_vgiw_packet_stream_matches_thread_major_visits(workload, n,
                                                        monkeypatch):
    """A batched vector streamed a packet at a time gives the outcomes,
    end cycle and replica state of the same vector admitted, visited
    and retired thread by thread."""
    packed, n_batched, res = _vgiw_block_records(workload, n, False,
                                                 monkeypatch)
    visited, none_batched, _ = _vgiw_block_records(workload, n, True,
                                                   monkeypatch)
    assert n_batched == len(packed) and none_batched == 0
    assert packed == visited
    # Not vacuous: several replicas ran packets, injection stalled on a
    # full window, and (hotspot) live values crossed blocks.
    assert max(len(outcomes) for _, outcomes, _, _ in packed) >= 2
    assert any(s["inject_wait"] > 0
               for _, _, _, states in packed for s in states)
    if workload != "saxpy":
        assert res.lvc_accesses > 0
