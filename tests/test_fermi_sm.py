"""Integration tests for the Fermi SIMT baseline."""

import numpy as np

from repro.arch import FermiConfig
from repro.interp import interpret
from repro.kernels import (
    loop_sum_kernel,
    make_fig1_workload,
    memcopy_kernel,
    saxpy_kernel,
)
from repro.memory import MemoryImage
from repro.simt import FermiSM


def _run_both(kernel, mem, params, n_threads, config=None):
    golden = mem.clone()
    interpret(kernel, golden, params, n_threads)
    result = FermiSM(config).run(kernel, mem, params, n_threads)
    assert np.array_equal(mem.data, golden.data), (
        f"Fermi final memory diverges from the interpreter for {kernel.name}"
    )
    return result


def test_saxpy_matches_interpreter():
    n = 256
    mem = MemoryImage(2048)
    bx = mem.alloc_array("x", np.arange(float(n)))
    by = mem.alloc_array("y", np.ones(n))
    bo = mem.alloc("out", n)
    r = _run_both(saxpy_kernel(), mem, {"a": 2.0, "x": bx, "y": by, "out": bo, "n": n}, n)
    assert r.sm.warps_launched == 8
    # saxpy does not diverge.
    assert r.sm.divergences == 0
    assert r.sm.simd_efficiency == 1.0


def test_fig1_diverges_and_wastes_lanes():
    kernel, mem, params = make_fig1_workload(n_threads=512)
    r = _run_both(kernel, mem, params, 512)
    assert r.sm.divergences > 0
    # Divergence disables lanes: SIMD efficiency strictly below 1.
    assert r.sm.simd_efficiency < 1.0
    assert r.sm.wasted_lane_slots > 0


def test_partial_last_warp():
    n = 40  # one full warp + one 8-lane partial warp
    mem = MemoryImage(512)
    bx = mem.alloc_array("x", np.arange(float(n)))
    by = mem.alloc_array("y", np.zeros(n))
    bo = mem.alloc("out", n)
    r = _run_both(saxpy_kernel(), mem, {"a": 1.0, "x": bx, "y": by, "out": bo, "n": n}, n)
    assert r.sm.warps_launched == 2
    np.testing.assert_array_equal(mem.read_region("out"), np.arange(float(n)))


def test_loop_kernel_matches():
    stride, nt = 4, 128
    rng = np.random.default_rng(5)
    data = rng.normal(size=stride * nt)
    count = rng.integers(0, stride + 1, size=nt)
    mem = MemoryImage(4096)
    bd = mem.alloc_array("data", data)
    bc = mem.alloc_array("count", count)
    bo = mem.alloc("out", nt)
    r = _run_both(
        loop_sum_kernel(), mem,
        {"data": bd, "count": bc, "out": bo, "stride": stride}, nt,
    )
    # Divergent trip counts force execution-mask waste.
    assert r.sm.simd_efficiency < 1.0


def test_rf_access_counting():
    n = 64
    mem = MemoryImage(512)
    bx = mem.alloc_array("x", np.arange(float(n)))
    by = mem.alloc_array("y", np.ones(n))
    bo = mem.alloc("out", n)
    r = _run_both(saxpy_kernel(), mem, {"a": 2.0, "x": bx, "y": by, "out": bo, "n": n}, n)
    # Every warp instruction writes a destination register; reads are
    # counted per general-purpose register operand.
    assert r.sm.rf_writes > 0
    assert r.sm.rf_reads > 0
    assert r.sm.rf_accesses == r.sm.rf_reads + r.sm.rf_writes


def test_coalescing_reduces_transactions():
    n = 512
    mem = MemoryImage(4096)
    bs = mem.alloc_array("src", np.arange(float(n)))
    bd = mem.alloc("dst", n)
    r = _run_both(memcopy_kernel(), mem, {"src": bs, "dst": bd, "n": n}, n)
    # 512 contiguous loads + 512 stores coalesce into ~32 transactions.
    lane_mem_ops = 2 * n
    assert r.sm.mem_transactions < lane_mem_ops / 8


def test_more_resident_warps_hide_latency():
    n = 2048

    def run(max_warps):
        mem = MemoryImage(3 * n + 64)
        bs = mem.alloc_array("src", np.arange(float(n)))
        bd = mem.alloc("dst", n)
        cfg = FermiConfig(max_resident_warps=max_warps)
        return FermiSM(cfg).run(
            memcopy_kernel(), mem, {"src": bs, "dst": bd, "n": n}, n
        ).cycles

    assert run(48) < run(2)


def test_instruction_issue_counts():
    kernel, mem, params = make_fig1_workload(n_threads=64)
    r = _run_both(kernel, mem, params, 64)
    total = (
        r.sm.alu_instructions + r.sm.sfu_instructions
        + r.sm.mem_instructions + r.sm.branch_instructions
    )
    assert total == r.sm.instructions_issued
    assert r.sm.sfu_instructions > 0  # the sqrt arm
