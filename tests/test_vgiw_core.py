"""Integration tests for the VGIW core: functional equivalence with the
reference interpreter and first-order timing behaviours."""

import numpy as np

from repro.arch import FabricSpec, VGIWConfig
from repro.compiler import compile_kernel
from repro.interp import interpret
from repro.kernels import (
    loop_sum_kernel,
    make_fig1_workload,
    memcopy_kernel,
    saxpy_kernel,
)
from repro.memory import MemoryImage
from repro.vgiw import VGIWCore


def _saxpy_setup(n=128):
    mem = MemoryImage(2048)
    bx = mem.alloc_array("x", np.arange(float(n)))
    by = mem.alloc_array("y", np.ones(n))
    bo = mem.alloc("out", n)
    return mem, {"a": 2.0, "x": bx, "y": by, "out": bo, "n": n}


def _run_both(kernel, mem, params, n_threads, config=None):
    golden = mem.clone()
    interpret(kernel, golden, params, n_threads)
    result = VGIWCore(config).run(kernel, mem, params, n_threads)
    assert np.array_equal(mem.data, golden.data), (
        f"VGIW final memory diverges from the interpreter for {kernel.name}"
    )
    return result


def test_saxpy_matches_interpreter():
    mem, params = _saxpy_setup()
    result = _run_both(saxpy_kernel(), mem, params, 128)
    assert result.cycles > 0
    assert result.n_threads == 128


def test_fig1_divergent_matches_interpreter():
    kernel, mem, params = make_fig1_workload(n_threads=192)
    result = _run_both(kernel, mem, params, 192)
    # Each of the 7 blocks is configured exactly once: control flow
    # coalescing reconfigures per block, not per divergent path.
    assert result.bbs.reconfigurations == result.n_blocks


def test_loop_matches_interpreter_and_reschedules_blocks():
    stride, nt = 8, 96
    rng = np.random.default_rng(3)
    data = rng.normal(size=stride * nt)
    count = rng.integers(1, stride + 1, size=nt)
    mem = MemoryImage(8192)
    bd = mem.alloc_array("data", data)
    bc = mem.alloc_array("count", count)
    bo = mem.alloc("out", nt)
    params = {"data": bd, "count": bc, "out": bo, "stride": stride}
    result = _run_both(loop_sum_kernel(), mem, params, nt)
    # The loop header re-executes once per distinct remaining-trip-count
    # cohort: blocks executed must exceed the static block count.
    assert result.bbs.blocks_executed > result.n_blocks


def test_memcopy_runs():
    n = 64
    mem = MemoryImage(1024)
    src = mem.alloc_array("src", np.arange(float(n)))
    dst = mem.alloc("dst", n)
    result = _run_both(memcopy_kernel(), mem, {"src": src, "dst": dst, "n": n}, n)
    assert result.l1.accesses > 0


def test_config_overhead_shrinks_with_thread_count():
    overheads = []
    for n in (64, 512):
        kernel, mem, params = make_fig1_workload(n_threads=n)
        result = VGIWCore().run(kernel, mem, params, n)
        overheads.append(result.config_overhead)
    assert overheads[1] < overheads[0]


def test_lvc_accessed_only_for_crossing_values():
    # saxpy has no block-crossing values: its LVC traffic must be zero.
    mem, params = _saxpy_setup()
    result = VGIWCore().run(saxpy_kernel(), mem, params, 128)
    assert result.lvc_accesses == 0

    # fig1 carries 'v' and 'r' across blocks: LVC traffic is non-zero.
    kernel, mem, params = make_fig1_workload(n_threads=128)
    result = VGIWCore().run(kernel, mem, params, 128)
    assert result.lvc_accesses > 0


def test_replication_speeds_up_execution():
    mem1, params = _saxpy_setup(256)
    mem2 = mem1.clone()
    kernel = saxpy_kernel()
    spec = FabricSpec()
    with_rep = VGIWCore().run(
        compile_kernel(kernel, spec, replicate=True), mem1, params, 256
    )
    without_rep = VGIWCore().run(
        compile_kernel(kernel, spec, replicate=False), mem2, params, 256
    )
    assert with_rep.cycles < without_rep.cycles


def test_token_buffer_depth_limits_inflight():
    # A tiny token buffer throttles injection; cycles must not decrease.
    kernel, mem, params = make_fig1_workload(n_threads=256)
    mem2 = mem.clone()
    deep = VGIWCore(VGIWConfig(token_buffer_depth=64)).run(
        kernel, mem, params, 256
    )
    shallow = VGIWCore(VGIWConfig(token_buffer_depth=2)).run(
        kernel, mem2, params, 256
    )
    assert shallow.cycles >= deep.cycles


def test_fabric_stats_counts_are_consistent():
    kernel, mem, params = make_fig1_workload(n_threads=64)
    result = VGIWCore().run(kernel, mem, params, 64)
    # Every node fire produced a token-buffer event.
    assert result.fabric.tokens == result.fabric.node_fires
    assert result.fabric.threads == result.bbs.threads_streamed
    assert sum(result.fabric.ops.values()) == result.fabric.node_fires
    assert result.fabric.ops["cvu"] > 0  # initiators + terminators


def test_precompiled_kernel_accepted():
    mem, params = _saxpy_setup()
    ck = compile_kernel(saxpy_kernel())
    result = VGIWCore().run(ck, mem, params, 128)
    assert result.kernel_name == "saxpy"


def test_tiling_splits_large_launches():
    # Force tiny tiles via a small CVT.
    config = VGIWConfig(cvt_bits=64 * 3)  # 64 threads per tile for 3 blocks
    mem, params = _saxpy_setup(256)
    result = _run_both(saxpy_kernel(), mem, params, 256, config=config)
    assert result.tiles == 4
