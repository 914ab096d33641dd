"""Tests for the SGMF dataflow baseline: mapping, capacity, execution."""

import numpy as np
import pytest

from repro.arch import UnitKind
from repro.interp import interpret
from repro.ir import KernelBuilder
from repro.kernels import (
    fig1_kernel,
    loop_sum_kernel,
    make_fig1_workload,
    memcopy_kernel,
    saxpy_kernel,
)
from repro.memory import MemoryImage
from repro.sgmf import (
    SGMFCore,
    SGMFUnmappableError,
    build_sgmf_dfgs,
    kernel_demand,
    map_kernel,
)
from repro.compiler.dfg import NodeKind


def _run_both(kernel, mem, params, n_threads):
    golden = mem.clone()
    interpret(kernel, golden, params, n_threads)
    result = SGMFCore().run(kernel, mem, params, n_threads)
    assert np.array_equal(mem.data, golden.data), (
        f"SGMF final memory diverges from the interpreter for {kernel.name}"
    )
    return result


def test_sgmf_dfgs_have_no_lvu_demand():
    k = fig1_kernel()
    dfgs = build_sgmf_dfgs(k)
    demand = kernel_demand(dfgs)
    assert demand[UnitKind.LVU] == 0  # live values are wired, not cached
    # Only the entry block keeps a real initiator CVU; the rest have a
    # steer (terminator) each.
    real_inits = sum(
        1
        for dfg in dfgs.values()
        for n in dfg.nodes
        if n.kind is NodeKind.INIT and not n.pseudo
    )
    assert real_inits == 1


def test_whole_kernel_demand_sums_blocks():
    k = saxpy_kernel()
    dfgs = build_sgmf_dfgs(k)
    demand = kernel_demand(dfgs)
    assert demand[UnitKind.LDST] == 3  # two loads + one store
    mapping = map_kernel(k)
    assert mapping.n_replicas >= 2


def test_oversized_kernel_unmappable():
    kb = KernelBuilder("huge", params=["out"])
    acc = kb.tid() * 1
    for i in range(100):  # way beyond 32 compute units
        acc = acc + i
    kb.store(kb.param("out"), kb.i2f(acc))
    k = kb.build()
    with pytest.raises(SGMFUnmappableError, match="does not fit"):
        map_kernel(k)


def test_many_block_kernel_exhausts_cvus():
    # > 16 steer nodes (one per block) exceed the 16 CVUs.
    kb = KernelBuilder("branchy", params=["data", "out"])
    v = kb.load(kb.param("data") + kb.tid())
    r = kb.var("r", 0.0)
    for i in range(10):  # 10 nested diamonds -> ~31 blocks
        with kb.if_(v < float(i)):
            kb.assign(r, r + 1.0)
    kb.store(kb.param("out") + kb.tid(), r)
    k = kb.build()
    with pytest.raises(SGMFUnmappableError):
        map_kernel(k)


def test_saxpy_matches_interpreter():
    n = 256
    mem = MemoryImage(2048)
    bx = mem.alloc_array("x", np.arange(float(n)))
    by = mem.alloc_array("y", np.ones(n))
    bo = mem.alloc("out", n)
    r = _run_both(saxpy_kernel(), mem, {"a": 2.0, "x": bx, "y": by, "out": bo, "n": n}, n)
    assert r.cycles > 0
    assert r.waste_fires == 0  # all threads pass the guard


def test_fig1_divergence_wastes_fires():
    kernel, mem, params = make_fig1_workload(n_threads=256)
    r = _run_both(kernel, mem, params, 256)
    # Every thread skips at least one arm of the nested conditional.
    assert r.waste_fires > 0
    assert r.useful_fire_fraction < 1.0


def test_loop_kernel_matches():
    stride, nt = 4, 128
    rng = np.random.default_rng(5)
    mem = MemoryImage(4096)
    bd = mem.alloc_array("data", rng.normal(size=stride * nt))
    bc = mem.alloc_array("count", rng.integers(0, stride + 1, size=nt))
    bo = mem.alloc("out", nt)
    r = _run_both(
        loop_sum_kernel(), mem,
        {"data": bd, "count": bc, "out": bo, "stride": stride}, nt,
    )
    # Threads with zero iterations never visit the body: waste fires.
    assert r.waste_fires > 0


def test_no_reconfiguration_cost_beats_vgiw_on_tiny_kernels():
    from repro.vgiw import VGIWCore

    n = 1024
    mem = MemoryImage(3 * n + 64)
    bs = mem.alloc_array("src", np.arange(float(n)))
    bd = mem.alloc("dst", n)
    params = {"src": bs, "dst": bd, "n": n}
    mem2 = mem.clone()
    sgmf = SGMFCore().run(memcopy_kernel(), mem, params, n)
    vgiw = VGIWCore().run(memcopy_kernel(), mem2, params, n)
    # memcopy is tiny and convergent: SGMF's single configuration and
    # direct value flow win (paper section 5: "SGMF excels with kernels
    # characterized by small basic blocks and a small amount of branch
    # divergence").
    assert sgmf.cycles < vgiw.cycles


def test_replicas_capped_by_fabric():
    k = saxpy_kernel()
    mapping = map_kernel(k)
    assert 1 <= mapping.n_replicas <= 8
    # All replica placements use disjoint units.
    used = set()
    for replica in mapping.replicas:
        for placed in replica.values():
            for uid in placed.unit_of.values():
                assert uid not in used
                used.add(uid)


def test_functional_waves_answer_every_mappable_table2_kernel(monkeypatch):
    """The whole-kernel wave pass, not the thread-major fallback, runs
    every Table 2 kernel SGMF can map at ``tiny`` (17 of 21)."""
    from repro.compiler.optimize import optimize_variants
    from repro.kernels.registry import all_names, make_workload

    answered = {}
    functional_waves = SGMFCore._functional_waves

    def counting(self, kernel, *args):
        batch = functional_waves(self, kernel, *args)
        answered[name] = batch is not None
        return batch

    monkeypatch.setattr(SGMFCore, "_functional_waves", counting)
    for name in all_names():
        wl = make_workload(name, "tiny")
        kernel = optimize_variants(wl.kernel, wl.params)[1]
        try:
            _run_both(kernel, wl.memory.clone(), wl.params, wl.n_threads)
        except SGMFUnmappableError:
            pass
    assert len(answered) == 17
    assert all(answered.values()), answered
