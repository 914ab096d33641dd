"""Tests for the introspection tools: DOT export, profiling, policies."""

import numpy as np
import pytest

from repro.arch import VGIWConfig
from repro.compiler import compile_kernel
from repro.compiler.dot import cfg_to_dot, dfg_to_dot, fabric_to_dot
from repro.interp import interpret
from repro.kernels import fig1_kernel, make_fig1_workload
from repro.vgiw import VGIWCore


def test_cfg_dot_contains_all_blocks_and_edges():
    k = fig1_kernel()
    dot = cfg_to_dot(k)
    assert dot.startswith("digraph")
    for name in k.blocks:
        assert f'"{name}"' in dot
    # Conditional edges are labelled.
    assert '[label="T"' in dot
    assert '[label="F"' in dot


def test_dfg_dot_with_placement():
    from repro.kernels import saxpy_kernel

    ck = compile_kernel(saxpy_kernel())
    cb = ck.blocks["then.1"]  # two loads + store: has a memory-order join
    dot = dfg_to_dot(cb.dfg, cb.placement.replicas[0])
    assert "digraph" in dot
    # Unit assignments are annotated.
    assert "\\nu" in dot
    # Control (memory-ordering) edges render dashed.
    assert "style=dashed" in dot


def test_fabric_dot_occupancy():
    k = fig1_kernel()
    ck = compile_kernel(k)
    cb = ck.blocks["entry"]
    dot = fabric_to_dot(ck.fabric, cb.placement.replicas[0])
    assert dot.count("fillcolor") == len(cb.placement.replicas[0].unit_of)


def test_profile_records_every_execution():
    kernel, mem, params = make_fig1_workload(n_threads=256)
    r = VGIWCore().run(kernel, mem, params, 256, profile=True)
    assert len(r.block_profile) == r.bbs.blocks_executed
    total_threads = sum(rec.n_threads for rec in r.block_profile)
    assert total_threads == r.bbs.threads_streamed
    for rec in r.block_profile:
        assert rec.end >= rec.start
        assert rec.span >= rec.inject_cycles - 1  # injection is a lower bound

    agg = r.profile_by_block()
    assert set(agg) <= set(kernel.blocks)
    assert sum(v["executions"] for v in agg.values()) == len(r.block_profile)


def test_profile_off_by_default():
    kernel, mem, params = make_fig1_workload(n_threads=64)
    r = VGIWCore().run(kernel, mem, params, 64)
    assert r.block_profile == []


@pytest.mark.parametrize("policy", ["smallest_id", "largest_vector", "round_robin"])
def test_all_bbs_policies_are_correct(policy):
    kernel, mem, params = make_fig1_workload(n_threads=128)
    golden = mem.clone()
    interpret(kernel, golden, params, 128)
    r = VGIWCore(VGIWConfig(bbs_policy=policy)).run(kernel, mem, params, 128)
    assert np.array_equal(mem.data, golden.data)
    assert r.cycles > 0


def test_smallest_id_policy_is_competitive_on_divergence():
    results = {}
    for policy in ("smallest_id", "largest_vector"):
        kernel, mem, params = make_fig1_workload(n_threads=512)
        r = VGIWCore(VGIWConfig(bbs_policy=policy)).run(
            kernel, mem, params, 512
        )
        results[policy] = r.cycles
    assert results["smallest_id"] <= results["largest_vector"] * 1.02
