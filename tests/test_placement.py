"""Tests for the fabric model, place & route, replication, scheduling,
and oversized-block partitioning."""

import hashlib
import math
import os
import pickle

import pytest

from repro.arch import FabricSpec, UnitKind
from repro.compiler import (
    CapacityError,
    Fabric,
    allocate_live_values,
    build_kernel_dfgs,
    compile_kernel,
    max_replicas,
    place_block,
    schedule_blocks,
    split_block,
)
from repro.interp import interpret
from repro.ir import KernelBuilder
from repro.kernels import fig1_kernel, loop_sum_kernel, saxpy_kernel
from repro.memory import MemoryImage


def test_fabric_composition_matches_spec():
    spec = FabricSpec()
    fabric = Fabric(spec)
    assert len(fabric.units) == 108
    for kind, count in spec.counts.items():
        assert len(fabric.by_kind[kind]) == count


def test_memory_units_on_perimeter():
    fabric = Fabric(FabricSpec())
    w, h = fabric.spec.width, fabric.spec.height
    for kind in (UnitKind.LDST, UnitKind.LVU):
        for uid in fabric.by_kind[kind]:
            u = fabric.units[uid]
            assert u.x in (0, w - 1) or u.y in (0, h - 1), (
                f"{kind} unit {uid} at ({u.x},{u.y}) is not on the perimeter"
            )


def test_hop_distance_metric():
    fabric = Fabric(FabricSpec())
    a = fabric.units[0]
    # Distance to itself is one hop (output loops back through a switch).
    assert fabric.hops(a.uid, a.uid) == 1
    # Folded-hypercube shortcut: Manhattan distance 2 is still one hop.
    for u in fabric.units:
        d = abs(u.x - a.x) + abs(u.y - a.y)
        if d == 2:
            assert fabric.hops(a.uid, u.uid) == 1
        if d == 3:
            assert fabric.hops(a.uid, u.uid) == 2


def test_placement_is_legal():
    k = fig1_kernel()
    ck = compile_kernel(k)
    for cb in ck.blocks.values():
        used = set()
        for replica in cb.placement.replicas:
            for nid, uid in replica.unit_of.items():
                node = cb.dfg.node(nid)
                unit = ck.fabric.units[uid]
                assert unit.kind is node.unit_kind
                assert uid not in used, "two nodes share a physical unit"
                used.add(uid)


def test_edge_hops_positive():
    ck = compile_kernel(saxpy_kernel())
    for cb in ck.blocks.values():
        for replica in cb.placement.replicas:
            assert all(h >= 1 for h in replica.edge_hops.values())
            # Every data/control edge has a routed latency.
            n_edges = sum(len(n.input_nodes()) for n in cb.dfg.nodes)
            assert len(replica.edge_hops) <= n_edges


def test_replication_fills_fabric():
    ck = compile_kernel(saxpy_kernel())
    # saxpy's body block is small; several replicas must fit.
    assert ck.blocks["then.1"].n_replicas >= 2
    # Replicas are capped at 8 (CVU pairs).
    assert all(cb.n_replicas <= 8 for cb in ck.blocks.values())


def test_replication_can_be_disabled():
    ck = compile_kernel(saxpy_kernel(), replicate=False)
    assert all(cb.n_replicas == 1 for cb in ck.blocks.values())


def test_schedule_entry_is_zero_and_back_edges_decrease():
    k = loop_sum_kernel()
    sched = schedule_blocks(k)
    assert sched.id_of(k.entry) == 0
    # Loops manifest as successor IDs smaller than the block's own ID
    # (paper section 3.1).
    back_edges = [
        (name, succ)
        for name, block in k.blocks.items()
        for succ in block.successors()
        if sched.id_of(succ) <= sched.id_of(name)
    ]
    assert len(back_edges) == 1


def test_max_replicas_zero_for_oversized():
    kb = KernelBuilder("big", params=["out"])
    acc = kb.tid() * 1
    for i in range(80):  # more compute nodes than the 32 compute units
        acc = acc + i
    kb.store(kb.param("out"), kb.i2f(acc))
    k = kb.build()
    lv = allocate_live_values(k)
    dfgs = build_kernel_dfgs(k, lv)
    assert max_replicas(dfgs["entry"], FabricSpec(), 8) == 0


def test_compile_partitions_oversized_block():
    kb = KernelBuilder("big", params=["out"])
    acc = kb.tid() * 1
    for i in range(80):
        acc = acc + i
    kb.store(kb.param("out") + kb.tid(), kb.i2f(acc))
    k = kb.build()
    ck = compile_kernel(k)
    # The block was split into a chain; every piece now fits.
    assert ck.n_blocks > 1
    for cb in ck.blocks.values():
        assert cb.n_replicas >= 1

    # Semantics preserved: interpret the partitioned kernel.
    base = sum(range(80))
    mem = MemoryImage(64)
    out = mem.alloc("out", 4)
    interpret(ck.kernel, mem, {"out": out}, 4)
    assert list(mem.read_region("out")) == [float(base + t) for t in range(4)]


def test_split_block_preserves_semantics():
    k = saxpy_kernel()
    k2 = split_block(k, "then.1")
    assert len(k2.blocks) == len(k.blocks) + 1
    import numpy as np

    for kernel in (k, k2):
        mem = MemoryImage(128)
        bx = mem.alloc_array("x", np.arange(8.0))
        by = mem.alloc_array("y", np.ones(8))
        bo = mem.alloc("out", 8)
        interpret(kernel, mem, {"a": 2.0, "x": bx, "y": by, "out": bo, "n": 8}, 8)
        np.testing.assert_allclose(mem.read_region("out"), 2.0 * np.arange(8.0) + 1)


def test_place_block_raises_when_no_capacity():
    k = saxpy_kernel()
    lv = allocate_live_values(k)
    dfgs = build_kernel_dfgs(k, lv)
    fabric = Fabric(FabricSpec())
    with pytest.raises(CapacityError):
        place_block(dfgs["entry"], fabric, 0)


def test_small_custom_fabric():
    spec = FabricSpec(
        width=4,
        height=4,
        counts={
            UnitKind.COMPUTE: 4,
            UnitKind.SPECIAL: 1,
            UnitKind.LDST: 4,
            UnitKind.LVU: 3,
            UnitKind.SJU: 2,
            UnitKind.CVU: 2,
        },
    )
    ck = compile_kernel(saxpy_kernel(), spec=spec)
    assert all(cb.n_replicas == 1 for cb in ck.blocks.values())


def test_hop_table_is_half_manhattan_rounded_up():
    small = FabricSpec(
        width=4,
        height=4,
        counts={
            UnitKind.COMPUTE: 4,
            UnitKind.SPECIAL: 1,
            UnitKind.LDST: 4,
            UnitKind.LVU: 3,
            UnitKind.SJU: 2,
            UnitKind.CVU: 2,
        },
    )
    for spec in (FabricSpec(), small):
        fabric = Fabric(spec)
        for a in fabric.units:
            for b in fabric.units:
                manhattan = abs(a.x - b.x) + abs(a.y - b.y)
                want = max(1, math.ceil(manhattan / 2))
                assert fabric.hop[a.uid][b.uid] == want
                assert fabric.hops(a.uid, b.uid) == want


def test_fabric_pickle_round_trip_keeps_hop_table():
    fabric = Fabric(FabricSpec())
    clone = pickle.loads(pickle.dumps(fabric))
    assert "hop" not in fabric.__getstate__()
    assert clone.hop == fabric.hop
    assert clone.units == fabric.units


#: SHA-256 of every placement below, recorded before the hop table and
#: neighbour-list scoring replaced per-pair ``Fabric.hops`` calls: the
#: rewrite must place every node on the same unit.
PLACEMENT_SHA256 = (
    "3f115ec31ec3a83fbca3f3e3c74f64ea06734a33971ff16255b4521fd57e325b"
)


#: The corpus reproducers the digest covers (the whole corpus when it
#: was recorded); later reproducers leave it unchanged.
PINNED_CORPUS = ("edge-div-by-zero", "edge-f2i-nonfinite",
                 "edge-fspecial-nonfinite", "edge-shift-oor")


def _placement_lines(tag, placed):
    return (f"{tag} {sorted(placed.unit_of.items())} "
            f"{sorted(placed.edge_hops.items())}")


def test_placements_are_pinned():
    """VGIW replicas of every block and SGMF replicas of every kernel
    (or its unmappable message), over all registry kernels at ``small``
    and the fuzz corpus, optimized unrolled and rolled."""
    from repro.compiler.optimize import optimize_kernel
    from repro.fuzz import load_corpus_case
    from repro.kernels.registry import all_names, make_workload
    from repro.sgmf.mapping import SGMFUnmappableError, map_kernel

    cases = []
    for name in all_names(include_extras=True):
        w = make_workload(name, "small")
        cases.append((name, w.kernel, w.params))
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    for name in PINNED_CORPUS:
        case = load_corpus_case(os.path.join(corpus, f"{name}.kir"))
        cases.append((case.name, case.kernel, case.params))
    assert len(cases) == 27

    digest = hashlib.sha256()
    for name, kernel, params in cases:
        for unroll in (True, False):
            k = optimize_kernel(kernel, params=params, unroll=unroll)
            lines = [f"{name} unroll={unroll}"]
            for bname, cb in compile_kernel(k).blocks.items():
                for r, placed in enumerate(cb.placement.replicas):
                    lines.append(_placement_lines(f"vgiw {bname} {r}", placed))
            try:
                mapping = map_kernel(k)
            except SGMFUnmappableError as exc:
                lines.append(f"sgmf unmappable {exc}")
            else:
                for r, blocks in enumerate(mapping.replicas):
                    for bname, placed in blocks.items():
                        lines.append(
                            _placement_lines(f"sgmf {bname} {r}", placed))
            digest.update("\n".join(lines).encode())
    assert digest.hexdigest() == PLACEMENT_SHA256
