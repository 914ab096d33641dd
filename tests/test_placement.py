"""Tests for the fabric model, place & route, replication, scheduling,
and oversized-block partitioning."""

import hashlib
import math
import os

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


def _equivalence_cases():
    """Every Table 2 kernel at ``tiny`` and the pinned corpus cases."""
    from repro.fuzz import load_corpus_case
    from repro.kernels.registry import all_names, make_workload

    cases = [(name, make_workload(name, "tiny").kernel)
             for name in all_names()]
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    for name in PINNED_CORPUS:
        case = load_corpus_case(os.path.join(corpus, f"{name}.kir"))
        cases.append((case.name, case.kernel))
    return cases


def _eager(dfgs, spec, n_replicas, improve_passes):
    """Every replica placed in order on fresh free lists: the placement
    a first-use placer must reproduce whatever order it is forced in."""
    from repro.compiler.placement import _place_one, wiring

    fabric = Fabric(spec)
    free = {k: list(v) for k, v in fabric.by_kind.items()}
    wires = [wiring(dfg) for dfg in dfgs]
    return [[_place_one(dfg, w, fabric, free, improve_passes)
             for dfg, w in zip(dfgs, wires)] for _ in range(n_replicas)]


def _lines(replicas):
    return [(sorted(p.unit_of.items()), sorted(p.edge_hops.items()))
            for p in replicas]


def _force_out_of_order(n, replica):
    """Force the last replica, then replica 0, then the rest."""
    replica(n - 1)
    replica(0)
    return [replica(k) for k in range(n)]


def _check_vgiw(ck, spec):
    for cb in ck.blocks.values():
        n = cb.n_replicas
        got = _force_out_of_order(n, cb.placement.replica)
        want = [r[0] for r in _eager([cb.dfg], spec, n, 1)]
        assert _lines(got) == _lines(want), cb.name
        # Every replica placed: the first-use state is released.
        assert cb.placement._placer._pending is None


def _check_sgmf(mapping, spec):
    n = mapping.n_replicas
    got = _force_out_of_order(n, mapping.replica)
    order = mapping.schedule.order
    want = _eager([mapping.dfgs[b] for b in order], spec, n, 0)
    for g, w in zip(got, want):
        assert list(g) == list(order)
        assert _lines(g.values()) == _lines(w)
    assert mapping.placer._pending is None


def test_first_use_placement_matches_eager_placement():
    """Replicas forced out of order land where placing every replica in
    order puts them."""
    from repro.sgmf.mapping import SGMFUnmappableError, map_kernel

    spec = FabricSpec()
    lazy_blocks = 0
    for name, kernel in _equivalence_cases():
        ck = compile_kernel(kernel)
        for cb in ck.blocks.values():
            assert len(cb.placement._placer.placed) == 1
            lazy_blocks += cb.n_replicas > 1
        _check_vgiw(ck, spec)
        try:
            mapping = map_kernel(kernel)
        except SGMFUnmappableError:
            continue
        assert len(mapping.placer.placed) == 1
        _check_sgmf(mapping, spec)
    assert lazy_blocks > 50


def test_replica_index_out_of_range():
    ck = compile_kernel(saxpy_kernel())
    placement = ck.blocks["entry"].placement
    for k in (-1, placement.n_replicas):
        with pytest.raises(IndexError):
            placement.replica(k)


def test_compiles_share_one_fabric_per_geometry():
    from repro.compiler.placement import shared_fabric
    from repro.sgmf.mapping import map_kernel

    spec = FabricSpec()
    reordered = FabricSpec(counts=dict(reversed(list(spec.counts.items()))))
    fabric = compile_kernel(saxpy_kernel()).fabric
    assert compile_kernel(fig1_kernel(), spec=reordered).fabric is fabric
    assert map_kernel(saxpy_kernel()).placer._pending[1] is fabric
    assert shared_fabric(spec).units == Fabric(spec).units
    small = FabricSpec(width=4, height=4, counts={
        UnitKind.COMPUTE: 4, UnitKind.SPECIAL: 1, UnitKind.LDST: 4,
        UnitKind.LVU: 3, UnitKind.SJU: 2, UnitKind.CVU: 2})
    assert shared_fabric(small) is not fabric
    assert shared_fabric(small).units == Fabric(small).units


def test_replica_deal():
    from repro.compiler.placement import replica_deal

    assert replica_deal(0, 8, 64) == (1, [])
    assert replica_deal(64, 8, 64) == (1, [0] * 64)
    n, slots = replica_deal(130, 2, 64)
    assert n == 2 and slots == [0] * 64 + [1] * 64 + [0] * 2
    assert replica_deal(3, 8, 1) == (3, [0, 1, 2])
    assert replica_deal(10, 4, 1) == (4, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1])
    assert replica_deal(5, 1, 1) == (1, [0] * 5)


@pytest.fixture
def place_calls(monkeypatch):
    """Counts ``_place_one`` calls, the placement of one graph of one
    replica."""
    import repro.compiler.placement as placement

    calls = []
    real = placement._place_one

    def counted(dfg, *args, **kwargs):
        calls.append(dfg.block_name)
        return real(dfg, *args, **kwargs)

    monkeypatch.setattr(placement, "_place_one", counted)
    return calls


def _saxpy_launch(n):
    import numpy as np

    mem = MemoryImage(4 * n + 64)
    bx = mem.alloc_array("x", np.arange(float(n)))
    by = mem.alloc_array("y", np.ones(n))
    bo = mem.alloc("out", n)
    return mem, {"a": 2.0, "x": bx, "y": by, "out": bo, "n": n}


@pytest.mark.parametrize("n_threads, extra", [(1, 0), (64, 0), (65, 3)])
def test_vgiw_places_only_replicas_that_run(place_calls, n_threads, extra):
    """One 64-thread batch packet reaches replica 0 only; a 65th thread
    reaches replica 1 of each of saxpy's three blocks."""
    from repro.vgiw import VGIWCore

    ck = compile_kernel(saxpy_kernel())
    assert len(place_calls) == len(ck.blocks) == 3
    assert all(cb.n_replicas >= 2 for cb in ck.blocks.values())
    mem, params = _saxpy_launch(n_threads)
    VGIWCore().run(ck, mem, params, n_threads)
    assert len(place_calls) == 3 + extra
    assert sorted(place_calls[3:]) == sorted(ck.blocks)[:extra]


def test_sgmf_plans_only_replicas_that_run(place_calls, monkeypatch):
    """Three threads dealt round-robin over eight replicas place and
    plan three."""
    from repro.sgmf import SGMFCore

    kb = KernelBuilder("deal", params=["out"])
    kb.store(kb.param("out") + kb.tid(), kb.i2f(kb.tid() * 2))
    kernel = kb.build()
    built = []
    real = SGMFCore._build_plans

    def counted(*args):
        plans, waste = real(*args)
        built.append(len(plans))
        return plans, waste

    monkeypatch.setattr(SGMFCore, "_build_plans", staticmethod(counted))
    mem = MemoryImage(64)
    out = mem.alloc("out", 3)
    result = SGMFCore().run(kernel, mem, {"out": out}, 3)
    assert result.n_replicas == 8
    assert built == [3]
    assert len(place_calls) == 3
    assert list(mem.read_region("out")) == [0.0, 2.0, 4.0]


def test_fuzz_chunk_places_only_what_runs(place_calls):
    """A fuzz chunk's launches have 1-12 threads, so they reach few
    replicas: 215 placements where placing every replica took 911."""
    from repro.fuzz import CampaignConfig, run_campaign

    run_campaign(CampaignConfig(seed=1000, count=20, jobs=1, reduce=False))
    assert 0 < len(place_calls) <= 250
