"""Tests for per-block dataflow graph construction."""

from repro.arch import UnitKind
from repro.compiler import (
    NodeKind,
    NodeSrc,
    allocate_live_values,
    build_kernel_dfgs,
)
from repro.ir import DType, KernelBuilder
from repro.kernels import fig1_kernel, loop_sum_kernel, saxpy_kernel


def _dfgs(kernel):
    lv = allocate_live_values(kernel)
    return build_kernel_dfgs(kernel, lv), lv


def test_every_block_has_init_and_term():
    for kf in (saxpy_kernel, fig1_kernel, loop_sum_kernel):
        k = kf()
        dfgs, _ = _dfgs(k)
        for name, dfg in dfgs.items():
            kinds = [n.kind for n in dfg.nodes]
            assert kinds.count(NodeKind.INIT) == 1
            assert kinds.count(NodeKind.TERM) == 1
            assert dfg.node(dfg.init_node).kind is NodeKind.INIT
            assert dfg.node(dfg.term_node).kind is NodeKind.TERM


def test_topo_order_is_valid():
    k = fig1_kernel()
    dfgs, _ = _dfgs(k)
    for dfg in dfgs.values():
        order = dfg.topo_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for node in dfg.nodes:
            for up in node.input_nodes():
                assert pos[up] < pos[node.nid]


def test_lv_nodes_match_fetch_spill_sets():
    k = fig1_kernel()
    dfgs, lv = _dfgs(k)
    for name, dfg in dfgs.items():
        loads = {n.out_reg for n in dfg.nodes if n.kind is NodeKind.LVLOAD}
        stores = {n.out_reg for n in dfg.nodes if n.kind is NodeKind.LVSTORE}
        assert loads == set(lv.fetches[name])
        assert stores == set(lv.spills[name])
        for n in dfg.nodes:
            if n.kind in (NodeKind.LVLOAD, NodeKind.LVSTORE):
                assert n.lv_id == lv.ids[n.out_reg]


def test_branch_terminator_consumes_condition():
    k = saxpy_kernel()
    dfgs, _ = _dfgs(k)
    entry = dfgs["entry"]
    term = entry.node(entry.term_node)
    assert len(term.srcs) == 1
    assert isinstance(term.srcs[0], NodeSrc)
    cond = entry.node(term.srcs[0].node)
    assert cond.dtype is DType.PRED


def test_store_after_loads_gets_join():
    kb = KernelBuilder("war", params=["a", "out"])
    base = kb.param("a")
    # Three loads followed by a store: the store must wait on a join of
    # the loads (write-after-read, paper §3.5 example).
    s = kb.load(base) + kb.load(base + 1) + kb.load(base + 2)
    kb.store(kb.param("out"), s)
    k = kb.build()
    dfgs, _ = _dfgs(k)
    entry = dfgs["entry"]
    joins = [n for n in entry.nodes if n.kind is NodeKind.JOIN]
    assert len(joins) == 1
    assert len(joins[0].ctrl) == 3
    store = next(n for n in entry.nodes if n.kind is NodeKind.STORE)
    assert joins[0].nid in store.ctrl


def test_load_after_store_is_ordered():
    kb = KernelBuilder("raw", params=["a", "out"])
    kb.store(kb.param("a"), 1.0)
    v = kb.load(kb.param("a"))
    kb.store(kb.param("out"), v)
    k = kb.build()
    dfgs, _ = _dfgs(k)
    entry = dfgs["entry"]
    store0 = next(n for n in entry.nodes if n.kind is NodeKind.STORE)
    load = next(n for n in entry.nodes if n.kind is NodeKind.LOAD)
    assert store0.nid in load.ctrl


def test_split_inserted_for_wide_fanout():
    kb = KernelBuilder("fan", params=["out"])
    v = kb.load(kb.param("out"))  # one producer ...
    acc = v * 1.0
    for i in range(7):  # ... feeding 8 consumers
        acc = acc + v
    kb.store(kb.param("out"), acc)
    k = kb.build()
    dfgs, _ = _dfgs(k)
    entry = dfgs["entry"]
    splits = [n for n in entry.nodes if n.kind is NodeKind.SPLIT]
    assert splits, "a fanout-8 value must be split"
    consumers = entry.consumers()
    for nid, cons in consumers.items():
        assert len(cons) <= 4


def test_unit_demand_kinds():
    k = fig1_kernel()
    dfgs, _ = _dfgs(k)
    entry = dfgs["entry"]
    demand = entry.unit_demand()
    assert demand[UnitKind.CVU] == 2          # init + term
    assert demand[UnitKind.LDST] == 1         # the data load
    sqrt_block = next(
        d for d in dfgs.values()
        if any(n.kind is NodeKind.OP and n.op.value == "fsqrt" for n in d.nodes)
    )
    assert sqrt_block.unit_demand()[UnitKind.SPECIAL] == 1


def test_sinks_include_stores_and_term():
    k = saxpy_kernel()
    dfgs, _ = _dfgs(k)
    body = dfgs["then.1"]
    sinks = set(body.sink_nodes())
    store = next(n.nid for n in body.nodes if n.kind is NodeKind.STORE)
    assert store in sinks
    assert body.term_node in sinks
