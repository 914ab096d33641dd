"""Structural verifier for compiled kernels.

``verify_compiled`` checks every invariant the executors rely on; it is
cheap enough to call from tests on every compiled benchmark, and from
anyone extending the compiler (see docs/extending.md).

Checked invariants:

* graphs are acyclic, with exactly one initiator and one terminator;
* every ``NodeSrc`` points at an existing, value-producing node;
* node arities match their opcodes; split nodes relay exactly one value;
* intra-thread memory ordering edges exist (no two memory operations on
  the same block where a store is unordered against a preceding access);
* data fanout never exceeds the interconnect degree;
* placement is total (every non-pseudo node has a unit of the right
  kind), injective per replica and across replicas, and every edge has
  a routed hop latency >= 1;
* LVU nodes carry live value IDs consistent with the kernel's map, and
  same-colour fetch/spill pairs are WAR-ordered.
"""

from __future__ import annotations

from typing import Set

from repro.compiler.dfg import (
    BlockDFG,
    MAX_FANOUT,
    NodeKind,
    NodeSrc,
)
from repro.compiler.pipeline import CompiledKernel
from repro.resilience.errors import VerificationError


class DFGVerificationError(VerificationError):
    """A compiled kernel violates an executor invariant.

    Historically an ``AssertionError`` subclass; now part of the
    :class:`~repro.resilience.errors.ReproError` hierarchy so it
    survives ``python -O`` semantics and fault-isolating sweeps."""


def _fail(block: str, message: str) -> None:
    raise DFGVerificationError(f"[{block}] {message}")


_VALUE_PRODUCERS = {
    NodeKind.INIT, NodeKind.OP, NodeKind.LOAD, NodeKind.LVLOAD,
    NodeKind.SPLIT,
}


def verify_dfg(dfg: BlockDFG, max_fanout: int = MAX_FANOUT) -> None:
    """Verify one block's dataflow graph."""
    name = dfg.block_name
    kinds = [n.kind for n in dfg.nodes]
    if kinds.count(NodeKind.INIT) != 1:
        _fail(name, "exactly one initiator CVU required")
    if kinds.count(NodeKind.TERM) != 1:
        _fail(name, "exactly one terminator CVU required")

    ids = {n.nid for n in dfg.nodes}
    for node in dfg.nodes:
        for src in node.srcs:
            if isinstance(src, NodeSrc):
                if src.node not in ids:
                    _fail(name, f"node {node.nid} reads missing node {src.node}")
                producer = dfg.node(src.node)
                if producer.kind not in _VALUE_PRODUCERS:
                    _fail(name, f"node {node.nid} reads non-value node "
                                f"{src.node} ({producer.kind.value})")
        for up in node.ctrl:
            if up not in ids:
                _fail(name, f"node {node.nid} control-depends on missing "
                            f"node {up}")
        if node.kind is NodeKind.SPLIT and len(node.srcs) != 1:
            _fail(name, f"split node {node.nid} must relay exactly one value")
        if node.kind is NodeKind.LVSTORE and len(node.srcs) != 1:
            _fail(name, f"lvstore node {node.nid} must consume one value")
        if node.kind in (NodeKind.LVLOAD, NodeKind.LVSTORE) \
                and node.lv_id is None:
            _fail(name, f"LVU node {node.nid} lacks a live value ID")

    dfg.topo_order()  # raises on cycles

    consumers = dfg.consumers()
    for nid, cons in consumers.items():
        if len(cons) > max_fanout:
            _fail(name, f"node {nid} fanout {len(cons)} exceeds {max_fanout}")

    # Same-colour fetch/spill WAR ordering.
    fetches = {n.lv_id: n.nid for n in dfg.nodes if n.kind is NodeKind.LVLOAD}
    for node in dfg.nodes:
        if node.kind is NodeKind.LVSTORE and node.lv_id in fetches:
            fetch = fetches[node.lv_id]
            if fetch not in _ancestors(dfg, node.nid):
                _fail(name, f"spill {node.nid} may overwrite live value "
                            f"{node.lv_id} before fetch {fetch} reads it")

    # Memory ordering: every store must be an ancestor or descendant of
    # every other memory op of the block.
    mem_nodes = [n.nid for n in dfg.nodes
                 if n.kind in (NodeKind.LOAD, NodeKind.STORE)]
    stores = [n.nid for n in dfg.nodes if n.kind is NodeKind.STORE]
    for store in stores:
        anc = _ancestors(dfg, store)
        desc = _descendants(dfg, store)
        for other in mem_nodes:
            if other == store:
                continue
            if other not in anc and other not in desc:
                _fail(name, f"store {store} unordered against memory "
                            f"node {other}")


def _ancestors(dfg: BlockDFG, nid: int) -> Set[int]:
    seen: Set[int] = set()
    stack = list(dfg.node(nid).input_nodes())
    while stack:
        up = stack.pop()
        if up in seen:
            continue
        seen.add(up)
        stack.extend(dfg.node(up).input_nodes())
    return seen


def _descendants(dfg: BlockDFG, nid: int) -> Set[int]:
    consumers = dfg.consumers()
    seen: Set[int] = set()
    stack = list(consumers[nid])
    while stack:
        down = stack.pop()
        if down in seen:
            continue
        seen.add(down)
        stack.extend(consumers[down])
    return seen


def verify_compiled(compiled: CompiledKernel) -> None:
    """Verify every block of a compiled kernel, including placement."""
    used_units: Set[int] = set()
    for cb in compiled.blocks.values():
        verify_dfg(cb.dfg)
        block_units: Set[int] = set()
        for replica in cb.placement.replicas:
            for nid, uid in replica.unit_of.items():
                node = cb.dfg.node(nid)
                if node.pseudo:
                    _fail(cb.name, f"pseudo node {nid} was placed")
                unit = compiled.fabric.units[uid]
                if unit.kind is not node.unit_kind:
                    _fail(cb.name, f"node {nid} ({node.unit_kind.value}) "
                                   f"placed on {unit.kind.value} unit {uid}")
                if uid in block_units:
                    _fail(cb.name, f"unit {uid} assigned twice in one "
                                   f"configuration")
                block_units.add(uid)
            for node in cb.dfg.nodes:
                for up in node.input_nodes():
                    hops = replica.edge_hops.get((up, node.nid))
                    if hops is None or hops < 1:
                        _fail(cb.name, f"edge {up}->{node.nid} lacks a "
                                       f"routed latency")
        # Different blocks may reuse units (they are configured one at a
        # time), so cross-block overlap is fine.
        used_units |= block_units

    # Live value IDs must be consistent with the kernel-level map.
    ids = set(compiled.lv_map.ids.values())
    for cb in compiled.blocks.values():
        for node in cb.dfg.nodes:
            if node.lv_id is not None and node.lv_id not in ids:
                _fail(cb.name, f"node {node.nid} uses unknown live value "
                               f"ID {node.lv_id}")
