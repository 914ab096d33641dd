"""Per-basic-block dataflow graph (the *graph instruction word*).

Each basic block is converted into a dataflow graph whose nodes map
one-to-one onto MT-CGRF functional units (paper §3.1, §3.5):

* one **initiator CVU** node that injects the thread ID,
* **LVU load** nodes for live-in registers the block reads,
* **op** nodes (compute / special / load / store),
* **split** nodes (SJUs) inserted for fanouts beyond the interconnect's
  degree, and **join** nodes (SJUs) that enforce intra-thread memory
  ordering (paper §3.5, "Split/join units"),
* **LVU store** nodes for defined registers that are live-out,
* one **terminator CVU** node that resolves the block's branch.

Data tokens carry values; control tokens carry only timing.  Immediates
and kernel parameters are configuration-time constants baked into unit
configuration registers, so they create no edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.arch.config import UnitKind
from repro.ir.block import BasicBlock
from repro.ir.instr import Op, TermKind, UnitClass, unit_class
from repro.ir.kernel import Kernel
from repro.ir.types import DType, Imm, TID_REG, is_param_reg, PARAM_PREFIX
from repro.resilience.errors import CompileError


class NodeKind(enum.Enum):
    __hash__ = object.__hash__  # singleton members: identity, in C

    INIT = "init"      # thread initiator CVU
    TERM = "term"      # thread terminator CVU
    OP = "op"          # compute or special op
    LOAD = "load"      # LDST unit
    STORE = "store"    # LDST unit
    LVLOAD = "lvload"  # LVU fetch of a live-in value
    LVSTORE = "lvstore"  # LVU spill of a live-out value
    SPLIT = "split"    # SJU fanout extension
    JOIN = "join"      # SJU memory-ordering join


# --- operand sources -------------------------------------------------------
@dataclass(frozen=True)
class NodeSrc:
    """Value produced by another node (a real dataflow edge)."""

    node: int


@dataclass(frozen=True)
class ImmSrc:
    """Configuration-time immediate."""

    value: Union[int, float, bool]


@dataclass(frozen=True)
class ParamSrc:
    """Configuration-time kernel parameter."""

    name: str


@dataclass(frozen=True)
class TidSrc:
    """The thread ID, delivered by the initiator CVU."""


Src = Union[NodeSrc, ImmSrc, ParamSrc, TidSrc]


@dataclass
class DFGNode:
    """One node of a block's dataflow graph."""

    nid: int
    kind: NodeKind
    op: Optional[Op] = None
    dtype: Optional[DType] = None
    srcs: List[Src] = field(default_factory=list)
    #: control-only dependencies (token timing, no value)
    ctrl: List[int] = field(default_factory=list)
    #: destination register (bookkeeping / debug)
    out_reg: Optional[str] = None
    #: live value ID for LVLOAD/LVSTORE nodes
    lv_id: Optional[int] = None
    #: pseudo nodes occupy no physical unit: SGMF wires live values and
    #: thread arrival directly between block subgraphs (paper §1: SGMF
    #: communicates intermediate values through the fabric, not an LVC).
    pseudo: bool = False

    @property
    def unit_kind(self) -> UnitKind:
        if self.kind in (NodeKind.INIT, NodeKind.TERM):
            return UnitKind.CVU
        if self.kind in (NodeKind.LVLOAD, NodeKind.LVSTORE):
            return UnitKind.LVU
        if self.kind in (NodeKind.LOAD, NodeKind.STORE):
            return UnitKind.LDST
        if self.kind in (NodeKind.SPLIT, NodeKind.JOIN):
            return UnitKind.SJU
        if unit_class(self.op) is UnitClass.SPECIAL:
            return UnitKind.SPECIAL
        return UnitKind.COMPUTE

    def input_nodes(self) -> List[int]:
        """All upstream node IDs (data and control)."""
        nodes = [s.node for s in self.srcs if isinstance(s, NodeSrc)]
        nodes.extend(self.ctrl)
        return nodes


@dataclass
class BlockDFG:
    """The dataflow graph of one basic block."""

    block_name: str
    nodes: List[DFGNode]
    init_node: int
    term_node: int
    #: branch metadata mirrored from the block terminator
    term_kind: TermKind = TermKind.RET
    true_target: Optional[str] = None
    false_target: Optional[str] = None

    def node(self, nid: int) -> DFGNode:
        return self.nodes[nid]

    def consumers(self) -> Dict[int, List[int]]:
        """Map node ID -> IDs of nodes consuming it (data or control)."""
        out: Dict[int, List[int]] = {n.nid: [] for n in self.nodes}
        for n in self.nodes:
            for up in n.input_nodes():
                out[up].append(n.nid)
        return out

    def unit_demand(self) -> Dict[UnitKind, int]:
        """Units of each kind one replica of this graph occupies."""
        demand: Dict[UnitKind, int] = {k: 0 for k in UnitKind}
        for n in self.nodes:
            if not n.pseudo:
                demand[n.unit_kind] += 1
        return demand

    def sink_nodes(self) -> List[int]:
        """Nodes with externally visible effects or no consumers.

        A thread has finished the block when all its sink tokens have
        fired; the BBS waits for that before reconfiguring.
        """
        consumed = {up for n in self.nodes for up in n.input_nodes()}
        sinks = [
            n.nid
            for n in self.nodes
            if n.kind in (NodeKind.STORE, NodeKind.LVSTORE, NodeKind.TERM)
            or n.nid not in consumed
        ]
        return sorted(set(sinks))

    def topo_order(self) -> List[int]:
        """Topological order over data+control edges (graphs are acyclic)."""
        indeg = {n.nid: len(n.input_nodes()) for n in self.nodes}
        ready = [nid for nid, d in indeg.items() if d == 0]
        consumers = self.consumers()
        order: List[int] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for c in consumers[nid]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(order) != len(self.nodes):
            raise CompileError(
                f"cycle in DFG of block {self.block_name}",
                block=self.block_name,
            )
        return order


class DFGBuildError(CompileError):
    """Raised when a block cannot be converted to a dataflow graph."""


#: Maximum data fanout a node can drive directly; beyond this the
#: compiler inserts SJU split nodes (paper §3.5).
MAX_FANOUT = 4


def build_block_dfg(
    kernel: Kernel,
    block: BasicBlock,
    fetches,
    spills,
    lv_ids: Dict[str, int],
    max_fanout: int = MAX_FANOUT,
) -> BlockDFG:
    """Build the dataflow graph of ``block``.

    ``fetches``/``spills`` are the block's live-in reads and live-out
    definitions (from :mod:`repro.compiler.livevalues`); ``lv_ids`` maps
    crossing registers to live value IDs.
    """
    nodes: List[DFGNode] = []

    def new_node(**kw) -> DFGNode:
        node = DFGNode(nid=len(nodes), **kw)
        nodes.append(node)
        return node

    init = new_node(kind=NodeKind.INIT, dtype=DType.INT, out_reg="tid")

    # Live-in fetches. The LVU is triggered by the thread-ID token.
    cur_def: Dict[str, int] = {}
    for reg in sorted(fetches):
        lvload = new_node(
            kind=NodeKind.LVLOAD,
            dtype=None,
            ctrl=[init.nid],
            out_reg=reg,
            lv_id=lv_ids[reg],
        )
        cur_def[reg] = lvload.nid

    def resolve(operand) -> Src:
        if isinstance(operand, Imm):
            return ImmSrc(operand.value)
        if operand == TID_REG:
            return TidSrc()
        if is_param_reg(operand):
            return ParamSrc(operand.name[len(PARAM_PREFIX):])
        if operand.name in cur_def:
            return NodeSrc(cur_def[operand.name])
        raise DFGBuildError(
            f"operand %{operand.name} has no producer in block "
            f"{block.name} (liveness bug?)"
        )

    # Instruction scan with intra-thread memory ordering.
    last_store: Optional[int] = None
    loads_since_store: List[int] = []
    for instr in block.instrs:
        srcs = [resolve(s) for s in instr.srcs]
        if instr.op is Op.LOAD:
            node = new_node(
                kind=NodeKind.LOAD, op=instr.op, dtype=instr.dtype,
                srcs=srcs, out_reg=instr.dst,
            )
            if last_store is not None:
                node.ctrl.append(last_store)
            loads_since_store.append(node.nid)
            cur_def[instr.dst] = node.nid
        elif instr.op is Op.STORE:
            node = new_node(
                kind=NodeKind.STORE, op=instr.op, dtype=instr.dtype, srcs=srcs,
            )
            ordering = list(loads_since_store)
            if last_store is not None:
                ordering.append(last_store)
            if len(ordering) > 1:
                join = new_node(kind=NodeKind.JOIN, ctrl=ordering)
                node.ctrl.append(join.nid)
            elif ordering:
                node.ctrl.append(ordering[0])
            last_store = node.nid
            loads_since_store = []
        else:
            node = new_node(
                kind=NodeKind.OP, op=instr.op, dtype=instr.dtype,
                srcs=srcs, out_reg=instr.dst,
            )
            cur_def[instr.dst] = node.nid

    # Live-out spills.
    lvloads_by_id = {
        n.lv_id: n.nid for n in nodes if n.kind is NodeKind.LVLOAD
    }
    for reg in sorted(spills):
        if reg not in cur_def:
            raise DFGBuildError(
                f"live-out %{reg} not defined in block {block.name}"
            )
        store = new_node(
            kind=NodeKind.LVSTORE,
            srcs=[NodeSrc(cur_def[reg])],
            out_reg=reg,
            lv_id=lv_ids[reg],
        )
        # WAR hazard through the LVC: live-value colouring may assign this
        # slot to both a (dead-after-fetch) live-in and this spill.  The
        # spill must not overwrite the slot before the fetch has read it.
        fetch = lvloads_by_id.get(store.lv_id)
        if fetch is not None and fetch != store.nid:
            store.ctrl.append(fetch)

    # Terminator CVU.
    term = block.terminator
    term_srcs: List[Src] = []
    term_ctrl: List[int] = []
    if term.kind is TermKind.BR:
        term_srcs.append(resolve(term.cond))
    else:
        term_ctrl.append(init.nid)
    term_node = new_node(
        kind=NodeKind.TERM, dtype=DType.PRED, srcs=term_srcs, ctrl=term_ctrl,
    )

    dfg = BlockDFG(
        block_name=block.name,
        nodes=nodes,
        init_node=init.nid,
        term_node=term_node.nid,
        term_kind=term.kind,
        true_target=term.true_target,
        false_target=term.false_target,
    )
    _insert_splits(dfg, max_fanout)
    return dfg


def _insert_splits(dfg: BlockDFG, max_fanout: int) -> None:
    """Insert SJU split nodes wherever a node's fanout exceeds the
    interconnect degree.  Splits relay values (and thread-ID triggers)
    unchanged; a split itself is subject to the same fanout bound, so
    wide fanouts become split trees."""
    changed = True
    while changed:
        changed = False
        consumers = dfg.consumers()
        for nid, cons in consumers.items():
            if len(cons) <= max_fanout:
                continue
            changed = True
            producer = dfg.node(nid)
            # Leave max_fanout - 1 consumers on the producer and move the
            # rest behind a new split node.
            keep, move = cons[: max_fanout - 1], cons[max_fanout - 1:]
            split = DFGNode(
                nid=len(dfg.nodes),
                kind=NodeKind.SPLIT,
                dtype=producer.dtype,
                srcs=[NodeSrc(nid)],
                out_reg=producer.out_reg,
            )
            dfg.nodes.append(split)
            moved = set(move)
            for cid in moved:
                consumer = dfg.node(cid)
                consumer.srcs = [
                    NodeSrc(split.nid)
                    if isinstance(s, NodeSrc) and s.node == nid
                    else s
                    for s in consumer.srcs
                ]
                consumer.ctrl = [
                    split.nid if c == nid else c for c in consumer.ctrl
                ]
            break  # consumer map is stale; recompute


def build_kernel_dfgs(kernel: Kernel, lv_map) -> Dict[str, BlockDFG]:
    """Build the dataflow graph of every block in ``kernel``."""
    return {
        name: build_block_dfg(
            kernel,
            block,
            lv_map.fetches[name],
            lv_map.spills[name],
            lv_map.ids,
        )
        for name, block in kernel.blocks.items()
    }
