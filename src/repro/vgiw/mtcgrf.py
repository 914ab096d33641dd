"""MT-CGRF execution engine: streams thread vectors through a configured
basic-block dataflow graph.

The model is event-ordered per thread over the placed graph:

* threads are injected by the initiator CVUs, one per cycle per replica
  (paper §2: "a new thread can thus be injected into the computational
  fabric on every cycle");
* the token buffer bounds the threads in flight per replica (virtual
  execution channels, paper §3.5) — injection stalls until a window slot
  frees, which is exactly what back-pressure through full token buffers
  does;
* each node issues on its physical unit (one issue per cycle — the units
  are pipelined, II = 1), SCU operations additionally occupy one of the
  unit's non-pipelined instances for the operation latency, and LDST /
  LVU operations occupy a reservation-buffer entry until the memory
  system answers (this is what lets later threads overtake memory-stalled
  ones: dynamic, tagged-token dataflow);
* results travel to consumer units over the switched interconnect at one
  cycle per hop, with hop counts from the placement.

Functional values are computed alongside timing, so the executor is also
an exact functional model (asserted against the interpreter in tests).
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.arch.config import UnitKind, VGIWConfig, op_latency_for
from repro.compiler.dfg import (
    BlockDFG,
    ImmSrc,
    NodeKind,
    NodeSrc,
    ParamSrc,
    TidSrc,
)
from repro.compiler.pipeline import CompiledBlock
import numpy as np

from repro.ir.instr import EVAL, Op, TermKind, coerce_i64
from repro.ir.vecops import (
    addr_batch,
    as_value_array,
    f2i_array,
    f64_batch,
    hazard_key,
    scalar_exec_requested,
    stores_after_loads,
    vec_eval,
    vec_eval_raw,
)
from repro.ir.types import DType
from repro.memory.calendar import claim_slot
from repro.memory.hierarchy import LiveValueCache, MemorySystem
from repro.memory.image import MemoryImage
from repro.resilience.errors import SimulationError
from repro.resilience.faults import FaultInjector
from repro.resilience.watchdog import (
    DiagnosticSnapshot,
    snapshot_from_replicas,
)

Number = Union[int, float, bool]


@dataclass
class FabricStats:
    """Event counts accumulated by the fabric (feeds the energy model)."""

    ops: Counter = field(default_factory=Counter)  # 'alu','fpu','scu',...
    tokens: int = 0        # token-buffer write+read pairs
    token_hops: int = 0    # switch traversals
    threads: int = 0
    node_fires: int = 0

    def merge(self, other: "FabricStats") -> None:
        """Accumulate another block execution's counters into this one."""
        self.ops.update(other.ops)
        self.tokens += other.tokens
        self.token_hops += other.token_hops
        self.threads += other.threads
        self.node_fires += other.node_fires

    def utilization(self, cycles: float, spec) -> Dict[str, float]:
        """Average per-kind unit utilisation over a run.

        Every node fire occupies its unit for one issue cycle (II = 1),
        so utilisation = fires / (cycles x units of that kind).  This is
        the quantity behind the paper's "the VGIW spatial design can
        operate all its 108 functional units concurrently" argument —
        and behind Figure 1c/1d's under-utilisation story.
        """
        from repro.arch.config import UnitKind

        kind_units = {
            "alu": spec.counts[UnitKind.COMPUTE],
            "fpu": spec.counts[UnitKind.COMPUTE],
            "scu": spec.counts[UnitKind.SPECIAL],
            "ldst": spec.counts[UnitKind.LDST],
            "lvu": spec.counts[UnitKind.LVU],
            "sju": spec.counts[UnitKind.SJU],
            "cvu": spec.counts[UnitKind.CVU],
        }
        if cycles <= 0:
            return {k: 0.0 for k in kind_units}
        out: Dict[str, float] = {}
        for kind, units in kind_units.items():
            out[kind] = self.ops.get(kind, 0) / (cycles * units)
        # The compute units serve both ALU and FPU fires.
        compute = (self.ops.get("alu", 0) + self.ops.get("fpu", 0)) / (
            cycles * spec.counts[UnitKind.COMPUTE]
        )
        out["compute"] = compute
        out["overall"] = self.node_fires / (cycles * spec.total_units)
        return out


@dataclass
class ThreadOutcome:
    """Result of streaming one thread through a block."""

    tid: int
    next_block: Optional[str]
    completion: float
    replica: int = 0  # which replica's terminator CVU produced this


_FLOAT_OPS_PREFIX = "f"


# ----------------------------------------------------------------------
# Precompiled execution plans
# ----------------------------------------------------------------------
# The per-thread walk over a block's dataflow graph is the hottest loop
# in the repository (it runs once per node per thread).  Everything
# about a node that does not depend on the thread — its placed unit,
# routed hop distances, operation latency, semantics function, energy
# class, and the resolution of its operand sources (immediates and
# kernel parameters are configuration-time constants, paper §3.5) — is
# therefore *precompiled* once per block replica that receives threads
# into an :class:`ExecPlan` of flat tuples, and the inner loop
# dispatches on an integer tag.  Cycle counts are bit-identical to the
# direct walk (the same floating-point max/issue sequence in the same
# order); only the host-side Python overhead changes.
# ``docs/performance.md`` has the measurements.

#: row tags (``row[0]``) for the plan interpreter's dispatch
T_INIT, T_LVLOAD, T_LVSTORE, T_LOAD, T_STORE, T_TERM, T_SJ, T_OP, T_SCU = (
    range(9)
)

#: operand-source modes: resolved constant / upstream node value / tid
SRC_CONST, SRC_NODE, SRC_TID = range(3)

#: sentinel distinguishing "live value never stored" from stored falsy
_MISSING = object()


def resolve_src(src, params: Dict[str, Number]) -> Tuple[int, Number]:
    """Fold one DFG operand source into a ``(mode, payload)`` pair."""
    if isinstance(src, NodeSrc):
        return (SRC_NODE, src.node)
    if isinstance(src, ImmSrc):
        return (SRC_CONST, src.value)
    if isinstance(src, ParamSrc):
        return (SRC_CONST, params[src.name])
    return (SRC_TID, 0)  # TidSrc


class ExecPlan:
    """A block's dataflow graph, precompiled for one replica placement.

    ``rows`` drive the interpreter loop in
    :meth:`MTCGRFExecutor._run_thread` (and its SGMF sibling);
    ``n_nodes`` / ``total_hops`` / ``ops_counts`` let the per-node
    statistics be accumulated in O(1) per thread instead of O(nodes).
    """

    __slots__ = (
        "rows", "n_nodes", "total_hops", "ops_counts", "sinks",
        "block_name", "term_kind", "true_target", "false_target",
        "term_nid", "timing_fn",
    )

    def __init__(self, rows, n_nodes, total_hops, ops_counts, sinks,
                 block_name, term_kind, true_target, false_target,
                 term_nid):
        #: lazily compiled straight-line timing walk (vectorized mode)
        self.timing_fn = None
        self.rows = rows
        self.n_nodes = n_nodes
        self.total_hops = total_hops
        self.ops_counts = ops_counts
        self.sinks = sinks
        self.block_name = block_name
        self.term_kind = term_kind
        self.true_target = true_target
        self.false_target = false_target
        self.term_nid = term_nid


def build_exec_plan(
    dfg: BlockDFG,
    unit_of: Dict[int, int],
    edge_hops: Dict[Tuple[int, int], int],
    params: Dict[str, Number],
    op_latency: Dict[str, int],
    count_pseudo_ops: bool = True,
) -> ExecPlan:
    """Precompile ``dfg`` (placed via ``unit_of``/``edge_hops``).

    ``count_pseudo_ops=False`` excludes pseudo nodes from the energy
    accounting (the SGMF convention: wired live values occupy no
    physical unit); timing rows are emitted for every node either way.
    """
    rows = []
    total_hops = 0
    ops_counts: Counter = Counter()
    split_latency = op_latency["split"]
    for nid in dfg.topo_order():
        node = dfg.node(nid)
        # Pseudo nodes (SGMF wires) occupy no physical unit; they never
        # issue, so the placeholder uid is never dereferenced.
        uid = unit_of.get(nid, -1)
        inputs = tuple(
            (up, edge_hops[(up, nid)]) for up in node.input_nodes()
        )
        total_hops += sum(h for _, h in inputs)
        if count_pseudo_ops or not node.pseudo:
            ops_counts[_op_energy_class(node, node.op)] += 1
        kind = node.kind
        if kind is NodeKind.INIT:
            rows.append((T_INIT, nid))
        elif kind is NodeKind.LVLOAD:
            rows.append((T_LVLOAD, nid, uid, inputs, node.lv_id, node))
        elif kind is NodeKind.LVSTORE:
            rows.append((
                T_LVSTORE, nid, uid, inputs, node.lv_id,
                resolve_src(node.srcs[0], params), node,
            ))
        elif kind is NodeKind.LOAD:
            rows.append((
                T_LOAD, nid, uid, inputs,
                resolve_src(node.srcs[0], params),
                node.dtype is DType.INT,
            ))
        elif kind is NodeKind.STORE:
            rows.append((
                T_STORE, nid, uid, inputs,
                resolve_src(node.srcs[0], params),
                resolve_src(node.srcs[1], params),
            ))
        elif kind is NodeKind.TERM:
            cond = (
                resolve_src(node.srcs[0], params)
                if dfg.term_kind is TermKind.BR else None
            )
            rows.append((T_TERM, nid, uid, inputs, cond))
        elif kind in (NodeKind.SPLIT, NodeKind.JOIN):
            passthrough = (
                resolve_src(node.srcs[0], params)
                if kind is NodeKind.SPLIT else None
            )
            rows.append((T_SJ, nid, uid, inputs, split_latency, passthrough))
        else:  # OP
            latency = op_latency_for(node.op, op_latency)
            tag = T_SCU if node.unit_kind is UnitKind.SPECIAL else T_OP
            dt = (
                1 if node.dtype is DType.INT
                else 2 if node.dtype is DType.FLOAT else 0
            )
            rows.append((
                tag, nid, uid, inputs, latency, EVAL[node.op],
                tuple(resolve_src(s, params) for s in node.srcs), dt,
                node.op,
            ))
    return ExecPlan(
        rows=rows,
        n_nodes=len(dfg.nodes),
        total_hops=total_hops,
        ops_counts=ops_counts,
        sinks=tuple(dfg.sink_nodes()),
        block_name=dfg.block_name,
        term_kind=dfg.term_kind,
        true_target=dfg.true_target,
        false_target=dfg.false_target,
        term_nid=dfg.term_node,
    )


def _emit_issue(L, n: int) -> None:
    """Emit the unit-calendar claim (``_ReplicaState.issue``) inline for
    row ``n`` (unit ``u{n}``): the path-compressed ``claim_slot`` probe,
    same ``unit_wait`` accounting, no call frame."""
    L.append("    q = int(r)")
    L.append("    if q != r:")
    L.append("        q += 1")
    L.append(f"    s = nf{n}.get(q)")
    L.append("    if s is None:")
    L.append(f"        nf{n}[q] = q + 1")
    L.append("        s = q")
    L.append("    else:")
    L.append(f"        j = nf{n}.get(s)")
    L.append("        while j is not None:")
    L.append("            s = j")
    L.append(f"            j = nf{n}.get(s)")
    L.append(f"        nf{n}[s] = e = s + 1")
    L.append("        p = q")
    L.append("        while p != s:")
    L.append(f"            pn = nf{n}[p]")
    L.append(f"            nf{n}[p] = e")
    L.append("            p = pn")
    L.append(f"        uw[u{n}] = uw.get(u{n}, 0.0) + (s - q)")


#: serial number of each compiled timing walk: a unique code filename
#: per ``compile()``, so profilers keep one entry per code object
_timing_serial = itertools.count()


def compile_timing(plan: ExecPlan, entries: int, scu_instances: int,
                   binders: Dict[str, Callable], sgmf: bool = False):
    """The straight-line timing walk for one plan.

    The vectorized engines split each block into a batched functional
    pass and a per-thread timing replay; this compiles the replay into
    one specialised Python function per block shape: rows are
    unrolled, latencies are constant-folded, ``done`` times live in
    locals, and the :meth:`_ReplicaState.issue` /
    :meth:`_ReplicaState.issue_mem` / :meth:`_ReplicaState.issue_scu`
    calendars are inlined with per-unit state hoisted into locals.
    Each row's unit ID (``u{nid}``) and input hop counts
    (``h{nid}_{k}``) are named locals bound as default arguments, so
    the replicas of a block (and equal blocks) share one source text:
    ``binders`` (one dict per run) maps it to the compiled binder, and
    each further plan of that shape costs one call of it.  The
    arithmetic is the interpreted walk's, in the same order, so cycle
    counts stay bit-identical (asserted by the golden-cycle gate and
    the differential fuzzer).

    VGIW flavour (``sgmf=False``)::

        fn(rep, mem_access, lvc_access, tid, inject, ti, alists) -> completion

    SGMF flavour (``sgmf=True`` — wired live values, no LVC)::

        fn(rep, mem_access, tid, entry, ti, alists, rr)
            -> (completion, term_done)

    ``ti`` indexes this thread inside the batch; ``alists`` maps a
    memory row's index to its per-thread address list; ``rr`` is the
    SGMF thread's ``regs_ready`` wire-timing dict.
    """
    names = []  # bound locals, in binder-argument order
    values = []
    issue_rows = []  # (nid, unit ID)
    mem_rows = []  # (unit ID, nid)
    scu_rows = []
    addr_rows = []
    for ri, row in enumerate(plan.rows):
        tag = row[0]
        if tag == T_INIT or (sgmf and tag in (T_LVLOAD, T_LVSTORE)):
            continue
        nid = row[1]
        issue_rows.append((nid, row[2]))
        if tag == T_SCU:
            scu_rows.append(nid)
        elif tag in (T_LOAD, T_STORE, T_LVLOAD, T_LVSTORE):
            mem_rows.append((row[2], nid))
            if tag in (T_LOAD, T_STORE):
                addr_rows.append(ri)

    L = []
    L.append("    un = rep.unit_next")
    L.append("    uw = rep.unit_wait")
    for n, u in issue_rows:
        names.append(f"u{n}")
        values.append(u)
        L.append(f"    nf{n} = un.get(u{n})")
        L.append(f"    if nf{n} is None:")
        L.append(f"        nf{n} = un[u{n}] = {{}}")
    if mem_rows:
        # A replica's first walk of the block creates its reservation
        # buffers, in unit-ID order (hang snapshots list them in
        # insertion order); later walks find them all.
        names.append("mu")
        values.append(tuple(sorted(u for u, _ in mem_rows)))
        first = mem_rows[0][1]
        L.append("    lo = rep.ldst_outstanding")
        L.append(f"    out{first} = lo.get(u{first})")
        L.append(f"    if out{first} is None:")
        L.append("        for m in mu:")
        L.append("            lo.setdefault(m, [])")
        L.append(f"        out{first} = lo[u{first}]")
        for _, n in mem_rows[1:]:
            L.append(f"    out{n} = lo[u{n}]")
    for n in scu_rows:
        L.append(f"    pool{n} = rep.scu_pool.setdefault"
                 f"(u{n}, [0.0] * {scu_instances})")
    for ri in addr_rows:
        L.append(f"    a_{ri} = alists[{ri}]")

    def emit_ready(row):
        L.append("    r = inject")
        for k, (up, hop) in enumerate(row[3]):
            names.append(f"h{row[1]}_{k}")
            values.append(float(hop))
            L.append(f"    t = d{up} + h{row[1]}_{k}")
            L.append("    if t > r:")
            L.append("        r = t")

    def emit_mem_preamble(n):
        L.append(f"    if len(out{n}) >= {entries}:")
        L.append(f"        old = heappop(out{n})")
        L.append("        if old > r:")
        L.append(f"            uw[u{n}] = uw.get(u{n}, 0.0) + (old - r)")
        L.append("            r = old")

    for ri, row in enumerate(plan.rows):
        tag = row[0]
        nid = row[1]
        if tag == T_INIT:
            L.append(f"    d{nid} = inject")
        elif tag == T_OP:
            emit_ready(row)
            _emit_issue(L, nid)
            L.append(f"    d{nid} = s + {float(row[4])!r}")
        elif tag == T_SCU:
            emit_ready(row)
            L.append(f"    e = heappop(pool{nid})")
            L.append("    if e > r:")
            L.append("        r = e")
            _emit_issue(L, nid)
            L.append(f"    heappush(pool{nid}, s + {float(row[4])!r})")
            L.append(f"    d{nid} = s + {float(row[4])!r}")
        elif tag in (T_LOAD, T_STORE):
            emit_ready(row)
            emit_mem_preamble(nid)
            _emit_issue(L, nid)
            rw = "True" if tag == T_STORE else "False"
            L.append(f"    c = mem_access(float(s), a_{ri}[ti], {rw})")
            L.append(f"    heappush(out{nid}, c)")
            L.append(f"    d{nid} = c")
        elif tag == T_LVLOAD:
            if sgmf:
                # Wired live value: a one-cycle hop from the producer
                # (the interpreted walk ignores ``ready`` here too).
                L.append(f"    t = rr[{row[5].out_reg!r}] + 1")
                L.append(f"    d{nid} = inject if inject >= t else t")
            else:
                emit_ready(row)
                emit_mem_preamble(nid)
                _emit_issue(L, nid)
                L.append(f"    c = lvc_access(float(s), {row[4]}, tid,"
                         f" False, port=u{nid})")
                L.append(f"    heappush(out{nid}, c)")
                L.append(f"    d{nid} = c")
        elif tag == T_LVSTORE:
            if sgmf:
                emit_ready(row)
                L.append(f"    d{nid} = r")
                L.append(f"    rr[{row[6].out_reg!r}] = r")
            else:
                emit_ready(row)
                emit_mem_preamble(nid)
                _emit_issue(L, nid)
                L.append(f"    c = lvc_access(float(s), {row[4]}, tid,"
                         f" True, port=u{nid})")
                L.append(f"    heappush(out{nid}, c)")
                L.append(f"    d{nid} = c")
        elif tag == T_SJ:
            emit_ready(row)
            _emit_issue(L, nid)
            L.append(f"    d{nid} = s + {float(row[4])!r}")
        else:  # T_TERM
            emit_ready(row)
            _emit_issue(L, nid)
            L.append(f"    d{nid} = s + 1.0")

    sinks = plan.sinks
    L.append(f"    c = d{sinks[0]}")
    for snk in sinks[1:]:
        L.append(f"    if d{snk} > c:")
        L.append(f"        c = d{snk}")
    if sgmf:
        L.append(f"    return c, d{plan.term_nid}")
        head = "rep, mem_access, tid, entry, ti, alists, rr"
        L.insert(0, "    inject = entry")
    else:
        L.append("    return c")
        head = "rep, mem_access, lvc_access, tid, inject, ti, alists"
    bound = "".join(f", {n}={n}" for n in names)
    source = "\n".join(
        [f"def __bind({', '.join(names)}):",
         f"  def __timing({head}{bound}):"]
        + ["  " + line for line in L]
        + ["  return __timing"]
    )
    bind = binders.get(source)
    if bind is None:
        ns = {"heappush": heapq.heappush, "heappop": heapq.heappop}
        filename = f"<timing:{plan.block_name}#{next(_timing_serial)}>"
        exec(compile(source, filename, "exec"), ns)
        bind = binders[source] = ns["__bind"]
    return bind(*values)


def _op_energy_class(node, op: Optional[Op]) -> str:
    kind = node.kind
    if kind in (NodeKind.INIT, NodeKind.TERM):
        return "cvu"
    if kind in (NodeKind.LVLOAD, NodeKind.LVSTORE):
        return "lvu"
    if kind in (NodeKind.LOAD, NodeKind.STORE):
        return "ldst"
    if kind in (NodeKind.SPLIT, NodeKind.JOIN):
        return "sju"
    if node.unit_kind is UnitKind.SPECIAL:
        return "scu"
    if op is not None and op.value.startswith(_FLOAT_OPS_PREFIX):
        return "fpu"
    return "alu"


class _ReplicaState:
    """Per-replica physical resource timelines.

    Units issue one operation per cycle (II = 1), modelled as per-unit
    *calendars* (path-compressed next-free-pointer maps,
    :mod:`repro.memory.calendar`) rather than monotone free pointers:
    the simulators process whole threads sequentially, so a
    late-processed thread's early tokens must be able to claim idle
    unit cycles that logically preceded already-recorded traffic —
    exactly what tagged-token hardware does.
    """

    def __init__(self, config: VGIWConfig):
        self.unit_next: Dict[int, Dict[int, int]] = {}
        self.scu_pool: Dict[int, List[float]] = {}
        self.ldst_outstanding: Dict[int, List[float]] = {}
        self.config = config
        self.next_inject: float = 0.0
        self.window: List[float] = []  # completion times, injection order
        #: injection time per thread, parallel to ``window`` (lets the
        #: watchdog compute the oldest in-flight thread's age)
        self.inject_times: List[float] = []
        #: accumulated issue-stall cycles per unit (watchdog histogram)
        self.unit_wait: Dict[int, float] = {}
        #: cycles injection stalled on a full token-buffer window
        self.inject_wait: float = 0.0

    def issue(self, uid: int, ready: float) -> float:
        """Claim the unit's first free issue cycle at or after ``ready``.

        The issue port doubles as the output port: one result per cycle
        leaves the unit, and the switch replicates it to all consumers
        (the fanout bound is enforced statically by split insertion).

        This is the hottest call of both dataflow simulators (one call
        per non-memory token), so the calendar probe is written flat:
        single ``unit_high`` lookup, no helper frame.
        """
        ti = int(ready)
        t = ti if ti == ready else ti + 1
        nf = self.unit_next.get(uid)
        if nf is None:
            nf = self.unit_next[uid] = {}
        start = claim_slot(nf, t)
        if start > t:
            # Queueing delay behind earlier traffic on this unit — the
            # per-unit stall histogram the hang diagnostics report.
            self.unit_wait[uid] = self.unit_wait.get(uid, 0.0) + (start - t)
        return float(start)

    def issue_scu(self, uid: int, ready: float, latency: int) -> float:
        pool = self.scu_pool.setdefault(
            uid, [0.0] * self.config.scu_instances
        )
        earliest = heapq.heappop(pool)
        start = self.issue(uid, max(ready, earliest))
        heapq.heappush(pool, start + latency)
        return start

    def issue_mem(self, uid: int, ready: float, entries: int) -> float:
        out = self.ldst_outstanding.setdefault(uid, [])
        if len(out) >= entries:
            oldest = heapq.heappop(out)
            if oldest > ready:
                # Reservation buffer full: the unit is blocked waiting
                # for an outstanding memory response (this is where a
                # dropped response shows up in the stall histogram).
                self.unit_wait[uid] = (
                    self.unit_wait.get(uid, 0.0) + (oldest - ready)
                )
                ready = oldest
        return self.issue(uid, ready)

    def retire_mem(self, uid: int, completion: float) -> None:
        heapq.heappush(self.ldst_outstanding[uid], completion)


class MTCGRFExecutor:
    """Executes compiled blocks for vectors of threads."""

    def __init__(
        self,
        config: VGIWConfig,
        memsys: MemorySystem,
        lvc: LiveValueCache,
        memory: MemoryImage,
        params: Dict[str, Number],
        faults: Optional[FaultInjector] = None,
        fabric=None,
    ):
        self.config = config
        self.memsys = memsys
        self.lvc = lvc
        self.memory = memory
        self.params = params
        self.faults = faults
        self.fabric = fabric  # optional: names units in hang snapshots
        self.stats = FabricStats()
        #: execution plans by (block, replica), built the first time a
        #: replica receives threads
        self._plans: Dict[Tuple[str, int], ExecPlan] = {}
        #: compiled timing-walk binders by source text (one per block
        #: shape; see :func:`compile_timing`)
        self._timing_binders: Dict[str, Callable] = {}
        #: functional live-value matrix: (lv_id, tid) -> value
        self.lv_values: Dict[Tuple[int, int], Number] = {}
        #: watchdog diagnostics: the block/replicas being streamed now
        self.last_block: Optional[CompiledBlock] = None
        self.last_replicas: List[_ReplicaState] = []

    # ------------------------------------------------------------------
    def unit_name(self, uid: int) -> str:
        """``unit{uid}[{kind}]`` when the fabric is known (snapshots)."""
        if self.fabric is not None and uid < len(self.fabric.units):
            kind = self.fabric.units[uid].kind
            return f"unit{uid}[{getattr(kind, 'name', kind).lower()}]"
        return f"unit{uid}"

    def diagnostic_snapshot(self, now: float, sim: str = "vgiw",
                            kernel: str = "?",
                            detail=None) -> DiagnosticSnapshot:
        """State of the block currently streaming through the fabric."""
        extra = dict(detail or {})
        if self.last_block is not None:
            extra.setdefault("current_block", self.last_block.name)
        extra.setdefault("lvc_word_requests", self.lvc.accesses)
        extra.setdefault("l1_misses", self.memsys.l1_stats.misses)
        return snapshot_from_replicas(
            sim=sim,
            kernel=kernel,
            now=now,
            replicas=self.last_replicas,
            unit_name=self.unit_name,
            block=None if self.last_block is None else self.last_block.name,
            detail=extra,
        )

    # ------------------------------------------------------------------
    def execute_block(
        self,
        cb: CompiledBlock,
        thread_ids: List[int],
        start_time: float,
    ) -> Tuple[List[ThreadOutcome], float]:
        """Stream ``thread_ids`` through block ``cb`` starting at
        ``start_time``; return per-thread outcomes and the cycle at
        which the whole vector has drained."""
        n_replicas = cb.n_replicas
        replicas = [_ReplicaState(self.config) for _ in range(n_replicas)]
        for r in replicas:
            r.next_inject = start_time
        self.last_block = cb
        self.last_replicas = replicas
        if self.faults is not None:
            self.faults.maybe_abort(f"vgiw/{cb.name}", start_time)

        outcomes: List[ThreadOutcome] = []
        end_time = start_time
        depth = self.config.token_buffer_depth
        # The BBS hands out whole 64-thread batch packets to the
        # replicas' initiator CVUs (paper section 3.2), so replicas see
        # runs of consecutive thread IDs, not an interleave, and only
        # the first ceil(n / 64) replicas receive any thread.
        n_running = max(1, min(n_replicas, -(-len(thread_ids) // 64)))
        plans = [self._plan_for(cb, ridx) for ridx in range(n_running)]
        hop_total = 0

        # Functional pass: evaluate every plan row across the whole
        # thread vector at once (replica plans share functional content
        # — only unit IDs and hop counts differ — so plans[0] stands in
        # for all of them).  ``None`` means some construct needs the
        # scalar walk (in-batch memory hazard, fault hooks, undefined
        # operand, out-of-range address, ...); nothing has been
        # committed at that point, so the scalar path reruns from
        # untouched state and reproduces exact values and errors.
        batch = None
        if (self.faults is None and len(thread_ids) >= 4
                and not scalar_exec_requested()):
            batch = self._functional_batch(plans[0], thread_ids)
        if batch is not None:
            # Per-thread python address lists (one conversion per batch)
            # and the compiled straight-line timing walks.
            alists = {ri: a.tolist() for ri, a in batch["addrs"].items()}
            mem_access = self.memsys.access_word
            lvc_access = self.lvc.access
            entries = self.config.ldst_reservation_entries
            scu_n = self.config.scu_instances
            nb = batch["next"]
            for plan in plans:
                if plan.timing_fn is None:
                    plan.timing_fn = compile_timing(
                        plan, entries, scu_n, self._timing_binders
                    )

        for i, tid in enumerate(thread_ids):
            ridx = (i // 64) % n_replicas
            rep = replicas[ridx]
            plan = plans[ridx]
            inject = rep.next_inject
            if len(rep.window) >= depth:
                bound = rep.window[len(rep.window) - depth]
                if bound > inject:
                    # Token-buffer back-pressure: the virtual-channel
                    # window is full until an older thread drains.
                    rep.inject_wait += bound - inject
                    inject = bound
            rep.inject_times.append(inject)
            if batch is None:
                outcome, completion = self._run_thread(plan, rep, tid, inject)
            else:
                completion = plan.timing_fn(
                    rep, mem_access, lvc_access, tid, inject, i, alists
                )
                outcome = ThreadOutcome(
                    tid, nb[i] if isinstance(nb, list) else nb, completion
                )
            outcome.replica = ridx
            hop_total += plan.total_hops
            rep.next_inject = inject + 1.0
            rep.window.append(completion)
            outcomes.append(outcome)
            end_time = max(end_time, completion)

        if batch is not None:
            self._commit_batch(batch, thread_ids)

        # Per-thread event counts are static per block, so the stats
        # are accumulated batch-wise (O(1) per vector, not O(nodes) per
        # thread).  The totals are identical to per-node counting.
        n_thr = len(thread_ids)
        stats = self.stats
        stats.threads += n_thr
        stats.node_fires += plans[0].n_nodes * n_thr
        stats.tokens += plans[0].n_nodes * n_thr
        stats.token_hops += hop_total
        ops = stats.ops
        for cls, count in plans[0].ops_counts.items():
            ops[cls] += count * n_thr
        return outcomes, end_time

    def _plan_for(self, cb: CompiledBlock, ridx: int) -> ExecPlan:
        """The (cached) precompiled plan for one replica of ``cb``."""
        key = (cb.name, ridx)
        plan = self._plans.get(key)
        if plan is None:
            placed = cb.placement.replicas[ridx]
            plan = build_exec_plan(
                cb.dfg, placed.unit_of, placed.edge_hops, self.params,
                self.config.op_latency,
            )
            self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    def _functional_batch(self, plan: ExecPlan, thread_ids: List[int]):
        """Evaluate ``plan``'s rows over the whole thread vector.

        Returns ``None`` when any row needs the per-thread scalar walk:
        a stored address was loaded at an earlier-or-equal ``(thread,
        row)`` position (:func:`stores_after_loads` — private
        load-then-store patterns stay on the batch path), a live value is
        fetched before any block stored it (the scalar walk raises the
        diagnostic mid-vector, after earlier threads' side effects), an
        address is invalid, or an operand is undefined.  No state is
        mutated before returning, so the fallback reruns from scratch.

        On success returns the per-row address arrays (consumed by
        :meth:`_run_thread_timing` — cache timing depends on the exact
        address stream), the per-thread successor blocks, and the
        buffered memory / live-value writes for :meth:`_commit_batch`.
        """
        n = len(thread_ids)
        tids = np.asarray(thread_ids, np.int64)
        size = self.memory.size
        data = self.memory.data
        lv_values = self.lv_values
        value: List[object] = [None] * plan.n_nodes
        addrs_of: Dict[int, np.ndarray] = {}
        load_parts = []  # (row_index, addrs)
        store_parts = []  # (row_index, addrs, float64 values)
        lv_overlay: Dict[int, object] = {}
        next_blocks: object = None

        def operand(src):
            m, p = src
            if m == SRC_CONST:
                return p
            if m == SRC_NODE:
                return value[p]
            return tids

        try:
            for ri, row in enumerate(plan.rows):
                tag = row[0]
                if tag == T_INIT:
                    value[row[1]] = tids
                elif tag == T_OP or tag == T_SCU:
                    args = []
                    for s in row[6]:
                        v = operand(s)
                        if v is None and s[0] == SRC_NODE:
                            return None
                        args.append(v)
                    dt = row[7]
                    if dt == 0:
                        # VGIW stores predicate results uncoerced (the
                        # scalar walk leaves dt==0 results raw).
                        value[row[1]] = vec_eval_raw(row[8], tuple(args), n)
                    else:
                        value[row[1]] = vec_eval(row[8], tuple(args), dt, n)
                elif tag == T_LOAD:
                    a = operand(row[4])
                    if a is None and row[4][0] == SRC_NODE:
                        return None
                    addrs = addr_batch(a, n, size)
                    if addrs is None:
                        return None
                    load_parts.append((ri, addrs))
                    addrs_of[ri] = addrs
                    raw = data[addrs]
                    value[row[1]] = f2i_array(raw) if row[5] else raw
                elif tag == T_STORE:
                    a = operand(row[4])
                    if a is None and row[4][0] == SRC_NODE:
                        return None
                    addrs = addr_batch(a, n, size)
                    if addrs is None:
                        return None
                    addrs_of[ri] = addrs
                    v = operand(row[5])
                    if v is None and row[5][0] == SRC_NODE:
                        return None
                    fvals = f64_batch(v, n)
                    if fvals is None:
                        return None
                    store_parts.append((ri, addrs, fvals))
                elif tag == T_LVLOAD:
                    lv_id = row[4]
                    if lv_id in lv_overlay:
                        value[row[1]] = lv_overlay[lv_id]
                    else:
                        out = []
                        for t in thread_ids:
                            lv = lv_values.get((lv_id, t), _MISSING)
                            if lv is _MISSING:
                                return None
                            out.append(lv)
                        value[row[1]] = as_value_array(out, n)
                elif tag == T_LVSTORE:
                    v = operand(row[5])
                    if v is None and row[5][0] == SRC_NODE:
                        return None
                    lv_overlay[row[4]] = v
                elif tag == T_TERM:
                    kind = plan.term_kind
                    if kind is TermKind.RET:
                        next_blocks = None
                    elif kind is TermKind.JMP:
                        next_blocks = plan.true_target
                    else:
                        c = operand(row[4])
                        if c is None and row[4][0] == SRC_NODE:
                            return None
                        if isinstance(c, np.ndarray):
                            if c.dtype.kind == "O":
                                taken = [bool(x) for x in c.tolist()]
                            else:
                                taken = (c != 0).tolist()
                            next_blocks = [
                                plan.true_target if t else plan.false_target
                                for t in taken
                            ]
                        else:
                            next_blocks = (
                                plan.true_target if c
                                else plan.false_target
                            )
                # T_SJ passthrough forwards its operand unchanged.
                elif row[5] is not None:
                    v = operand(row[5])
                    if v is None and row[5][0] == SRC_NODE:
                        return None
                    value[row[1]] = v
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            # The scalar walk raises mid-vector with earlier threads'
            # side effects applied; rerun it to reproduce that exactly.
            return None

        if store_parts and load_parts:
            # One block = one plan: the row index is the per-thread
            # program position, the batch slot is the thread-major rank.
            pos = np.arange(n, dtype=np.int64)
            if not stores_after_loads(
                np.concatenate([a for _, a in load_parts]),
                np.concatenate([hazard_key(pos, ri)
                                for ri, _ in load_parts]),
                np.concatenate([a for _, a, _ in store_parts]),
                np.concatenate([hazard_key(pos, ri)
                                for ri, _, _ in store_parts]),
            ):
                return None

        return {
            "addrs": addrs_of,
            "next": next_blocks,
            "stores": store_parts,
            "lv": lv_overlay,
        }

    def _commit_batch(self, batch, thread_ids: List[int]) -> None:
        """Apply a functional batch's buffered writes.

        Memory stores commit in scalar order — thread-major, then row
        order — via a stable lexsort with fancy assignment (documented
        last-wins for duplicate indices), so repeated addresses resolve
        exactly as the interleaved scalar walk would.  Live values are
        materialised back to plain Python scalars (``tolist``) so the
        ``lv_values`` dict stays type-identical for later blocks that
        may run the scalar path.
        """
        parts = batch["stores"]
        if len(parts) == 1:
            # Ascending fancy assignment == ascending thread order.
            _, addrs, fvals = parts[0]
            self.memory.data[addrs] = fvals
        elif parts:
            n = len(thread_ids)
            all_a = np.concatenate([p[1] for p in parts])
            all_v = np.concatenate([p[2] for p in parts])
            all_t = np.concatenate([np.arange(n)] * len(parts))
            all_r = np.concatenate(
                [np.full(n, p[0], np.int64) for p in parts]
            )
            order = np.lexsort((all_r, all_t))
            self.memory.data[all_a[order]] = all_v[order]

        lv_values = self.lv_values
        for lv_id, vals in batch["lv"].items():
            if isinstance(vals, np.ndarray):
                for t, v in zip(thread_ids, vals.tolist()):
                    lv_values[(lv_id, t)] = v
            else:
                for t in thread_ids:
                    lv_values[(lv_id, t)] = vals

    # ------------------------------------------------------------------
    def _run_thread(
        self,
        plan: ExecPlan,
        rep: _ReplicaState,
        tid: int,
        inject: float,
    ) -> Tuple[ThreadOutcome, float]:
        """Interpret one thread over a precompiled plan.

        Hot loop: ``done`` / ``value`` are flat lists indexed by node
        ID, operand sources are pre-resolved ``(mode, payload)`` pairs,
        and the frequently used bound methods are hoisted to locals.
        The arithmetic (the ``max`` over input arrivals, the issue /
        latency sums) is exactly the direct walk's, in the same order,
        so cycle counts are bit-identical.
        """
        n = plan.n_nodes
        done: List[float] = [0.0] * n
        value: List[Number] = [None] * n
        next_block: Optional[str] = None
        faults = self.faults
        block_name = plan.block_name

        issue = rep.issue
        issue_mem = rep.issue_mem
        issue_scu = rep.issue_scu
        retire_mem = rep.retire_mem
        entries = self.config.ldst_reservation_entries
        lvc_access = self.lvc.access
        mem_access = self.memsys.access_word
        mem_read = self.memory.read
        mem_write = self.memory.write
        lv_values = self.lv_values

        for row in plan.rows:
            tag = row[0]
            if tag == T_INIT:
                nid = row[1]
                done[nid] = inject
                value[nid] = tid
                continue
            nid = row[1]
            uid = row[2]
            # Arrival of the latest input token.  A producer's switch
            # replicates one token to all of its (fanout-bounded, see
            # the compiler's split insertion) consumers in the same
            # cycle, so delivery costs only the routed hop latency.
            ready = inject
            for up, hop in row[3]:
                t = done[up] + hop
                if t > ready:
                    ready = t

            if tag == T_OP:
                start = issue(uid, ready)
                done[nid] = start + row[4]
                args = [
                    p if m == 0 else value[p] if m == 1 else tid
                    for m, p in row[6]
                ]
                result = row[5](*args)
                dt = row[7]
                if dt == 1:
                    result = coerce_i64(result)
                elif dt == 2:
                    result = float(result)
                if faults is not None:
                    result = faults.corrupt_token(
                        block_name, uid, tid, start, result
                    )
                value[nid] = result
            elif tag == T_LOAD:
                m, p = row[4]
                addr = int(p if m == 0 else value[p] if m == 1 else tid)
                start = issue_mem(uid, ready, entries)
                completion = mem_access(start, addr, False)
                retire_mem(uid, completion)
                done[nid] = completion
                raw = mem_read(addr)
                value[nid] = coerce_i64(raw) if row[5] else raw
            elif tag == T_STORE:
                m, p = row[4]
                addr = int(p if m == 0 else value[p] if m == 1 else tid)
                start = issue_mem(uid, ready, entries)
                completion = mem_access(start, addr, True)
                retire_mem(uid, completion)
                done[nid] = completion
                m, p = row[5]
                mem_write(addr, p if m == 0 else value[p] if m == 1 else tid)
            elif tag == T_LVLOAD:
                lv_id = row[4]
                start = issue_mem(uid, ready, entries)
                completion = lvc_access(start, lv_id, tid, False, port=uid)
                retire_mem(uid, completion)
                done[nid] = completion
                try:
                    lv_value = lv_values[(lv_id, tid)]
                except KeyError:
                    raise SimulationError(
                        f"thread {tid} fetches live value {lv_id} "
                        f"(%{row[5].out_reg}) before any block stored it",
                        block=block_name,
                        thread=tid,
                        live_value=lv_id,
                    ) from None
                if faults is not None:
                    lv_value = faults.corrupt_lv(
                        lv_id, tid, completion, lv_value
                    )
                value[nid] = lv_value
            elif tag == T_LVSTORE:
                lv_id = row[4]
                start = issue_mem(uid, ready, entries)
                completion = lvc_access(start, lv_id, tid, True, port=uid)
                retire_mem(uid, completion)
                done[nid] = completion
                m, p = row[5]
                lv_values[(lv_id, tid)] = (
                    p if m == 0 else value[p] if m == 1 else tid
                )
            elif tag == T_SCU:
                start = issue_scu(uid, ready, row[4])
                done[nid] = start + row[4]
                args = [
                    p if m == 0 else value[p] if m == 1 else tid
                    for m, p in row[6]
                ]
                result = row[5](*args)
                dt = row[7]
                if dt == 1:
                    result = coerce_i64(result)
                elif dt == 2:
                    result = float(result)
                if faults is not None:
                    result = faults.corrupt_token(
                        block_name, uid, tid, start, result
                    )
                value[nid] = result
            elif tag == T_SJ:
                start = issue(uid, ready)
                done[nid] = start + row[4]
                if row[5] is not None:
                    m, p = row[5]
                    value[nid] = (
                        p if m == 0 else value[p] if m == 1 else tid
                    )
            else:  # T_TERM
                start = issue(uid, ready)
                done[nid] = start + 1.0
                kind = plan.term_kind
                if kind is TermKind.RET:
                    next_block = None
                elif kind is TermKind.JMP:
                    next_block = plan.true_target
                else:
                    m, p = row[4]
                    taken = bool(
                        p if m == 0 else value[p] if m == 1 else tid
                    )
                    next_block = (
                        plan.true_target if taken else plan.false_target
                    )

        completion = max(done[s] for s in plan.sinks)
        return ThreadOutcome(tid, next_block, completion), completion
