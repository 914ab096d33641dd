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

Each block visit runs in two passes over one precompiled plan: a
functional pass that evaluates every row across the thread vector
(:func:`eval_rows`), then one compiled timing walk per thread
(:func:`compile_timing`).  A vector the batch cannot reproduce exactly
(a thread reading another's or its own earlier store, an undefined live
value, an invalid address) or one with faults armed runs thread-major:
the same two passes, one thread at a time.  The executor is therefore
also an exact functional model (asserted against the interpreter in
tests).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from types import CodeType, FunctionType
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.arch.config import UnitKind, VGIWConfig, op_latency_for
from repro.compiler.dfg import (
    BlockDFG,
    ImmSrc,
    NodeKind,
    NodeSrc,
    ParamSrc,
)
from repro.compiler.pipeline import CompiledBlock
from repro.compiler.placement import replica_deal
import numpy as np

from repro.ir.instr import Op, TermKind
from repro.ir.vecops import (
    DT_CODE,
    MemLog,
    addr_batch,
    as_value_array,
    branch_taken,
    coerce_array,
    f64_batch,
    vec_eval,
)
from repro.memory.calendar import claim_slot
from repro.memory.hierarchy import LiveValueCache, MemorySystem
from repro.memory.image import WORD_BYTES, MemoryImage
from repro.resilience.errors import SimulationError
from repro.resilience.faults import FaultInjector
from repro.resilience.watchdog import (
    DiagnosticSnapshot,
    snapshot_from_replicas,
)
from repro.vgiw.bbs import BATCH_BITS

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


class ThreadOutcome(NamedTuple):
    """Result of streaming one thread through a block.

    Fields run in the terminator CVU's arrival order, so outcomes sort
    natively by completion, then thread ID (unique within a block
    visit, so the sort never compares successors)."""

    completion: float
    tid: int
    next_block: Optional[str]


_FLOAT_OPS_PREFIX = "f"


# ----------------------------------------------------------------------
# Precompiled execution plans
# ----------------------------------------------------------------------
# A block visit runs in two passes: a functional pass that evaluates
# the block's dataflow graph across the thread vector (:func:`eval_rows`)
# and a per-thread timing walk (:func:`compile_timing`), the hottest
# loop in the repository.  Everything about a node that does not depend
# on the thread — its placed unit, routed hop distances, operation
# latency, energy class, and the resolution of its operand sources
# (immediates and kernel parameters are configuration-time constants,
# paper §3.5) — is therefore *precompiled* once per block replica that
# receives threads into an :class:`ExecPlan` of flat tuples that both
# passes dispatch on by integer tag.  ``docs/performance.md`` has the
# measurements.

#: row tags (``row[0]``) for the passes' dispatch
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

    ``rows`` drive the functional pass (:func:`eval_rows`) and the
    generated timing walk (:func:`compile_timing`); ``n_nodes`` /
    ``total_hops`` / ``ops_counts`` let the per-node statistics be
    accumulated in O(1) per thread instead of O(nodes).
    """

    __slots__ = (
        "rows", "n_nodes", "total_hops", "ops_counts", "sinks",
        "block_name", "term_kind", "true_target", "false_target",
        "term_nid", "timing_fn", "record_fn",
    )

    def __init__(self, rows, n_nodes, total_hops, ops_counts, sinks,
                 block_name, term_kind, true_target, false_target,
                 term_nid):
        #: compiled timing walks, built on first use (:func:`timing_walk`)
        self.timing_fn = None
        self.record_fn = None
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
                DT_CODE[node.dtype],
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
            rows.append((
                tag, nid, uid, inputs, latency,
                tuple(resolve_src(s, params) for s in node.srcs),
                DT_CODE[node.dtype], node.op,
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


_ceil = math.ceil  # one global lookup in the hottest call
_heappush = heapq.heappush
_heappop = heapq.heappop


def claim_issue(nf: Dict[int, int], ready: float, uw: Dict[int, float],
                uid: int) -> int:
    """Claim unit ``uid``'s first free issue cycle at or after ``ready``
    in its calendar ``nf`` and return it.

    Most claims find the cycle free and take it here; a taken cycle
    goes to :func:`claim_slot`, and the queueing delay behind earlier
    traffic on the unit is added to ``uw[uid]``, the per-unit stall
    histogram the hang diagnostics report.  This is the one issue rule:
    every issuing row of a generated timing walk calls it once (as
    ``iss``, :func:`compile_timing`) or runs it in line (the memory
    rows, :func:`word_row` and :func:`live_row`), and SGMF's waste pass
    calls it for each predicated token.

    The issue port doubles as the output port: one result per cycle
    leaves the unit, and the switch replicates it to all consumers (the
    fanout bound is enforced statically by split insertion).
    """
    q = _ceil(ready)
    if q in nf:
        s = claim_slot(nf, q)
        uw[uid] = uw.get(uid, 0.0) + (s - q)
        return s
    nf[q] = q + 1
    return q


def word_row(memsys: MemorySystem):
    """The LOAD/STORE row helper of one run's timing walks (``wrd``),
    bound to ``memsys``.

    ``wrd(out, ready, uw, uid, nf, entries, addr, is_write)`` times one
    scalar access of word ``addr`` by LDST unit ``uid`` and returns the
    answer's cycle.  When the unit's reservation buffer ``out`` holds
    ``entries`` requests, the request first waits for the oldest to
    answer (the wait is added to ``uw[uid]`` like an issue stall).  It
    then claims its issue cycle in the calendar ``nf``
    (:func:`claim_issue`, with the free-slot fast path in line), maps
    the word to its L1 line and word-interleaved bank (the 32 banks
    serve 32 consecutive words of a line concurrently, paper §3.6),
    claims that bank as :meth:`~repro.memory.cache.Cache.access` would
    and holds the entry until the answer.  With faults armed, the
    ``l1-word`` ``mem_drop`` hook runs after the access.

    Consecutive threads touch consecutive words of one line, so most
    accesses hit their set's most recently used way.  With a write-back
    L1 that hit is finished here, by the rule of
    :meth:`~repro.memory.cache.Cache._resolve` (a read waits for an
    in-flight fill in the MSHR, a write dirties the line), in this one
    Python frame; anything else is :meth:`Cache._resolve`'s.
    """
    l1 = memsys.l1
    resolve = l1._resolve
    sets = l1._sets
    bank_next = l1._bank_next
    mshr = l1._mshr
    stats = l1.stats
    n_sets = l1.n_sets
    banks = l1.banks
    hit_latency = l1.hit_latency
    write_back = l1.write_back
    line_words = l1.line_bytes // WORD_BYTES
    faults = memsys.faults

    def wrd(out, ready, uw, uid, nf, entries, addr, is_write):
        # The reservation-buffer wait and the issue claim: the same
        # lines open ``lvr`` (:func:`live_row`).
        if len(out) >= entries:
            old = _heappop(out)
            if old > ready:
                uw[uid] = uw.get(uid, 0.0) + (old - ready)
                ready = old
        q = _ceil(ready)
        if q in nf:
            s = claim_slot(nf, q)
            uw[uid] = uw.get(uid, 0.0) + (s - q)
        else:
            nf[q] = q + 1
            s = q
        # The L1 access at the (integral) issue cycle: the XOR set hash
        # and the bank claim of ``Cache.access``, then the hit rule.
        line = addr // line_words
        tag = line // n_sets
        set_idx = (line ^ tag) % n_sets
        bnf = bank_next[addr % banks]
        if s in bnf:
            start = claim_slot(bnf, s)
            stats.bank_wait_cycles += start - s
            start = float(start)
        else:
            bnf[s] = s + 1
            start = float(s)
        ways = sets[set_idx]
        if write_back and ways and ways[-1][0] == tag:
            if is_write:
                stats.write_hits += 1
                ways[-1][1] = True
                done = start + hit_latency
            else:
                stats.read_hits += 1
                pending = mshr.get(line)
                if pending is not None and pending > start:
                    stats.mshr_merges += 1
                    done = pending
                else:
                    done = start + hit_latency
        else:
            done = resolve(start, line, set_idx, tag, is_write)
        if faults is not None and faults.drop_response("l1-word", addr,
                                                       float(s)):
            done += faults.drop_stall_cycles
        _heappush(out, done)
        return done

    return wrd


def live_row(lvc: LiveValueCache):
    """The VGIW live-value load and store row helper of one run's timing
    walks (``lvr``), bound to ``lvc``.

    ``lvr(out, ready, uw, uid, nf, entries, lv_id, tid, is_write)`` is
    :func:`word_row`'s rule with the access being the LVC request for
    ``(lv_id, tid)`` on port ``uid``.  Each LVU streams consecutive
    threads through its one-line buffer (paper §3.4), so most requests
    fall in the port's current line.  That hit is finished here, by the
    rule of :meth:`~repro.memory.hierarchy.LiveValueCache.access`, in
    this one Python frame; a line crossing is
    :meth:`~repro.memory.hierarchy.LiveValueCache.cross`'s.
    """
    cross = lvc.cross
    ports = lvc._ports
    base = lvc.ADDRESS_SPACE_BASE
    max_threads = lvc.max_threads
    line_bytes = lvc.line_bytes

    def lvr(out, ready, uw, uid, nf, entries, lv_id, tid, is_write):
        if len(out) >= entries:
            old = _heappop(out)
            if old > ready:
                uw[uid] = uw.get(uid, 0.0) + (old - ready)
                ready = old
        q = _ceil(ready)
        if q in nf:
            s = claim_slot(nf, q)
            uw[uid] = uw.get(uid, 0.0) + (s - q)
        else:
            nf[q] = q + 1
            s = q
        if is_write:
            lvc.writes += 1
        else:
            lvc.reads += 1
        word = lv_id * max_threads + tid
        line = base + word * WORD_BYTES // line_bytes
        cur = ports.get(uid)
        if cur is not None and cur[0] == line:
            lvc.buffered += 1
            if is_write:
                cur[2] = True
            ready = cur[1]
            done = (s if s > ready else ready) + 1.0
        else:
            done = cross(float(s), line, word, is_write, uid)
        _heappush(out, done)
        return done

    return lvr


#: the globals of every compiled timing walk
_WALK_GLOBALS = {"heappush": heapq.heappush, "heappop": heapq.heappop,
                 "iss": claim_issue}

#: serial number of each compiled timing walk: a unique code filename
#: per ``compile()``, so profilers keep one entry per code object
_timing_serial = itertools.count()

#: bound on :func:`walk_code`'s memo.  One fuzz round (three 20-case
#: chunks) compiles about 675 distinct walk sources at about 1.9 KB per
#: code object, so the bound holds about 1 MB.
WALK_CODE_ENTRIES = 512

#: compiled walk code by source text, least recently used first
_walk_codes: "OrderedDict[str, CodeType]" = OrderedDict()


def walk_code(source: str, block_name: str) -> CodeType:
    """The code object of the walk ``source``, from the process-wide
    memo (:data:`WALK_CODE_ENTRIES` sources, least recently used
    evicted).  A miss compiles it under a filename naming
    ``block_name``, the first block of that shape, and a serial."""
    code = _walk_codes.get(source)
    if code is None:
        ns = {}
        filename = f"<timing:{block_name}#{next(_timing_serial)}>"
        exec(compile(source, filename, "exec"), _WALK_GLOBALS, ns)
        code = _walk_codes[source] = ns["__timing"].__code__
        if len(_walk_codes) > WALK_CODE_ENTRIES:
            _walk_codes.popitem(last=False)
    else:
        _walk_codes.move_to_end(source)
    return code


def _walk_enter(code: CodeType, issue_units: Tuple[int, ...],
                mem_units: Tuple[int, ...], scu_units: Tuple[int, ...],
                scu_instances: int, consts: tuple):
    """``enter(rep)`` for one plan: the walk ``code`` with ``rep``'s
    state, then the plan's ``consts`` (unit IDs, hop counts), bound as
    its argument defaults.  The state is looked up in this order:
    the unit calendars in row order, the reservation buffers (a
    replica's first entry creates them in unit-ID order, since hang
    snapshots list them in insertion order; later entries find them
    all), then the SCU pools."""
    created = sorted(mem_units)

    def enter(rep):
        un = rep.unit_next
        state = [rep.unit_wait]
        state += [un.setdefault(u, {}) for u in issue_units]
        if mem_units:
            lo = rep.ldst_outstanding
            if mem_units[0] not in lo:
                for u in created:
                    lo.setdefault(u, [])
            state += [lo[u] for u in mem_units]
        pools = rep.scu_pool
        state += [pools.setdefault(u, [0.0] * scu_instances)
                  for u in scu_units]
        return FunctionType(code, _WALK_GLOBALS, "__timing",
                            tuple(state) + consts)

    return enter


def compile_timing(plan: ExecPlan, entries: int, scu_instances: int,
                   sgmf: bool = False, record: bool = False,
                   stop: Optional[int] = None):
    """The straight-line timing walk for one plan, as ``enter(rep)``.

    The engines split each block visit into a functional pass
    (:func:`eval_rows`) and a per-thread timing walk; this compiles the
    walk into one flat specialised Python function per block shape:
    rows are unrolled, latencies are constant-folded and ``done`` times
    live in locals.  An ALU, split/join or terminator row with at most
    one input is one statement, ``d{n} = iss(...) + latency``, a call
    of :func:`claim_issue`; the SCU instance pools are emitted in line.
    A memory row is one call of the run's row helper, a call argument:
    ``wrd`` (:func:`word_row`, bound to the memory system) or, for a
    VGIW live value, ``lvr`` (:func:`live_row`, bound to the LVC), so an
    L1 hit on its set's most recently used way and a hit in an LVU's
    line buffer each cost the row one Python frame, the helper's.
    Everything the walk reads besides its call arguments is
    an argument with a default: the replica's state (``uw``, the calendars ``nf{nid}``, the
    reservation buffers ``out{nid}``, the SCU pools ``pool{nid}``),
    then each row's unit ID (``u{nid}``) and input hop counts
    (``h{nid}_{k}``).  The replicas of a block (and equal blocks, in
    any run) therefore share one source text: :func:`walk_code` maps it
    to the compiled code object, and each further plan of that shape
    costs no ``compile()``.  Cycle counts are pinned by the
    golden-cycle gate and the differential fuzzer.

    The result is ``enter(rep)`` (:func:`_walk_enter`): it looks up one
    replica's state once and returns the per-thread walk, a function of
    the shared code with that state and the plan's constants as its
    defaults, all read as fast locals.

    VGIW flavour (``sgmf=False``)::

        enter(rep)(wrd, lvr, tid, inject, ti, alists) -> completion

    SGMF flavour (``sgmf=True`` — wired live values, no LVC)::

        enter(rep)(wrd, tid, inject, ti, alists, rr)
            -> (completion, term_done)

    ``inject`` is the thread's injection (VGIW) or block entry (SGMF)
    cycle; ``ti`` indexes this thread inside the batch; ``alists`` maps a
    memory row's index to its per-thread address list; ``rr`` is the
    SGMF thread's ``regs_ready`` wire-timing dict.

    ``record=True`` (faults armed) appends a ``cyc`` dict argument that
    receives, by node ID, the cycle a fault log entry carries: the issue
    cycle of each OP/SCU row and the completion of each VGIW live-value
    fetch.  ``stop`` (implies recording) walks only the first ``stop``
    rows and returns ``None``: the rows a width-1 functional pass got
    through before it raised.
    """
    rows = plan.rows if stop is None else plan.rows[:stop]
    record = record or stop is not None
    issue_rows = []  # (nid, unit ID)
    mem_rows = []  # (nid, unit ID)
    scu_rows = []
    for row in rows:
        tag = row[0]
        if tag == T_INIT or (sgmf and tag in (T_LVLOAD, T_LVSTORE)):
            continue
        nid = row[1]
        issue_rows.append((nid, row[2]))
        if tag == T_SCU:
            scu_rows.append((nid, row[2]))
        elif tag in (T_LOAD, T_STORE, T_LVLOAD, T_LVSTORE):
            mem_rows.append((nid, row[2]))
    # Bound names in default order: replica state, then constants.
    names = (["uw"] + [f"nf{n}" for n, _ in issue_rows]
             + [f"out{n}" for n, _ in mem_rows]
             + [f"pool{n}" for n, _ in scu_rows]
             + [f"u{n}" for n, _ in issue_rows])
    consts = [u for _, u in issue_rows]

    # The walk's body: runs once per thread.
    L = []

    def ready(row):
        """The row's ready time, as an expression.  A row with inputs
        starts at its first input's arrival, not at ``inject``: every
        done time is at or after ``inject`` and every hop is at least
        one cycle, so ``inject`` never wins the maximum."""
        n = row[1]
        exprs = []
        for k, (up, hop) in enumerate(row[3]):
            names.append(f"h{n}_{k}")
            consts.append(float(hop))
            exprs.append(f"d{up} + h{n}_{k}")
        if not exprs:
            return "inject"
        if len(exprs) == 1:
            return exprs[0]
        L.append(f"    r = {exprs[0]}")
        for e in exprs[1:]:
            L.append(f"    t = {e}")
            L.append("    if t > r: r = t")
        return "r"

    def issue(n, r):
        return f"iss(nf{n}, {r}, uw, u{n})"

    def mem_row(n, r, helper, access):
        return (f"    d{n} = {helper}(out{n}, {r}, uw, u{n}, nf{n},"
                f" {entries}, {access})")

    for ri, row in enumerate(rows):
        tag = row[0]
        nid = row[1]
        if tag == T_INIT:
            L.append(f"    d{nid} = inject")
        elif tag == T_OP or tag == T_SCU or tag == T_SJ or tag == T_TERM:
            lat = float(row[4]) if tag != T_TERM else 1.0
            r = ready(row)
            if tag == T_SCU:
                if r != "r":
                    L.append(f"    r = {r}")
                L.append(f"    e = heappop(pool{nid})")
                L.append("    if e > r: r = e")
                r = "r"
            if record and (tag == T_OP or tag == T_SCU):
                L.append(f"    s = {issue(nid, r)}")
                L.append(f"    d{nid} = s + {lat!r}")
                L.append(f"    cyc[{nid}] = float(s)")
            else:
                L.append(f"    d{nid} = {issue(nid, r)} + {lat!r}")
            if tag == T_SCU:
                L.append(f"    heappush(pool{nid}, d{nid})")
        elif tag in (T_LOAD, T_STORE):
            rw = "True" if tag == T_STORE else "False"
            L.append(mem_row(nid, ready(row), "wrd",
                             f"alists[{ri}][ti], {rw}"))
        elif tag == T_LVLOAD:
            if sgmf:
                # Wired live value: a one-cycle hop from the producer.
                L.append(f"    t = rr[{row[5].out_reg!r}] + 1")
                L.append(f"    d{nid} = inject if inject >= t else t")
            else:
                L.append(mem_row(nid, ready(row), "lvr",
                                 f"{row[4]}, tid, False"))
                if record:
                    L.append(f"    cyc[{nid}] = d{nid}")
        elif tag == T_LVSTORE:
            if sgmf:
                L.append(f"    d{nid} = {ready(row)}")
                L.append(f"    rr[{row[6].out_reg!r}] = d{nid}")
            else:
                L.append(mem_row(nid, ready(row), "lvr",
                                 f"{row[4]}, tid, True"))

    if stop is not None:
        L.append("    return None")
    else:
        sinks = plan.sinks
        L.append(f"    c = d{sinks[0]}")
        for snk in sinks[1:]:
            L.append(f"    if d{snk} > c: c = d{snk}")
        L.append(f"    return c, d{plan.term_nid}" if sgmf else "    return c")
    if sgmf:
        head = ["wrd", "tid", "inject", "ti", "alists", "rr"]
    else:
        head = ["wrd", "lvr", "tid", "inject", "ti", "alists"]
    if record:
        head.append("cyc")
    source = "\n".join([f"def __timing({', '.join(head + names)}):"] + L)
    return _walk_enter(walk_code(source, plan.block_name),
                       tuple(u for _, u in issue_rows),
                       tuple(u for _, u in mem_rows),
                       tuple(u for _, u in scu_rows), scu_instances,
                       tuple(consts))


def timing_walk(plan: ExecPlan, config, sgmf: bool = False,
                record: bool = False):
    """``plan``'s ``enter(rep)`` (:func:`compile_timing`; the recording
    flavour when ``record``), built on first use and kept on the plan.
    Its walk code comes from :func:`walk_code`, so the plan compiles
    nothing when a replica or an equal block compiled the same shape;
    each ``enter(rep)`` call returns the flat walk with ``rep``'s state
    and the plan's constants bound as its argument defaults."""
    fn = plan.record_fn if record else plan.timing_fn
    if fn is None:
        fn = compile_timing(plan, config.ldst_reservation_entries,
                            config.scu_instances, sgmf, record)
        if record:
            plan.record_fn = fn
        else:
            plan.timing_fn = fn
    return fn


def visit_sequentially(plan: ExecPlan, tid: int, memory: MemoryImage,
                       rec: Trail, stamps, lv_load, lv_store,
                       faults: Optional[FaultInjector], config,
                       sgmf: bool, call):
    """One thread's visit of one block in thread-major order: the
    functional rows at width 1 (:func:`eval_rows`, ``sequential``), then
    the thread's timing walk, run by ``call(enter, *cyc)`` as
    ``enter(rep)(…)`` with the engine's replica and arguments.  Returns
    the walk's result and the successor block.

    With faults armed the recording walk stamps each queued log entry
    with its cycle.  When the functional pass raises, the rows the
    thread got through (``rec.stop``) are still timed and stamped before
    the error propagates, as in a walk that times each row as it goes.
    """
    cyc: Dict[int, float] = {}
    try:
        _, term = eval_rows(plan, np.array([tid], np.int64), memory, rec,
                            lv_load, lv_store, True, faults, stamps)
    except Exception:
        call(compile_timing(plan, config.ldst_reservation_entries,
                            config.scu_instances, sgmf, stop=rec.stop), cyc)
        for entry, nid in stamps:
            entry.cycle = cyc[nid]
        raise
    if faults is None:
        out = call(timing_walk(plan, config, sgmf))
    else:
        out = call(timing_walk(plan, config, sgmf, True), cyc)
        for entry, nid in stamps:
            entry.cycle = cyc[nid]
    if isinstance(term, np.ndarray):
        term = plan.true_target if term[0] else plan.false_target
    return out, term


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

    A compiled timing walk holds the calendars, reservation buffers and
    SCU pools its ``enter(rep)`` looked up (:func:`compile_timing`), so
    none of them may be replaced while a walk is entered.

    Token-buffer admission has two spellings of one rule: per thread,
    :meth:`admit` and :meth:`retire` (SGMF, and VGIW's thread-major
    visits); per VGIW batch packet, :meth:`stream_packet`, the same
    arithmetic in the same order with the packet's walk calls in line.
    """

    def __init__(self):
        self.unit_next: Dict[int, Dict[int, int]] = {}
        self.scu_pool: Dict[int, List[float]] = {}
        self.ldst_outstanding: Dict[int, List[float]] = {}
        self.next_inject: float = 0.0
        self.window: List[float] = []  # completion times, injection order
        #: injection time per thread, parallel to ``window`` (lets the
        #: watchdog compute the oldest in-flight thread's age)
        self.inject_times: List[float] = []
        #: accumulated issue-stall cycles per unit (watchdog histogram)
        self.unit_wait: Dict[int, float] = {}
        #: cycles injection stalled on a full token-buffer window
        self.inject_wait: float = 0.0

    def admit(self, depth: int) -> float:
        """The next thread's injection cycle: one after the last, or
        later while the ``depth``-deep token-buffer window is full
        (back-pressure until an older thread drains)."""
        inject = self.next_inject
        window = self.window
        if len(window) >= depth:
            bound = window[len(window) - depth]
            if bound > inject:
                self.inject_wait += bound - inject
                inject = bound
        self.inject_times.append(inject)
        return inject

    def retire(self, inject: float, completion: float) -> None:
        """Close the window slot of the thread :meth:`admit` injected at
        ``inject``."""
        self.next_inject = inject + 1.0
        self.window.append(completion)

    def stream_packet(self, depth: int, walk, wrd, lvr, tids: List[int],
                      lo: int, hi: int, alists, successors,
                      outcomes: List[ThreadOutcome]) -> None:
        """Stream threads ``tids[lo:hi]`` of one batch packet through
        this replica's entered ``walk``: :meth:`admit`, the walk and
        :meth:`retire` per thread, with the token-buffer window test in
        line and ``next_inject`` and ``inject_wait`` held in locals.
        Appends each thread's :class:`ThreadOutcome` (successor from
        ``successors``) to ``outcomes``, made by ``tuple.__new__`` (no
        Python-level ``__new__`` frame).  A raising walk leaves the
        state :meth:`admit` and :meth:`retire` would have left."""
        window = self.window
        close = window.append
        injected = self.inject_times.append
        emit = outcomes.append
        new_tuple = tuple.__new__
        nxt = self.next_inject
        waited = self.inject_wait
        try:
            for i in range(lo, hi):
                inject = nxt
                n = len(window)
                if n >= depth:
                    bound = window[n - depth]
                    if bound > inject:
                        waited += bound - inject
                        inject = bound
                injected(inject)
                tid = tids[i]
                completion = walk(wrd, lvr, tid, inject, i, alists)
                emit(new_tuple(ThreadOutcome,
                               (completion, tid, successors[i])))
                nxt = inject + 1.0
                close(completion)
        finally:
            self.next_inject = nxt
            self.inject_wait = waited


class Trail(dict):
    """The per-thread address lists of one functional pass, by memory
    row index (the timing walk's ``alists``).

    ``stop`` counts the rows a thread has got through: when a width-1
    pass raises, the sequential walk has already timed exactly those
    rows (a memory row is timed once its address is known, before the
    bounds check; a VGIW live-value fetch before its lookup).
    """

    __slots__ = ("stop",)

    def __init__(self):
        super().__init__()
        self.stop = 0


def _fire_token_fault(faults: FaultInjector, plan: ExecPlan, row, tid: int,
                      v: np.ndarray, stamps) -> np.ndarray:
    """The OP-node fault hook on a width-1 result, in row order with the
    row's own unit ID; a log entry it adds is queued in ``stamps`` for
    the cycle only the timing walk knows."""
    before = v.tolist()[0]
    logged = len(faults.log)
    after = faults.corrupt_token(plan.block_name, row[2], tid, 0.0, before)
    if len(faults.log) > logged:
        stamps.append((faults.log[-1], row[1]))
    return v if after is before else as_value_array([after], 1)


def _scalar_address(a, memory: MemoryImage, rec: Trail, ri: int):
    """Width 1: the address batch check rejected ``a``.  Convert and
    bounds-check it the sequential way, raising its exact error."""
    addr = int(a.tolist()[0] if isinstance(a, np.ndarray) else a)
    rec[ri] = [addr]
    rec.stop = ri + 1  # timed before the bounds check
    memory.read(addr)
    return np.array([addr], np.int64)


def eval_rows(plan: ExecPlan, tids: np.ndarray, memory: MemoryImage,
              rec: Trail, lv_load, lv_store, sequential: bool = False,
              faults: Optional[FaultInjector] = None, stamps=None):
    """Evaluate ``plan``'s rows over the thread batch ``tids``: the one
    functional pass of both dataflow engines.

    Every row runs as one :mod:`repro.ir.vecops` batch.  Loads read the
    memory image as it stands; ``rec`` receives every memory row's
    address list.  ``lv_load(row)`` returns a row's live-value batch
    (``None``: not every thread has it) and ``lv_store(row, v)`` takes
    one; both are the engine's (VGIW's live value cache, SGMF's wires).

    Returns ``(mem_log, term)``: ``mem_log`` lists ``(row index,
    addresses, float64 values or None for a load)`` in row order, and
    ``term`` is the successor block (``None`` on return) or a per-thread
    bool array choosing the branch's true target.

    By default stores are only logged (the caller commits them) and
    ``None`` is returned whenever the batch cannot reproduce the
    thread-major sequential walk exactly — an undefined live value, an
    invalid address, a failing conversion; nothing is written then.
    ``sequential=True`` evaluates one thread (``tids`` of length 1) in
    the sequential walk's terms: stores are written through in program
    order, so a thread re-reading its own store sees it, each of those
    cases raises the sequential walk's own error, and an armed
    ``faults`` injector fires row by row (log entries queue in
    ``stamps`` as ``(entry, nid)``).
    """
    n = tids.shape[0]
    data = memory.data
    size = memory.size
    value: List[object] = [None] * plan.n_nodes
    mem_log = []
    term = None

    def operand(src):
        m, p = src
        return p if m == SRC_CONST else value[p] if m == SRC_NODE else tids

    try:
        for ri, row in enumerate(plan.rows):
            rec.stop = ri
            tag = row[0]
            if tag == T_INIT:
                value[row[1]] = tids
            elif tag == T_OP or tag == T_SCU:
                args = tuple(operand(src) for src in row[5])
                v = vec_eval(row[7], args, row[6], n)
                if faults is not None:
                    v = _fire_token_fault(faults, plan, row, int(tids[0]),
                                          v, stamps)
                value[row[1]] = v
            elif tag == T_LOAD or tag == T_STORE:
                a = operand(row[4])
                addrs = addr_batch(a, n, size)
                if addrs is None:
                    if not sequential:
                        return None
                    addrs = _scalar_address(a, memory, rec, ri)
                rec[ri] = addrs.tolist()
                if tag == T_LOAD:
                    mem_log.append((ri, addrs, None))
                    value[row[1]] = coerce_array(data[addrs], row[5], n)
                    continue
                v = operand(row[5])
                fvals = f64_batch(v, n)
                if fvals is None:
                    if not sequential:
                        return None
                    # Raises the sequential walk's conversion error.
                    memory.write(rec[ri][0], v.tolist()[0])
                if sequential:
                    data[addrs] = fvals
                mem_log.append((ri, addrs, fvals))
            elif tag == T_LVLOAD:
                v = lv_load(row)
                if v is None:
                    return None
                value[row[1]] = v
            elif tag == T_LVSTORE:
                lv_store(row, operand(row[5]))
            elif tag == T_TERM:
                kind = plan.term_kind
                if kind is TermKind.JMP:
                    term = plan.true_target
                elif kind is TermKind.BR:
                    term = branch_taken(operand(row[4]), n)
            elif row[5] is not None:  # T_SJ passthrough
                value[row[1]] = operand(row[5])
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        if sequential:
            raise
        return None
    return mem_log, term


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
        #: the walks' memory-row helpers, bound to this run's hierarchy
        self._wrd = word_row(memsys)
        self._lvr = live_row(lvc)
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
    ) -> Tuple[List[List[ThreadOutcome]], float]:
        """Stream ``thread_ids`` through block ``cb`` starting at
        ``start_time``; return the per-thread outcomes, one list per
        running replica (replica index order, each in its threads'
        injection order: the stream its terminator CVU sees), and the
        cycle at which the whole vector has drained.

        A batched vector streams each 64-thread packet through its
        replica in one :meth:`_ReplicaState.stream_packet` call; a
        thread-major one admits, visits (:meth:`_thread_visit`) and
        retires thread by thread.  Both give the same outcomes and
        replica state."""
        n_replicas = cb.n_replicas
        replicas = [_ReplicaState() for _ in range(n_replicas)]
        for r in replicas:
            r.next_inject = start_time
        self.last_block = cb
        self.last_replicas = replicas
        if self.faults is not None:
            self.faults.maybe_abort(f"vgiw/{cb.name}", start_time)

        depth = self.config.token_buffer_depth
        # The BBS hands out whole batch packets to the replicas'
        # initiator CVUs (paper section 3.2), so replicas see runs of
        # consecutive thread IDs, and only the running prefix is
        # placed and planned.
        n_running, slots = replica_deal(len(thread_ids), n_replicas,
                                        BATCH_BITS)
        plans = [self._plan_for(cb, ridx) for ridx in range(n_running)]
        outcomes: List[List[ThreadOutcome]] = [[] for _ in plans]
        hop_total = 0

        # Functional pass over the whole vector at once (replica plans
        # share functional content — only unit IDs and hop counts
        # differ — so plans[0] stands in for all of them).  ``None``
        # means the vector needs thread-major order (see
        # :meth:`_functional_batch`); with faults armed it always does,
        # since the hooks fire in sequential (thread, row) order.
        batch = None
        if self.faults is None:
            batch = self._functional_batch(plans[0], thread_ids)
        n_thr = len(thread_ids)
        if batch is not None:
            wrd, lvr = self._wrd, self._lvr
            alists = batch["addrs"]
            nb = batch["next"]
            if not isinstance(nb, list):
                nb = [nb] * n_thr
            # Each running replica enters its walk once per vector.
            walks = [timing_walk(plan, self.config)(rep)
                     for plan, rep in zip(plans, replicas)]

        # One replica per packet: its state, plan and walk are looked up
        # once per packet, its hops added once.
        for lo in range(0, n_thr, BATCH_BITS):
            hi = min(lo + BATCH_BITS, n_thr)
            ridx = slots[lo]
            rep = replicas[ridx]
            plan = plans[ridx]
            if batch is not None:
                rep.stream_packet(depth, walks[ridx], wrd, lvr, thread_ids,
                                  lo, hi, alists, nb, outcomes[ridx])
            else:
                out = outcomes[ridx]
                for tid in thread_ids[lo:hi]:
                    inject = rep.admit(depth)
                    completion, next_block = self._thread_visit(
                        plan, rep, tid, inject
                    )
                    out.append(ThreadOutcome(completion, tid, next_block))
                    rep.retire(inject, completion)
            hop_total += plan.total_hops * (hi - lo)
        # Every thread's completion closed a slot of its replica's window.
        end_time = max([start_time] + [max(rep.window)
                                       for rep in replicas if rep.window])

        if batch is not None:
            self._commit_batch(batch, thread_ids)

        # Per-thread event counts are static per block, so the stats
        # are accumulated batch-wise (O(1) per vector, not O(nodes) per
        # thread).  The totals are identical to per-node counting.
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
            placed = cb.placement.replica(ridx)
            plan = build_exec_plan(
                cb.dfg, placed.unit_of, placed.edge_hops, self.params,
                self.config.op_latency,
            )
            self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    def _functional_batch(self, plan: ExecPlan, thread_ids: List[int]):
        """Evaluate ``plan``'s rows over the whole thread vector.

        Returns ``None`` when the vector needs thread-major order: its
        :class:`~repro.ir.vecops.MemLog` (ranked by batch slot, the row
        index as program position) is not exact (private load-then-store
        patterns stay batched), a live value is fetched before any block
        stored it, an address is invalid, or a conversion fails.  No state is mutated before returning, so
        :meth:`_thread_visit` reruns the vector from scratch.

        On success returns the per-row address lists (consumed by the
        timing walks — cache timing depends on the exact address
        stream), the per-thread successor blocks, and the buffered
        memory / live-value writes for :meth:`_commit_batch`.
        """
        n = len(thread_ids)
        tids = np.asarray(thread_ids, np.int64)
        lv_values = self.lv_values
        lv_overlay: Dict[int, object] = {}

        def lv_load(row):
            lv_id = row[4]
            if lv_id in lv_overlay:
                return lv_overlay[lv_id]
            out = []
            for t in thread_ids:
                lv = lv_values.get((lv_id, t), _MISSING)
                if lv is _MISSING:
                    return None
                out.append(lv)
            return as_value_array(out, n)

        def lv_store(row, v):
            lv_overlay[row[4]] = v

        rec = Trail()
        out = eval_rows(plan, tids, self.memory, rec, lv_load, lv_store)
        if out is None:
            return None
        mem_log, term = out
        log = MemLog()
        slots = np.arange(n, dtype=np.int64)
        for ri, addrs, fvals in mem_log:
            log.record(slots, ri, addrs, fvals)
        if not log.exact():
            return None
        if isinstance(term, np.ndarray):
            term = [plan.true_target if t else plan.false_target
                    for t in term.tolist()]
        return {"addrs": rec, "next": term, "stores": log,
                "lv": lv_overlay}

    def _commit_batch(self, batch, thread_ids: List[int]) -> None:
        """Apply a functional batch's buffered writes.

        Memory stores commit in the thread-major order of the batch's
        :class:`~repro.ir.vecops.MemLog`, so repeated addresses resolve
        exactly as a thread-by-thread walk would.  Live values are
        materialised back to plain Python scalars (``tolist``), the form
        :meth:`_thread_visit` stores too.
        """
        batch["stores"].commit(self.memory.data)

        lv_values = self.lv_values
        for lv_id, vals in batch["lv"].items():
            if isinstance(vals, np.ndarray):
                for t, v in zip(thread_ids, vals.tolist()):
                    lv_values[(lv_id, t)] = v
            else:
                for t in thread_ids:
                    lv_values[(lv_id, t)] = vals

    def _thread_visit(self, plan: ExecPlan, rep: _ReplicaState, tid: int,
                      inject: float) -> Tuple[float, Optional[str]]:
        """One thread through one block in thread-major order
        (:func:`visit_sequentially`), its live values read from and
        written through to ``lv_values``.  Returns the completion cycle
        and the successor block."""
        faults = self.faults
        lv_values = self.lv_values
        rec = Trail()
        stamps: List[Tuple[object, int]] = []

        def lv_load(row):
            lv_id = row[4]
            lv = lv_values.get((lv_id, tid), _MISSING)
            if lv is _MISSING:
                rec.stop += 1  # the fetch is timed before the lookup
                raise SimulationError(
                    f"thread {tid} fetches live value {lv_id} "
                    f"(%{row[5].out_reg}) before any block stored it",
                    block=plan.block_name,
                    thread=tid,
                    live_value=lv_id,
                )
            if faults is not None:
                logged = len(faults.log)
                lv = faults.corrupt_lv(lv_id, tid, 0.0, lv)
                if len(faults.log) > logged:
                    stamps.append((faults.log[-1], row[1]))
            return as_value_array([lv], 1)

        def lv_store(row, v):
            lv_values[(row[4], tid)] = (
                v.tolist()[0] if isinstance(v, np.ndarray) else v
            )

        wrd, lvr = self._wrd, self._lvr
        return visit_sequentially(
            plan, tid, self.memory, rec, stamps, lv_load, lv_store, faults,
            self.config, False,
            lambda enter, *cyc: enter(rep)(wrd, lvr, tid, inject, 0, rec,
                                           *cyc),
        )
