"""SGMF core execution: the dataflow-GPGPU baseline.

Threads stream through the whole-kernel resident graph with no
reconfiguration, no CVT bookkeeping, and no LVC traffic — block-crossing
values ride the interconnect directly.  The cost of this generality is
(1) the capacity limit (see :mod:`repro.sgmf.mapping`) and (2) wasted
fabric bandwidth: a thread pumps one predicated token through every
mapped node it does not actually need (paper §2, Figure 1c).

The timing machinery (unit issue, SCU pools, reservation buffers,
token-buffer windows, hop latencies) is shared with the VGIW MT-CGRF
model so the two architectures differ only where the designs differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.arch.config import SGMFConfig
from repro.engine import EngineRunResult
from repro.ir.instr import TermKind, coerce_i64
from repro.ir.kernel import Kernel
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
from repro.memory.cache import CacheStats
from repro.memory.dram import DRAMStats
from repro.memory.hierarchy import MemorySystem
from repro.memory.image import MemoryImage
from repro.obs.metrics import Metrics, record_shared_run_metrics
from repro.resilience.errors import SimulationHangError
from repro.resilience.faults import FaultInjector
from repro.resilience.watchdog import (
    ForwardProgressWatchdog,
    WatchdogConfig,
    snapshot_from_replicas,
)
from repro.sgmf.mapping import SGMFMapping, SGMFUnmappableError, map_kernel
from repro.vgiw.mtcgrf import (
    T_INIT,
    T_LOAD,
    T_LVLOAD,
    T_LVSTORE,
    T_OP,
    T_SCU,
    T_SJ,
    T_STORE,
    ExecPlan,
    FabricStats,
    _ReplicaState,
    build_exec_plan,
    compile_timing,
)

Number = Union[int, float, bool]


@dataclass
class SGMFRunResult(EngineRunResult):
    """Result of one kernel launch on an SGMF core.

    Shares the :class:`~repro.engine.EngineRunResult` contract with the
    VGIW and Fermi results (``trace``/``metrics`` attachments included);
    every historical field keeps its name and position.
    """

    engine = "sgmf"

    kernel_name: str
    n_threads: int
    cycles: float
    fabric: FabricStats
    waste_fires: int
    n_replicas: int
    l1: CacheStats
    l2: CacheStats
    dram: DRAMStats

    @property
    def useful_fire_fraction(self) -> float:
        total = self.fabric.node_fires
        return 1.0 - self.waste_fires / total if total else 1.0


class SGMFCore:
    """A single SGMF core attached to the standard memory hierarchy."""

    def __init__(self, config: Optional[SGMFConfig] = None):
        self.config = config or SGMFConfig()
        self._faults: Optional[FaultInjector] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _build_plans(mapping: SGMFMapping, params: Dict[str, Number],
                     config: SGMFConfig):
        """Precompile every block once per replica: the per-thread walk
        then dispatches on flat tuples instead of re-inspecting DFG
        nodes (cycle-identical; see docs/performance.md).  Pseudo
        nodes (wired live values, non-entry initiators) are excluded
        from the energy accounting, matching the SGMF convention."""
        plans: List[Dict[str, ExecPlan]] = []
        waste_units: List[Dict[str, List[int]]] = []
        for ridx in range(mapping.n_replicas):
            placed = mapping.replicas[ridx]
            plan_map: Dict[str, ExecPlan] = {}
            wu_map: Dict[str, List[int]] = {}
            for name, dfg in mapping.dfgs.items():
                pl = placed[name]
                plan_map[name] = build_exec_plan(
                    dfg, pl.unit_of, pl.edge_hops, params,
                    config.op_latency, count_pseudo_ops=False,
                )
                wu_map[name] = [
                    pl.unit_of[node.nid]
                    for node in dfg.nodes
                    if not node.pseudo
                ]
            plans.append(plan_map)
            waste_units.append(wu_map)
        return plans, waste_units

    # ------------------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        memory: MemoryImage,
        params: Dict[str, Number],
        n_threads: int,
        max_block_visits: int = 1_000_000,
        watchdog: Optional[WatchdogConfig] = None,
        faults: Optional[FaultInjector] = None,
        tracer=None,
        metrics: Optional[Metrics] = None,
        compile_cache=None,
    ) -> SGMFRunResult:
        """Execute the kernel, or raise :class:`SGMFUnmappableError`.

        ``tracer`` records per-thread dataflow walks (span events,
        ``sgmf.thread``) plus cache-miss / DRAM row-activation events
        from the memory hierarchy; ``metrics`` receives the run's
        counters under the ``sgmf/`` scope.  Both attach to the
        returned result.  ``compile_cache`` memoises the whole-kernel
        mapping per kernel × fabric config (``SGMFUnmappableError``
        included — the capacity proof is derived once per sweep).
        """
        config = self.config
        # Disabled-mode fast path: one local None-test per hook site.
        trace = tracer if (tracer is not None and tracer.enabled) else None
        if compile_cache is not None:
            from repro.compiler.cache import cached_map_kernel

            mapping = cached_map_kernel(
                kernel, config.fabric, cache=compile_cache
            )
        else:
            mapping = map_kernel(kernel, config.fabric)
        params = {
            name: (
                float(params[name])
                if kernel.param_dtypes[name] is DType.FLOAT
                else int(params[name])
            )
            for name in kernel.params
        }
        memsys = MemorySystem(
            config.memory, l1_write_back=config.l1_write_back, faults=faults,
            tracer=trace,
        )
        stats = FabricStats()
        self._waste_fires = 0
        self._faults = faults

        n_replicas = mapping.n_replicas
        reps = [_ReplicaState(config) for _ in range(n_replicas)]
        plans, waste_units = self._build_plans(mapping, params, config)
        # Compiled timing-walk binders by source text, shared by the
        # replicas and equal blocks of this run.
        timing_binders: Dict[str, Callable] = {}
        depth = config.token_buffer_depth
        wd = ForwardProgressWatchdog(watchdog, "sgmf", kernel.name)
        wd.start(0.0)
        if faults is not None:
            faults.maybe_abort(f"sgmf/{kernel.name}", 0.0)

        def snapshot(now: float):
            snap = snapshot_from_replicas(
                sim="sgmf", kernel=kernel.name, now=now, replicas=reps,
            )
            if trace is not None:
                # Hang forensics: the last N timeline events show what
                # the machine did just before it stopped.
                snap.detail["recent_trace"] = [
                    ev.brief() for ev in trace.tail(16)
                ]
                trace.instant("snapshot", "watchdog", now, pid="sgmf")
            return snap

        # Batched execution: one vectorized functional pass over all
        # threads, then per-thread timing replays with stores committed
        # at each thread boundary (so a hang leaves the scalar path's
        # memory state behind).
        batch = None
        if (faults is None and n_threads >= 4
                and not scalar_exec_requested()):
            batch = self._functional_waves(
                kernel, plans[0], n_threads, memory, max_block_visits
            )
        if batch is not None:
            st_a, st_v, bounds = (
                batch["st_a"], batch["st_v"], batch["bounds"]
            )
            paths = batch["paths"]
            mdata = memory.data

        end_time = 0.0
        for i in range(n_threads):
            ridx = i % n_replicas
            rep = reps[ridx]
            inject = rep.next_inject
            if len(rep.window) >= depth:
                bound = rep.window[len(rep.window) - depth]
                if bound > inject:
                    rep.inject_wait += bound - inject
                    inject = bound
            rep.inject_times.append(inject)
            if batch is None:
                completion = self._run_thread(
                    kernel, plans[ridx], waste_units[ridx], rep, i, inject,
                    memory, memsys, stats, max_block_visits, wd, snapshot,
                )
            else:
                completion = self._run_thread_timing(
                    plans[ridx], waste_units[ridx], rep, i, inject,
                    paths[i], memsys, stats, wd, snapshot, timing_binders,
                )
                if bounds is not None:
                    lo, hi = bounds[i], bounds[i + 1]
                    if hi > lo:
                        mdata[st_a[lo:hi]] = st_v[lo:hi]
            rep.next_inject = inject + 1.0
            rep.window.append(completion)
            end_time = max(end_time, completion)
            if trace is not None:
                trace.complete(
                    "thread", "sgmf.thread", inject, completion - inject,
                    pid="sgmf", tid=ridx, thread=i, replica=ridx,
                )
            wd.progress(completion)
            wd.check(end_time, snapshot)

        waste_fires = self._waste_fires
        stats.threads = n_threads
        if metrics is not None:
            scope = metrics.scope("sgmf")
            record_shared_run_metrics(
                scope, cycles=end_time, n_threads=n_threads,
                l1=memsys.l1_stats, l2=memsys.l2_stats,
                dram=memsys.dram.stats,
            )
            scope.inc("fabric.node_fires", stats.node_fires)
            scope.inc("fabric.token_hops", stats.token_hops)
            scope.inc("fabric.waste_fires", waste_fires)
            scope.gauge("fabric.replicas", n_replicas)

        return SGMFRunResult(
            kernel_name=kernel.name,
            n_threads=n_threads,
            cycles=end_time,
            fabric=stats,
            waste_fires=waste_fires,
            n_replicas=n_replicas,
            l1=memsys.l1_stats,
            l2=memsys.l2_stats,
            dram=memsys.dram.stats,
        ).attach_obs(tracer, metrics)

    # ------------------------------------------------------------------
    @staticmethod
    def _lv_write(regs, defined, reg, wave, vals, n_threads, n):
        """Scatter a wave's live-value batch into the per-register
        thread arrays, promoting to ``object`` dtype on conflict."""
        if not isinstance(vals, np.ndarray):
            vals = as_value_array([vals] * n, n)
        arr = regs.get(reg)
        if arr is None:
            arr = np.zeros(n_threads, vals.dtype)
            regs[reg] = arr
            defined[reg] = np.zeros(n_threads, bool)
        elif arr.dtype != vals.dtype:
            if arr.dtype.kind != "O":
                obj = np.empty(n_threads, object)
                obj[:] = arr.tolist()
                arr = regs[reg] = obj
            vals = np.array(vals.tolist(), dtype=object)
        arr[wave] = vals
        defined[reg][wave] = True

    def _functional_waves(
        self,
        kernel: Kernel,
        plans: Dict[str, ExecPlan],
        n_threads: int,
        memory: MemoryImage,
        max_block_visits: int,
    ):
        """Evaluate every thread's whole-kernel walk as vectorized waves.

        Threads sharing a basic block evaluate each plan row as one
        :func:`repro.ir.vecops.vec_eval` batch; live values are wires —
        full-length per-register arrays indexed by tid.  Per-thread
        block paths and per-row address lists are recorded for the
        timing replay.  Returns ``None`` whenever the batch cannot
        reproduce the scalar thread-major semantics exactly — a stored
        address is loaded by an earlier-or-equal ``(tid, program
        position)`` (checked by :func:`stores_after_loads`, so private
        read-modify-writes stay on the batch path), a wire is read
        before any thread wrote it, an address is invalid, or a thread
        exceeds the visit bound — and the scalar walk reruns from
        untouched state (no writes happen before the bail-out).

        Buffered stores commit per thread in ``(tid, program order)``
        via one lexsort; ``bounds[t] : bounds[t+1]`` slices thread
        ``t``'s writes so :meth:`run` applies them at the exact
        thread boundary the scalar path would have.
        """
        data = memory.data
        size = memory.size
        regs: Dict[str, np.ndarray] = {}
        defined: Dict[str, np.ndarray] = {}
        visits = np.zeros(n_threads, np.int64)
        paths: List[List] = [[] for _ in range(n_threads)]
        load_log: List = []  # (wave, addrs, seq)
        store_log: List = []  # (wave, addrs, f64 values, seq)
        seq = 0  # shared program-order counter for the hazard keys
        frontier: Dict[str, np.ndarray] = {
            kernel.entry: np.arange(n_threads, dtype=np.int64)
        }
        try:
            while frontier:
                name, wave = frontier.popitem()
                plan = plans[name]
                visits[wave] += 1
                if int(visits[wave].max()) > max_block_visits:
                    return None
                n = wave.shape[0]
                rec: Dict[int, List[int]] = {}
                for j, t in enumerate(wave.tolist()):
                    paths[t].append((name, rec, j))
                value: List[object] = [None] * plan.n_nodes
                next_name = None
                taken = None
                for ri, row in enumerate(plan.rows):
                    tag = row[0]
                    if tag == T_INIT:
                        value[row[1]] = wave
                    elif tag == T_OP or tag == T_SCU:
                        args = []
                        for m, p in row[6]:
                            v = (p if m == 0
                                 else value[p] if m == 1 else wave)
                            if v is None and m == 1:
                                return None
                            args.append(v)
                        dt = row[7]
                        if dt == 0:
                            value[row[1]] = vec_eval_raw(
                                row[8], tuple(args), n
                            )
                        else:
                            value[row[1]] = vec_eval(
                                row[8], tuple(args), dt, n
                            )
                    elif tag == T_LVLOAD:
                        reg = row[5].out_reg
                        d = defined.get(reg)
                        if d is None or not d[wave].all():
                            return None
                        value[row[1]] = regs[reg][wave]
                    elif tag == T_LVSTORE:
                        m, p = row[5]
                        v = p if m == 0 else value[p] if m == 1 else wave
                        if v is None and m == 1:
                            return None
                        self._lv_write(
                            regs, defined, row[6].out_reg, wave, v,
                            n_threads, n,
                        )
                    elif tag == T_LOAD:
                        m, p = row[4]
                        a = p if m == 0 else value[p] if m == 1 else wave
                        if a is None and m == 1:
                            return None
                        addrs = addr_batch(a, n, size)
                        if addrs is None:
                            return None
                        rec[ri] = addrs.tolist()
                        seq += 1
                        load_log.append((wave, addrs, seq))
                        raw = data[addrs]
                        value[row[1]] = f2i_array(raw) if row[5] else raw
                    elif tag == T_STORE:
                        m, p = row[4]
                        a = p if m == 0 else value[p] if m == 1 else wave
                        if a is None and m == 1:
                            return None
                        addrs = addr_batch(a, n, size)
                        if addrs is None:
                            return None
                        rec[ri] = addrs.tolist()
                        m, p = row[5]
                        v = p if m == 0 else value[p] if m == 1 else wave
                        if v is None and m == 1:
                            return None
                        fvals = f64_batch(v, n)
                        if fvals is None:
                            return None
                        seq += 1
                        store_log.append((wave, addrs, fvals, seq))
                    elif tag == T_SJ:
                        if row[5] is not None:
                            m, p = row[5]
                            v = (p if m == 0
                                 else value[p] if m == 1 else wave)
                            if v is None and m == 1:
                                return None
                            value[row[1]] = v
                    else:  # T_TERM
                        kind = plan.term_kind
                        if kind is TermKind.RET:
                            next_name = None
                        elif kind is TermKind.JMP:
                            next_name = plan.true_target
                        else:
                            m, p = row[4]
                            c = (p if m == 0
                                 else value[p] if m == 1 else wave)
                            if c is None and m == 1:
                                return None
                            if isinstance(c, np.ndarray):
                                if c.dtype.kind == "O":
                                    taken = np.array(
                                        [bool(x) for x in c.tolist()],
                                        bool,
                                    )
                                else:
                                    taken = c != 0
                            else:
                                next_name = (
                                    plan.true_target if c
                                    else plan.false_target
                                )

                if taken is not None:
                    for target, sub in (
                        (plan.true_target, wave[taken]),
                        (plan.false_target, wave[~taken]),
                    ):
                        if not sub.shape[0]:
                            continue
                        prev = frontier.get(target)
                        frontier[target] = (
                            sub if prev is None
                            else np.concatenate([prev, sub])
                        )
                elif next_name is not None:
                    prev = frontier.get(next_name)
                    frontier[next_name] = (
                        wave if prev is None
                        else np.concatenate([prev, wave])
                    )
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            return None

        if store_log and load_log and not stores_after_loads(
            np.concatenate([a for _, a, _ in load_log]),
            np.concatenate([hazard_key(w, s) for w, _, s in load_log]),
            np.concatenate([a for _, a, _, _ in store_log]),
            np.concatenate([hazard_key(w, s) for w, _, _, s in store_log]),
        ):
            return None

        if store_log:
            all_t = np.concatenate([w for w, _, _, _ in store_log])
            all_a = np.concatenate([a for _, a, _, _ in store_log])
            all_v = np.concatenate([v for _, _, v, _ in store_log])
            all_s = np.concatenate(
                [np.full(w.shape[0], sq, np.int64)
                 for w, _, _, sq in store_log]
            )
            order = np.lexsort((all_s, all_t))
            st_a = all_a[order]
            st_v = all_v[order]
            bounds = np.searchsorted(
                all_t[order], np.arange(n_threads + 1)
            )
        else:
            st_a = st_v = bounds = None
        return {"paths": paths, "st_a": st_a, "st_v": st_v,
                "bounds": bounds}

    def _run_thread_timing(
        self,
        plans: Dict[str, ExecPlan],
        waste_units: Dict[str, List[int]],
        rep: _ReplicaState,
        tid: int,
        inject: float,
        path: List,
        memsys: MemorySystem,
        stats: FabricStats,
        wd: ForwardProgressWatchdog,
        snapshot,
        timing_binders: Dict[str, Callable],
    ) -> float:
        """Replay one batched thread's walk for timing only.

        Walks the recorded block path with the compiled straight-line
        timing functions (:func:`repro.vgiw.mtcgrf.compile_timing`,
        SGMF flavour): same unit / memory request sequence, same
        arithmetic, bit-identical cycles.  The waste-fire pass at the
        end is the scalar walk's, verbatim.
        """
        config = self.config
        entries = config.ldst_reservation_entries
        scu_n = config.scu_instances
        mem_access = memsys.access_word
        ops = stats.ops
        rr: Dict[str, float] = {}
        visited = set()
        completion = inject
        entry_time = inject
        visits = 0

        for name, rec, j in path:
            visits += 1
            if not visits % 256:
                wd.check(entry_time, snapshot)
            visited.add(name)
            plan = plans[name]
            fn = plan.timing_fn
            if fn is None:
                fn = plan.timing_fn = compile_timing(
                    plan, entries, scu_n, timing_binders, sgmf=True
                )
            block_completion, term_done = fn(
                rep, mem_access, tid, entry_time, j, rec, rr
            )
            n = plan.n_nodes
            stats.node_fires += n
            stats.tokens += n
            stats.token_hops += plan.total_hops
            for cls, count in plan.ops_counts.items():
                ops[cls] += count
            if block_completion > completion:
                completion = block_completion
            entry_time = term_done + 1.0

        issue = rep.issue
        waste_time = inject + 0.5 * (completion - inject)
        for name, plan in plans.items():
            if name in visited:
                continue
            n = plan.n_nodes
            stats.node_fires += n
            stats.tokens += n
            self._waste_fires += n
            for cls, count in plan.ops_counts.items():
                ops[cls] += count
            for uid in waste_units[name]:
                issue(uid, waste_time)

        return completion

    # ------------------------------------------------------------------
    def _run_thread(
        self,
        kernel: Kernel,
        plans: Dict[str, ExecPlan],
        waste_units: Dict[str, List[int]],
        rep: _ReplicaState,
        tid: int,
        inject: float,
        memory: MemoryImage,
        memsys: MemorySystem,
        stats: FabricStats,
        max_block_visits: int,
        wd: Optional[ForwardProgressWatchdog] = None,
        snapshot=None,
    ) -> float:
        """Walk one thread through the precompiled whole-kernel graph.

        Interprets :class:`~repro.vgiw.mtcgrf.ExecPlan` rows (shared
        with the VGIW fabric model) with the SGMF semantics for live
        values: LVLOAD/LVSTORE are direct wires between block subgraphs
        — no LVC unit issue, a fixed one-cycle wire hop on the load
        side.  Cycle counts are bit-identical to the historical direct
        DFG walk.
        """
        faults = self._faults
        config = self.config
        # Hoisted hot-loop locals (attribute lookups cost on this path).
        issue = rep.issue
        issue_mem = rep.issue_mem
        issue_scu = rep.issue_scu
        retire_mem = rep.retire_mem
        entries = config.ldst_reservation_entries
        mem_access = memsys.access_word
        mem_read = memory.read
        mem_write = memory.write
        ops = stats.ops

        regs_ready: Dict[str, float] = {}
        reg_vals: Dict[str, Number] = {}
        visited = set()
        completion = inject
        entry_time = inject
        current: Optional[str] = kernel.entry
        visits = 0

        while current is not None:
            visits += 1
            if visits > max_block_visits:
                raise SimulationHangError(
                    f"SGMF thread {tid} exceeded {max_block_visits} "
                    f"block visits",
                    snapshot=None if snapshot is None else snapshot(entry_time),
                    kernel=kernel.name,
                    block=current,
                    thread=tid,
                    visits=visits,
                )
            if wd is not None and not visits % 256:
                # Periodic budget check inside a (possibly unbounded)
                # per-thread control-flow walk.
                wd.check(entry_time, snapshot)
            visited.add(current)
            plan = plans[current]
            n = plan.n_nodes
            done: List[float] = [0.0] * n
            value: List[Optional[Number]] = [None] * n

            next_block: Optional[str] = None
            for row in plan.rows:
                tag = row[0]
                nid = row[1]
                if tag == T_INIT:
                    done[nid] = entry_time
                    value[nid] = tid
                    continue
                ready = entry_time
                for up, hop in row[3]:
                    t = done[up] + hop
                    if t > ready:
                        ready = t
                if tag == T_OP or tag == T_SCU:
                    latency = row[4]
                    if tag == T_SCU:
                        start = issue_scu(row[2], ready, latency)
                    else:
                        start = issue(row[2], ready)
                    done[nid] = start + latency
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
                            current, row[2], tid, start, result
                        )
                    value[nid] = result
                elif tag == T_LVLOAD:
                    # Wired live value: arrives from the producing block.
                    reg = row[5].out_reg
                    t = regs_ready[reg] + 1
                    done[nid] = entry_time if entry_time >= t else t
                    value[nid] = reg_vals[reg]
                elif tag == T_LVSTORE:
                    reg = row[6].out_reg
                    done[nid] = ready
                    regs_ready[reg] = ready
                    m, p = row[5]
                    reg_vals[reg] = (
                        p if m == 0 else value[p] if m == 1 else tid
                    )
                elif tag == T_LOAD:
                    m, p = row[4]
                    addr = int(p if m == 0 else value[p] if m == 1 else tid)
                    start = issue_mem(row[2], ready, entries)
                    fin = mem_access(start, addr, False)
                    retire_mem(row[2], fin)
                    done[nid] = fin
                    raw = mem_read(addr)
                    value[nid] = coerce_i64(raw) if row[5] else raw
                elif tag == T_STORE:
                    m, p = row[4]
                    addr = int(p if m == 0 else value[p] if m == 1 else tid)
                    start = issue_mem(row[2], ready, entries)
                    fin = mem_access(start, addr, True)
                    retire_mem(row[2], fin)
                    done[nid] = fin
                    m, p = row[5]
                    mem_write(
                        addr, p if m == 0 else value[p] if m == 1 else tid
                    )
                elif tag == T_SJ:
                    start = issue(row[2], ready)
                    done[nid] = start + row[4]
                    passthrough = row[5]
                    if passthrough is not None:
                        m, p = passthrough
                        value[nid] = (
                            p if m == 0 else value[p] if m == 1 else tid
                        )
                else:  # T_TERM
                    start = issue(row[2], ready)
                    done[nid] = start + 1.0
                    term_kind = plan.term_kind
                    if term_kind is TermKind.RET:
                        next_block = None
                    elif term_kind is TermKind.JMP:
                        next_block = plan.true_target
                    else:
                        m, p = row[4]
                        taken = bool(
                            p if m == 0 else value[p] if m == 1 else tid
                        )
                        next_block = (
                            plan.true_target if taken
                            else plan.false_target
                        )

            # Per-visit statistics, batched (O(op classes), not O(nodes)).
            stats.node_fires += n
            stats.tokens += n
            stats.token_hops += plan.total_hops
            for cls, count in plan.ops_counts.items():
                ops[cls] += count

            block_completion = max(done[s] for s in plan.sinks)
            if block_completion > completion:
                completion = block_completion
            entry_time = done[plan.term_nid] + 1.0
            current = next_block

        # Predicated pass-through: one useless token through every node
        # of every block this thread never reached (paper Figure 1c).
        # The tokens flow while the thread is in flight, so they compete
        # for unit slots around the thread's mid-execution — charging
        # them at injection time would let them backfill long-idle
        # cycles and understate the utilisation loss.
        waste_time = inject + 0.5 * (completion - inject)
        for name, plan in plans.items():
            if name in visited:
                continue
            n = plan.n_nodes
            stats.node_fires += n
            stats.tokens += n
            self._waste_fires += n
            for cls, count in plan.ops_counts.items():
                ops[cls] += count
            # Occupies an issue slot but performs no memory access.
            for uid in waste_units[name]:
                issue(uid, waste_time)

        return completion

    def mapping_for(self, kernel: Kernel) -> SGMFMapping:
        """Expose the mapping (used by reports and tests)."""
        return map_kernel(kernel, self.config.fabric)
