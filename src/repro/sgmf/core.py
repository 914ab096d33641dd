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

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.arch.config import SGMFConfig
from repro.compiler.placement import replica_deal
from repro.engine import EngineRunResult, bind_params
from repro.ir.kernel import Kernel
from repro.ir.vecops import run_waves, scatter
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
from repro.sgmf.mapping import SGMFMapping
from repro.vgiw.mtcgrf import (
    ExecPlan,
    FabricStats,
    Trail,
    _ReplicaState,
    build_exec_plan,
    claim_issue,
    eval_rows,
    timing_walk,
    visit_sequentially,
    word_row,
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
        """Share of node fires that did useful work: 1 minus the
        predicated pass-through fires of unvisited blocks (1.0 when
        nothing fired)."""
        total = self.fabric.node_fires
        return 1.0 - self.waste_fires / total if total else 1.0


class SGMFCore:
    """A single SGMF core attached to the standard memory hierarchy."""

    def __init__(self, config: Optional[SGMFConfig] = None):
        self.config = config or SGMFConfig()

    # ------------------------------------------------------------------
    @staticmethod
    def _build_plans(mapping: SGMFMapping, params: Dict[str, Number],
                     config: SGMFConfig, n_running: int):
        """Precompile every block once per running replica (the first
        ``n_running``): the per-thread walk then dispatches on flat
        tuples instead of re-inspecting DFG nodes (cycle-identical; see
        docs/performance.md).  Pseudo nodes (wired live values,
        non-entry initiators) are excluded from the energy accounting,
        matching the SGMF convention."""
        plans: List[Dict[str, ExecPlan]] = []
        waste_units: List[Dict[str, List[int]]] = []
        for ridx in range(n_running):
            placed = mapping.replica(ridx)
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

        Batched threads (no faults armed, a functional pass that
        reproduces the thread-major walk) are replayed by one loop here
        over each thread's recorded ``(rec, slot, successor)`` visits:
        per visit one call, the replica's walk of the block (entered on
        the replica's first visit); per thread the admission, the waste
        pass (:meth:`_waste_pass`) and the retirement.  The watchdog is
        consulted only when armed.  Other threads walk thread-major
        through :meth:`_walk_thread`.
        """
        config = self.config
        from repro.compiler.cache import cached_map_kernel

        mapping = cached_map_kernel(kernel, config.fabric, cache=compile_cache)
        params = bind_params(kernel, params)
        memsys = MemorySystem(
            config.memory, l1_write_back=config.l1_write_back, faults=faults,
            tracer=tracer,
        )
        # The walks' LOAD/STORE row helper, bound to this run's hierarchy.
        wrd = word_row(memsys)
        # Block visits and waste passes per plan, in first-seen order,
        # folded into the run's FabricStats once at the end.
        fires: Dict[ExecPlan, List[int]] = {}

        n_replicas = mapping.n_replicas
        reps = [_ReplicaState() for _ in range(n_replicas)]
        # Each replica's entered timing walk and ``fires`` entry by
        # block, entered on the replica's first visit of the block.
        walks: List[Dict[str, tuple]] = [{} for _ in reps]
        # Threads are dealt round-robin, so only the first
        # min(n_replicas, n_threads) replicas are placed and planned.
        n_running, slots = replica_deal(n_threads, n_replicas, 1)
        plans, waste_units = self._build_plans(mapping, params, config,
                                               n_running)
        depth = config.token_buffer_depth
        wd = ForwardProgressWatchdog(watchdog, "sgmf", kernel.name, tracer)
        wd.start(0.0)
        if faults is not None:
            faults.maybe_abort(f"sgmf/{kernel.name}", 0.0)

        def snapshot(now: float):
            return snapshot_from_replicas(
                sim="sgmf", kernel=kernel.name, now=now, replicas=reps,
            )

        # Batched execution: one vectorized functional pass over all
        # threads, then per-thread timing replays with the stores
        # committed once after them, up to the last finished thread if
        # the replay raises (so a hang leaves the memory state of a
        # thread-by-thread walk behind).  ``None`` (and armed faults,
        # whose hooks fire in sequential order) means thread-major order.
        batch = None
        if faults is None:
            visit_limit = max_block_visits
            if wd.armed and wd.config.max_cycles is not None:
                # A visit advances a thread's clock by at least 2 cycles
                # and the walk checks the watchdog every 256 visits, so
                # a thread past this many visits trips it: stop the
                # wave there and let the thread-major walk raise.
                visit_limit = min(
                    visit_limit, int(wd.config.max_cycles // 2) + 257
                )
            batch = self._functional_waves(
                kernel, plans[0], n_threads, memory, visit_limit
            )
        stores = None
        if batch is None:
            regs: Dict[str, np.ndarray] = {}
            defined: Dict[str, np.ndarray] = {}
        else:
            paths, stores = batch

        armed = wd.armed
        entry = kernel.entry
        end_time = 0.0
        finished = 0  # threads whose timing is done
        try:
            for i, ridx in enumerate(slots):
                rep = reps[ridx]
                inject = rep.admit(depth)
                if batch is None:
                    completion = self._walk_thread(
                        kernel, plans[ridx], waste_units[ridx], rep, i,
                        inject,
                        self._thread_visits(
                            rep, i, memory, wrd, regs, defined, n_threads,
                            faults,
                        ),
                        fires, wd, snapshot, max_block_visits,
                    )
                else:
                    # The recorded visits, timing only.  The functional
                    # pass stopped every path within max_block_visits.
                    bound = walks[ridx]
                    rr: Dict[str, float] = {}
                    visited = set()
                    completion = entry_time = inject
                    current = entry
                    visits = 0
                    for rec, j, successor in paths[i]:
                        if armed:
                            visits += 1
                            if not visits % 256:
                                wd.check(entry_time, snapshot)
                        b = bound.get(current)
                        if b is None:
                            plan = plans[ridx][current]
                            f = fires.get(plan)
                            if f is None:
                                f = fires[plan] = [0, 0]
                            b = bound[current] = (timing_walk(
                                plan, config, sgmf=True)(rep), f)
                        walk, f = b
                        f[0] += 1
                        visited.add(current)
                        done, term_done = walk(wrd, i, entry_time, j, rec,
                                               rr)
                        if done > completion:
                            completion = done
                        entry_time = term_done + 1.0
                        current = successor
                    self._waste_pass(plans[ridx], waste_units[ridx], rep,
                                     visited, inject, completion, fires)
                rep.retire(inject, completion)
                finished = i + 1
                if completion > end_time:
                    end_time = completion
                if tracer is not None:
                    tracer.complete(
                        "thread", "sgmf.thread", inject, completion - inject,
                        pid="sgmf", tid=ridx, thread=i, replica=ridx,
                    )
                if armed:
                    wd.progress(completion)
                    wd.check(end_time, snapshot)
        finally:
            if stores is not None:
                st_a, st_v, bounds = stores
                hi = bounds[finished]
                if hi:
                    memory.data[st_a[:hi]] = st_v[:hi]

        # Every visit or waste pass fires each node of its plan once
        # (one token each); only visits travel the routed hops.
        stats = FabricStats(threads=n_threads)
        ops = stats.ops
        waste_fires = 0
        for plan, (visits, wastes) in fires.items():
            passes = visits + wastes
            stats.node_fires += plan.n_nodes * passes
            stats.tokens += plan.n_nodes * passes
            stats.token_hops += plan.total_hops * visits
            waste_fires += plan.n_nodes * wastes
            for cls, count in plan.ops_counts.items():
                ops[cls] += count * passes
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
    def _functional_waves(
        self,
        kernel: Kernel,
        plans: Dict[str, ExecPlan],
        n_threads: int,
        memory: MemoryImage,
        visit_limit: int,
    ):
        """Every thread's whole-kernel walk as
        :func:`repro.ir.vecops.run_waves` waves, each block one
        :func:`repro.vgiw.mtcgrf.eval_rows` batch over wires (per-register
        arrays indexed by tid).  Returns each thread's visits (address
        lists, batch slot, successor) for the timing walks and
        ``MemLog.by_thread`` for :meth:`run` to commit at thread
        boundaries, or ``None`` (nothing written)."""
        regs: Dict[str, np.ndarray] = {}
        defined: Dict[str, np.ndarray] = {}
        paths: List[List] = [[] for _ in range(n_threads)]

        def step(name, wave):
            plan = plans[name]

            def lv_load(row):
                d = defined.get(row[5].out_reg)
                if d is None or not d[wave].all():
                    return None
                return regs[row[5].out_reg][wave]

            def lv_store(row, v):
                scatter(regs, defined, row[6].out_reg, wave, v, n_threads)

            rec = Trail()
            out = eval_rows(plan, wave, memory, rec, lv_load, lv_store)
            if out is None:
                return None
            mem_log, term = out
            mem_rows = [(addrs, fvals) for _, addrs, fvals in mem_log]
            if isinstance(term, np.ndarray):
                tt, ft = plan.true_target, plan.false_target
                for j, (t, taken) in enumerate(
                        zip(wave.tolist(), term.tolist())):
                    paths[t].append((rec, j, tt if taken else ft))
                return mem_rows, ((tt, wave[term]), (ft, wave[~term]))
            for j, t in enumerate(wave.tolist()):
                paths[t].append((rec, j, term))
            return mem_rows, () if term is None else ((term, wave),)

        log = run_waves(kernel.entry, n_threads, visit_limit, step)
        return None if log is None else (paths, log.by_thread(n_threads))

    def _thread_visits(self, rep: _ReplicaState, tid: int,
                       memory: MemoryImage, wrd: Callable,
                       regs: Dict[str, np.ndarray],
                       defined: Dict[str, np.ndarray], n_threads: int,
                       faults: Optional[FaultInjector]):
        """The visit function of a thread-major thread: each visit runs
        :func:`repro.vgiw.mtcgrf.visit_sequentially`, with the wires
        kept in the per-register thread arrays (a wire the thread never
        wrote raises the ``KeyError`` of a per-thread register map)."""
        config = self.config
        wave = np.array([tid], np.int64)

        def lv_load(row):
            reg = row[5].out_reg
            d = defined.get(reg)
            if d is None or not d[tid]:
                raise KeyError(reg)
            return regs[reg][wave]

        def lv_store(row, v):
            scatter(regs, defined, row[6].out_reg, wave, v, n_threads)

        def visit(plan: ExecPlan, entry_time: float, rr: Dict[str, float]):
            rec = Trail()
            (completion, term_done), next_block = visit_sequentially(
                plan, tid, memory, rec, [], lv_load, lv_store, faults,
                config, True,
                lambda enter, *cyc: enter(rep)(wrd, tid, entry_time, 0, rec,
                                               rr, *cyc),
            )
            return completion, term_done, next_block

        return visit

    def _walk_thread(
        self,
        kernel: Kernel,
        plans: Dict[str, ExecPlan],
        waste_units: Dict[str, List[int]],
        rep: _ReplicaState,
        tid: int,
        inject: float,
        visit,
        fires: Dict[ExecPlan, List[int]],
        wd: ForwardProgressWatchdog,
        snapshot,
        max_block_visits: int,
    ) -> float:
        """Walk one thread through the whole-kernel graph; returns its
        completion cycle.  Each visit and each waste pass of a plan is
        counted in ``fires[plan]`` (``[visits, waste passes]``).

        ``visit(plan, entry_time, regs_ready)`` runs one block visit and
        returns ``(completion, term_done, next_block)``
        (:meth:`_thread_visits`).  A batched thread's recorded visits
        are replayed by :meth:`run`'s own loop instead.  Live values are
        SGMF wires: no LVC unit issue, a fixed one-cycle hop on the load
        side.  Threads also pump one predicated token through every
        block they never visit (:meth:`_waste_pass`, at the end).
        """
        rr: Dict[str, float] = {}
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
                    snapshot=wd.snapshot(entry_time, snapshot),
                    kernel=kernel.name,
                    block=current,
                    thread=tid,
                    visits=visits,
                )
            if not visits % 256:
                # Periodic budget check inside a (possibly unbounded)
                # per-thread control-flow walk.
                wd.check(entry_time, snapshot)
            visited.add(current)
            plan = plans[current]
            block_completion, term_done, current = visit(
                plan, entry_time, rr
            )
            f = fires.get(plan)
            if f is None:
                fires[plan] = [1, 0]
            else:
                f[0] += 1
            if block_completion > completion:
                completion = block_completion
            entry_time = term_done + 1.0

        self._waste_pass(plans, waste_units, rep, visited, inject,
                         completion, fires)
        return completion

    @staticmethod
    def _waste_pass(plans: Dict[str, ExecPlan],
                    waste_units: Dict[str, List[int]], rep: _ReplicaState,
                    visited, inject: float, completion: float,
                    fires: Dict[ExecPlan, List[int]]) -> None:
        """Predicated pass-through: one useless token through every node
        of every block a thread never reached (paper Figure 1c), counted
        in ``fires[plan][1]``.

        The tokens flow while the thread is in flight, so they compete
        for unit slots around the thread's mid-execution — charging
        them at injection time would let them backfill long-idle cycles
        and understate the utilisation loss.  One issue cycle per
        thread: a free one is taken in line, a taken one goes to
        ``claim_issue`` (the walks' rule).
        """
        un, uw = rep.unit_next, rep.unit_wait
        q = math.ceil(inject + 0.5 * (completion - inject))
        for name, plan in plans.items():
            if name in visited:
                continue
            f = fires.get(plan)
            if f is None:
                fires[plan] = [0, 1]
            else:
                f[1] += 1
            # Occupies an issue slot but performs no memory access.
            for uid in waste_units[name]:
                nf = un.get(uid)
                if nf is None:
                    nf = un[uid] = {}
                if q in nf:
                    claim_issue(nf, q, uw, uid)
                else:
                    nf[q] = q + 1
