"""Fermi-class streaming multiprocessor: the von Neumann GPGPU baseline.

Models the first-order behaviours the paper's comparison rests on
(§2, §4, §5):

* warps of 32 threads execute in lockstep; divergence is handled by the
  IPDOM reconvergence stack, so lanes whose control flow bypasses the
  current block are masked off and their issue slots are wasted;
* two warp schedulers issue up to two warp-instructions per cycle; the
  ALU pipeline has Fermi-typical dependent-issue latency (hidden by
  multithreading across up to 48 resident warps);
* warp memory instructions are *coalesced* into 128-byte transactions
  (the big von Neumann advantage VGIW lacks) and served by a
  write-through / write-no-allocate L1;
* a scoreboard blocks an instruction until its operand registers'
  pending writes complete;
* every warp instruction reads/writes the banked vector register file —
  the access counts feed Figure 3 and the 30 % pipeline+RF energy
  overhead the paper cites.

Timing is event-ordered: warps live in a ready-time heap and execute one
instruction per event; shared pipelines (issue slots, LDST, SFU) are
resource timelines.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.arch.config import FermiConfig
from repro.engine import EngineRunResult, bind_params
from repro.ir.instr import Instr, Op, UnitClass, unit_class
from repro.ir.kernel import Kernel
from repro.ir.types import Reg
from repro.ir.vecops import prepare_instr
from repro.memory.cache import CacheStats
from repro.memory.coalescer import coalesce_word_addresses
from repro.memory.dram import DRAMStats
from repro.memory.hierarchy import MemorySystem
from repro.memory.image import MemoryImage
from repro.obs.metrics import Metrics, record_shared_run_metrics
from repro.resilience.faults import FaultInjector
from repro.resilience.watchdog import (
    DiagnosticSnapshot,
    ForwardProgressWatchdog,
    WatchdogConfig,
)
from repro.simt.simtstack import SIMTStack
from repro.simt.warp import Warp

Number = Union[int, float, bool]


@dataclass
class SMStats:
    """Event counters for the SM (feeds the energy model and Figure 3)."""

    instructions_issued: int = 0
    branch_instructions: int = 0
    alu_instructions: int = 0
    sfu_instructions: int = 0
    mem_instructions: int = 0
    lane_ops: int = 0
    lane_alu_ops: int = 0   # active lanes of int-ALU/branch instructions
    lane_fpu_ops: int = 0   # active lanes of FP instructions
    lane_sfu_ops: int = 0   # active lanes of SFU instructions
    lane_mem_ops: int = 0   # active lanes of memory instructions
    wasted_lane_slots: int = 0
    rf_reads: int = 0
    rf_writes: int = 0
    mem_transactions: int = 0
    divergences: int = 0
    warps_launched: int = 0
    register_pressure: int = 0  # registers per thread (occupancy model)
    resident_warps: int = 0     # warps co-resident after the RF bound

    @property
    def rf_accesses(self) -> int:
        """Total register-file accesses (reads + writes)."""
        return self.rf_reads + self.rf_writes

    @property
    def simd_efficiency(self) -> float:
        """Fraction of issued lane slots that did useful work."""
        total = self.lane_ops + self.wasted_lane_slots
        return self.lane_ops / total if total else 1.0


@dataclass
class FermiRunResult(EngineRunResult):
    """Result of one kernel launch on the Fermi baseline.

    Shares the :class:`~repro.engine.EngineRunResult` contract with the
    VGIW and SGMF results (``trace``/``metrics`` attachments included);
    every historical field keeps its name and position.
    """

    engine = "fermi"

    kernel_name: str
    n_threads: int
    cycles: float
    sm: SMStats
    l1: CacheStats
    l2: CacheStats
    dram: DRAMStats


def _register_pressure(kernel: Kernel) -> int:
    """Registers per thread for the occupancy model.

    Approximated as the maximum over blocks of (registers live into the
    block + registers the block defines) — what an allocator without
    intra-block reuse would need — floored at a realistic minimum.
    """
    from repro.compiler.liveness import analyze_liveness

    live = analyze_liveness(kernel)
    peak = 0
    for name, block in kernel.blocks.items():
        peak = max(peak, len(live.live_in[name]) + len(block.defs()))
    return max(8, peak)


class _WarpCtx:
    """Scheduler-side warp context."""

    __slots__ = ("warp", "stack", "block", "idx", "ready", "reg_ready")

    def __init__(self, warp: Warp, stack: SIMTStack, entry: str):
        self.warp = warp
        self.stack = stack
        self.block = entry
        self.idx = 0
        self.ready = 0.0
        self.reg_ready: Dict[str, float] = {}


class FermiSM:
    """One Fermi-class SM attached to the standard memory hierarchy."""

    def __init__(self, config: Optional[FermiConfig] = None):
        self.config = config or FermiConfig()

    # ------------------------------------------------------------------
    @staticmethod
    def _build_tables(kernel: Kernel,
                      params: Dict[str, Number]) -> Dict[str, tuple]:
        """Precompute one descriptor row per instruction so the issue
        loop never re-derives unit class / register operand lists /
        FPU-ness per warp (they are per-instruction constants).
        Cycle-identical: only host-side Python overhead changes."""
        tables: Dict[str, tuple] = {}
        for bname, block in kernel.blocks.items():
            descs = []
            for instr in block.instrs:
                cls = unit_class(instr.op)
                cls_code = (
                    1 if cls is UnitClass.MEMORY
                    else 2 if cls is UnitClass.SPECIAL else 0
                )
                src_regs = tuple(
                    s.name for s in instr.srcs if isinstance(s, Reg)
                )
                is_fpu = (
                    instr.op.value.startswith("f")
                    or instr.op.value == "i2f"
                )
                descs.append((instr, cls_code, src_regs, instr.dst, is_fpu,
                              prepare_instr(instr, params)))
            term = block.terminator
            tables[bname] = (
                descs,
                term,
                term.cond is not None,
                getattr(term.cond, "name", ""),
                isinstance(term.cond, Reg),
            )
        return tables

    # ------------------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        memory: MemoryImage,
        params: Dict[str, Number],
        n_threads: int,
        watchdog: Optional[WatchdogConfig] = None,
        faults: Optional[FaultInjector] = None,
        tracer=None,
        metrics: Optional[Metrics] = None,
        compile_cache=None,
    ) -> FermiRunResult:
        """Execute ``n_threads`` of ``kernel`` against ``memory``.

        ``tracer`` records SIMT-stack timeline events (warp launches /
        retirements, IPDOM divergences) plus cache-miss and DRAM
        row-activation events from the memory hierarchy; ``metrics``
        receives the run's counters under the ``fermi/`` scope.  Both
        attach to the returned result.  ``compile_cache`` memoises the
        CFG analyses (IPDOM tree, register-pressure estimate) per
        kernel.
        """
        config = self.config
        params = bind_params(kernel, params)
        memsys = MemorySystem(
            config.memory, l1_write_back=config.l1_write_back, faults=faults,
            tracer=tracer,
        )
        from repro.compiler.cache import cached_fermi_analysis

        ipdom, pressure = cached_fermi_analysis(kernel, compile_cache)
        stats = SMStats()
        tables = self._build_tables(kernel, params)
        wd = ForwardProgressWatchdog(watchdog, "fermi", kernel.name, tracer)
        wd.start(0.0)
        if faults is not None:
            faults.maybe_abort(f"fermi/{kernel.name}", 0.0)

        ws = config.warp_size
        n_warps = -(-n_threads // ws)
        stats.warps_launched = n_warps

        max_resident = config.max_resident_warps
        if config.model_occupancy:
            # The register file bounds occupancy: each resident warp
            # holds `pressure` registers x 32 lanes x 4 bytes.
            rf_warps = config.register_file_bytes // max(
                1, 4 * ws * pressure
            )
            max_resident = max(2, min(max_resident, rf_warps))
            stats.register_pressure = pressure
            stats.resident_warps = min(max_resident, n_warps)

        def make_ctx(warp_id: int) -> _WarpCtx:
            base = warp_id * ws
            valid = min(ws, n_threads - base)
            warp = Warp(warp_id, base, ws, valid, params, memory)
            stack = SIMTStack(kernel.entry, warp.valid_mask, ipdom)
            return _WarpCtx(warp, stack, kernel.entry)

        heappush = heapq.heappush
        heappop = heapq.heappop
        pending = iter(range(max_resident, n_warps))
        heap: List = []
        counter = itertools.count()
        for wid in range(min(max_resident, n_warps)):
            heappush(heap, (0.0, next(counter), make_ctx(wid)))
            if tracer is not None:
                tracer.instant("warp.launch", "fermi.simt", 0.0,
                               pid="fermi", warp=wid)

        issue_free = 0.0
        self._ldst_free = 0.0
        self._sfu_free = 0.0
        self._alu_free = 0.0
        self._mshr_outstanding: List[float] = []
        horizon = 0.0
        issue_period = config.issue_period_cycles
        ctx: Optional[_WarpCtx] = None

        def snapshot(now: float) -> DiagnosticSnapshot:
            stalled: Dict[str, float] = {}
            for label, free in (
                ("alu_pipe", self._alu_free),
                ("ldst_pipe", self._ldst_free),
                ("sfu_pipe", self._sfu_free),
                ("issue_slots", issue_free),
            ):
                backlog = free - now
                if backlog > 0:
                    stalled[label] = backlog
            detail: Dict[str, object] = {"resident_warps": len(heap) + 1}
            oldest = None
            if ctx is not None:
                detail["current_warp"] = ctx.warp.warp_id
                detail["current_block"] = ctx.block
                detail["current_instr_idx"] = ctx.idx
                oldest = max(0.0, now - ctx.ready)
            return DiagnosticSnapshot(
                sim="fermi",
                kernel=kernel.name,
                cycle=now,
                events_retired=0,
                last_progress_cycle=0.0,
                in_flight={"warps": len(heap) + 1},
                mshr_outstanding=len(self._mshr_outstanding),
                stalled_units=stalled,
                oldest_thread_age=oldest,
                detail=detail,
            )

        wd_armed = wd.armed
        while heap:
            t, _, ctx = heappop(heap)
            if wd_armed:
                wd.check(t, snapshot)
            descs, term, has_cond, cond_name, cond_is_reg = tables[ctx.block]
            mask = ctx.stack.current().mask
            active = bin(mask).count("1")

            if ctx.idx < len(descs):
                instr, cls_code, src_regs, dst, is_fpu, prep = descs[ctx.idx]
                ctx.idx += 1
                # Scoreboard: operands' pending writes must complete.
                issue = t if t >= ctx.ready else ctx.ready
                reg_ready = ctx.reg_ready
                for name in src_regs:
                    r = reg_ready.get(name, 0.0)
                    if r > issue:
                        issue = r
                if issue < issue_free:
                    issue = issue_free
                issue_free = issue + issue_period
                done = self._dispatch(
                    ctx, instr, mask, active, issue, stats, memsys, config,
                    cls_code, is_fpu, prep,
                )
                # One RF access per register operand, counted once for
                # the whole warp (paper Figure 3's accounting).
                stats.rf_reads += len(src_regs)
                if dst is not None:
                    stats.rf_writes += 1
                stats.instructions_issued += 1
                stats.lane_ops += active
                stats.wasted_lane_slots += ws - active
                if done > horizon:
                    horizon = done
                ctx.ready = issue + 1.0
                heappush(heap, (ctx.ready, next(counter), ctx))
                continue

            # Block terminator: a branch instruction.
            issue = t
            if has_cond:
                r = ctx.reg_ready.get(cond_name, 0.0)
                if r > issue:
                    issue = r
            issue = max(issue, issue_free, self._alu_free)
            issue_free = issue + issue_period
            self._alu_free = issue + 1.0
            stats.instructions_issued += 1
            stats.branch_instructions += 1
            stats.lane_ops += active
            stats.lane_alu_ops += active
            stats.wasted_lane_slots += ws - active
            if cond_is_reg:
                stats.rf_reads += 1
            if issue + 1.0 > horizon:
                horizon = issue + 1.0

            targets = ctx.warp.exec_terminator(term, mask)
            before = ctx.stack.divergences
            ctx.stack.advance(ctx.block, targets)
            diverged = ctx.stack.divergences - before
            stats.divergences += diverged
            if diverged and tracer is not None:
                tracer.instant(
                    "divergence", "fermi.simt", issue, pid="fermi",
                    warp=ctx.warp.warp_id, block=ctx.block,
                    stack_depth=len(ctx.stack.stack),
                )
            next_block = ctx.stack.peek_block()
            if next_block is None:
                # Warp finished; a pending warp takes its slot.
                wd.progress(issue + 1.0)
                if tracer is not None:
                    tracer.instant(
                        "warp.retire", "fermi.simt", issue + 1.0,
                        pid="fermi", warp=ctx.warp.warp_id,
                    )
                nxt = next(pending, None)
                if nxt is not None:
                    heappush(heap, (issue + 1.0, next(counter), make_ctx(nxt)))
                    if tracer is not None:
                        tracer.instant("warp.launch", "fermi.simt",
                                       issue + 1.0, pid="fermi", warp=nxt)
                continue
            ctx.block = next_block
            ctx.idx = 0
            ctx.ready = issue + 1.0
            heappush(heap, (ctx.ready, next(counter), ctx))

        if metrics is not None:
            scope = metrics.scope("fermi")
            record_shared_run_metrics(
                scope, cycles=horizon, n_threads=n_threads,
                l1=memsys.l1_stats, l2=memsys.l2_stats,
                dram=memsys.dram.stats,
            )
            scope.inc("sm.instructions_issued", stats.instructions_issued)
            scope.inc("sm.branch_instructions", stats.branch_instructions)
            scope.inc("sm.mem_instructions", stats.mem_instructions)
            scope.inc("sm.mem_transactions", stats.mem_transactions)
            scope.inc("sm.rf_reads", stats.rf_reads)
            scope.inc("sm.rf_writes", stats.rf_writes)
            scope.inc("simt.divergences", stats.divergences)
            scope.inc("simt.warps_launched", stats.warps_launched)
            scope.inc("simt.wasted_lane_slots", stats.wasted_lane_slots)
            scope.gauge("simt.simd_efficiency", stats.simd_efficiency)

        return FermiRunResult(
            kernel_name=kernel.name,
            n_threads=n_threads,
            cycles=horizon,
            sm=stats,
            l1=memsys.l1_stats,
            l2=memsys.l2_stats,
            dram=memsys.dram.stats,
        ).attach_obs(tracer, metrics)

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        ctx: _WarpCtx,
        instr: Instr,
        mask: int,
        active: int,
        issue: float,
        stats: SMStats,
        memsys: MemorySystem,
        config: FermiConfig,
        cls_code: int,
        is_fpu: bool,
        prep: tuple,
    ) -> float:
        """Execute one warp instruction on its pipeline.

        ``cls_code`` (0=ALU, 1=MEMORY, 2=SFU), ``is_fpu`` and ``prep``
        (a :func:`repro.ir.vecops.prepare_instr` row) come from the
        per-block descriptor table built in :meth:`run` — they are
        per-instruction constants hoisted out of the issue loop.
        """
        if cls_code == 1:  # UnitClass.MEMORY
            stats.mem_instructions += 1
            stats.lane_mem_ops += active
            is_write = instr.op is Op.STORE
            segments = coalesce_word_addresses(
                ctx.warp.exec_prepared(prep, mask),
                config.memory.l1_line_bytes,
            )
            completion = issue
            start = issue
            throughput = config.ldst_throughput_cycles
            l1_stats = memsys.l1.stats
            # A segment moves only its own access kind's miss counter.
            misses = "write_misses" if is_write else "read_misses"
            for seg in segments:
                start = max(start, self._ldst_free)
                self._ldst_free = start + throughput
                misses_before = getattr(l1_stats, misses)
                done = memsys.access_line(start, seg, is_write)
                if getattr(l1_stats, misses) > misses_before:
                    done += self._miss_penalty(start, done, config)
                completion = max(completion, done)
                stats.mem_transactions += 1
            if instr.op is Op.LOAD:
                ctx.reg_ready[instr.dst] = completion
                return completion
            # Stores are posted: the warp does not wait for them.
            return issue + 1.0

        if cls_code == 2:  # UnitClass.SPECIAL
            stats.sfu_instructions += 1
            stats.lane_sfu_ops += active
            ctx.warp.exec_prepared(prep, mask)
            start = max(issue, self._sfu_free)
            self._sfu_free = start + config.sfu_throughput_cycles
            done = start + config.sfu_latency
            ctx.reg_ready[instr.dst] = done
            return done

        stats.alu_instructions += 1
        if is_fpu:
            stats.lane_fpu_ops += active
        else:
            stats.lane_alu_ops += active
        ctx.warp.exec_prepared(prep, mask)
        # The 32 CUDA cores execute one full warp instruction per cycle;
        # dual issue only helps when pairing ALU with LDST/SFU work.
        start = max(issue, self._alu_free)
        self._alu_free = start + 1.0
        done = start + config.alu_latency
        if instr.dst is not None:
            ctx.reg_ready[instr.dst] = done
        return done

    def _miss_penalty(self, start: float, done: float,
                      config: FermiConfig) -> float:
        """Baseline-sensitivity costs of an L1 miss (both off by default).

        Replay re-occupies the LDST pipe; a full MSHR file stalls the
        pipe until the oldest outstanding miss returns."""
        penalty = 0.0
        if config.miss_replay_cycles:
            self._ldst_free += config.miss_replay_cycles
        if config.l1_mshr_limit:
            heap = self._mshr_outstanding
            while heap and heap[0] <= start:
                heapq.heappop(heap)
            if len(heap) >= config.l1_mshr_limit:
                wait = max(0.0, heapq.heappop(heap) - start)
                penalty += wait
                self._ldst_free += wait
            heapq.heappush(heap, done + penalty)
        return penalty
