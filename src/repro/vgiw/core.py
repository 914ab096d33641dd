"""The VGIW processor core (paper §3, Figure 4).

``VGIWCore.run`` executes a kernel launch end to end:

1. the kernel is compiled (unless a :class:`CompiledKernel` is given);
2. threads are *tiled* so the CVT can track them
   (``tile = CVT bits / #basic blocks``, paper §3.2);
3. for each tile, the entry vector (block ID 0) is fully set, and the
   BBS loop runs: pick the smallest non-empty block ID, reconfigure the
   fabric (34 cycles for the 108-unit grid; skipped when the grid
   already holds that block), stream the block's thread vector through
   the MT-CGRF, and OR the terminator batches back into the CVT;
4. the run result carries cycle counts and every event counter the
   energy model needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.arch.config import VGIWConfig
from repro.compiler.pipeline import CompiledKernel
from repro.engine import EngineRunResult, bind_params
from repro.ir.kernel import Kernel
from repro.memory.cache import CacheStats
from repro.memory.dram import DRAMStats
from repro.memory.hierarchy import LiveValueCache, MemorySystem
from repro.memory.image import MemoryImage
from repro.obs.metrics import Metrics, record_shared_run_metrics
from repro.resilience.errors import SimulationHangError
from repro.resilience.faults import FaultInjector
from repro.resilience.watchdog import ForwardProgressWatchdog, WatchdogConfig
from repro.vgiw.bbs import BBSStats, iter_batch_tids, terminator_batches
from repro.vgiw.cvt import ControlVectorTable, CVTStats
from repro.vgiw.mtcgrf import FabricStats, MTCGRFExecutor

Number = Union[int, float, bool]


@dataclass
class BlockExecution:
    """Profile record of one scheduled block execution."""

    block: str
    block_id: int
    n_threads: int
    start: float
    end: float
    replicas: int

    @property
    def span(self) -> float:
        return self.end - self.start

    @property
    def inject_cycles(self) -> float:
        """The injection-limited lower bound for this execution."""
        return self.n_threads / self.replicas


@dataclass
class VGIWRunResult(EngineRunResult):
    """Everything measured during one kernel launch on a VGIW core.

    Shares the :class:`~repro.engine.EngineRunResult` contract
    (``kernel_name``/``n_threads``/``cycles``/``l1``/``l2``/``dram``
    plus the ``trace``/``metrics`` observability attachments) with the
    Fermi and SGMF results; every historical field keeps its name and
    position.
    """

    engine = "vgiw"

    kernel_name: str
    n_threads: int
    cycles: float
    fabric: FabricStats
    bbs: BBSStats
    cvt: CVTStats
    lvc_reads: int
    lvc_writes: int
    lvc_bank_accesses: int
    lvc_buffered: int
    lvc_stats: CacheStats
    l1: CacheStats
    l2: CacheStats
    dram: DRAMStats
    n_blocks: int
    n_live_values: int
    tiles: int
    #: per-execution profile records (populated when profiling is on)
    block_profile: List[BlockExecution] = field(default_factory=list)

    @property
    def lvc_accesses(self) -> int:
        """Total live value cache accesses (reads + writes)."""
        return self.lvc_reads + self.lvc_writes

    @property
    def config_overhead(self) -> float:
        """Reconfiguration cycles / total cycles (paper §3.2: ~0.18%)."""
        return self.bbs.config_overhead(self.cycles)

    def profile_by_block(self) -> Dict[str, Dict[str, float]]:
        """Aggregate the profile per static block: executions, threads,
        total span, and the injection-limited lower bound."""
        agg: Dict[str, Dict[str, float]] = {}
        for rec in self.block_profile:
            entry = agg.setdefault(
                rec.block,
                {"executions": 0, "threads": 0, "span": 0.0, "inject": 0.0},
            )
            entry["executions"] += 1
            entry["threads"] += rec.n_threads
            entry["span"] += rec.span
            entry["inject"] += rec.inject_cycles
        return agg


def _select(cvt: ControlVectorTable, policy: str,
            last_block: Optional[int]) -> Optional[int]:
    """The BBS policy: which pending block vector runs next."""
    if policy == "largest_vector":
        return cvt.largest_vector()
    if policy == "round_robin":
        return cvt.next_nonempty(last_block)
    return cvt.first_nonempty()


class VGIWCore:
    """A single VGIW core attached to the standard memory hierarchy."""

    def __init__(self, config: Optional[VGIWConfig] = None):
        self.config = config or VGIWConfig()

    # ------------------------------------------------------------------
    def run(
        self,
        kernel: Union[Kernel, CompiledKernel],
        memory: MemoryImage,
        params: Dict[str, Number],
        n_threads: int,
        max_block_executions: int = 1_000_000,
        profile: bool = False,
        watchdog: Optional[WatchdogConfig] = None,
        faults: Optional[FaultInjector] = None,
        tracer=None,
        metrics: Optional[Metrics] = None,
        compile_cache=None,
    ) -> VGIWRunResult:
        """Execute ``n_threads`` of ``kernel`` against ``memory``.

        ``watchdog`` arms the forward-progress watchdog (deadlock and
        cycle-budget detection, raising
        :class:`~repro.resilience.errors.SimulationHangError` with a
        diagnostic snapshot); ``faults`` threads a deterministic fault
        injector through the fabric and the memory hierarchy;
        ``tracer`` (a :class:`repro.obs.Tracer`) records BBS
        reconfiguration windows, block-vector executions, cache misses
        and DRAM row activations as timeline events; ``metrics`` (a
        :class:`repro.obs.Metrics`) receives the run's counters under
        the ``vgiw/`` scope.  Both attach to the returned result.
        ``compile_cache`` (a :class:`repro.compiler.CompileCache`)
        memoises the place-&-route result per kernel × fabric config —
        see ``docs/performance.md``.
        """
        config = self.config
        if isinstance(kernel, CompiledKernel):
            compiled = kernel
        else:
            from repro.compiler.cache import cached_compile_kernel

            compiled = cached_compile_kernel(
                kernel, config.fabric, cache=compile_cache
            )
        kernel_obj = compiled.kernel
        params = bind_params(kernel_obj, params)

        memsys = MemorySystem(
            config.memory, l1_write_back=config.l1_write_back, faults=faults,
            tracer=tracer,
        )
        lvc = LiveValueCache(
            size_bytes=config.lvc_size_bytes,
            line_bytes=config.lvc_line_bytes,
            ways=config.lvc_ways,
            banks=config.lvc_banks,
            hit_latency=config.lvc_hit_latency,
            l2=memsys.l2,
            tracer=tracer,
        )
        executor = MTCGRFExecutor(
            config, memsys, lvc, memory, params,
            faults=faults, fabric=compiled.fabric,
        )
        wd = ForwardProgressWatchdog(watchdog, "vgiw", kernel_obj.name,
                                     tracer)
        wd.start(0.0)

        n_blocks = compiled.n_blocks
        # Thread tiling (paper section 3.2): the CVT bounds how many
        # threads can be tracked, and — the reason the paper says tiling
        # "generally prevents" LVC spills to memory — the tile's live-
        # value footprint must stay within what the LVC + L2 can hold.
        cvt_tile = config.cvt_bits // max(1, n_blocks)
        lv_words = 4 * max(1, compiled.n_live_values)
        # Leave half the L2 for kernel data.
        lvc_tile = config.memory.l2_size_bytes // (2 * lv_words)
        tile_size = max(64, min(cvt_tile, lvc_tile))

        bbs = BBSStats()
        cvt_stats_total = CVTStats()
        profile_records: List[BlockExecution] = []
        policy = config.bbs_policy
        time = 0.0
        tiles = 0

        def snapshot(now: float):
            snap = executor.diagnostic_snapshot(
                now, sim="vgiw", kernel=kernel_obj.name,
            )
            snap.detail["tile"] = tiles
            snap.detail["cvt_pending"] = {
                compiled.schedule.name_of(bid): cvt.pending_count(bid)
                for bid in range(n_blocks)
                if cvt.pending_count(bid)
            }
            return snap

        for tile_base in range(0, n_threads, tile_size):
            tiles += 1
            tile_threads = min(tile_size, n_threads - tile_base)
            cvt = ControlVectorTable(
                n_blocks, tile_threads, config.cvt_banks, config.cvt_word_bits
            )
            cvt.activate_all(0)
            configured_block: Optional[int] = None
            last_block: Optional[int] = None
            executions = 0

            while (block_id := _select(cvt, policy, last_block)) is not None:
                last_block = block_id
                executions += 1
                if executions > max_block_executions:
                    raise SimulationHangError(
                        f"kernel {kernel_obj.name}: runaway block scheduling "
                        f"(> {max_block_executions} block executions)",
                        snapshot=wd.snapshot(time, snapshot),
                        kernel=kernel_obj.name,
                        block=compiled.schedule.name_of(block_id),
                        block_id=block_id,
                        tile=tiles,
                        threads_retired=wd.events_retired,
                    )
                cb = compiled.block_by_id(block_id)

                # Reconfigure unless the grid already holds this block.
                if configured_block != block_id:
                    bbs.reconfigurations += 1
                    bbs.config_cycles += config.fabric.config_cycles
                    if tracer is not None:
                        tracer.complete(
                            f"reconfigure:{cb.name}", "vgiw.bbs", time,
                            config.fabric.config_cycles, pid="vgiw",
                            block=cb.name, tile=tiles,
                        )
                    time += config.fabric.config_cycles
                    configured_block = block_id

                tids: List[int] = []
                for base, bitmap in cvt.pop_batches(block_id):
                    bbs.batches_sent += 1
                    tids += iter_batch_tids(tile_base + base, bitmap)
                bbs.threads_streamed += len(tids)
                bbs.blocks_executed += 1

                outcomes, end_time = executor.execute_block(cb, tids, time)
                retired = [oc.next_block for replica_outcomes in outcomes
                           for oc in replica_outcomes].count(None)
                if tracer is not None:
                    tracer.complete(
                        f"block:{cb.name}", "vgiw.block", time,
                        end_time - time, pid="vgiw",
                        block=cb.name, threads=len(tids),
                        replicas=cb.n_replicas, retired=retired,
                        tile=tiles,
                    )
                if retired:
                    wd.progress(end_time, retired)
                wd.check(end_time, snapshot)
                if profile:
                    profile_records.append(BlockExecution(
                        block=cb.name, block_id=block_id,
                        n_threads=len(tids), start=time, end=end_time,
                        replicas=cb.n_replicas,
                    ))
                time = end_time

                # Each replica's terminator CVU assembles batch packets
                # in completion order with two open batches per target
                # (paper section 3.5); out-of-order completion flushes
                # partial batches, which cost extra CVT writes.
                for replica_outcomes in outcomes:
                    for target, base, bitmap in terminator_batches(
                        replica_outcomes, tid_offset=tile_base
                    ):
                        bbs.batches_received += 1
                        cvt.or_batch(
                            compiled.schedule.id_of(target), base, bitmap
                        )
                cvt.check_invariant()

            cvt_stats_total.word_reads += cvt.stats.word_reads
            cvt_stats_total.word_writes += cvt.stats.word_writes

        if metrics is not None:
            scope = metrics.scope("vgiw")
            record_shared_run_metrics(
                scope, cycles=time, n_threads=n_threads,
                l1=memsys.l1_stats, l2=memsys.l2_stats,
                dram=memsys.dram.stats,
            )
            scope.inc("bbs.reconfigurations", bbs.reconfigurations)
            scope.inc("bbs.config_cycles", bbs.config_cycles)
            scope.inc("bbs.blocks_executed", bbs.blocks_executed)
            scope.inc("bbs.threads_streamed", bbs.threads_streamed)
            scope.inc("bbs.batches_sent", bbs.batches_sent)
            scope.inc("bbs.batches_received", bbs.batches_received)
            scope.inc("cvt.word_reads", cvt_stats_total.word_reads)
            scope.inc("cvt.word_writes", cvt_stats_total.word_writes)
            scope.inc("lvc.word_requests", lvc.accesses)
            scope.inc("lvc.bank_accesses", lvc.bank_accesses)
            scope.inc("lvc.buffered", lvc.buffered)
            scope.inc("fabric.node_fires", executor.stats.node_fires)
            scope.inc("fabric.token_hops", executor.stats.token_hops)
            scope.gauge("run.tiles", tiles)

        return VGIWRunResult(
            kernel_name=kernel_obj.name,
            n_threads=n_threads,
            cycles=time,
            fabric=executor.stats,
            bbs=bbs,
            cvt=cvt_stats_total,
            lvc_reads=lvc.reads,
            lvc_writes=lvc.writes,
            lvc_bank_accesses=lvc.bank_accesses,
            lvc_buffered=lvc.buffered,
            lvc_stats=lvc.stats,
            l1=memsys.l1_stats,
            l2=memsys.l2_stats,
            dram=memsys.dram.stats,
            n_blocks=n_blocks,
            n_live_values=compiled.n_live_values,
            tiles=tiles,
            block_profile=profile_records,
        ).attach_obs(tracer, metrics)

