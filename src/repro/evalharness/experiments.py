"""Experiment generators: one function per table/figure of the paper.

Every function takes the suite results from
:func:`repro.evalharness.runner.run_suite` and returns an
:class:`~repro.evalharness.tables.ExperimentTable` whose rows mirror what
the paper's table/figure reports.  Paper reference values are embedded in
the notes so EXPERIMENTS.md can show paper-vs-measured side by side.
"""

from __future__ import annotations

from typing import Dict, List

from repro.arch.config import FabricSpec, FermiConfig, MemoryConfig, VGIWConfig
from repro.evalharness.runner import KernelRun
from repro.evalharness.tables import ExperimentTable, arithmean, geomean
from repro.kernels.registry import TABLE2
from repro.obs import SHARED_COUNTERS, SHARED_GAUGES, Metrics


def table1_configuration() -> ExperimentTable:
    """Paper Table 1: VGIW system configuration."""
    cfg = VGIWConfig()
    spec: FabricSpec = cfg.fabric
    mem: MemoryConfig = cfg.memory
    fermi = FermiConfig()
    t = ExperimentTable(
        "Table 1", "VGIW system configuration",
        ["Parameter", "Value"],
    )
    t.add("VGIW core", f"{spec.total_units} interconnected func./LDST/control units")
    counts = {k.value: v for k, v in spec.counts.items()}
    t.add("Functional units",
          f"{counts['compute']} combined FPU-ALU, {counts['special']} special compute")
    t.add("Load/Store units",
          f"{counts['lvu']} live value units, {counts['ldst']} regular LDST")
    t.add("Control units",
          f"{counts['sju']} split/join units, {counts['cvu']} control vector units")
    t.add("Frequency [GHz]",
          f"core {cfg.core_ghz}, L2 {cfg.l2_ghz}, DRAM {cfg.dram_ghz}")
    t.add("L1", f"{mem.l1_size_bytes // 1024}KB, {mem.l1_banks} banks, "
                f"{mem.l1_line_bytes}B/line, {mem.l1_ways}-way")
    t.add("L2", f"{mem.l2_size_bytes // 1024}KB, {mem.l2_banks} banks, "
                f"{mem.l2_line_bytes}B/line, {mem.l2_ways}-way")
    t.add("GDDR5 DRAM",
          f"{mem.dram_banks_per_channel} banks, {mem.dram_channels} channels")
    ratio = fermi.register_file_bytes // cfg.lvc_size_bytes
    t.add("LVC", f"{cfg.lvc_size_bytes // 1024}KB, {cfg.lvc_banks} banks "
                 f"({ratio}x smaller than the "
                 f"{fermi.register_file_bytes // 1024}KB Fermi RF; the paper "
                 f"says 4x)")
    t.add("Reconfiguration", f"{spec.config_cycles} cycles")
    t.notes.append("paper Table 1: 108 units = 32 FPU-ALU + 12 SCU + 16 LVU "
                   "+ 16 LDST + 16 SJU + 16 CVU; reconfiguration 34 cycles")
    return t


def table2_benchmarks(runs: Dict[str, KernelRun] = None) -> ExperimentTable:
    """Paper Table 2: the benchmark suite (with our block counts)."""
    t = ExperimentTable(
        "Table 2", "Benchmark suite",
        ["Application", "Domain", "Kernel", "Paper #BB", "Ours #BB",
         "Threads"],
    )
    for e in TABLE2:
        run = runs.get(e.name) if runs else None
        t.add(
            e.app, e.domain, e.name.split("/")[1], e.paper_blocks,
            run.n_blocks if run else None,
            run.n_threads if run else None,
        )
    t.notes.append("block counts differ slightly: our structured builder "
                   "emits explicit merge blocks and our barrier-free "
                   "substitutions flatten some Rodinia tiling loops")
    return t


def fig3_lvc_vs_rf(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Paper Figure 3: LVC accesses as a fraction of GPGPU RF accesses."""
    t = ExperimentTable(
        "Figure 3", "LVC accesses / GPGPU register file accesses",
        ["Kernel", "LVC accesses", "RF accesses", "Ratio"],
    )
    ratios: List[float] = []
    for name, run in runs.items():
        rf = run.fermi.sm.rf_accesses
        lvc = run.vgiw.lvc_bank_accesses
        ratio = lvc / rf if rf else 0.0
        ratios.append(ratio)
        t.add(name, lvc, rf, ratio)
    t.add("MEAN", None, None, arithmean(ratios))
    t.notes.append("paper: the LVC is accessed on average almost 10x less "
                   "frequently than a GPGPU register file")
    return t


def fig7_speedup_vs_fermi(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Paper Figure 7: speedup of VGIW over a Fermi SM."""
    t = ExperimentTable(
        "Figure 7", "Speedup of VGIW over Fermi",
        ["Kernel", "Fermi cycles", "VGIW cycles", "Speedup"],
    )
    sps: List[float] = []
    for name, run in runs.items():
        sp = run.speedup_vs_fermi
        sps.append(sp)
        t.add(name, run.fermi.cycles, run.vgiw.cycles, sp)
    t.add("GEOMEAN", None, None, geomean(sps))
    t.add("ARITHMEAN", None, None, arithmean(sps))
    t.notes.append("paper: 0.9x (slowdown) to 11x, average over 3x")
    return t


def fig8_speedup_vs_sgmf(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Paper Figure 8: speedup of VGIW over SGMF (mappable subset)."""
    t = ExperimentTable(
        "Figure 8", "Speedup of VGIW over SGMF (SGMF-mappable kernels)",
        ["Kernel", "SGMF cycles", "VGIW cycles", "Speedup"],
    )
    sps: List[float] = []
    unmappable: List[str] = []
    for name, run in runs.items():
        if run.sgmf is None:
            unmappable.append(name)
            continue
        sp = run.speedup_vs_sgmf
        sps.append(sp)
        t.add(name, run.sgmf.cycles, run.vgiw.cycles, sp)
    t.add("GEOMEAN", None, None, geomean(sps))
    t.add("ARITHMEAN", None, None, arithmean(sps))
    t.notes.append("paper: 0.4x to 3.1x, average better than 1.45x; "
                   "comparison restricted to kernels that map onto SGMF")
    t.notes.append(f"unmappable on SGMF here: {', '.join(unmappable) or 'none'}")
    return t


def fig9_energy_vs_fermi(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Paper Figure 9: energy efficiency of VGIW over Fermi."""
    t = ExperimentTable(
        "Figure 9", "Energy efficiency of a VGIW core over a Fermi SM",
        ["Kernel", "Fermi energy [uJ]", "VGIW energy [uJ]", "Efficiency"],
    )
    effs: List[float] = []
    for name, run in runs.items():
        eff = run.efficiency_vs_fermi("system")
        effs.append(eff)
        t.add(name, run.fermi_energy.system / 1e6,
              run.vgiw_energy.system / 1e6, eff)
    t.add("GEOMEAN", None, None, geomean(effs))
    t.add("ARITHMEAN", None, None, arithmean(effs))
    t.notes.append("paper: 0.7x to 7x, average 1.75x")
    return t


def fig10_energy_levels(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Paper Figure 10: VGIW/Fermi energy efficiency at system, die, and
    core levels (averaged over the suite)."""
    t = ExperimentTable(
        "Figure 10", "Energy efficiency of VGIW over Fermi by level",
        ["Kernel", "System", "Die", "Core"],
    )
    per_level: Dict[str, List[float]] = {"system": [], "die": [], "core": []}
    for name, run in runs.items():
        row = [run.efficiency_vs_fermi(level) for level in ("system", "die", "core")]
        for level, v in zip(("system", "die", "core"), row):
            per_level[level].append(v)
        t.add(name, *row)
    t.add("GEOMEAN", *(geomean(per_level[l]) for l in ("system", "die", "core")))
    t.notes.append("paper: the VGIW advantage is attributed to the compute "
                   "engine — core-level efficiency exceeds die-level, which "
                   "exceeds system-level")
    return t


def fig11_energy_vs_sgmf(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Paper Figure 11: energy efficiency of VGIW over SGMF (subset)."""
    t = ExperimentTable(
        "Figure 11", "Energy efficiency of VGIW over SGMF",
        ["Kernel", "SGMF energy [uJ]", "VGIW energy [uJ]", "Efficiency"],
    )
    effs: List[float] = []
    for name, run in runs.items():
        if run.sgmf_energy is None:
            continue
        eff = run.efficiency_vs_sgmf("system")
        effs.append(eff)
        t.add(name, run.sgmf_energy.system / 1e6,
              run.vgiw_energy.system / 1e6, eff)
    t.add("GEOMEAN", None, None, geomean(effs))
    t.add("ARITHMEAN", None, None, arithmean(effs))
    t.notes.append("paper: average 1.33x (~25%), varying by kernel; SGMF "
                   "excels at small kernels with little branch divergence")
    return t


def sec32_reconfiguration_overhead(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Paper section 3.2: configuration overhead averages 0.18% of runtime
    with a median lower than 0.1%."""
    t = ExperimentTable(
        "Section 3.2", "MT-CGRF reconfiguration overhead",
        ["Kernel", "Reconfigurations", "Config cycles", "Total cycles",
         "Overhead %"],
    )
    overheads: List[float] = []
    for name, run in runs.items():
        ov = 100.0 * run.vgiw.config_overhead
        overheads.append(ov)
        t.add(name, run.vgiw.bbs.reconfigurations, run.vgiw.bbs.config_cycles,
              run.vgiw.cycles, ov)
    overheads.sort()
    if overheads:  # an all-degraded sweep still renders a (bare) table
        t.add("MEAN", None, None, None, arithmean(overheads))
        t.add("MEDIAN", None, None, None,
              overheads[len(overheads) // 2])
    t.notes.append("paper: total configuration overhead averaged 0.18% of "
                   "runtime, median below 0.1% (at full-scale thread counts; "
                   "scaled-down runs amortise less)")
    return t


def workload_characterization(runs: Dict[str, KernelRun]) -> ExperimentTable:
    """Beyond the paper: per-kernel characteristics that explain the
    figures — instruction mix, memory intensity, SIMT divergence, and
    VGIW block-visit behaviour."""
    t = ExperimentTable(
        "Characterization", "Workload characteristics",
        ["Kernel", "Warp instrs", "Mem %", "SFU %", "SIMD eff",
         "Divergences", "Block execs", "Replicas max", "Fabric util %",
         "Regs/thread"],
    )
    spec = FabricSpec()
    for name, run in runs.items():
        sm = run.fermi.sm
        total = max(1, sm.instructions_issued)
        max_reps = (
            max(rec.replicas for rec in run.vgiw.block_profile)
            if run.vgiw.block_profile else None
        )
        util = run.vgiw.fabric.utilization(run.vgiw.cycles, spec)
        t.add(
            name,
            sm.instructions_issued,
            100.0 * sm.mem_instructions / total,
            100.0 * sm.sfu_instructions / total,
            sm.simd_efficiency,
            sm.divergences,
            run.vgiw.bbs.blocks_executed,
            max_reps,
            100.0 * util["overall"],
            sm.register_pressure or None,
        )
    t.notes.append("the paper's narrative in one table: high Mem% kernels "
                   "are where VGIW's uncoalesced accesses hurt; low SIMD "
                   "efficiency is where control flow coalescing helps")
    return t


def degraded_kernels(failures: Dict) -> ExperimentTable:
    """Degraded rows: kernels the fault-isolating runner excluded.

    ``failures`` is the ``SuiteResult.failures`` mapping (name →
    :class:`repro.resilience.KernelFailure`).  Every row names the final
    error, the number of bounded-retry attempts consumed, and how many
    faults the injector actually landed across those attempts; the full
    structured logs ride in the JSON archive and the report appendix.
    """
    t = ExperimentTable(
        "Degraded", "Kernels excluded by fault isolation",
        ["Kernel", "Error", "Attempts", "Faults", "Message"],
    )
    for name in sorted(failures):
        f = failures[name]
        n_faults = sum(len(a.fault_log) for a in f.attempts)
        message = f.message if len(f.message) <= 72 else f.message[:69] + "..."
        t.add(name, f.error_type, f.n_attempts, n_faults, message)
    t.notes.append(
        "each kernel above exhausted its retry budget; healthy rows in "
        "every other table are unaffected (docs/resilience.md)"
    )
    return t


def metrics_table(metrics: Metrics) -> ExperimentTable:
    """Metrics column group: the shared counter namespace per engine.

    ``metrics`` is the :class:`repro.obs.Metrics` registry threaded
    through the sweep (``--metrics`` on the CLI).  Rows are the shared
    cross-engine names (:data:`repro.obs.SHARED_GAUGES` then
    :data:`repro.obs.SHARED_COUNTERS`); columns are the engine scopes
    that recorded anything.  Counters accumulate over every kernel in
    the sweep; gauges hold the most recent run's value.
    """
    engines = [s for s in ("fermi", "vgiw", "sgmf", "interp")
               if s in metrics.scope_names()]
    t = ExperimentTable(
        "Metrics", "Shared metric namespace across engines",
        ["Metric"] + [e.capitalize() for e in engines],
    )
    for name in tuple(SHARED_GAUGES) + tuple(SHARED_COUNTERS):
        t.add(name, *(metrics.value(f"{e}/{name}") for e in engines))
    extras = sum(
        1 for e in engines
        for n in metrics.names(f"{e}/")
        if n[len(e) + 1:] not in SHARED_GAUGES + SHARED_COUNTERS
    )
    t.notes.append(
        "counters accumulate across the whole sweep; gauges (run.cycles) "
        "show the most recent kernel only.  Engine-specific metrics "
        f"({extras} more names) ride in the JSON/`Metrics.format()` dump "
        "(docs/observability.md)"
    )
    if "compile" in metrics.scope_names():
        hits = metrics.value("compile/cache.hits")
        misses = metrics.value("compile/cache.misses")
        t.notes.append(
            f"compile cache: {hits} hits / {misses} misses "
            "(docs/performance.md)"
        )
    return t


ALL_EXPERIMENTS = {
    "table1": table1_configuration,
    "table2": table2_benchmarks,
    "fig3": fig3_lvc_vs_rf,
    "fig7": fig7_speedup_vs_fermi,
    "fig8": fig8_speedup_vs_sgmf,
    "fig9": fig9_energy_vs_fermi,
    "fig10": fig10_energy_levels,
    "fig11": fig11_energy_vs_sgmf,
    "sec32": sec32_reconfiguration_overhead,
    "characterization": workload_characterization,
}
