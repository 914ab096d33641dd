"""EXPERIMENTS.md generation: run everything, render paper-vs-measured."""

from __future__ import annotations

import io
from typing import Dict, Optional

from repro.evalharness.experiments import (
    degraded_kernels,
    metrics_table,
    fig3_lvc_vs_rf,
    fig7_speedup_vs_fermi,
    fig8_speedup_vs_sgmf,
    fig9_energy_vs_fermi,
    fig10_energy_levels,
    fig11_energy_vs_sgmf,
    sec32_reconfiguration_overhead,
    table1_configuration,
    table2_benchmarks,
    workload_characterization,
)
from repro.evalharness.runner import KernelRun, RunOptions, run_suite
from repro.obs import Metrics


def generate_report(runs: Optional[Dict[str, KernelRun]] = None,
                    scale: str = "small",
                    metrics: Optional[Metrics] = None) -> str:
    """Produce the full experiments report as markdown.

    ``metrics`` — when the sweep was run with a shared
    :class:`repro.obs.Metrics` registry (``--metrics`` on the CLI),
    pass it here to append the cross-engine metrics column group to the
    report.
    """
    if runs is None:
        runs = run_suite(options=RunOptions(scale=scale, metrics=metrics))
    out = io.StringIO()
    out.write("# EXPERIMENTS — paper vs. measured\n\n")
    out.write(
        "Every table and figure of the paper's evaluation, regenerated by "
        "this repository's simulators.  Absolute numbers differ from the "
        "paper (cycle-approximate Python models, scaled-down inputs); the "
        "notes under each table state the paper's reported result for "
        "comparison.  Regenerate with "
        "`python -m repro.evalharness --scale %s`.\n\n" % scale
    )
    out.write(
        "**Reading the numbers.** Two conditions of the paper's setup "
        "cannot be reproduced here, and both favour the Fermi baseline "
        "(DESIGN.md section 5.0): the original Rodinia kernels stall a "
        "real SM with `__syncthreads`/shared-memory staging that our "
        "barrier-free substitutions remove, and the paper amortises "
        "VGIW's fixed per-block costs over ~35k-thread tiles where a "
        "pure-Python simulator runs 1-16k-thread launches.  Our mean "
        "speedup/efficiency therefore sits near 1.0-1.3x instead of the "
        "paper's 3x/1.75x, while the per-kernel *shape* holds: "
        "compute-dense and fat-block kernels win, pure data movement "
        "loses (the paper's CFD slowdown case), SGMF beats VGIW on small "
        "convergent kernels and cannot map the large ones, the LVC is "
        "touched several times less often than a register file, "
        "reconfiguration overhead is small and vanishes with scale, and "
        "the energy advantage is concentrated in the compute engine "
        "(core > die > system).  `benchmarks/bench_scaling_trend.py` and "
        "`benchmarks/bench_ablation_fermi_baseline.py` quantify the two "
        "gaps directly.\n\n"
    )
    sections = [
        table1_configuration(),
        table2_benchmarks(runs),
        fig3_lvc_vs_rf(runs),
        fig7_speedup_vs_fermi(runs),
        fig8_speedup_vs_sgmf(runs),
        fig9_energy_vs_fermi(runs),
        fig10_energy_levels(runs),
        fig11_energy_vs_sgmf(runs),
        sec32_reconfiguration_overhead(runs),
        workload_characterization(runs),
    ]
    if metrics is not None and len(metrics):
        sections.append(metrics_table(metrics))
    bar_columns = {
        "Figure 7": "Speedup",
        "Figure 8": "Speedup",
        "Figure 9": "Efficiency",
        "Figure 11": "Efficiency",
    }
    for table in sections:
        out.write("```\n")
        out.write(table.render())
        column = bar_columns.get(table.experiment)
        if column is not None:
            out.write("\n\n")
            out.write(table.render_bars(column, "Kernel"))
        out.write("\n```\n\n")

    # Degraded rows: kernels the fault-isolating runner had to exclude.
    failures = getattr(runs, "failures", {})
    if failures:
        out.write("```\n")
        out.write(degraded_kernels(failures).render())
        out.write("\n```\n\n")
        out.write("### Failure logs\n\n")
        for name in sorted(failures):
            out.write("```\n")
            out.write(failures[name].format())
            out.write("\n```\n\n")
    return out.getvalue()
