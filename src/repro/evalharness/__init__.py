"""Evaluation harness: suite runner, experiment tables, report generator."""

from repro.evalharness.experiments import (
    ALL_EXPERIMENTS,
    degraded_kernels,
    fig3_lvc_vs_rf,
    fig7_speedup_vs_fermi,
    fig8_speedup_vs_sgmf,
    fig9_energy_vs_fermi,
    fig10_energy_levels,
    fig11_energy_vs_sgmf,
    sec32_reconfiguration_overhead,
    table1_configuration,
    table2_benchmarks,
)
from repro.evalharness.options import RunOptions
from repro.evalharness.report import generate_report
from repro.evalharness.resultcache import (
    ResultCache,
    ResultCacheEntry,
    workload_digests,
)
from repro.evalharness.runner import (
    KernelRun,
    SuiteResult,
    run_kernel,
    run_suite,
    trace_file_for,
)
from repro.evalharness.serialize import run_to_dict, runs_to_dict, runs_to_json
from repro.evalharness.tables import ExperimentTable, arithmean, geomean

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentTable",
    "KernelRun",
    "ResultCache",
    "ResultCacheEntry",
    "RunOptions",
    "SuiteResult",
    "arithmean",
    "degraded_kernels",
    "fig10_energy_levels",
    "fig11_energy_vs_sgmf",
    "fig3_lvc_vs_rf",
    "fig7_speedup_vs_fermi",
    "fig8_speedup_vs_sgmf",
    "fig9_energy_vs_fermi",
    "generate_report",
    "geomean",
    "run_kernel",
    "run_suite",
    "run_to_dict",
    "runs_to_dict",
    "runs_to_json",
    "sec32_reconfiguration_overhead",
    "table1_configuration",
    "table2_benchmarks",
    "trace_file_for",
    "workload_digests",
]
