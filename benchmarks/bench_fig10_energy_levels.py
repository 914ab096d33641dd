"""Paper Figure 10: VGIW/Fermi energy efficiency at the system, die, and
core levels.

Paper result: the improvement is attributed to the compute engine —
the core-level ratio is the largest and dilutes through die to system
as the (identical) memory hierarchy's energy is added.
"""

from repro.evalharness.experiments import fig10_energy_levels


def bench_fig10(benchmark, suite_runs):
    table = benchmark(fig10_energy_levels, suite_runs)
    print()
    print(table.render())

    means = table.rows[-1]  # GEOMEAN row: [label, system, die, core]
    system, die, core = means[1], means[2], means[3]
    assert core > system, (
        f"core-level ratio ({core:.2f}) must exceed system-level "
        f"({system:.2f}): the win lives in the compute engine"
    )
    assert core > 1.0, "the VGIW compute engine must be more efficient"
