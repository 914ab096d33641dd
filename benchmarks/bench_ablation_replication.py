"""Ablation: basic-block replication (paper sections 2 and 3.1).

Replicating a small block's dataflow graph multiplies the core's
injection throughput.  This ablation runs the same workloads with
replication enabled (up to 8 replicas) and disabled (one replica) and
reports the speedup replication buys — one of the two key contributors
the paper credits for VGIW's performance.
"""

from repro.compiler import compile_kernel
from repro.evalharness.tables import ExperimentTable, geomean
from repro.kernels.registry import make_workload
from repro.vgiw import VGIWCore


def _run(compiled, workload):
    mem = workload.memory.clone()
    return VGIWCore().run(compiled, mem, workload.params, workload.n_threads)


def bench_ablation_replication(benchmark):
    table = ExperimentTable(
        "Ablation", "Block replication on vs. off",
        ["Kernel", "1 replica [cyc]", "replicated [cyc]", "Gain"],
    )
    gains = []

    def run_ablation():
        table.rows.clear()
        for name in ("kmeans/invert_mapping", "nn/euclid",
                     "gaussian/Fan2", "hotspot/hotspot_kernel"):
            w = make_workload(name, "tiny")
            on = _run(compile_kernel(w.kernel, replicate=True), w)
            off = _run(compile_kernel(w.kernel, replicate=False), w)
            gain = off.cycles / on.cycles
            gains.append(gain)
            table.add(name, off.cycles, on.cycles, gain)
        return table

    benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    print(table.render())
    assert geomean(gains) > 1.3, "replication must pay off on small blocks"
