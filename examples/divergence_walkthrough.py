"""The paper's Figure 1/2 walkthrough: control flow coalescing, step by step.

Reproduces the running example of the paper on eight threads whose
control flow diverges exactly as in Figure 1a:

* threads 1,3,8 take the outer then-arm            (paper: BB2),
* threads 2,7   take the inner then-arm            (paper: BB4),
* threads 4-6   take the inner else-arm            (paper: BB5),
* all converge at the exit block                   (paper: BB6).

The script drives the VGIW machine model block by block and prints the
control vector table after every scheduled block — the machine states of
the paper's Figure 2 — then runs the same kernel on the Fermi baseline
to show the masked-lane waste of Figure 1b.

Run:  python examples/divergence_walkthrough.py
"""

import numpy as np

from repro.arch import VGIWConfig
from repro.compiler import compile_kernel
from repro.kernels import fig1_kernel, make_fig1_workload
from repro.memory import MemoryImage
from repro.memory.hierarchy import LiveValueCache, MemorySystem
from repro.simt import FermiSM
from repro.vgiw import ControlVectorTable, VGIWCore, iter_batch_tids, render_timeline
from repro.vgiw.mtcgrf import MTCGRFExecutor

N = 8
#: data values steering each thread onto the paper's path
#: (thread i here = paper thread i+1; a=10, b=20)
DATA = [5.0, 15.0, 7.0, 25.0, 30.0, 36.0, 12.0, 9.0]


def cvt_picture(cvt, schedule):
    """Render the CVT as block -> sorted thread list (1-indexed, as in
    the paper's Figure 2)."""
    parts = []
    for block_id in range(cvt.n_blocks):
        pending = [
            t + 1
            for base, bm in [(0, cvt._vectors[block_id])]
            for t in iter_batch_tids(0, bm)
        ]
        if pending:
            parts.append(f"{schedule.name_of(block_id)}: {pending}")
    return " | ".join(parts) or "(all done)"


def main():
    kernel = fig1_kernel()
    config = VGIWConfig()
    compiled = compile_kernel(kernel, config.fabric)
    schedule = compiled.schedule

    mem = MemoryImage(256)
    data = mem.alloc_array("data", DATA)
    out = mem.alloc("out", N)
    params = {"a": 10.0, "b": 20.0, "data": data, "out": out}

    memsys = MemorySystem(config.memory, l1_write_back=True)
    lvc = LiveValueCache(
        config.lvc_size_bytes, config.lvc_line_bytes, config.lvc_ways,
        config.lvc_banks, config.lvc_hit_latency, memsys.l2,
    )
    executor = MTCGRFExecutor(config, memsys, lvc, mem, params)

    cvt = ControlVectorTable(compiled.n_blocks, N)
    cvt.activate_all(0)

    print("kernel CFG (block -> ID):")
    for name in schedule.order:
        print(f"  {schedule.id_of(name):2d}  {name}")
    print()
    print("initial state (all threads coalesced into the entry block):")
    print("  " + cvt_picture(cvt, schedule))
    print()

    time = 0.0
    step = 0
    while (block_id := cvt.first_nonempty()) is not None:
        step += 1
        cb = compiled.block_by_id(block_id)
        tids = [
            t for base, bm in cvt.pop_batches(block_id)
            for t in iter_batch_tids(base, bm)
        ]
        time += config.fabric.config_cycles  # reconfigure the grid
        # One outcome list per replica that ran threads.
        per_replica, time = executor.execute_block(cb, tids, time)
        for outcomes in per_replica:
            for oc in outcomes:
                if oc.next_block is not None:
                    cvt.or_batch(schedule.id_of(oc.next_block), 0,
                                 1 << oc.tid)
        cvt.check_invariant()
        executed = [t + 1 for t in tids]
        print(f"step {step}: executed {cb.name:10s} for threads {executed}")
        print("  CVT now: " + cvt_picture(cvt, schedule))

    print()
    print(f"VGIW finished in {time:.0f} cycles "
          f"({step} block executions, {compiled.n_blocks} static blocks)")
    expected = np.where(
        np.array(DATA) < 10, 2 * np.array(DATA),
        np.where(np.array(DATA) < 20, np.array(DATA) + 10,
                 np.sqrt(np.array(DATA))),
    )
    np.testing.assert_allclose(mem.read_region("out"), expected)
    print("results verified against the closed-form model")
    print()

    # The same launch on the Fermi baseline (Figure 1b's masked lanes).
    mem2 = MemoryImage(256)
    mem2.alloc_array("data", DATA)
    mem2.alloc("out", N)
    fermi = FermiSM().run(kernel, mem2, params, N)
    eff = fermi.sm.simd_efficiency
    print(f"Fermi executes the same work with SIMD efficiency {eff:.0%} "
          f"({fermi.sm.wasted_lane_slots} lane slots masked off, "
          f"{fermi.sm.divergences} divergences)")
    print("VGIW wastes no lanes: each block ran exactly its thread vector.")
    print()

    # The same launch at a realistic thread count, as a timeline (the
    # picture the paper's Figure 1d sketches).
    kernel2, mem3, params3 = make_fig1_workload(n_threads=512)
    big = VGIWCore().run(kernel2, mem3, params3, 512, profile=True)
    print(render_timeline(big))


if __name__ == "__main__":
    main()
