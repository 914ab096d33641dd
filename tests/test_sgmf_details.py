"""Detail tests for the SGMF model: fire accounting and mapping order."""

import numpy as np

from repro.kernels import make_fig1_workload, saxpy_kernel
from repro.sgmf import SGMFCore, build_sgmf_dfgs, map_kernel


def test_useful_fire_fraction_bounds():
    kernel, mem, params = make_fig1_workload(n_threads=128)
    r = SGMFCore().run(kernel, mem, params, 128)
    assert 0.0 < r.useful_fire_fraction < 1.0
    assert r.waste_fires == r.fabric.node_fires - (
        r.fabric.node_fires - r.waste_fires
    )


def test_fire_counts_scale_with_divergence():
    # The fig1 kernel: every thread skips one outer arm and, on the else
    # path, one inner arm — waste is proportional to threads.
    counts = []
    for n in (64, 128):
        kernel, mem, params = make_fig1_workload(n_threads=n)
        r = SGMFCore().run(kernel, mem, params, n)
        counts.append(r.waste_fires)
    # Roughly linear in threads (the extra threads' paths are random).
    assert 1.7 <= counts[1] / counts[0] <= 2.3


def test_convergent_kernel_has_zero_waste():
    n = 64
    from repro.memory import MemoryImage

    mem = MemoryImage(1024)
    bx = mem.alloc_array("x", np.arange(float(n)))
    by = mem.alloc_array("y", np.ones(n))
    bo = mem.alloc("out", n)
    params = {"a": 1.0, "x": bx, "y": by, "out": bo, "n": n}
    r = SGMFCore().run(saxpy_kernel(), mem, params, n)
    assert r.waste_fires == 0
    assert r.useful_fire_fraction == 1.0


def test_mapping_places_blocks_in_schedule_order():
    mapping = map_kernel(saxpy_kernel())
    assert mapping.schedule.order[0] == "entry"
    for replica in mapping.replicas:
        assert set(replica) == set(mapping.kernel.blocks)


def test_wire_nodes_have_no_units():
    dfgs = build_sgmf_dfgs(make_fig1_workload(16)[0])
    mapping = map_kernel(make_fig1_workload(16)[0])
    for name, dfg in mapping.dfgs.items():
        placed = mapping.replicas[0][name]
        for node in dfg.nodes:
            if node.pseudo:
                assert node.nid not in placed.unit_of
            else:
                assert node.nid in placed.unit_of


def test_sgmf_deterministic():
    kernel, mem, params = make_fig1_workload(n_threads=64)
    mem2 = mem.clone()
    r1 = SGMFCore().run(kernel, mem, params, 64)
    r2 = SGMFCore().run(kernel, mem2, params, 64)
    assert r1.cycles == r2.cycles
    assert r1.waste_fires == r2.waste_fires
