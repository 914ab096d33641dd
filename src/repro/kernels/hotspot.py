"""HOTSPOT — thermal simulation stencil (Rodinia), paper Table 2:
27 basic blocks.

One simulation step of the 2-D heat equation: each thread updates one
grid cell from its four neighbours, the power dissipation, and the
ambient sink.  Boundary cells clamp the missing neighbour to the centre
value through explicit if/else chains (matching Rodinia's boundary
handling, which is where the kernel's control flow comes from).  Our
single-launch version reads ``temp_in`` and writes ``temp_out``
(Rodinia's pyramid-tiling and intra-kernel time loop rely on
``__syncthreads``; the per-step dataflow and branch structure are
preserved — see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from repro.ir import Kernel, KernelBuilder
from repro.kernels.base import Workload, pick
from repro.memory import MemoryImage

#: Physical coefficients (Rodinia defaults, folded into three constants).
RX, RY, RZ = 0.1, 0.1, 0.05
AMB_TEMP = 80.0
STEP_DIV_CAP = 0.5


def hotspot_kernel() -> Kernel:
    kb = KernelBuilder(
        "hotspot_kernel",
        params=["temp_in", "power", "temp_out", "rows", "cols"],
    )
    t = kb.tid()
    rows = kb.param("rows")
    cols = kb.param("cols")
    with kb.if_(t < rows * cols):
        r = t // cols
        c = t % cols
        center = kb.load(kb.param("temp_in") + t)

        north = kb.var("north", 0.0)
        with kb.if_(r == 0):
            kb.assign(north, center)
        with kb.else_():
            kb.assign(north, kb.load(kb.param("temp_in") + t - cols))

        south = kb.var("south", 0.0)
        with kb.if_(r == rows - 1):
            kb.assign(south, center)
        with kb.else_():
            kb.assign(south, kb.load(kb.param("temp_in") + t + cols))

        west = kb.var("west", 0.0)
        with kb.if_(c == 0):
            kb.assign(west, center)
        with kb.else_():
            kb.assign(west, kb.load(kb.param("temp_in") + t - 1))

        east = kb.var("east", 0.0)
        with kb.if_(c == cols - 1):
            kb.assign(east, center)
        with kb.else_():
            kb.assign(east, kb.load(kb.param("temp_in") + t + 1))

        p = kb.load(kb.param("power") + t)
        delta = STEP_DIV_CAP * (
            p
            + (north + south - 2.0 * center) * RY
            + (east + west - 2.0 * center) * RX
            + (AMB_TEMP - center) * RZ
        )
        kb.store(kb.param("temp_out") + t, center + delta)
    return kb.build()


def hotspot_reference(temp: np.ndarray, power: np.ndarray) -> np.ndarray:
    """Numpy golden model of one hotspot step."""
    north = np.vstack([temp[0:1, :], temp[:-1, :]])
    south = np.vstack([temp[1:, :], temp[-1:, :]])
    west = np.hstack([temp[:, 0:1], temp[:, :-1]])
    east = np.hstack([temp[:, 1:], temp[:, -1:]])
    delta = STEP_DIV_CAP * (
        power
        + (north + south - 2.0 * temp) * RY
        + (east + west - 2.0 * temp) * RX
        + (AMB_TEMP - temp) * RZ
    )
    return temp + delta


def make_workload(scale: str = "small", seed: int = 61) -> Workload:
    side = pick(scale, 16, 64, 128)
    rows = cols = side
    rng = np.random.default_rng(seed)
    temp = rng.uniform(70.0, 90.0, (rows, cols))
    power = rng.uniform(0.0, 1.0, (rows, cols))

    mem = MemoryImage(3 * rows * cols + 64)
    b_in = mem.alloc_array("temp_in", temp.ravel())
    b_pow = mem.alloc_array("power", power.ravel())
    b_out = mem.alloc("temp_out", rows * cols)

    return Workload(
        name="hotspot/hotspot_kernel",
        app="HOTSPOT",
        kernel=hotspot_kernel(),
        memory=mem,
        params={
            "temp_in": b_in, "power": b_pow, "temp_out": b_out,
            "rows": rows, "cols": cols,
        },
        n_threads=rows * cols,
        expected={"temp_out": hotspot_reference(temp, power).ravel()},
        paper_blocks=27,
    )
