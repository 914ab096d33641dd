"""CFD — Rodinia's ``euler3d`` solver kernels, paper Table 2.

Four kernels over ``nelr`` mesh elements with five conserved variables
each (density, momentum x/y/z, energy), stored structure-of-arrays:

* ``initialize_variables`` (1 block) — straight-line far-field fill;
* ``compute_step_factor``  (2 blocks) — per-element time-step bound
  (divisions and square roots: SCU-heavy);
* ``time_step``            (1 block) — the RK update that "simply moves
  data from one array to another": the paper's canonical memory-bound
  kernel, where VGIW's lack of memory coalescing shows (§5);
* ``compute_flux``         (12 blocks) — the flux gather over four
  neighbours with three-way boundary divergence (interior / far-field /
  wall), the app's compute core.

The flux formula is a simplified (but op-mix-faithful) central scheme;
the numpy golden model in :func:`_flux_reference` mirrors it term for
term.  The mesh is synthetic: random neighbour lists with ~10 % far-
field (-1) and ~5 % wall (-2) faces to produce the original's branch
divergence.
"""

from __future__ import annotations

import numpy as np

from repro.ir import DType, Kernel, KernelBuilder
from repro.kernels.base import Workload, pick
from repro.memory import MemoryImage

GAMMA = 1.4
NNB = 4  # neighbours per element
FF_VALUES = (1.4, 0.5, 0.1, 0.0, 2.5)  # far-field conserved variables


def initialize_variables_kernel() -> Kernel:
    """Straight-line far-field initialisation (1 basic block)."""
    kb = KernelBuilder("initialize_variables", params=["vars", "ff", "nelr"])
    i = kb.tid()
    for j in range(5):
        v = kb.load(kb.param("ff") + j)
        kb.store(kb.param("vars") + j * kb.param("nelr") + i, v)
    return kb.build()


def compute_step_factor_kernel() -> Kernel:
    kb = KernelBuilder(
        "compute_step_factor", params=["vars", "areas", "step", "nelr"]
    )
    i = kb.tid()
    nelr = kb.param("nelr")
    with kb.if_(i < nelr):
        density = kb.load(kb.param("vars") + i)
        mx = kb.load(kb.param("vars") + nelr + i)
        my = kb.load(kb.param("vars") + 2 * nelr + i)
        mz = kb.load(kb.param("vars") + 3 * nelr + i)
        energy = kb.load(kb.param("vars") + 4 * nelr + i)
        speed_sqd = (mx * mx + my * my + mz * mz) / (density * density)
        pressure = (GAMMA - 1.0) * (energy - 0.5 * density * speed_sqd)
        sos = kb.sqrt(GAMMA * pressure / density)
        denom = kb.sqrt(kb.load(kb.param("areas") + i)) * (
            kb.sqrt(speed_sqd) + sos
        )
        kb.store(kb.param("step") + i, 0.5 / denom)
    return kb.build()


def time_step_kernel() -> Kernel:
    """RK update: pure streaming (1 basic block, no guard — launched with
    exactly ``nelr`` threads, as Rodinia does)."""
    kb = KernelBuilder(
        "time_step", params=["vars", "old", "fluxes", "step", "nelr", "rk"]
    )
    i = kb.tid()
    nelr = kb.param("nelr")
    factor = kb.load(kb.param("step") + i) / kb.i2f(kb.param("rk"))
    for j in range(5):
        old = kb.load(kb.param("old") + j * nelr + i)
        flux = kb.load(kb.param("fluxes") + j * nelr + i)
        kb.store(kb.param("vars") + j * nelr + i, old + factor * flux)
    return kb.build()


def _element_quantities(kb, vars_base, nelr, idx):
    """Load an element's conserved variables and derive velocity,
    pressure (shared helper for own and neighbour elements)."""
    density = kb.load(vars_base + idx)
    mx = kb.load(vars_base + nelr + idx)
    my = kb.load(vars_base + 2 * nelr + idx)
    mz = kb.load(vars_base + 3 * nelr + idx)
    energy = kb.load(vars_base + 4 * nelr + idx)
    vx = mx / density
    vy = my / density
    vz = mz / density
    speed_sqd = vx * vx + vy * vy + vz * vz
    pressure = (GAMMA - 1.0) * (energy - 0.5 * density * speed_sqd)
    return density, mx, my, mz, energy, vx, vy, vz, pressure


def compute_flux_kernel() -> Kernel:
    kb = KernelBuilder(
        "compute_flux",
        params=["vars", "neighbors", "normals", "fluxes", "ff", "nelr"],
    )
    i = kb.tid()
    nelr = kb.param("nelr")
    with kb.if_(i < nelr):
        vars_base = kb.param("vars")
        (density_i, mx_i, my_i, mz_i, energy_i,
         vx_i, vy_i, vz_i, p_i) = _element_quantities(kb, vars_base, nelr, i)

        f_density = kb.var("f_density", 0.0)
        f_mx = kb.var("f_mx", 0.0)
        f_my = kb.var("f_my", 0.0)
        f_mz = kb.var("f_mz", 0.0)
        f_energy = kb.var("f_energy", 0.0)

        ff_density = kb.load(kb.param("ff"))
        ff_mx = kb.load(kb.param("ff") + 1)
        ff_my = kb.load(kb.param("ff") + 2)
        ff_energy = kb.load(kb.param("ff") + 4)

        with kb.for_range(0, NNB, name="nbj") as j:
            nb = kb.load(kb.param("neighbors") + i * NNB + j, DType.INT)
            nbase = kb.param("normals") + (i * NNB + j) * 3
            nx = kb.load(nbase)
            ny = kb.load(nbase + 1)
            nz = kb.load(nbase + 2)
            with kb.if_(nb >= 0):
                # Interior face: central average of the two elements.
                (density_n, mx_n, my_n, mz_n, energy_n,
                 vx_n, vy_n, vz_n, p_n) = _element_quantities(
                    kb, vars_base, nelr, nb
                )
                mass = 0.5 * (
                    nx * (mx_i + mx_n) + ny * (my_i + my_n) + nz * (mz_i + mz_n)
                )
                p_avg = 0.5 * (p_i + p_n)
                kb.assign(f_density, f_density + mass)
                kb.assign(
                    f_mx, f_mx + mass * 0.5 * (vx_i + vx_n) + p_avg * nx
                )
                kb.assign(
                    f_my, f_my + mass * 0.5 * (vy_i + vy_n) + p_avg * ny
                )
                kb.assign(
                    f_mz, f_mz + mass * 0.5 * (vz_i + vz_n) + p_avg * nz
                )
                kb.assign(
                    f_energy,
                    f_energy
                    + mass * 0.5 * (
                        (energy_i + p_i) / density_i
                        + (energy_n + p_n) / density_n
                    ),
                )
            with kb.else_():
                with kb.if_(nb == -1):
                    # Far-field face: free-stream contribution.
                    mass = nx * ff_mx + ny * ff_my
                    kb.assign(f_density, f_density + mass)
                    kb.assign(f_mx, f_mx + mass * ff_mx / ff_density)
                    kb.assign(f_my, f_my + mass * ff_my / ff_density)
                    kb.assign(
                        f_energy, f_energy + mass * ff_energy / ff_density
                    )
                with kb.else_():
                    # Wall face (-2): pressure force only.
                    kb.assign(f_mx, f_mx + p_i * nx)
                    kb.assign(f_my, f_my + p_i * ny)
                    kb.assign(f_mz, f_mz + p_i * nz)

        kb.store(kb.param("fluxes") + i, f_density)
        kb.store(kb.param("fluxes") + nelr + i, f_mx)
        kb.store(kb.param("fluxes") + 2 * nelr + i, f_my)
        kb.store(kb.param("fluxes") + 3 * nelr + i, f_mz)
        kb.store(kb.param("fluxes") + 4 * nelr + i, f_energy)
    return kb.build()


# ----------------------------------------------------------------------
# Synthetic mesh + numpy golden models
# ----------------------------------------------------------------------
def _make_mesh(nelr: int, seed: int):
    rng = np.random.default_rng(seed)
    density = rng.uniform(1.0, 2.0, nelr)
    mx = rng.uniform(-0.5, 0.5, nelr)
    my = rng.uniform(-0.5, 0.5, nelr)
    mz = rng.uniform(-0.5, 0.5, nelr)
    # Keep internal energy positive and pressure well-defined.
    kinetic = 0.5 * (mx**2 + my**2 + mz**2) / density
    energy = kinetic + rng.uniform(1.0, 2.0, nelr)
    variables = np.stack([density, mx, my, mz, energy])

    kinds = rng.choice([0, -1, -2], size=(nelr, NNB), p=[0.85, 0.10, 0.05])
    neighbors = np.where(
        kinds == 0, rng.integers(0, nelr, (nelr, NNB)), kinds
    )
    normals = rng.uniform(-1.0, 1.0, (nelr, NNB, 3))
    areas = rng.uniform(0.5, 1.5, nelr)
    return variables, neighbors, normals, areas


def _derive(variables):
    density, mx, my, mz, energy = variables
    vx, vy, vz = mx / density, my / density, mz / density
    speed_sqd = vx**2 + vy**2 + vz**2
    pressure = (GAMMA - 1.0) * (energy - 0.5 * density * speed_sqd)
    return vx, vy, vz, speed_sqd, pressure


def _flux_reference(variables, neighbors, normals) -> np.ndarray:
    nelr = variables.shape[1]
    vx, vy, vz, _, p = _derive(variables)
    density, mx, my, mz, energy = variables
    ff_density, ff_mx, ff_my, _, ff_energy = FF_VALUES
    fluxes = np.zeros((5, nelr))
    for i in range(nelr):
        for j in range(NNB):
            nb = int(neighbors[i, j])
            nx, ny, nz = normals[i, j]
            if nb >= 0:
                mass = 0.5 * (
                    nx * (mx[i] + mx[nb]) + ny * (my[i] + my[nb])
                    + nz * (mz[i] + mz[nb])
                )
                p_avg = 0.5 * (p[i] + p[nb])
                fluxes[0, i] += mass
                fluxes[1, i] += mass * 0.5 * (vx[i] + vx[nb]) + p_avg * nx
                fluxes[2, i] += mass * 0.5 * (vy[i] + vy[nb]) + p_avg * ny
                fluxes[3, i] += mass * 0.5 * (vz[i] + vz[nb]) + p_avg * nz
                fluxes[4, i] += mass * 0.5 * (
                    (energy[i] + p[i]) / density[i]
                    + (energy[nb] + p[nb]) / density[nb]
                )
            elif nb == -1:
                mass = nx * ff_mx + ny * ff_my
                fluxes[0, i] += mass
                fluxes[1, i] += mass * ff_mx / ff_density
                fluxes[2, i] += mass * ff_my / ff_density
                fluxes[4, i] += mass * ff_energy / ff_density
            else:
                fluxes[1, i] += p[i] * nx
                fluxes[2, i] += p[i] * ny
                fluxes[3, i] += p[i] * nz
    return fluxes


# ----------------------------------------------------------------------
# Workload factories
# ----------------------------------------------------------------------
def make_initialize_workload(scale: str = "small", seed: int = 51) -> Workload:
    nelr = pick(scale, 256, 4096, 16384)
    mem = MemoryImage(5 * nelr + 64)
    b_vars = mem.alloc("vars", 5 * nelr)
    b_ff = mem.alloc_array("ff", FF_VALUES)
    expected = np.repeat(np.array(FF_VALUES), nelr)
    return Workload(
        name="cfd/initialize_variables",
        app="CFD",
        kernel=initialize_variables_kernel(),
        memory=mem,
        params={"vars": b_vars, "ff": b_ff, "nelr": nelr},
        n_threads=nelr,
        expected={"vars": expected},
        paper_blocks=1,
    )


def make_step_factor_workload(scale: str = "small", seed: int = 52) -> Workload:
    nelr = pick(scale, 256, 4096, 16384)
    variables, _, _, areas = _make_mesh(nelr, seed)
    mem = MemoryImage(7 * nelr + 64)
    b_vars = mem.alloc_array("vars", variables.ravel())
    b_areas = mem.alloc_array("areas", areas)
    b_step = mem.alloc("step", nelr)

    _, _, _, speed_sqd, pressure = _derive(variables)
    density = variables[0]
    sos = np.sqrt(GAMMA * pressure / density)
    expected = 0.5 / (np.sqrt(areas) * (np.sqrt(speed_sqd) + sos))

    return Workload(
        name="cfd/compute_step_factor",
        app="CFD",
        kernel=compute_step_factor_kernel(),
        memory=mem,
        params={"vars": b_vars, "areas": b_areas, "step": b_step, "nelr": nelr},
        n_threads=nelr,
        expected={"step": expected},
        paper_blocks=2,
    )


def make_time_step_workload(scale: str = "small", seed: int = 53) -> Workload:
    nelr = pick(scale, 256, 4096, 16384)
    rng = np.random.default_rng(seed)
    old = rng.normal(size=5 * nelr)
    fluxes = rng.normal(size=5 * nelr)
    step = rng.uniform(0.01, 0.1, nelr)
    rk = 3

    mem = MemoryImage(16 * nelr + 64)
    b_vars = mem.alloc("vars", 5 * nelr)
    b_old = mem.alloc_array("old", old)
    b_flux = mem.alloc_array("fluxes", fluxes)
    b_step = mem.alloc_array("step", step)

    factor = np.tile(step / rk, 5)
    expected = old + factor * fluxes

    return Workload(
        name="cfd/time_step",
        app="CFD",
        kernel=time_step_kernel(),
        memory=mem,
        params={
            "vars": b_vars, "old": b_old, "fluxes": b_flux,
            "step": b_step, "nelr": nelr, "rk": rk,
        },
        n_threads=nelr,
        expected={"vars": expected},
        paper_blocks=1,
    )


def make_compute_flux_workload(scale: str = "small", seed: int = 54) -> Workload:
    nelr = pick(scale, 128, 2048, 8192)
    variables, neighbors, normals, _ = _make_mesh(nelr, seed)

    mem = MemoryImage(5 * nelr + NNB * nelr + 3 * NNB * nelr + 5 * nelr + 64)
    b_vars = mem.alloc_array("vars", variables.ravel())
    b_nei = mem.alloc_array("neighbors", neighbors.ravel())
    b_nrm = mem.alloc_array("normals", normals.ravel())
    b_flux = mem.alloc("fluxes", 5 * nelr)
    b_ff = mem.alloc_array("ff", FF_VALUES)

    expected = _flux_reference(variables, neighbors, normals)

    return Workload(
        name="cfd/compute_flux",
        app="CFD",
        kernel=compute_flux_kernel(),
        memory=mem,
        params={
            "vars": b_vars, "neighbors": b_nei, "normals": b_nrm,
            "fluxes": b_flux, "ff": b_ff, "nelr": nelr,
        },
        n_threads=nelr,
        expected={"fluxes": expected.ravel()},
        paper_blocks=12,
    )
