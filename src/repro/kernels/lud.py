"""LUD — blocked LU decomposition (Rodinia), paper Table 2:
``lud_diagonal`` (11 blocks), ``lud_perimeter`` (22), ``lud_internal`` (3).

Rodinia factorises an N×N matrix in B×B tiles; within a step, the
diagonal tile is factorised, the perimeter strips are triangular-solved
against it, and the interior tiles receive a rank-B update.  The
originals synchronise inside the kernel with ``__syncthreads``; the
barrier-free substitutions here keep each launch race-free while
preserving the loop/branch structure (see DESIGN.md):

* ``lud_diagonal`` — one elimination step ``k`` of the diagonal tile
  (the host loops over ``k``, exactly like the Gaussian pair): thread
  ``i`` scales its pivot-column element and updates its row, guarded by
  ``i > k``;
* ``lud_perimeter`` — threads 0..B-1 forward-solve one column of the row
  strip against the factorised diagonal's unit-lower part; threads
  B..2B-1 right-solve one row of the column strip against its upper
  part (two arms with doubly-nested loops);
* ``lud_internal`` — the rank-B inner-product update of interior tiles.
"""

from __future__ import annotations

import numpy as np

from repro.ir import Kernel, KernelBuilder
from repro.kernels.base import Workload, pick
from repro.memory import MemoryImage


def lud_diagonal_kernel() -> Kernel:
    """One elimination step ``k`` inside every B×B diagonal tile.

    Thread ``t`` owns row ``t % B`` of tile ``t // B``; the launch
    covers a *batch* of independent diagonal tiles (Rodinia factorises
    one tile per step with B threads; batching keeps the identical
    per-thread control flow while giving the data-parallel machines a
    realistic launch size — see DESIGN.md)."""
    kb = KernelBuilder("lud_diagonal", params=["tiles", "b", "k", "n"])
    t = kb.tid()
    b = kb.param("b")
    k = kb.param("k")
    with kb.if_(t < kb.param("n")):
        i = t % b
        base = kb.param("tiles") + (t // b) * b * b
        with kb.if_(i > k):
            pivot = kb.load(base + k * b + k)
            lik = kb.load(base + i * b + k) / pivot
            kb.store(base + i * b + k, lik)
            with kb.for_range(0, b, name="col") as j:
                with kb.if_(j > k):
                    akj = kb.load(base + k * b + j)
                    aij = kb.load(base + i * b + j)
                    kb.store(base + i * b + j, aij - lik * akj)
    return kb.build()


def lud_perimeter_kernel() -> Kernel:
    """Triangular solves of the perimeter strips against the factorised
    diagonal tile (two divergent thread groups per strip pair).

    The launch covers every perimeter tile pair of the step, exactly as
    Rodinia's grid does: thread ``t`` works on tile ``t // 2B``; within
    a tile, threads 0..B-1 forward-solve a row-strip column against the
    diagonal's unit-lower part, threads B..2B-1 right-solve a col-strip
    row against its upper part."""
    kb = KernelBuilder(
        "lud_perimeter",
        params=["diag", "row_strips", "col_strips", "b", "n"],
    )
    t = kb.tid()
    b = kb.param("b")
    with kb.if_(t < kb.param("n")):
        tile = t // (2 * b)
        local = t % (2 * b)
        rs_base = kb.param("row_strips") + tile * b * b
        cs_base = kb.param("col_strips") + tile * b * b
        with kb.if_(local < b):
            # Forward-solve column `local` of the row strip: L y = a.
            c = local
            with kb.for_range(0, b, name="rk") as k:
                s = kb.var("s", 0.0)
                kb.assign(s, kb.load(rs_base + k * b + c))
                with kb.for_range(0, k, name="rm") as m:
                    lkm = kb.load(kb.param("diag") + k * b + m)
                    ym = kb.load(rs_base + m * b + c)
                    kb.assign(s, s - lkm * ym)
                kb.store(rs_base + k * b + c, s)
        with kb.else_():
            # Right-solve row (local-b) of the column strip: x U = a.
            r = local - b
            with kb.for_range(0, b, name="ck") as k:
                s = kb.var("s2", 0.0)
                kb.assign(s, kb.load(cs_base + r * b + k))
                with kb.for_range(0, k, name="cm") as m:
                    xm = kb.load(cs_base + r * b + m)
                    umk = kb.load(kb.param("diag") + m * b + k)
                    kb.assign(s, s - xm * umk)
                ukk = kb.load(kb.param("diag") + k * b + k)
                kb.store(cs_base + r * b + k, s / ukk)
    return kb.build()


def lud_internal_kernel() -> Kernel:
    """Rank-B update of interior tiles: c -= row_strip · col_strip."""
    kb = KernelBuilder(
        "lud_internal",
        params=["row_strip", "col_strip", "tiles", "b", "n_cells"],
    )
    t = kb.tid()
    b = kb.param("b")
    with kb.if_(t < kb.param("n_cells")):
        cell = t % (b * b)
        tile = t // (b * b)
        r = cell // b
        c = cell % b
        acc = kb.var("acc", 0.0)
        with kb.for_range(0, b, name="ik") as k:
            lv = kb.load(kb.param("col_strip") + tile * b * b + r * b + k)
            uv = kb.load(kb.param("row_strip") + tile * b * b + k * b + c)
            kb.assign(acc, acc + lv * uv)
        addr = kb.param("tiles") + t
        kb.store(addr, kb.load(addr) - acc)
    return kb.build()


# ----------------------------------------------------------------------
# Golden models
# ----------------------------------------------------------------------
def diagonal_step_reference(tile: np.ndarray, k: int) -> np.ndarray:
    out = tile.copy()
    b = tile.shape[0]
    for i in range(k + 1, b):
        lik = out[i, k] / out[k, k]
        out[i, k] = lik
        for j in range(k + 1, b):
            out[i, j] = out[i, j] - lik * out[k, j]
    return out


def perimeter_reference(diag, row_strip, col_strip):
    b = diag.shape[0]
    rs = row_strip.copy()
    cs = col_strip.copy()
    for c in range(b):
        for k in range(b):
            s = rs[k, c]
            for m in range(k):
                s -= diag[k, m] * rs[m, c]
            rs[k, c] = s
    for r in range(b):
        for k in range(b):
            s = cs[r, k]
            for m in range(k):
                s -= cs[r, m] * diag[m, k]
            cs[r, k] = s / diag[k, k]
    return rs, cs


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _tile(b: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, (b, b)) + np.eye(b) * b


def make_diagonal_workload(scale: str = "small", seed: int = 111) -> Workload:
    b = pick(scale, 16, 16, 16)  # Rodinia's tile size
    n_tiles = pick(scale, 8, 128, 512)
    k = 1
    tiles = np.stack([_tile(b, seed + i) for i in range(n_tiles)])
    mem = MemoryImage(n_tiles * b * b + 64)
    b_tiles = mem.alloc_array("tiles", tiles.ravel())
    expected = np.stack(
        [diagonal_step_reference(tiles[i], k) for i in range(n_tiles)]
    )
    n = n_tiles * b
    return Workload(
        name="lud/lud_diagonal",
        app="LUD",
        kernel=lud_diagonal_kernel(),
        memory=mem,
        params={"tiles": b_tiles, "b": b, "k": k, "n": n},
        n_threads=n,
        expected={"tiles": expected.ravel()},
        paper_blocks=11,
    )


def make_perimeter_workload(scale: str = "small", seed: int = 112) -> Workload:
    b = pick(scale, 8, 16, 16)
    n_tiles = pick(scale, 4, 32, 128)
    rng = np.random.default_rng(seed)
    diag = _tile(b, seed)
    row_strips = rng.normal(size=(n_tiles, b, b))
    col_strips = rng.normal(size=(n_tiles, b, b))

    mem = MemoryImage((2 * n_tiles + 1) * b * b + 64)
    b_diag = mem.alloc_array("diag", diag.ravel())
    b_rs = mem.alloc_array("row_strips", row_strips.ravel())
    b_cs = mem.alloc_array("col_strips", col_strips.ravel())

    e_rs = np.empty_like(row_strips)
    e_cs = np.empty_like(col_strips)
    for i in range(n_tiles):
        e_rs[i], e_cs[i] = perimeter_reference(
            diag, row_strips[i], col_strips[i]
        )
    return Workload(
        name="lud/lud_perimeter",
        app="LUD",
        kernel=lud_perimeter_kernel(),
        memory=mem,
        params={"diag": b_diag, "row_strips": b_rs, "col_strips": b_cs,
                "b": b, "n": n_tiles * 2 * b},
        n_threads=n_tiles * 2 * b,
        expected={"row_strips": e_rs.ravel(), "col_strips": e_cs.ravel()},
        paper_blocks=22,
    )


def make_internal_workload(scale: str = "small", seed: int = 113) -> Workload:
    b = 8
    n_tiles = pick(scale, 4, 64, 256)
    rng = np.random.default_rng(seed)
    row_strip = rng.normal(size=(n_tiles, b, b))
    col_strip = rng.normal(size=(n_tiles, b, b))
    tiles = rng.normal(size=(n_tiles, b, b))

    mem = MemoryImage(3 * n_tiles * b * b + 64)
    b_rs = mem.alloc_array("row_strip", row_strip.ravel())
    b_cs = mem.alloc_array("col_strip", col_strip.ravel())
    b_tl = mem.alloc_array("tiles", tiles.ravel())

    expected = tiles - np.matmul(col_strip, row_strip)
    n_cells = n_tiles * b * b
    return Workload(
        name="lud/lud_internal",
        app="LUD",
        kernel=lud_internal_kernel(),
        memory=mem,
        params={
            "row_strip": b_rs, "col_strip": b_cs, "tiles": b_tl,
            "b": b, "n_cells": n_cells,
        },
        n_threads=n_cells,
        expected={"tiles": expected.ravel()},
        paper_blocks=3,
    )
