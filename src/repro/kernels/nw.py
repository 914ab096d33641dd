"""NW — Needleman-Wunsch sequence alignment (Rodinia), paper Table 2:
``needle_cuda_shared_1``/``_2``, 13 basic blocks each.

The score matrix is filled wavefront by wavefront: cell (r, c) needs its
north, west, and north-west neighbours.  Rodinia synchronises diagonals
inside one kernel with ``__syncthreads``; our barrier-free launch
processes exactly one anti-diagonal (the host loops over diagonals, as
the top-level example does), which keeps the launch race-free while
preserving the kernel's per-cell control flow: the three-way maximum is
an if/else chain, as in the original.

``needle_1`` covers the diagonals of the upper-left triangle (diagonal
index counted from the top-left corner), ``needle_2`` those of the
lower-right triangle (counted from the bottom-right corner).
"""

from __future__ import annotations

import numpy as np

from repro.ir import Kernel, KernelBuilder
from repro.kernels.base import Workload, pick
from repro.memory import MemoryImage

PENALTY = 10


def _max3_chain(kb: KernelBuilder, diag, up, left):
    """The Rodinia three-way max as an if/else chain (branchy on
    purpose; this is where the kernel's divergence lives)."""
    best = kb.var("best", 0.0)
    with kb.if_(diag >= up):
        kb.assign(best, diag)
    with kb.else_():
        kb.assign(best, up)
    with kb.if_(left > best):
        kb.assign(best, left)
    return best


def _needle_kernel(name: str, lower: bool) -> Kernel:
    """One anti-diagonal update.

    ``d`` is the diagonal index within the triangle; thread ``i`` walks
    the diagonal.  The score matrix has an extra boundary row/column
    (index 0), exactly as in Rodinia.
    """
    kb = KernelBuilder(name, params=["score", "ref", "cols", "d", "len"])
    i = kb.tid()
    cols = kb.param("cols")
    d = kb.param("d")
    with kb.if_(i < kb.param("len")):
        if not lower:
            r = d - i + 1
            c = i + 1
        else:
            # Lower triangle: diagonal d counted after the main one.
            r = cols - 1 - i
            c = d + i + 1
        idx = r * cols + c
        nw_v = kb.load(kb.param("score") + idx - cols - 1)
        n_v = kb.load(kb.param("score") + idx - cols)
        w_v = kb.load(kb.param("score") + idx - 1)
        refv = kb.load(kb.param("ref") + idx)
        best = _max3_chain(
            kb, nw_v + refv, n_v - float(PENALTY), w_v - float(PENALTY)
        )
        kb.store(kb.param("score") + idx, best)
    return kb.build()


def needle1_kernel() -> Kernel:
    return _needle_kernel("needle_cuda_shared_1", lower=False)


def needle2_kernel() -> Kernel:
    return _needle_kernel("needle_cuda_shared_2", lower=True)


def nw_reference_full(ref: np.ndarray, penalty: int) -> np.ndarray:
    """Full dynamic-programming fill (golden model for the example)."""
    rows, cols = ref.shape
    score = np.zeros((rows, cols))
    score[0, :] = -penalty * np.arange(cols)
    score[:, 0] = -penalty * np.arange(rows)
    for r in range(1, rows):
        for c in range(1, cols):
            score[r, c] = max(
                score[r - 1, c - 1] + ref[r, c],
                score[r - 1, c] - penalty,
                score[r, c - 1] - penalty,
            )
    return score


def _prepare(scale: str, seed: int):
    size = pick(scale, 32, 128, 256)  # playable square, +1 boundary
    cols = size + 1
    rng = np.random.default_rng(seed)
    ref = rng.integers(-10, 11, (cols, cols)).astype(float)
    score = np.zeros((cols, cols))
    score[0, :] = -PENALTY * np.arange(cols)
    score[:, 0] = -PENALTY * np.arange(cols)
    return cols, ref, score


def make_needle1_workload(scale: str = "small", seed: int = 101) -> Workload:
    cols, ref, score = _prepare(scale, seed)
    # Fill every diagonal before the one we launch (mid-matrix, longest).
    d = cols - 2  # the longest upper-triangle diagonal
    full = nw_reference_full(ref, PENALTY)
    # Cells strictly before diagonal d (r+c-2 < d) take their final value.
    for r in range(1, cols):
        for c in range(1, cols):
            if (r - 1) + (c - 1) < d:
                score[r, c] = full[r, c]

    expected = score.copy()
    length = d + 1 if d < cols - 1 else 2 * (cols - 1) - d - 1
    length = min(d + 1, cols - 1)
    for i in range(length):
        r, c = d - i + 1, i + 1
        if 1 <= r < cols and 1 <= c < cols:
            expected[r, c] = full[r, c]

    mem = MemoryImage(2 * cols * cols + 64)
    b_score = mem.alloc_array("score", score.ravel())
    b_ref = mem.alloc_array("ref", ref.ravel())
    return Workload(
        name="nw/needle_cuda_shared_1",
        app="NW",
        kernel=needle1_kernel(),
        memory=mem,
        params={"score": b_score, "ref": b_ref, "cols": cols, "d": d,
                "len": length},
        n_threads=length,
        expected={"score": expected.ravel()},
        paper_blocks=13,
    )


def make_needle2_workload(scale: str = "small", seed: int = 102) -> Workload:
    cols, ref, score = _prepare(scale, seed)
    full = nw_reference_full(ref, PENALTY)
    d = 1  # first lower-triangle diagonal: length cols-2
    # All cells at diagonals before this one take their final values.
    for r in range(1, cols):
        for c in range(1, cols):
            if (r - 1) + (c - 1) < (cols - 1) + d - 1:
                score[r, c] = full[r, c]

    length = cols - 1 - d
    expected = score.copy()
    for i in range(length):
        r, c = cols - 1 - i, d + i + 1
        if 1 <= r < cols and 1 <= c < cols:
            expected[r, c] = full[r, c]

    mem = MemoryImage(2 * cols * cols + 64)
    b_score = mem.alloc_array("score", score.ravel())
    b_ref = mem.alloc_array("ref", ref.ravel())
    return Workload(
        name="nw/needle_cuda_shared_2",
        app="NW",
        kernel=needle2_kernel(),
        memory=mem,
        params={"score": b_score, "ref": b_ref, "cols": cols, "d": d,
                "len": length},
        n_threads=length,
        expected={"score": expected.ravel()},
        paper_blocks=13,
    )
