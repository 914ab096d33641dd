"""BPNN — backpropagation neural-network training (Rodinia), paper
Table 2: ``layerforward`` (20 blocks) and ``adjust_weights`` (3 blocks).

``layerforward``: each thread computes one hidden unit's activation.
Rodinia accumulates the input-weight dot product through a shared-memory
tree reduction; without barriers each thread accumulates its own dot
product in a flat loop and applies the sigmoid.  (The paper counts 20
basic blocks for the shared-memory version; the privatised form is
smaller — see the Table 2 notes.)

``adjust_weights``: each thread owns one (input, hidden) weight and
applies the momentum update ``w += eta·δ_j·x_k + momentum·Δw_old``.
"""

from __future__ import annotations

import numpy as np

from repro.ir import Kernel, KernelBuilder
from repro.kernels.base import Workload, pick
from repro.memory import MemoryImage

ETA = 0.3
MOMENTUM = 0.3


def layerforward_kernel() -> Kernel:
    kb = KernelBuilder(
        "layerforward", params=["input", "weights", "hidden", "n_in", "n_hid"]
    )
    j = kb.tid()
    n_in = kb.param("n_in")
    n_hid = kb.param("n_hid")
    with kb.if_(j < n_hid):
        acc = kb.var("acc", 0.0)
        with kb.for_range(0, n_in, name="k") as k:
            x = kb.load(kb.param("input") + k)
            w = kb.load(kb.param("weights") + k * n_hid + j)
            kb.assign(acc, acc + x * w)
        sig = 1.0 / (1.0 + kb.exp(-acc))
        kb.store(kb.param("hidden") + j, sig)
    return kb.build()


def adjust_weights_kernel() -> Kernel:
    kb = KernelBuilder(
        "adjust_weights",
        params=["w", "oldw", "delta", "x", "n_hid", "n_weights"],
    )
    i = kb.tid()
    n_hid = kb.param("n_hid")
    with kb.if_(i < kb.param("n_weights")):
        jj = i % n_hid
        kk = i // n_hid
        dw = (
            ETA * kb.load(kb.param("delta") + jj) * kb.load(kb.param("x") + kk)
            + MOMENTUM * kb.load(kb.param("oldw") + i)
        )
        kb.store(kb.param("w") + i, kb.load(kb.param("w") + i) + dw)
        kb.store(kb.param("oldw") + i, dw)
    return kb.build()


def make_layerforward_workload(scale: str = "small", seed: int = 91) -> Workload:
    n_in = pick(scale, 24, 48, 96)
    n_hid = pick(scale, 128, 2048, 8192)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_in)
    w = rng.normal(size=(n_in, n_hid)) * 0.1

    mem = MemoryImage(n_in + n_in * n_hid + n_hid + 64)
    b_x = mem.alloc_array("input", x)
    b_w = mem.alloc_array("weights", w.ravel())
    b_h = mem.alloc("hidden", n_hid)

    expected = 1.0 / (1.0 + np.exp(-(x @ w)))
    return Workload(
        name="backprop/layerforward",
        app="BPNN",
        kernel=layerforward_kernel(),
        memory=mem,
        params={
            "input": b_x, "weights": b_w, "hidden": b_h,
            "n_in": n_in, "n_hid": n_hid,
        },
        n_threads=n_hid,
        expected={"hidden": expected},
        paper_blocks=20,
    )


def make_adjust_weights_workload(scale: str = "small", seed: int = 92) -> Workload:
    n_in = pick(scale, 16, 64, 128)
    n_hid = pick(scale, 16, 64, 128)
    n_weights = n_in * n_hid
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n_weights)
    oldw = rng.normal(size=n_weights) * 0.01
    delta = rng.normal(size=n_hid) * 0.1
    x = rng.normal(size=n_in)

    mem = MemoryImage(2 * n_weights + n_hid + n_in + 64)
    b_w = mem.alloc_array("w", w)
    b_oldw = mem.alloc_array("oldw", oldw)
    b_delta = mem.alloc_array("delta", delta)
    b_x = mem.alloc_array("x", x)

    jj = np.arange(n_weights) % n_hid
    kk = np.arange(n_weights) // n_hid
    dw = ETA * delta[jj] * x[kk] + MOMENTUM * oldw
    return Workload(
        name="backprop/adjust_weights",
        app="BPNN",
        kernel=adjust_weights_kernel(),
        memory=mem,
        params={
            "w": b_w, "oldw": b_oldw, "delta": b_delta, "x": b_x,
            "n_hid": n_hid, "n_weights": n_weights,
        },
        n_threads=n_weights,
        expected={"w": w + dw, "oldw": dw},
        paper_blocks=3,
    )
