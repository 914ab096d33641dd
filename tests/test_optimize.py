"""Tests for the IR optimisation passes (DCE, FMA contraction)."""

import numpy as np

from repro.compiler.optimize import (
    eliminate_dead_code,
    fuse_fma,
    optimize_kernel,
)
from repro.interp import interpret
from repro.ir import KernelBuilder, Op
from repro.memory import MemoryImage


def _ops(kernel):
    return [i.op for b in kernel.blocks.values() for i in b.instrs]


def test_dce_removes_dead_instruction():
    kb = KernelBuilder("k", params=["out"])
    dead = kb.tid() * 99  # never used
    kb.store(kb.param("out"), kb.i2f(kb.tid()))
    k = kb.build()
    assert Op.MUL in _ops(k)
    k2 = eliminate_dead_code(k)
    assert Op.MUL not in _ops(k2)


def test_dce_keeps_stores_and_live_chains():
    kb = KernelBuilder("k", params=["out"])
    v = kb.tid() + 1
    kb.store(kb.param("out"), kb.i2f(v))
    k = eliminate_dead_code(kb.build())
    assert Op.ADD in _ops(k)
    assert Op.STORE in _ops(k)


def test_dce_is_transitive():
    kb = KernelBuilder("k", params=["out"])
    a = kb.tid() * 2
    b = a + 3
    c = b * 5  # dead chain: c unused, so b and a die too
    kb.store(kb.param("out"), 1.0)
    k = eliminate_dead_code(kb.build())
    assert _ops(k) == [Op.STORE]


def test_fma_fusion_basic():
    kb = KernelBuilder("k", params=["out"])
    x = kb.i2f(kb.tid())
    kb.store(kb.param("out"), x * 2.0 + 1.0)
    k = kb.build()
    k2 = fuse_fma(k)
    ops = _ops(k2)
    assert Op.FMA in ops
    assert Op.FMUL not in ops
    assert Op.FADD not in ops


def test_fma_not_fused_when_mul_reused():
    kb = KernelBuilder("k", params=["out"])
    x = kb.i2f(kb.tid())
    prod = x * 2.0
    kb.store(kb.param("out"), prod + 1.0)
    kb.store(kb.param("out") + 1, prod)  # second use of the multiply
    k = fuse_fma(kb.build())
    assert Op.FMA not in _ops(k)
    assert Op.FMUL in _ops(k)


def test_fma_fusion_preserves_semantics():
    kb = KernelBuilder("poly", params=["x", "out", "n"])
    i = kb.tid()
    with kb.if_(i < kb.param("n")):
        v = kb.load(kb.param("x") + i)
        acc = kb.const(0.0)
        for c in (3.0, -1.0, 0.5, 2.0):
            acc = acc * v + c  # Horner: prime fusion territory
        kb.store(kb.param("out") + i, acc)
    k = kb.build()
    k2 = optimize_kernel(k)
    assert _ops(k2).count(Op.FMA) >= 3

    n = 16
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    results = []
    for kernel in (k, k2):
        mem = MemoryImage(256)
        bx = mem.alloc_array("x", x)
        bo = mem.alloc("out", n)
        interpret(kernel, mem, {"x": bx, "out": bo, "n": n}, n)
        results.append(mem.read_region("out"))
    np.testing.assert_array_equal(results[0], results[1])


def test_optimize_reduces_instruction_count():
    kb = KernelBuilder("k", params=["x", "out"])
    v = kb.load(kb.param("x"))
    dead = v * v + 1.0  # dead after DCE
    kb.store(kb.param("out"), v * 2.0 + 0.5)
    k = kb.build()
    k2 = optimize_kernel(k)
    assert k2.instruction_count() < k.instruction_count()


def test_optimize_keeps_cfg_shape():
    from repro.kernels import fig1_kernel

    k = fig1_kernel()
    k2 = optimize_kernel(k)
    assert set(k2.blocks) == set(k.blocks)
    for name in k.blocks:
        assert k2.blocks[name].successors() == k.blocks[name].successors()
