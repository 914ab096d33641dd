"""Tests for loop unrolling and per-launch kernel specialisation."""

import numpy as np

from repro.compiler import natural_loops
from repro.compiler.optimize import (
    fold_constants,
    optimize_kernel,
    propagate_params,
)
from repro.compiler.unroll import MAX_UNROLLED_INSTRS, unroll_loops
from repro.interp import interpret
from repro.ir import KernelBuilder
from repro.memory import MemoryImage


def _sum_kernel(bound_is_param: bool):
    params = ["out", "n"] if bound_is_param else ["out"]
    kb = KernelBuilder("sumk", params=params)
    acc = kb.var("acc", 0)
    stop = kb.param("n") if bound_is_param else kb.const(6)
    with kb.for_range(0, stop) as i:
        kb.assign(acc, acc + i)
    kb.store(kb.param("out") + kb.tid(), kb.i2f(acc))
    return kb.build()


def test_constant_bound_loop_unrolls():
    k = _sum_kernel(bound_is_param=False)
    assert natural_loops(k)
    k2 = unroll_loops(k)
    assert not natural_loops(k2)
    mem = MemoryImage(16)
    out = mem.alloc("out", 2)
    interpret(k2, mem, {"out": out}, 2)
    assert list(mem.read_region("out")) == [15.0, 15.0]


def test_param_bound_needs_specialisation():
    k = _sum_kernel(bound_is_param=True)
    # Without param values the bound is symbolic: no unrolling.
    assert natural_loops(unroll_loops(k))
    # With specialisation the loop disappears.
    k2 = unroll_loops(fold_constants(propagate_params(k, {"n": 5, "out": 0})))
    assert not natural_loops(k2)
    mem = MemoryImage(16)
    out = mem.alloc("out", 1)
    interpret(k2, mem, {"out": out, "n": 5}, 1)
    assert mem.read(out) == 10.0


def test_large_loops_stay_rolled():
    kb = KernelBuilder("big", params=["out"])
    acc = kb.var("acc", 0.0)
    with kb.for_range(0, MAX_UNROLLED_INSTRS) as i:
        # Body large enough that trips * len(body) exceeds the cap.
        v = kb.i2f(i)
        for _ in range(4):
            kb.assign(acc, acc + v * 2.0)
    kb.store(kb.param("out"), acc)
    k = kb.build()
    assert natural_loops(unroll_loops(k))


def test_multi_block_bodies_stay_rolled():
    kb = KernelBuilder("cond", params=["out"])
    acc = kb.var("acc", 0)
    with kb.for_range(0, 4) as i:
        with kb.if_(i == 2):
            kb.assign(acc, acc + 10)
    kb.store(kb.param("out"), kb.i2f(acc))
    k = kb.build()
    assert natural_loops(unroll_loops(k))  # if/else body: not a 2-block loop


def test_negative_step_unrolls():
    kb = KernelBuilder("down", params=["out"])
    acc = kb.var("acc", 0)
    with kb.for_range(5, 0, step=-1) as i:
        kb.assign(acc, acc + i)
    kb.store(kb.param("out"), kb.i2f(acc))
    k2 = unroll_loops(kb.build())
    assert not natural_loops(k2)
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    interpret(k2, mem, {"out": out}, 1)
    assert mem.read(out) == 15.0


def test_specialised_kernel_equivalence_random():
    # Randomised check: the fully optimised kernel computes the same
    # result as the original for a non-trivial loop nest.
    kb = KernelBuilder("nest", params=["data", "out", "m"])
    t = kb.tid()
    acc = kb.var("acc", 0.0)
    with kb.for_range(0, kb.param("m")) as i:
        kb.assign(acc, acc + kb.load(kb.param("data") + t * kb.param("m") + i))
    kb.store(kb.param("out") + t, acc)
    k = kb.build()

    rng = np.random.default_rng(3)
    m, n = 6, 8
    data = rng.normal(size=m * n)
    params = {"data": 0, "out": m * n, "m": m}
    k2 = optimize_kernel(k, params=params)
    results = []
    for kernel in (k, k2):
        mem = MemoryImage(m * n + n + 8)
        mem.write_block(0, data)
        interpret(kernel, mem, params, n)
        results.append(mem.read_block(m * n, n))
    np.testing.assert_array_equal(results[0], results[1])


def test_cse_removes_duplicate_address_math():
    from repro.compiler.optimize import local_cse, copy_propagate, eliminate_dead_code
    from repro.ir import Op

    kb = KernelBuilder("dup", params=["a", "out"])
    t = kb.tid()
    x = kb.load(kb.param("a") + t * 8)
    y = kb.load(kb.param("a") + t * 8 + 1)  # t*8 recomputed
    kb.store(kb.param("out") + t, x + y)
    k = kb.build()
    muls_before = sum(
        1 for b in k.blocks.values() for i in b.instrs if i.op is Op.MUL
    )
    k2 = eliminate_dead_code(copy_propagate(local_cse(k)))
    muls_after = sum(
        1 for b in k2.blocks.values() for i in b.instrs if i.op is Op.MUL
    )
    assert muls_before == 2
    assert muls_after == 1

    mem = MemoryImage(64)
    a = mem.alloc_array("a", np.arange(32.0))
    out = mem.alloc("out", 4)
    interpret(k2, mem, {"a": a, "out": out}, 4)
    expected = [np.arange(32.0)[t * 8] + np.arange(32.0)[t * 8 + 1] for t in range(4)]
    np.testing.assert_array_equal(mem.read_region("out"), expected)


def test_cse_respects_redefinition():
    from repro.compiler.optimize import local_cse
    from repro.ir import Op

    kb = KernelBuilder("redef", params=["out"])
    i = kb.var("i", 1)
    a = i + 1          # uses i = 1
    kb.assign(i, 5)
    b = i + 1          # uses i = 5: must NOT be CSE'd with a
    kb.store(kb.param("out"), kb.i2f(a + b))
    k = local_cse(kb.build())
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    interpret(k, mem, {"out": out}, 1)
    assert mem.read(out) == 8.0  # 2 + 6
