"""Property-based tests: random kernels through the optimiser and the
machines.

The generator builds random (but well-formed) kernels from a template —
straight-line arithmetic, an optional guard, an optional constant-trip
loop — and checks that every optimisation level preserves the
interpreter's results exactly, and that the VGIW core agrees with the
interpreter on the optimised kernel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.optimize import optimize_kernel
from repro.interp import interpret
from repro.ir import KernelBuilder
from repro.memory import MemoryImage
from repro.vgiw import VGIWCore

#: binary operators applied through the Val overloads
_BINOPS = ["add", "sub", "mul", "min", "max"]


@st.composite
def random_kernel_spec(draw):
    n_ops = draw(st.integers(3, 12))
    ops = [
        (
            draw(st.sampled_from(_BINOPS)),
            draw(st.integers(0, 3)),          # which live value to use
            draw(st.floats(-4, 4, allow_nan=False).map(lambda x: round(x, 3))),
        )
        for _ in range(n_ops)
    ]
    guarded = draw(st.booleans())
    loop_trips = draw(st.sampled_from([0, 0, 3, 5]))
    return ops, guarded, loop_trips


def _build(spec):
    ops, guarded, loop_trips = spec
    kb = KernelBuilder("rand", params=["data", "out", "n"])
    t = kb.tid()

    def body():
        vals = [
            kb.load(kb.param("data") + t * 4 + i) for i in range(4)
        ]
        acc = kb.var("acc", 0.0)
        for opname, idx, const in ops:
            v = vals[idx]
            if opname == "add":
                kb.assign(acc, acc + v + const)
            elif opname == "sub":
                kb.assign(acc, acc - v * const)
            elif opname == "mul":
                kb.assign(acc, acc * (v + 1.5) + const)
            elif opname == "min":
                kb.assign(acc, kb.min_(acc, v * const))
            else:
                kb.assign(acc, kb.max_(acc, v - const))
        if loop_trips:
            with kb.for_range(0, loop_trips) as i:
                kb.assign(acc, acc + kb.i2f(i) * 0.25)
        kb.store(kb.param("out") + t, acc)

    if guarded:
        with kb.if_(t < kb.param("n")):
            body()
    else:
        body()
    return kb.build()


def _run(kernel, params, data, n_threads, machine=None):
    mem = MemoryImage(4 * n_threads + n_threads + 64)
    mem.write_block(0, data)
    if machine is None:
        interpret(kernel, mem, params, n_threads)
    else:
        machine.run(kernel, mem, params, n_threads)
    return mem.data.copy()


@given(random_kernel_spec())
@settings(max_examples=30, deadline=None)
def test_optimizer_preserves_semantics(spec):
    kernel = _build(spec)
    n = 4
    rng = np.random.default_rng(7)
    data = rng.uniform(-2, 2, 4 * n).round(3)
    params = {"data": 0, "out": 4 * n, "n": n}

    base = _run(kernel, params, data, n)
    plain = _run(optimize_kernel(kernel), params, data, n)
    specialised = _run(optimize_kernel(kernel, params=params), params, data, n)
    np.testing.assert_array_equal(base, plain)
    np.testing.assert_array_equal(base, specialised)


@given(random_kernel_spec())
@settings(max_examples=10, deadline=None)
def test_vgiw_agrees_with_interpreter_on_random_kernels(spec):
    kernel = optimize_kernel(_build(spec))
    n = 4
    rng = np.random.default_rng(11)
    data = rng.uniform(-2, 2, 4 * n).round(3)
    params = {"data": 0, "out": 4 * n, "n": n}
    golden = _run(kernel, params, data, n)
    vgiw = _run(kernel, params, data, n, machine=VGIWCore())
    np.testing.assert_array_equal(golden, vgiw)
