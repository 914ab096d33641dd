"""Batch-kernel semantics tests: ``repro.ir.vecops`` vs. scalar ``EVAL``.

``vecops`` is the numpy batch twin of the scalar opcode table — the
vectorized engines are only allowed to exist because the two agree
bit-for-bit.  This module pins that agreement three ways:

1. the table-driven cases from ``tests/test_instr_semantics.py``
   (including the pinned edge-case table) replayed through
   ``vec_eval`` / ``vec_eval_raw`` on whole batches;
2. randomized operand sweeps per opcode, elementwise-compared against
   mapping ``EVAL`` over the batch (NaN-aware, signed-zero-aware);
3. whole-kernel parity: fuzz-generated kernels and engine launches end
   with the reference interpreter's memory image, in cycles pinned from
   the per-thread sequential walks.
"""

import math
import random

import numpy as np
import pytest

from repro.ir import EVAL, Op
from repro.ir.instr import INT64_MAX, INT64_MIN, coerce_i64, result_dtype
from repro.ir.types import DType
from repro.ir.vecops import (
    VEVAL,
    addr_batch,
    as_value_array,
    coerce_array,
    f2i_array,
    f64_batch,
    hazard_key,
    stores_after_loads,
    vec_eval,
    vec_eval_raw,
)
from tests.test_instr_semantics import CASES, EDGE_CASES

NAN = float("nan")
INF = float("inf")

_DT = {DType.INT: 1, DType.FLOAT: 2, DType.PRED: 0}


def _dt_for(op, args):
    if op is Op.MOV:
        return 1 if isinstance(args[0], (bool, int)) else 2
    if op is Op.SELECT:
        return 1 if isinstance(args[1], (bool, int)) else 2
    return _DT[result_dtype(op)]


def _expect_scalar(op, args, dt):
    v = EVAL[op](*args)
    if dt == 1:
        return coerce_i64(v)
    if dt == 2:
        return float(v)
    return bool(v)


def _same(a, b):
    """Bit-level scalar equality: NaN == NaN, +0.0 != -0.0."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if a == 0.0 and b == 0.0:
            return math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b and type(a) is type(b) or (
        a == b and isinstance(a, (bool, int)) == isinstance(b, (bool, int))
    )


def _batchify(args, n):
    """Each operand becomes an n-long array of its own dtype."""
    out = []
    for a in args:
        out.append(as_value_array([a] * n, n))
    return tuple(out)


@pytest.mark.parametrize("op,args,expected", CASES + EDGE_CASES)
def test_vec_eval_matches_scalar_table(op, args, expected):
    n = 5
    dt = _dt_for(op, args)
    want = _expect_scalar(op, args, dt)
    got = vec_eval(op, _batchify(args, n), dt, n)
    assert isinstance(got, np.ndarray) and got.shape == (n,)
    for v in got.tolist():
        assert _same(v, want), (op, args, v, want)


@pytest.mark.parametrize("op,args,expected", CASES + EDGE_CASES)
def test_vec_eval_raw_matches_uncoerced_eval(op, args, expected):
    n = 3
    want = EVAL[op](*args)
    got = vec_eval_raw(op, _batchify(args, n), n)
    for v in np.asarray(got).tolist():
        if isinstance(want, float) and math.isnan(want):
            assert isinstance(v, float) and math.isnan(v)
        else:
            assert v == want, (op, args, v, want)


def test_mixed_lane_batches_take_scalar_fallback():
    """An object-dtype batch (differently typed lanes) must still give
    the per-element scalar answer — the fast path never changes it."""
    a = np.array([3, 2.5, True, NAN], dtype=object)
    b = np.array([2, 2, 2, 2], dtype=object)
    got = vec_eval(Op.ADD, (a, b), 1, 4)
    want = [coerce_i64(EVAL[Op.ADD](x, y)) for x, y in zip(a, b)]
    assert got.tolist() == want


def test_select_preserves_int64_precision():
    """SELECT must not round int64 arms through float64."""
    big = (1 << 62) + 1
    p = np.array([True, False])
    a = np.array([big, big], dtype=np.int64)
    b = np.array([7, 7], dtype=np.int64)
    got = vec_eval(Op.SELECT, (p, a, b), 1, 2)
    assert got.tolist() == [big, 7]


def test_shift_amounts_masked_on_batches():
    a = np.array([123, -9, 1, 3], dtype=np.int64)
    s = np.array([70, 64, 63, 63], dtype=np.int64)
    assert vec_eval(Op.SHL, (a, s), 1, 4).tolist() == [
        EVAL[Op.SHL](x, y) for x, y in zip(a.tolist(), s.tolist())
    ]
    assert vec_eval(Op.SHR, (a, s), 1, 4).tolist() == [
        EVAL[Op.SHR](x, y) for x, y in zip(a.tolist(), s.tolist())
    ]


def test_division_poles_on_batches():
    a = np.array([7, -7, 0, INT64_MIN], dtype=np.int64)
    b = np.array([0, 0, 0, -1], dtype=np.int64)
    assert vec_eval(Op.DIV, (a, b), 1, 4).tolist() == [0, 0, 0, INT64_MIN]
    assert vec_eval(Op.REM, (a, b), 1, 4).tolist() == [0, 0, 0, 0]


def test_f2i_array_saturation_rule():
    a = np.array([NAN, INF, -INF, 1e30, -1e30, 3.9, -3.9, 0.0])
    assert f2i_array(a).tolist() == [
        0, INT64_MAX, INT64_MIN, INT64_MAX, INT64_MIN, 3, -3, 0
    ]


def test_nan_propagation_through_float_ops():
    a = np.array([NAN, 1.0, NAN])
    b = np.array([1.0, NAN, NAN])
    for op in (Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV, Op.FMIN, Op.FMAX):
        got = vec_eval(op, (a, b), 2, 3)
        want = [EVAL[op](x, y) for x, y in zip(a.tolist(), b.tolist())]
        for g, w in zip(got.tolist(), want):
            assert _same(g, w), (op, g, w)


def test_addr_batch_validates_and_falls_back():
    assert addr_batch(np.arange(4), 4, 16).tolist() == [0, 1, 2, 3]
    assert addr_batch(np.array([0.0, 3.0]), 2, 16).tolist() == [0, 3]
    assert addr_batch(np.array([0, 16]), 2, 16) is None       # OOB
    assert addr_batch(np.array([-1, 0]), 2, 16) is None       # negative
    assert addr_batch(np.array([NAN, 0.0]), 2, 16) is None    # non-finite
    assert addr_batch(np.array([1, "x"], dtype=object), 2, 16) is None


def test_f64_batch_matches_float_builtin():
    assert f64_batch(np.array([1, 2], dtype=np.int64), 2).tolist() == [1.0, 2.0]
    assert f64_batch(True, 3).tolist() == [1.0, 1.0, 1.0]
    assert f64_batch(np.array(["x"], dtype=object), 1) is None


def test_coerce_array_matches_scalar_coercions():
    f = np.array([3.9, -3.9, NAN, 1e30])
    assert coerce_array(f, 1, 4).tolist() == [coerce_i64(v) for v in f.tolist()]
    i = np.array([0, 2, -1], dtype=np.int64)
    assert coerce_array(i, 0, 3).tolist() == [bool(v) for v in i.tolist()]
    assert coerce_array(i, 2, 3).dtype == np.float64


# ----------------------------------------------------------------------
# Randomized per-opcode parity sweeps
# ----------------------------------------------------------------------
_INT_POOL = [0, 1, -1, 2, 7, -7, 63, 64, 70, 1 << 40, -(1 << 40),
             INT64_MAX, INT64_MIN, INT64_MAX - 1, INT64_MIN + 1]
_FLT_POOL = [0.0, -0.0, 1.0, -1.5, 2.5, 1e-300, 1e300, -1e300,
             NAN, INF, -INF, 0.5, 3.9, -3.9, 1e30, 800.0, -800.0]
_PRED_POOL = [True, False]


def _pool_for(op, slot):
    int_ops = {Op.ADD, Op.SUB, Op.MUL, Op.MIN, Op.MAX, Op.AND, Op.OR,
               Op.XOR, Op.SHL, Op.SHR, Op.NEG, Op.ABS, Op.DIV, Op.REM,
               Op.NOT, Op.I2F}
    if op in int_ops:
        return _INT_POOL
    if op is Op.SELECT and slot == 0:
        return _PRED_POOL
    if op in (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE):
        return _INT_POOL + _FLT_POOL
    return _FLT_POOL


_ARITY = {Op.FMA: 3, Op.SELECT: 3}
_UNARY = {Op.NEG, Op.ABS, Op.NOT, Op.FNEG, Op.FABS, Op.I2F, Op.F2I,
          Op.FSQRT, Op.FRSQRT, Op.FEXP, Op.FLOG, Op.FSIN, Op.FCOS,
          Op.FFLOOR, Op.MOV}


@pytest.mark.parametrize("op", sorted(VEVAL, key=lambda o: o.value))
def test_random_batches_match_scalar_eval(op):
    rng = random.Random(hash(op.value) & 0xFFFF)
    n = 64
    arity = _ARITY.get(op, 1 if op in _UNARY else 2)
    cols = [[rng.choice(_pool_for(op, s)) for _ in range(n)]
            for s in range(arity)]
    args = tuple(as_value_array(c, n) for c in cols)
    dt = _DT[result_dtype(op, DType.FLOAT if op is Op.MOV else None)] \
        if op not in (Op.MOV, Op.SELECT) else 2
    got = vec_eval(op, args, dt, n).tolist()
    for i in range(n):
        want = _expect_scalar(op, tuple(c[i] for c in cols), dt)
        assert _same(got[i], want), (op, [c[i] for c in cols], got[i], want)


# ----------------------------------------------------------------------
# Whole-kernel parity: engines vs. the interpreter, cycles pinned
# ----------------------------------------------------------------------
# Cycles recorded from the per-thread sequential walks (``None``: the
# kernel does not fit the SGMF fabric); the final memory must equal the
# reference interpreter's.
FUZZ_CYCLES = {
    (2, "vgiw"): 1556.0, (2, "sgmf"): None, (2, "fermi"): 1004.0,
    (11, "vgiw"): 207.0, (11, "sgmf"): 68.0, (11, "fermi"): 326.0,
    (29, "vgiw"): 68.0, (29, "sgmf"): 30.0, (29, "fermi"): 115.0,
}

WORKLOAD_CYCLES = {
    ("nn/euclid", "vgiw"): 669.0,
    ("nn/euclid", "sgmf"): 432.0,
    ("nn/euclid", "fermi"): 504.0,
    ("lud/lud_internal", "vgiw"): 4954.0,
    ("lud/lud_internal", "sgmf"): 2607.0,
}


def _launch(engine_name, kernel, memory, params, n_threads):
    from repro.engine import create_engine

    res = create_engine(engine_name).run(kernel, memory, params, n_threads)
    return res.cycles


def _interpreted(kernel, memory, params, n_threads):
    from repro.interp import interpret

    golden = memory.clone()
    interpret(kernel, golden, params, n_threads)
    return golden.data


@pytest.mark.parametrize("seed", [2, 11, 29])
def test_fuzz_kernels_identical_scalar_vs_vector(seed):
    """Fuzz-generated kernels: every engine ends with the interpreter's
    memory image, in the cycles of the sequential walk."""
    from repro.compiler.optimize import optimize_kernel
    from repro.fuzz import generate_case
    from repro.sgmf import SGMFUnmappableError

    case = generate_case(seed)
    for engine_name in ("vgiw", "sgmf", "fermi"):
        kernel = optimize_kernel(case.kernel, params=case.params,
                                 unroll=engine_name != "sgmf")
        mem = case.build_memory()
        want = _interpreted(case.kernel, mem, case.params, case.n_threads)
        if FUZZ_CYCLES[seed, engine_name] is None:
            with pytest.raises(SGMFUnmappableError):
                _launch(engine_name, kernel, mem, case.params,
                        case.n_threads)
            continue
        cycles = _launch(engine_name, kernel, mem, case.params,
                         case.n_threads)
        assert np.array_equal(mem.data, want, equal_nan=True), engine_name
        assert cycles == FUZZ_CYCLES[seed, engine_name]


def _check_workload(workload, engine_name):
    from repro.kernels.registry import make_workload

    wl = make_workload(workload, scale="tiny")
    mem = wl.memory.clone()
    want = _interpreted(wl.kernel, mem, wl.params, wl.n_threads)
    cycles = _launch(engine_name, wl.kernel, mem, wl.params, wl.n_threads)
    assert np.array_equal(mem.data, want, equal_nan=True)
    assert cycles == WORKLOAD_CYCLES[workload, engine_name]


@pytest.mark.parametrize("engine_name", ["vgiw", "sgmf", "fermi"])
def test_engine_batch_path_cycle_identical(engine_name):
    """One real workload per engine: the interpreter's memory, in the
    cycles of the sequential walk."""
    _check_workload("nn/euclid", engine_name)


# ----------------------------------------------------------------------
# Hazard ordering: the batch path's load/store alias check
# ----------------------------------------------------------------------
def _keys(threads, seq):
    return hazard_key(np.asarray(threads, np.int64), seq)


def _a(addrs):
    return np.asarray(addrs, np.int64)


def test_hazard_disjoint_addresses_are_benign():
    assert stores_after_loads(_a([1, 2]), _keys([0, 1], 1),
                              _a([3, 4]), _keys([0, 1], 2))


def test_hazard_empty_sides_are_benign():
    e = np.empty(0, np.int64)
    assert stores_after_loads(e, e, _a([5]), _keys([0], 1))
    assert stores_after_loads(_a([5]), _keys([0], 1), e, e)


def test_hazard_private_rmw_is_benign():
    # Every thread loads its own word, then stores it: the batch loads
    # against initial memory reproduce the scalar thread-major walk.
    threads = [0, 1, 2, 3]
    addrs = [10, 11, 12, 13]
    assert stores_after_loads(_a(addrs), _keys(threads, 1),
                              _a(addrs), _keys(threads, 2))


def test_hazard_store_then_load_same_thread_falls_back():
    # A thread re-reading its own store must see the stored value; the
    # batch would hand it the initial memory instead.
    assert not stores_after_loads(_a([7]), _keys([0], 2),
                                  _a([7]), _keys([0], 1))


def test_hazard_earlier_thread_store_falls_back():
    # Thread 0 stores an address thread 1 loads: in thread-major order
    # the load observes the store, so the batch must not claim it.
    assert not stores_after_loads(_a([9]), _keys([1], 1),
                                  _a([9]), _keys([0], 2))


def test_hazard_later_thread_store_is_benign():
    # Thread 0 loads what only thread 1 stores: the scalar load runs
    # before the store and sees initial memory, same as the batch.
    assert stores_after_loads(_a([9]), _keys([0], 2),
                              _a([9]), _keys([1], 1))


def test_hazard_one_bad_address_among_many():
    loads = _a([1, 2, 3])
    lkeys = _keys([0, 0, 0], 5)
    stores = _a([3, 4])
    assert stores_after_loads(loads, lkeys, stores, _keys([1, 1], 1))
    assert not stores_after_loads(loads, lkeys, stores, _keys([0, 0], 1))


def test_hazard_key_orders_thread_major():
    # Keys compare lexicographically by (thread, seq) as one int64.
    assert int(_keys([0], 999)[0]) < int(_keys([1], 1)[0])
    assert int(_keys([2], 3)[0]) < int(_keys([2], 4)[0])


@pytest.mark.parametrize("engine_name", ["vgiw", "sgmf"])
def test_rmw_kernel_stays_batch_and_cycle_identical(engine_name):
    """lud_internal is an in-place read-modify-write kernel — the kind
    the hazard check exists for.  Cycles and memory must match the
    sequential walk exactly."""
    _check_workload("lud/lud_internal", engine_name)
