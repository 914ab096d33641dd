"""Batch-kernel semantics tests: ``repro.ir.vecops`` vs. scalar ``EVAL``.

``vecops`` is the numpy batch twin of the scalar opcode table — the
vectorized engines are only allowed to exist because the two agree
bit-for-bit.  This module pins that agreement three ways:

1. the table-driven cases from ``tests/test_instr_semantics.py``
   (including the pinned edge-case table) replayed through
   ``vec_eval`` on whole batches;
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

from repro.ir import EVAL, Instr, Op
from repro.ir.instr import (
    INT64_MAX,
    INT64_MIN,
    coerce_i64,
    coerce_value,
    result_dtype,
)
from repro.ir.types import DType, Imm, Reg
from repro.ir.vecops import (
    DT_CODE,
    SRC_TID,
    MemLog,
    VEVAL,
    addr_batch,
    as_value_array,
    branch_taken,
    coerce_array,
    eval_row,
    f2i_array,
    f64_batch,
    hazard_key,
    prepare_instr,
    run_waves,
    scatter,
    stores_after_loads,
    vec_eval,
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


_COERCE_POOL = [NAN, INF, -INF, -0.0, 0.0, 2.5, -3.9, float(1 << 63), 1e30,
                -1e30, True, False, 0, 7, -7, INT64_MAX, INT64_MIN, 1 << 63,
                (1 << 63) + 5, -(1 << 63) - 1, (1 << 64) + 3]


@pytest.mark.parametrize("dtype", [DType.INT, DType.FLOAT, DType.PRED])
def test_coerce_array_agrees_with_coerce_value(dtype):
    """The batch coercion is the scalar rule element-wise: on typed
    float, int64 and bool batches, on a mixed (object) batch holding
    ints past int64, and on broadcast constants."""
    dt = DT_CODE[dtype]
    kind = {DType.INT: "i", DType.FLOAT: "f", DType.PRED: "b"}[dtype]
    batches = [
        [v for v in _COERCE_POOL if type(v) is t] for t in (float, bool)
    ] + [
        [v for v in _COERCE_POOL
         if type(v) is int and INT64_MIN <= v <= INT64_MAX],
        _COERCE_POOL,
    ]
    for batch in batches:
        n = len(batch)
        got = coerce_array(as_value_array(batch, n), dt, n)
        assert got.dtype.kind == kind
        for v, g in zip(batch, got.tolist()):
            assert _same(g, coerce_value(v, dtype)), (v, g, dtype)
    for v in _COERCE_POOL:
        got = coerce_array(v, dt, 3)
        assert got.dtype.kind == kind
        for g in got.tolist():
            assert _same(g, coerce_value(v, dtype)), (v, g, dtype)


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
    from repro.compiler.optimize import optimize_variants
    from repro.fuzz import generate_case
    from repro.sgmf import SGMFUnmappableError

    case = generate_case(seed)
    unrolled, rolled = optimize_variants(case.kernel, case.params)
    for engine_name in ("vgiw", "sgmf", "fermi"):
        kernel = rolled if engine_name == "sgmf" else unrolled
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


@pytest.mark.parametrize("engine_name", ["vgiw", "sgmf"])
def test_pred_results_match_interpreter_thread_major(engine_name):
    """PRED-typed results and loads hold ``bool(v)`` on the dataflow
    engines' thread-major width-1 path too: an armed injector that never
    fires forces that path."""
    import os

    from repro.engine import create_engine
    from repro.fuzz import load_corpus_case
    from repro.resilience.faults import FaultInjector, FaultSpec

    case = load_corpus_case(os.path.join(
        os.path.dirname(__file__), "corpus", "edge-pred-results.kir"))
    mem = case.build_memory()
    want = _interpreted(case.kernel, mem, case.params, case.n_threads)
    faults = FaultInjector(FaultSpec("token_corrupt", rate=0.0))
    create_engine(engine_name).run(case.kernel, mem, case.params,
                                   case.n_threads, faults=faults)
    assert not faults.log
    assert np.array_equal(mem.data, want, equal_nan=True)


# ----------------------------------------------------------------------
# Hazard ordering: the batch path's load/store alias check
# ----------------------------------------------------------------------
def _keys(threads, seq):
    return hazard_key(np.asarray(threads, np.int64), seq)


def _a(addrs):
    return np.asarray(addrs, np.int64)


def _benign(loads, stores):
    """The hazard rule on one batch, asked both ways: of
    ``stores_after_loads`` directly and of a :class:`MemLog` holding the
    same rows.  ``loads``/``stores`` are ``(threads, position, addrs)``
    rows; the two answers must agree."""
    def flat(rows):
        if not rows:
            return _a([]), _a([])
        return (np.concatenate([_a(a) for _, _, a in rows]),
                np.concatenate([_keys(t, p) for t, p, _ in rows]))

    log = MemLog()
    for threads, pos, addrs in loads:
        log.record(_a(threads), pos, _a(addrs))
    for threads, pos, addrs in stores:
        log.record(_a(threads), pos, _a(addrs), np.zeros(len(addrs)))
    answer = stores_after_loads(*flat(loads), *flat(stores))
    assert log.exact() == answer
    return answer


def test_hazard_disjoint_addresses_are_benign():
    assert _benign([([0, 1], 1, [1, 2])], [([0, 1], 2, [3, 4])])


def test_hazard_empty_sides_are_benign():
    assert _benign([], [([0], 1, [5])])
    assert _benign([([0], 1, [5])], [])
    assert _benign([([], 1, [])], [([0], 1, [5])])
    assert _benign([([0], 1, [5])], [([], 1, [])])


def test_hazard_private_rmw_is_benign():
    # Every thread loads its own word, then stores it: the batch loads
    # against initial memory reproduce the scalar thread-major walk.
    threads = [0, 1, 2, 3]
    addrs = [10, 11, 12, 13]
    assert _benign([(threads, 1, addrs)], [(threads, 2, addrs)])


def test_hazard_store_then_load_same_thread_falls_back():
    # A thread re-reading its own store must see the stored value; the
    # batch would hand it the initial memory instead.
    assert not _benign([([0], 2, [7])], [([0], 1, [7])])


def test_hazard_earlier_thread_store_falls_back():
    # Thread 0 stores an address thread 1 loads: in thread-major order
    # the load observes the store, so the batch must not claim it.
    assert not _benign([([1], 1, [9])], [([0], 2, [9])])


def test_hazard_later_thread_store_is_benign():
    # Thread 0 loads what only thread 1 stores: the scalar load runs
    # before the store and sees initial memory, same as the batch.
    assert _benign([([0], 2, [9])], [([1], 1, [9])])


def test_hazard_one_bad_address_among_many():
    loads = [([0, 0, 0], 5, [1, 2, 3])]
    assert _benign(loads, [([1, 1], 1, [3, 4])])
    assert not _benign(loads, [([0, 0], 1, [3, 4])])


def test_hazard_duplicate_addresses_across_rows_and_threads():
    # Address 5 is loaded and stored by several threads over several
    # rows.  Benign while every store of it comes after every load in
    # (thread, position) order; one late load breaks it.
    loads = [([0, 1], 1, [5, 5]), ([1], 3, [5])]
    stores = [([2, 3], 2, [5, 5]), ([2], 4, [5])]
    assert _benign(loads, stores)
    assert not _benign(loads + [([3], 5, [5])], stores)


def test_hazard_key_orders_thread_major():
    # Keys compare lexicographically by (thread, seq) as one int64.
    assert int(_keys([0], 999)[0]) < int(_keys([1], 1)[0])
    assert int(_keys([2], 3)[0]) < int(_keys([2], 4)[0])


# ----------------------------------------------------------------------
# Commit order: MemLog hands out stores as the thread-major walk does
# ----------------------------------------------------------------------
def _store_log(rows):
    """A :class:`MemLog` of store rows ``(ranks, position, addrs,
    values)``."""
    log = MemLog()
    for ranks, pos, addrs, vals in rows:
        log.record(_a(ranks), pos, _a(addrs), np.asarray(vals, np.float64))
    return log


def _walk(rows, size):
    """The memory image of the thread-major walk: every store applied
    one at a time in (rank, position) order."""
    writes = sorted(
        (r, pos, a, v)
        for ranks, pos, addrs, vals in rows
        for r, a, v in zip(ranks, addrs, vals)
    )
    data = np.zeros(size)
    for _, _, a, v in writes:
        data[a] = v
    return data


#: Store rows in wave order, ranks unsorted within rows: address 5 is
#: written by ranks 2, 0, 0, 1 and address 6 by ranks 1, 2, 1.
_DUP_ROWS = [
    ([2, 0, 1], 1, [5, 5, 6], [20.0, 0.0, 10.0]),
    ([0, 2, 1], 2, [5, 6, 5], [1.0, 21.0, 11.0]),
    ([1], 3, [6], [12.0]),
]


def test_commit_last_writer_is_highest_rank_then_position():
    data = np.zeros(8)
    _store_log(_DUP_ROWS).commit(data)
    # 5: rank 2 at position 1 outranks rank 1 at the later position 2.
    # 6: rank 2 at position 2 outranks rank 1 at the later position 3.
    assert data[5] == 20.0 and data[6] == 21.0
    assert np.array_equal(data, _walk(_DUP_ROWS, 8))


def test_by_thread_bounds_slice_each_threads_stores():
    # Rank 3 stores nothing, rank 4 is past every store.
    addrs, vals, bounds = _store_log(_DUP_ROWS).by_thread(5)
    assert bounds.tolist() == [0, 2, 5, 7, 7, 7]
    for rank in range(5):
        want = [
            (a, v)
            for ranks, pos, row_a, row_v in sorted(_DUP_ROWS,
                                                   key=lambda r: r[1])
            for r, a, v in zip(ranks, row_a, row_v) if r == rank
        ]
        lo, hi = bounds[rank], bounds[rank + 1]
        assert list(zip(addrs[lo:hi].tolist(), vals[lo:hi].tolist())) \
            == want, rank
    assert _store_log([]).by_thread(3) is None


def test_single_store_row_fast_path_matches_lexsort_path():
    # One row in ascending rank order commits without a sort; the same
    # writes in a shuffled row (or split over two rows) take the lexsort
    # path.  All three give the thread-major image.
    fast = [([0, 1, 2, 3], 1, [7, 7, 8, 7], [1.0, 2.0, 3.0, 4.0])]
    shuffled = [([3, 0, 2, 1], 1, [7, 7, 8, 7], [4.0, 1.0, 3.0, 2.0])]
    split = [([0, 1], 1, [7, 7], [1.0, 2.0]),
             ([2, 3], 1, [8, 7], [3.0, 4.0])]
    want = _walk(fast, 10)
    assert want[7] == 4.0 and want[8] == 3.0
    for rows in (fast, shuffled, split):
        data = np.zeros(10)
        _store_log(rows).commit(data)
        assert np.array_equal(data, want), rows
        addrs, vals, bounds = _store_log(rows).by_thread(4)
        assert addrs.tolist() == [7, 7, 8, 7], rows
        assert vals.tolist() == [1.0, 2.0, 3.0, 4.0], rows
        assert bounds.tolist() == [0, 1, 2, 3, 4], rows


def test_scatter_broadcasts_scalars_and_promotes_on_dtype_conflict():
    regs, defined = {}, {}
    scatter(regs, defined, "r", _a([1, 3]), np.array([5, 6]), 4)
    assert regs["r"].tolist() == [0, 5, 0, 6]
    assert defined["r"].tolist() == [False, True, False, True]
    scatter(regs, defined, "r", _a([0]), 2.5, 4)
    assert regs["r"].dtype == object
    assert regs["r"].tolist() == [2.5, 5, 0, 6]
    assert defined["r"].tolist() == [True, True, False, True]


def test_run_waves_frontier_bound_and_decline():
    """``A`` sends even tids to ``B`` and odd ones to ``C``, which jumps
    to ``B``; ``B`` stores each tid at address tid.  The frontier pops
    the last block it learned of, and arrivals join the end of a
    waiting wave, so ``B`` runs once, for the even threads then the
    odd."""
    waves = []

    def step(block, wave):
        waves.append((block, wave.tolist()))
        if block == "A":
            even = wave % 2 == 0
            return [(wave, None)], (("B", wave[even]), ("C", wave[~even]))
        if block == "C":
            return [], (("B", wave),)
        return [(wave, wave.astype(np.float64))], ()

    log = run_waves("A", 4, 3, step)
    assert waves == [("A", [0, 1, 2, 3]), ("C", [1, 3]),
                     ("B", [0, 2, 1, 3])]
    data = np.zeros(4)
    log.commit(data)
    assert data.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert run_waves("A", 4, 2, step) is None  # odd threads visit 3
    # Each thread loading then storing its own word is exact; thread 0
    # storing the word thread 1 loads later in thread-major order is not.
    rows = {"A": [(np.array([0, 1]), None)],
            "D": [(np.array([0, 1]), np.array([1.0, 2.0]))]}

    def two_rows(block, wave):
        return rows.get(block, []), (("D", wave),) if block == "A" else ()

    assert run_waves("A", 2, 2, two_rows) is not None
    rows["A"] = [(np.array([1, 1]), None)]
    rows["D"] = [(np.array([1, 0]), np.array([1.0, 2.0]))]
    assert run_waves("A", 2, 2, two_rows) is None
    # A declining step, and a self-loop past the visit bound.
    assert run_waves("A", 4, 3, lambda block, wave: None) is None
    assert run_waves("A", 4, 3, lambda b, w: ([], (("A", w),))) is None


# ----------------------------------------------------------------------
# The instruction-row evaluator (the interpreter's waves, the Fermi warps)
# ----------------------------------------------------------------------
class _RowHarness:
    """A register file of whole batches behind ``eval_row``'s
    ``fetch``/``write``; ``writes`` records every write."""

    def __init__(self, regs, n):
        self.regs, self.n, self.writes = dict(regs), n, []

    def fetch(self, mode, name):
        if mode == SRC_TID:
            return np.arange(self.n, dtype=np.int64)
        return self.regs.get(name)

    def write(self, dst, vals):
        self.writes.append(dst)
        self.regs[dst] = vals

    def run(self, instr, data, params=None):
        return eval_row(prepare_instr(instr, params or {}), self.fetch,
                        self.write, data, self.n)


def test_eval_row_alu_load_and_store():
    h = _RowHarness({"a": _a([1, 2, 3])}, 3)
    data = np.arange(8.0)
    add = Instr(Op.ADD, "x", (Reg("a"), Reg("arg.k")), DType.INT)
    assert h.run(add, data, {"k": 10}) == ()
    assert h.regs["x"].tolist() == [11, 12, 13]
    addrs, vals = h.run(Instr(Op.LOAD, "v", (Reg("tid"),), DType.INT), data)
    assert (addrs.tolist(), vals) == ([0, 1, 2], None)
    assert h.regs["v"].tolist() == [0, 1, 2]
    store = Instr(Op.STORE, None, (Reg("a"), Imm(7, DType.INT)), DType.INT)
    addrs, vals = h.run(store, data)
    assert addrs.tolist() == [1, 2, 3] and vals.tolist() == [7.0] * 3
    assert data.tolist() == list(np.arange(8.0))  # the caller commits


_UNDEF = Reg("undef")
_DECLINES = {
    "undefined_alu_source": Instr(Op.ADD, "x", (Reg("a"), _UNDEF), DType.INT),
    "undefined_address": Instr(Op.LOAD, "x", (_UNDEF,), DType.FLOAT),
    "undefined_store_value": Instr(Op.STORE, None, (Reg("a"), _UNDEF),
                                   DType.FLOAT),
    "nan_address": Instr(Op.LOAD, "x", (Reg("nan_addr"),), DType.FLOAT),
    "nan_constant_address": Instr(Op.STORE, None,
                                  (Imm(math.nan, DType.FLOAT), Reg("a")),
                                  DType.FLOAT),
    "out_of_range_address": Instr(Op.LOAD, "x", (Reg("far"),), DType.FLOAT),
    "object_address": Instr(Op.STORE, None, (Reg("obj_addr"), Reg("a")),
                            DType.FLOAT),
    "unconvertible_store_value": Instr(Op.STORE, None,
                                       (Reg("a"), Reg("huge")), DType.FLOAT),
}


@pytest.mark.parametrize("instr", list(_DECLINES.values()),
                         ids=list(_DECLINES))
def test_eval_row_declines_before_any_write(instr):
    """A declined row is re-run element by element (Fermi's per-lane
    walk), so ``eval_row`` must not have written a register or memory."""
    h = _RowHarness({
        "a": _a([1, 2, 3]),
        "nan_addr": np.array([0.0, math.nan, 2.0]),
        "far": _a([0, 1, 16]),
        "obj_addr": np.array([0, 1.0, 2], dtype=object),
        "huge": np.array([1, 10 ** 400, 2], dtype=object),
    }, 3)
    data = np.arange(16.0)
    assert h.run(instr, data) is None
    assert h.writes == []
    assert data.tolist() == list(np.arange(16.0))


_CONDITIONS = [
    np.array([True, False, True]),
    _a([0, 1, -1, INT64_MIN, INT64_MAX]),
    np.array([0.0, -0.0, math.nan, math.inf, -1e-300, 2.5]),
    np.array([0, 1.5, False, -0.0, math.nan, True, 7], dtype=object),
    np.array([], dtype=np.int64),
]


@pytest.mark.parametrize("c", _CONDITIONS,
                         ids=["bool", "int", "float", "object", "empty"])
def test_branch_taken_is_elementwise_bool(c):
    got = branch_taken(c, c.shape[0])
    assert got.dtype == bool
    assert got.tolist() == [bool(x) for x in c.tolist()]


@pytest.mark.parametrize("c", [0, 3, -1, 0.0, -0.0, math.nan, 2.5,
                               True, False])
def test_branch_taken_broadcasts_a_constant(c):
    got = branch_taken(c, 4)
    assert got.dtype == bool
    assert got.tolist() == [bool(c)] * 4


@pytest.mark.parametrize("engine_name", ["vgiw", "sgmf"])
def test_rmw_kernel_stays_batch_and_cycle_identical(engine_name):
    """lud_internal is an in-place read-modify-write kernel — the kind
    the hazard check exists for.  Cycles and memory must match the
    sequential walk exactly."""
    _check_workload("lud/lud_internal", engine_name)
