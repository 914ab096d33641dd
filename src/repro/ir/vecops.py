"""Vectorized (numpy) batch kernels for the virtual-ISA opcode semantics.

This module is the batch-execution twin of :data:`repro.ir.instr.EVAL`:
for every non-memory opcode it provides a masked numpy array kernel that
evaluates the instruction for a whole *batch* of lanes / tokens /
threads at once, with results **bit-identical** to mapping the scalar
``EVAL`` function over the batch.  The three timing simulators evaluate
through these kernels only; the reference interpreter uses them for its
thread waves and keeps the scalar ``EVAL`` walk (``run_thread``) as the
oracle the differential fuzzer and the tests compare against (see
``docs/fuzzing.md``).  One instruction row (:func:`prepare_instr`)
evaluates through :func:`eval_row` in both the interpreter's waves and
the Fermi warps, and :func:`branch_taken` is every batched engine's
branch rule.

The semantics being vectorized are the *pinned edge-case semantics*
table in ``src/repro/ir/instr.py``, rendered as the normative reference
in ``docs/semantics.md``: a wrapping signed-64-bit integer datapath,
div/rem-by-zero -> 0, shift amounts masked to [0, 63], the F2I rule
(truncate toward zero, NaN -> 0, saturate to INT64_MIN/MAX) for every
float-to-int conversion, and NaN-aware float special functions.

Parity notes (each is covered by ``tests/test_vecops.py``):

* Integer ops run on ``int64`` arrays; numpy's wraparound is exactly
  the pinned two's-complement wrap.  ``INT64_MIN // -1`` wraps to
  ``INT64_MIN`` on both paths.
* ``FEXP``/``FLOG`` evaluate element-wise through :mod:`math` — on this
  class of hosts ``np.exp``/``np.log`` differ from the C library in the
  last ulp for some inputs, and bit-identity beats throughput here.
* Mixed int/float comparisons are evaluated in ``np.longdouble`` when
  the platform's long double carries a 64-bit mantissa (x86-64), which
  makes them exact like Python's arbitrary-precision comparisons; other
  platforms fall back to the element-wise scalar path.
* ``object``-dtype operands (a register whose lanes hold differently
  typed values) fall back to the scalar ``EVAL`` element-wise, so the
  fast path never changes a result.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.ir.instr import (
    EVAL,
    INT64_MAX,
    INT64_MIN,
    Instr,
    Op,
    _TWO63_F,
    _fexp,
    _flog,
    coerce_i64,
    coerce_value,
)
from repro.ir.types import PARAM_PREFIX, TID_REG, DType, Imm, is_param_reg

__all__ = [
    "DT_CODE",
    "MemLog",
    "VEVAL",
    "addr_batch",
    "as_value_array",
    "branch_taken",
    "coerce_array",
    "eval_row",
    "f2i_array",
    "f64_batch",
    "hazard_key",
    "prepare_instr",
    "prepare_operand",
    "run_waves",
    "scatter",
    "stores_after_loads",
    "to_int_operand",
    "vec_eval",
]

#: True when the platform's ``np.longdouble`` mantissa is wide enough
#: (>= 63 bits) to represent every int64 exactly — the precondition for
#: the exact mixed int/float comparison path.
_LONGDOUBLE_EXACT = np.finfo(np.longdouble).nmant >= 63

_I64 = np.int64
_F64 = np.float64


# ----------------------------------------------------------------------
# Conversions (the pinned datapath rules, batched)
# ----------------------------------------------------------------------
def f2i_array(a: np.ndarray) -> np.ndarray:
    """The pinned F2I rule over a float64 array: truncate toward zero,
    NaN -> 0, out-of-range saturates to INT64_MIN/MAX."""
    with np.errstate(invalid="ignore"):
        t = np.trunc(a)
        out = np.empty(a.shape, _I64)
        nan = np.isnan(a)
        hi = t >= _TWO63_F
        lo = t <= -_TWO63_F
        safe = ~(nan | hi | lo)
        out[safe] = t[safe].astype(_I64)
        out[hi] = INT64_MAX
        out[lo] = INT64_MIN
        out[nan] = 0
    return out


def to_int_operand(a):
    """Integer-op operand conversion (:func:`repro.ir.instr._asi`,
    batched): int64 passes through, bool widens, float64 converts by
    the F2I rule.  ``object`` arrays return ``None`` (caller falls back
    to the scalar path)."""
    if isinstance(a, np.ndarray):
        k = a.dtype.kind
        if k == "i":
            return a
        if k == "b":
            return a.astype(_I64)
        if k == "f":
            return f2i_array(a)
        return None  # object dtype: scalar fallback
    # Python scalar constant (pre-wrapped by the plan builders).
    return coerce_i64(a)


def _as_float(a):
    if isinstance(a, np.ndarray):
        if a.dtype.kind == "f":
            return a
        if a.dtype.kind in "ib":
            return a.astype(_F64)
        return None
    return float(a)


def _as_bool(a):
    if isinstance(a, np.ndarray):
        if a.dtype.kind == "b":
            return a
        if a.dtype.kind in "if":
            # bool(x) per element; NaN != 0 is True, matching bool(nan).
            return a != 0
        return None
    return bool(a)


def as_value_array(values, n: int) -> np.ndarray:
    """Materialise a batch of Python values as the narrowest array that
    holds them exactly: int64 / float64 / bool when uniformly typed and
    in range, ``object`` otherwise (the scalar-fallback marker)."""
    first = values[0] if n else 0
    t = type(first)
    if t is bool:
        if all(type(v) is bool for v in values):
            return np.array(values, dtype=bool)
    elif t is int:
        if all(type(v) is int for v in values):
            # Datapath values are wrapped, but be safe against callers
            # handing raw Python ints.
            if all(INT64_MIN <= v <= INT64_MAX for v in values):
                return np.array(values, dtype=_I64)
    elif t is float:
        if all(type(v) is float for v in values):
            return np.array(values, dtype=_F64)
    return np.array(values, dtype=object)


#: Register type and array dtype of each result-coercion code.
_ROW_DTYPE = (DType.PRED, DType.INT, DType.FLOAT)
_ROW_NP = (np.bool_, _I64, _F64)
#: The result-coercion code of a prepared row for each register type:
#: code ``c`` coerces like ``coerce_value(v, _ROW_DTYPE[c])``.
DT_CODE: Dict[DType, int] = {dt: c for c, dt in enumerate(_ROW_DTYPE)}


def coerce_array(a, dt: int, n: int) -> np.ndarray:
    """Result coercion over a batch: ``dt`` is a :data:`DT_CODE` (1 =
    int: wrap ints, F2I floats; 2 = float; 0 = bool) — the batch twin of
    :func:`repro.ir.instr.coerce_value`, which it applies element-wise
    to a constant (broadcast to ``n``) or an ``object`` batch."""
    if not isinstance(a, np.ndarray):
        return np.full(n, coerce_value(a, _ROW_DTYPE[dt]), _ROW_NP[dt])
    k = a.dtype.kind
    if k == "O":
        dtype = _ROW_DTYPE[dt]
        return np.array([coerce_value(v, dtype) for v in a.tolist()],
                        _ROW_NP[dt])
    if dt == 1:
        return a if k == "i" else f2i_array(a) if k == "f" else a.astype(_I64)
    if dt == 2:
        return a if k == "f" else a.astype(_F64)
    return a if k == "b" else a != 0


def addr_batch(a, n: int, size: int) -> Optional[np.ndarray]:
    """Normalize an operand batch into validated int64 word addresses
    for a ``size``-word memory.  Returns ``None`` whenever the batch
    cannot be proven safe (non-finite floats, values outside int64,
    out-of-bounds, mixed types) — callers fall back to a per-thread
    (or per-lane) evaluation, whose ``int()`` + bounds check raises the
    exact errors in the exact order."""
    if isinstance(a, np.ndarray):
        k = a.dtype.kind
        if k == "b":
            a = a.astype(np.int64)
        elif k == "f":
            if not np.isfinite(a).all():
                return None
            t = np.trunc(a)
            if (np.abs(t) >= _TWO63_F).any():
                return None
            a = t.astype(np.int64)
        elif k == "O":
            return None
    else:
        try:
            a = np.full(n, int(a), np.int64)
        except (ValueError, TypeError, OverflowError):
            return None
    if a.min() < 0 or a.max() >= size:
        return None
    return a


def f64_batch(v, n: int) -> Optional[np.ndarray]:
    """Coerce a value batch to float64 (the memory cell type), exactly
    like per-element ``float()``; ``None`` requests scalar fallback."""
    if isinstance(v, np.ndarray):
        k = v.dtype.kind
        if k == "f":
            return v
        if k in "ib":
            return v.astype(np.float64)
        try:
            return np.array([float(x) for x in v.tolist()], np.float64)
        except (ValueError, TypeError, OverflowError):
            return None
    try:
        return np.full(n, float(v), np.float64)
    except (ValueError, TypeError, OverflowError):
        return None


#: Sequence numbers are packed into the low bits of the hazard keys —
#: ``key = thread << _SEQ_BITS | seq`` — so one int64 compare *is* the
#: lexicographic ``(thread, program position)`` compare.
_SEQ_BITS = 31


def hazard_key(threads: np.ndarray, seq: int) -> np.ndarray:
    """Pack per-element thread indices and one program-order sequence
    number into the int64 keys :func:`stores_after_loads` compares."""
    return (threads << _SEQ_BITS) | seq


def stores_after_loads(
    load_a: np.ndarray,
    load_k: np.ndarray,
    store_a: np.ndarray,
    store_k: np.ndarray,
) -> bool:
    """Decide whether a batch's load/store address overlap is benign.

    The batched engines evaluate every thread's loads against the
    *initial* memory image and buffer every store.  That reproduces the
    sequential thread-major walk exactly iff, for every address that is
    both loaded and stored within the batch, **every load of it precedes
    every store of it** in thread-major order — then the sequential
    walk's loads would have observed the initial image too, and last-wins
    commit reproduces the final image.  The classic private
    read-modify-write (``w[i] = w[i] + d``: load before store, same
    thread) passes; a flat address-set disjointness test would not.

    ``load_a``/``store_a`` are word addresses; ``load_k``/``store_k``
    are the matching :func:`hazard_key` values.  Returns ``True`` when
    the batch result is exactly the sequential result."""
    if not load_a.size or not store_a.size:
        return True
    hot = np.isin(store_a, load_a)
    if not hot.any():
        return True
    sa, sk = store_a[hot], store_k[hot]
    lm = np.isin(load_a, sa)
    la, lk = load_a[lm], load_k[lm]
    # Per-address extremes: the latest load key must still precede the
    # earliest store key.  Both unique-address lists are identical (the
    # overlap set), so the reduceat results align positionally.
    lo = np.argsort(la, kind="stable")
    la_s, lk_s = la[lo], lk[lo]
    l_starts = np.flatnonzero(np.r_[True, la_s[1:] != la_s[:-1]])
    l_max = np.maximum.reduceat(lk_s, l_starts)
    so = np.argsort(sa, kind="stable")
    sa_s, sk_s = sa[so], sk[so]
    s_starts = np.flatnonzero(np.r_[True, sa_s[1:] != sa_s[:-1]])
    s_min = np.minimum.reduceat(sk_s, s_starts)
    return bool((l_max < s_min).all())


class MemLog:
    """The loads and stores of one batched pass, under the one
    memory-order rule of every batched pass.

    Loads read memory as it stood before the batch; stores are only
    logged.  Each row carries every element's *rank* in the thread-major
    walk the batch must reproduce (the tid of a whole-kernel wave, the
    slot of a VGIW block vector) and its program position.  Stores come
    out in that walk's order: rank, then position.
    """

    __slots__ = ("_loads", "_stores")

    def __init__(self) -> None:
        self._loads: list = []   # (ranks, addrs, position)
        self._stores: list = []  # (ranks, addrs, float64 values, position)

    def record(self, ranks: np.ndarray, pos: int, addrs: np.ndarray,
               vals: Optional[np.ndarray] = None) -> None:
        """Log one memory row: a load when ``vals`` is ``None``, else a
        store of ``vals``, element by element with ``ranks``."""
        if vals is None:
            self._loads.append((ranks, addrs, pos))
        else:
            self._stores.append((ranks, addrs, vals, pos))

    def exact(self) -> bool:
        """True when the batch equals the thread-major walk
        (:func:`stores_after_loads`)."""
        loads, stores = self._loads, self._stores
        if not loads or not stores:
            return True
        return stores_after_loads(
            np.concatenate([a for _, a, _ in loads]),
            np.concatenate([hazard_key(r, p) for r, _, p in loads]),
            np.concatenate([a for _, a, _, _ in stores]),
            np.concatenate([hazard_key(r, p) for r, _, _, p in stores]),
        )

    def _ordered(self):
        """``(ranks, addrs, vals)`` of every store in commit order."""
        stores = self._stores
        if len(stores) == 1:
            ranks, addrs, vals, _ = stores[0]
            # A VGIW vector's slots ascend; a wave's tids need not.
            if (ranks[1:] > ranks[:-1]).all():
                return ranks, addrs, vals
        ranks = np.concatenate([r for r, _, _, _ in stores])
        pos = np.concatenate([np.full(r.shape[0], p, np.int64)
                              for r, _, _, p in stores])
        order = np.lexsort((pos, ranks))
        return (ranks[order],
                np.concatenate([a for _, a, _, _ in stores])[order],
                np.concatenate([v for _, _, v, _ in stores])[order])

    def commit(self, data: np.ndarray) -> None:
        """Write every store into ``data`` in commit order (fancy
        assignment keeps the last of repeated indices)."""
        if self._stores:
            _, addrs, vals = self._ordered()
            data[addrs] = vals

    def by_thread(self, n_ranks: int):
        """``(addrs, vals, bounds)`` in commit order, ``bounds[r]:bounds[r
        + 1]`` slicing rank ``r``'s stores; ``None`` if nothing stored."""
        if not self._stores:
            return None
        ranks, addrs, vals = self._ordered()
        return addrs, vals, np.searchsorted(ranks, np.arange(n_ranks + 1))


def run_waves(entry: str, n_threads: int, visit_limit: int,
              step) -> Optional[MemLog]:
    """Run ``n_threads`` threads from block ``entry`` in waves: the
    threads waiting at one block run together.

    ``step(block, wave)`` evaluates ``block`` for the tids ``wave`` and
    returns ``(mem_rows, successors)`` — ``(addrs, float64 vals or None
    for a load)`` per memory row in program order, and ``(target,
    tids)`` pairs (arrivals join the end of a waiting wave) — or
    ``None`` to decline.  Memory rows go to one :class:`MemLog` ranked
    by tid and positioned by their count across waves.  Returns the log
    for the caller to commit, or ``None``: a declined step, a thread
    past ``visit_limit`` block visits, or an inexact log.
    """
    visits = np.zeros(n_threads, np.int64)
    log = MemLog()
    pos = 0
    frontier = {entry: np.arange(n_threads, dtype=np.int64)}
    while frontier:
        block, wave = frontier.popitem()
        visits[wave] += 1
        if int(visits[wave].max()) > visit_limit:
            return None
        out = step(block, wave)
        if out is None:
            return None
        mem_rows, successors = out
        for addrs, vals in mem_rows:
            pos += 1
            log.record(wave, pos, addrs, vals)
        for target, tids in successors:
            if tids.shape[0]:
                prev = frontier.get(target)
                frontier[target] = (tids if prev is None
                                    else np.concatenate((prev, tids)))
    return log if log.exact() else None


def scatter(regs: Dict[str, np.ndarray], defined: Dict[str, np.ndarray],
            dst: str, wave: np.ndarray, vals, n_threads: int) -> None:
    """Write a batch result (a scalar broadcasts) at the threads
    ``wave`` of ``regs[dst]``, a per-thread array marked in
    ``defined[dst]``; a dtype conflict promotes it to ``object``."""
    if not isinstance(vals, np.ndarray):
        n = wave.shape[0]
        vals = as_value_array([vals] * n, n)
    arr = regs.get(dst)
    if arr is None:
        arr = np.zeros(n_threads, vals.dtype)
        regs[dst] = arr
        defined[dst] = np.zeros(n_threads, bool)
    elif arr.dtype != vals.dtype:
        if arr.dtype.kind != "O":
            obj = np.empty(n_threads, object)
            obj[:] = arr.tolist()
            arr = regs[dst] = obj
        vals = np.array(vals.tolist(), dtype=object)
    arr[wave] = vals
    defined[dst][wave] = True


# ----------------------------------------------------------------------
# Instruction rows: the interpreter's waves and the Fermi warps
# ----------------------------------------------------------------------
#: Source modes of a prepared operand (:func:`prepare_operand`).
SRC_CONST = 0   # payload is the value (an immediate or launch parameter)
SRC_REG = 1     # payload is the register name
SRC_TID = 2     # payload unused; the value is the thread id


def prepare_operand(operand, params: Dict[str, object]) -> Tuple[int, object]:
    """One source operand as a ``(mode, payload)`` pair: an immediate or
    a launch parameter (looked up in ``params``, which launch-wide
    uniformity lets fold) is ``(SRC_CONST, value)``, the thread id
    ``(SRC_TID, 0)`` and any other register ``(SRC_REG, name)``."""
    if isinstance(operand, Imm):
        return (SRC_CONST, operand.value)
    if operand == TID_REG:
        return (SRC_TID, 0)
    if is_param_reg(operand):
        return (SRC_CONST, params[operand.name[len(PARAM_PREFIX):]])
    return (SRC_REG, operand.name)


def prepare_instr(instr: Instr, params: Dict[str, object]) -> tuple:
    """Precompile ``instr`` into the flat row :func:`eval_row` and the
    engines' scalar walks execute, built once per static instruction
    per launch.  Row layouts::

        (0, asrc, dst, dt)            LOAD
        (1, asrc, vsrc)               STORE
        (2, fn, srcs, dst, dt, op)    everything else

    where each source is a :func:`prepare_operand` pair, ``dt`` is the
    result's :data:`DT_CODE` (the :func:`coerce_array` code), ``fn`` is
    the scalar ``EVAL`` function and ``op`` the opcode :func:`vec_eval`
    dispatches on.
    """
    dt = DT_CODE[instr.dtype]
    srcs = tuple(prepare_operand(s, params) for s in instr.srcs)
    if instr.op is Op.LOAD:
        return (0, srcs[0], instr.dst, dt)
    if instr.op is Op.STORE:
        return (1, srcs[0], srcs[1])
    return (2, EVAL[instr.op], srcs, instr.dst, dt, instr.op)


def eval_row(row: tuple, fetch, write, data: np.ndarray, n: int):
    """Evaluate one :func:`prepare_instr` row over a batch of ``n``
    threads (or lanes).

    ``fetch(mode, payload)`` returns the batch of a register
    (``SRC_REG``, ``None`` if some element has never been written) or
    of the thread ids (``SRC_TID``); ``write(dst, values)`` takes a
    result batch.  Both are the caller's, over its own register file.
    Loads read the memory words ``data`` as they stand; stores are
    returned, not written.

    Returns ``()`` for an ALU row, ``(addrs, None)`` for a load and
    ``(addrs, float64 values)`` for a store the caller commits.  Returns
    ``None``, before any ``write``, when the batch cannot reproduce the
    element-by-element walk: an undefined register, an address batch
    :func:`addr_batch` rejects, or a store value ``float()`` rejects.
    The caller then walks the row element by element, which raises the
    exact errors in the exact order.
    """
    tag = row[0]
    if tag == 2:  # ALU / SFU
        args = []
        for m, p in row[2]:
            if m != SRC_CONST:
                p = fetch(m, p)
                if p is None:
                    return None
            args.append(p)
        write(row[3], vec_eval(row[5], tuple(args), row[4], n))
        return ()
    m, p = row[1]
    a = p if m == SRC_CONST else fetch(m, p)
    if a is None:
        return None
    addrs = addr_batch(a, n, data.shape[0])
    if addrs is None:
        return None
    if tag == 0:  # LOAD
        write(row[2], coerce_array(data[addrs], row[3], n))
        return addrs, None
    m, p = row[2]  # STORE
    v = p if m == SRC_CONST else fetch(m, p)
    if v is None:
        return None
    fvals = f64_batch(v, n)
    if fvals is None:
        return None
    return addrs, fvals


def branch_taken(c, n: int) -> np.ndarray:
    """The branch rule: a bool array of ``bool(x)`` for each element of
    the condition batch ``c`` (a constant broadcasts to ``n``), True
    where the branch takes its true target.  NaN is true, -0.0 false."""
    b = _as_bool(c)
    if b is None:  # object dtype: mixed-type elements
        return np.array([bool(x) for x in c.tolist()], bool)
    return b if isinstance(b, np.ndarray) else np.full(n, b)


# ----------------------------------------------------------------------
# Opcode kernels
# ----------------------------------------------------------------------
# Each kernel takes operand arrays (or Python scalar constants) and
# returns the raw (pre-coercion) result array; ``None`` means "use the
# scalar fallback" (object-dtype operands, or a platform without exact
# long-double comparisons).  ``np.errstate`` silences the warnings the
# pinned semantics intentionally lean on (int division by zero, float
# invalid/overflow).

def _int2(fn):
    def k(a, b):
        a = to_int_operand(a)
        b = to_int_operand(b)
        if a is None or b is None:
            return None
        with np.errstate(all="ignore"):
            return fn(a, b)
    return k


def _int1(fn):
    def k(a):
        a = to_int_operand(a)
        if a is None:
            return None
        with np.errstate(all="ignore"):
            return fn(a)
    return k


def _flt2(fn):
    def k(a, b):
        a = _as_float(a)
        b = _as_float(b)
        if a is None or b is None:
            return None
        with np.errstate(all="ignore"):
            return fn(a, b)
    return k


def _flt1(fn):
    def k(a):
        a = _as_float(a)
        if a is None:
            return None
        with np.errstate(all="ignore"):
            return fn(a)
    return k


def _vdiv(a, b):
    # floor division; b == 0 -> 0 (numpy already returns 0 there), and
    # INT64_MIN // -1 wraps to INT64_MIN exactly like the scalar wrap.
    return np.floor_divide(a, b)


def _vrem(a, b):
    return np.remainder(a, b)  # sign follows divisor; b == 0 -> 0


def _vshl(a, b):
    return np.left_shift(a, b & 63)


def _vshr(a, b):
    return np.right_shift(a, b & 63)


def _vnot(a):
    if isinstance(a, np.ndarray) and a.dtype.kind == "b":
        return ~a  # logical NOT on predicates
    if isinstance(a, bool):
        return not a
    a = to_int_operand(a)
    if a is None:
        return None
    return ~a


def _vfmin(a, b):
    # min(a, b) returns b only when b < a — NaN-ordering included.
    return np.where(b < a, b, a)


def _vfmax(a, b):
    return np.where(b > a, b, a)


def _vfrsqrt(a):
    with np.errstate(all="ignore"):
        out = 1.0 / np.sqrt(a)
        out = np.where(a == 0.0, math.inf, out)   # covers -0.0 -> +inf
        out = np.where(np.isnan(a) | (a < 0.0), math.nan, out)
    return out


def _vfsqrt(a):
    with np.errstate(invalid="ignore"):
        return np.where(a < 0.0, math.nan, np.sqrt(a))


def _vfexp(a):
    # np.exp differs from math.exp in the last ulp for some inputs;
    # bit-identity with the scalar path wins over throughput (SCU ops
    # are rare).
    if not isinstance(a, np.ndarray):
        return _fexp(a)
    return np.array([_fexp(x) for x in a.tolist()], _F64)


def _vflog(a):
    if not isinstance(a, np.ndarray):
        return _flog(a)
    return np.array([_flog(x) for x in a.tolist()], _F64)


def _vfsin(a):
    with np.errstate(invalid="ignore"):
        out = np.sin(a)
    return out


def _vfcos(a):
    with np.errstate(invalid="ignore"):
        out = np.cos(a)
    return out


def _vfdiv(a, b):
    return np.divide(a, b)  # IEEE poles match the pinned table


def _vffloor(a):
    # Scalar FFLOOR round-trips through int (math.floor), so -0.0
    # becomes +0.0; "+ 0.0" reproduces that. NaN/inf propagate.
    return np.floor(a) + 0.0


def _vi2f(a):
    if isinstance(a, np.ndarray):
        if a.dtype.kind in "ib":
            return a.astype(_F64)
        if a.dtype.kind == "f":
            # float(int(a)) == trunc(a) for finite a; NaN/inf propagate.
            # "+ 0.0" turns trunc's -0.0 into the +0.0 that int() gives.
            return np.trunc(a) + 0.0
        return None
    return EVAL[Op.I2F](a)


def _vf2i(a):
    a = _as_float(a)
    if a is None:
        return None
    if isinstance(a, np.ndarray):
        return f2i_array(a)
    return EVAL[Op.F2I](a)


def _cmp(fn):
    """Comparison kernel: exact across mixed int64/float64 operands."""
    def k(a, b):
        aa = isinstance(a, np.ndarray)
        bb = isinstance(b, np.ndarray)
        ak = a.dtype.kind if aa else ("b" if type(a) is bool
                                      else "i" if isinstance(a, int)
                                      else "f")
        bk = b.dtype.kind if bb else ("b" if type(b) is bool
                                      else "i" if isinstance(b, int)
                                      else "f")
        if ak == "O" or bk == "O":
            return None
        # A raw Python int constant outside int64 can't be represented
        # in any array dtype exactly — let the scalar path compare it.
        if not aa and ak == "i" and not INT64_MIN <= a <= INT64_MAX:
            return None
        if not bb and bk == "i" and not INT64_MIN <= b <= INT64_MAX:
            return None
        ai = ak in "ib"
        bi = bk in "ib"
        if ai != bi:
            # int-vs-float: promote both to long double so every int64
            # is represented exactly (Python compares these exactly).
            if not _LONGDOUBLE_EXACT:
                return None
            a = np.asarray(a).astype(np.longdouble)
            b = np.asarray(b).astype(np.longdouble)
        with np.errstate(invalid="ignore"):
            return fn(a, b)
    return k


def _vselect(p, a, b, dt: int, n: int):
    pb = _as_bool(p)
    if pb is None:
        return None
    # Coerce each arm *before* selecting: where() would otherwise
    # promote an int64 arm to float64 (lossy above 2**53) even for the
    # lanes that pick the other arm.
    ca = coerce_array(a, dt, n)
    cb = coerce_array(b, dt, n)
    if not isinstance(pb, np.ndarray):
        return ca if pb else cb
    return np.where(pb, ca, cb)


#: op -> batch kernel over operand arrays.  MOV/SELECT are handled in
#: :func:`vec_eval` (their semantics interact with result coercion).
VEVAL: Dict[Op, Callable] = {
    Op.ADD: _int2(np.add),
    Op.SUB: _int2(np.subtract),
    Op.MUL: _int2(np.multiply),
    Op.MIN: _int2(np.minimum),
    Op.MAX: _int2(np.maximum),
    Op.AND: _int2(np.bitwise_and),
    Op.OR: _int2(np.bitwise_or),
    Op.XOR: _int2(np.bitwise_xor),
    Op.SHL: _int2(_vshl),
    Op.SHR: _int2(_vshr),
    Op.NEG: _int1(np.negative),
    Op.NOT: _vnot,
    Op.ABS: _int1(np.abs),
    Op.FADD: _flt2(np.add),
    Op.FSUB: _flt2(np.subtract),
    Op.FMUL: _flt2(np.multiply),
    Op.FMIN: _flt2(_vfmin),
    Op.FMAX: _flt2(_vfmax),
    Op.FNEG: _flt1(np.negative),
    Op.FABS: _flt1(np.abs),
    Op.EQ: _cmp(np.equal),
    Op.NE: _cmp(np.not_equal),
    Op.LT: _cmp(np.less),
    Op.LE: _cmp(np.less_equal),
    Op.GT: _cmp(np.greater),
    Op.GE: _cmp(np.greater_equal),
    Op.I2F: _vi2f,
    Op.F2I: _vf2i,
    Op.DIV: _int2(_vdiv),
    Op.REM: _int2(_vrem),
    Op.FDIV: _flt2(_vfdiv),
    Op.FSQRT: _flt1(_vfsqrt),
    Op.FRSQRT: _flt1(_vfrsqrt),
    Op.FEXP: _flt1(_vfexp),
    Op.FLOG: _flt1(_vflog),
    Op.FSIN: _flt1(_vfsin),
    Op.FCOS: _flt1(_vfcos),
    Op.FFLOOR: _flt1(_vffloor),
}


def _vfma(a, b, c):
    fa, fb, fc = _as_float(a), _as_float(b), _as_float(c)
    if fa is None or fb is None or fc is None:
        return None
    with np.errstate(all="ignore"):
        return fa * fb + fc  # two roundings, exactly like the scalar


VEVAL[Op.FMA] = _vfma


def _scalar_fallback(op: Op, args, dt: int, n: int) -> np.ndarray:
    fn = EVAL[op]
    dtype = _ROW_DTYPE[dt]
    cols = [
        a.tolist() if isinstance(a, np.ndarray) else [a] * n for a in args
    ]
    return as_value_array([coerce_value(fn(*vals), dtype)
                           for vals in zip(*cols)], n)


def vec_eval(op: Op, args: Tuple, dt: int, n: int) -> np.ndarray:
    """Evaluate ``op`` over a batch and apply the result coercion.

    ``args`` holds numpy arrays of length ``n`` (or Python scalar
    constants to broadcast); ``dt`` is the result's :data:`DT_CODE`
    (:func:`coerce_array`).  The result is bit-identical to calling
    ``EVAL[op]`` plus the scalar coercion element-wise — object-dtype
    operands (mixed-type lanes) transparently take that scalar path.
    """
    if op is Op.MOV:
        return coerce_array(args[0], dt, n)
    if op is Op.SELECT:
        out = _vselect(args[0], args[1], args[2], dt, n)
        return _scalar_fallback(op, args, dt, n) if out is None else out
    kern = VEVAL[op]
    raw = kern(*args)
    if raw is None:
        return _scalar_fallback(op, args, dt, n)
    if not isinstance(raw, np.ndarray) or raw.shape == ():
        # All-constant operands: broadcast the scalar result.
        return coerce_array(raw.item() if hasattr(raw, "item") else raw,
                            dt, n)
    return coerce_array(raw, dt, n)
