"""Warp state and lane-parallel functional execution.

A warp holds 32 lanes' architectural register state and executes one IR
instruction at a time under an active-lane mask.  Lane registers live in
numpy arrays and each instruction evaluates as one masked batch through
:mod:`repro.ir.vecops`, whose kernels are bit-identical to the scalar
:data:`repro.ir.instr.EVAL` semantics shared with the interpreter and
the MT-CGRF executor — all machines stay functionally identical.

The per-lane walk ``_exec_prepared_scalar`` is the error path: the
vector path drops into it for lanes it cannot represent (undefined
registers, invalid or out-of-bounds addresses, mixed-type address or
value lanes), so error messages and error ordering stay those of a
lane-by-lane walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.ir.instr import EVAL, Instr, Op, TermKind, Terminator, coerce_i64
from repro.ir.types import DType, Imm, Reg, TID_REG, is_param_reg, PARAM_PREFIX
from repro.ir.vecops import (
    addr_batch,
    f2i_array,
    f64_batch,
    vec_eval,
)
from repro.memory.image import MemoryImage
from repro.simt.simtstack import EXIT

Number = Union[int, float, bool]

# Prepared-operand modes (see :func:`prepare_instr`).
_SRC_CONST = 0   # payload is the value itself (Imm or launch param)
_SRC_REG = 1     # payload is the register name
_SRC_TID = 2     # payload unused; value = base_tid + lane

#: mask -> tuple of active lane indices.  Warp masks repeat heavily
#: within (and across) kernels, so the decode is memoised.  Bounded so a
#: pathological mask sequence cannot grow it without limit.
_LANES_CACHE: Dict[int, tuple] = {}
_LANES_CACHE_CAP = 1 << 16

#: mask -> int64 index array of active lanes (the vector path's gather
#: and scatter index), memoised alongside the tuple cache.
_LANES_IDX_CACHE: Dict[int, np.ndarray] = {}


def _lane_value(arr: np.ndarray, lane: int) -> Number:
    """One lane of a register as a Python scalar (an ``object`` register
    of mixed-type lanes already holds Python scalars)."""
    v = arr[lane]
    return v.item() if isinstance(v, np.generic) else v


def _lanes_tuple(mask: int) -> tuple:
    lanes = _LANES_CACHE.get(mask)
    if lanes is None:
        lanes = tuple(Warp.lanes_of(mask))
        if len(_LANES_CACHE) < _LANES_CACHE_CAP:
            _LANES_CACHE[mask] = lanes
    return lanes


def _lanes_index(mask: int) -> np.ndarray:
    idx = _LANES_IDX_CACHE.get(mask)
    if idx is None:
        idx = np.array(_lanes_tuple(mask), dtype=np.int64)
        if len(_LANES_IDX_CACHE) < _LANES_CACHE_CAP:
            _LANES_IDX_CACHE[mask] = idx
    return idx


def prepare_instr(instr: Instr, params: Dict[str, Number]):
    """Precompile ``instr`` into a flat row for :meth:`Warp.exec_prepared`.

    Launch parameters are uniform across the launch, so parameter reads
    are folded into constants here (the SM builds one row per static
    instruction, once per kernel run).  Row layouts::

        (0, asrc, dst, dt)            LOAD
        (1, asrc, vsrc)               STORE
        (2, fn, srcs, dst, dt, op)    everything else

    where each source is a ``(mode, payload)`` pair (const value /
    register name / thread id) and ``dt`` selects the result coercion
    (1 = int, 2 = float, 0 = bool) — exactly the semantics of
    :meth:`Warp.exec_instr`, minus the per-lane operand dispatch.  The
    trailing ``op`` lets the vector path dispatch the same row through
    :func:`repro.ir.vecops.vec_eval`.
    """
    def prep(operand):
        if isinstance(operand, Imm):
            return (_SRC_CONST, operand.value)
        if operand == TID_REG:
            return (_SRC_TID, 0)
        if is_param_reg(operand):
            return (_SRC_CONST, params[operand.name[len(PARAM_PREFIX):]])
        return (_SRC_REG, operand.name)

    dt = (1 if instr.dtype is DType.INT
          else 2 if instr.dtype is DType.FLOAT else 0)
    if instr.op is Op.LOAD:
        return (0, prep(instr.srcs[0]), instr.dst, dt)
    if instr.op is Op.STORE:
        return (1, prep(instr.srcs[0]), prep(instr.srcs[1]))
    return (2, EVAL[instr.op], tuple(prep(s) for s in instr.srcs),
            instr.dst, dt, instr.op)


@dataclass
class LaneMemOp:
    """One lane's memory operation (for the coalescer)."""

    lane: int
    word_addr: int


class Warp:
    """32 data-parallel lanes executing in lockstep under a mask.

    Register state is one numpy array per architectural register
    (``n_lanes`` wide); unwritten registers read as integer zero, like
    the scalar model's default lanes.
    """

    def __init__(self, warp_id: int, base_tid: int, n_lanes: int,
                 valid_lanes: int, params: Dict[str, Number],
                 memory: MemoryImage):
        self.warp_id = warp_id
        self.base_tid = base_tid
        self.n_lanes = n_lanes
        #: lanes that correspond to real threads (last warp may be partial)
        self.valid_mask = (1 << valid_lanes) - 1
        self.params = params
        self.memory = memory
        self._vregs: Dict[str, np.ndarray] = {}
        self._tids = np.arange(base_tid, base_tid + n_lanes, dtype=np.int64)
        self._full_mask = (1 << n_lanes) - 1

    @property
    def _regs(self) -> Dict[str, List[Number]]:
        """Register file as plain per-lane lists (inspection/debugging;
        the executors use the internal numpy arrays directly)."""
        return {name: arr.tolist() for name, arr in self._vregs.items()}

    # ------------------------------------------------------------------
    def _read(self, operand, lane: int) -> Number:
        if isinstance(operand, Imm):
            return operand.value
        if operand == TID_REG:
            return self.base_tid + lane
        if is_param_reg(operand):
            return self.params[operand.name[len(PARAM_PREFIX):]]
        return _lane_value(self._vregs[operand.name], lane)

    def _write_lane(self, reg: str, lane: int, value: Number) -> None:
        """Scalar-path register write with dtype promotion (a lane value
        of a new type flips the whole register to ``object`` dtype, so
        mixed-type lanes survive exactly)."""
        want = ("b" if type(value) is bool
                else "i" if isinstance(value, int) else "f")
        arr = self._vregs.get(reg)
        if arr is None:
            dtype = (bool if want == "b"
                     else np.int64 if want == "i" else np.float64)
            arr = self._vregs[reg] = np.zeros(self.n_lanes, dtype)
        if arr.dtype.kind != want and arr.dtype.kind != "O":
            obj = np.empty(self.n_lanes, object)
            obj[:] = arr.tolist()
            arr = self._vregs[reg] = obj
        arr[lane] = value

    def _vwrite(self, dst: str, lanes_idx: Optional[np.ndarray],
                vals: np.ndarray) -> None:
        """Vector-path register write-back (``lanes_idx`` ``None`` means
        all lanes).  Promotes to ``object`` dtype on type conflicts."""
        regs = self._vregs
        arr = regs.get(dst)
        if arr is not None and arr.dtype == vals.dtype:
            if lanes_idx is None:
                arr[:] = vals
            else:
                arr[lanes_idx] = vals
            return
        if lanes_idx is None:
            regs[dst] = vals.copy()
            return
        if arr is None:
            arr = regs[dst] = np.zeros(self.n_lanes, vals.dtype)
            arr[lanes_idx] = vals
            return
        obj = np.empty(self.n_lanes, object)
        obj[:] = arr.tolist()
        obj[lanes_idx] = vals.tolist()
        regs[dst] = obj

    def _gather(self, mode: int, payload, lanes_idx: Optional[np.ndarray]):
        """Fetch one prepared operand for the vector path: an active-lane
        slice of a register array, a constant, or the lane tids.
        ``None`` means the register is undefined (fall back to the
        per-lane walk, which raises the exact ``KeyError``)."""
        if mode == _SRC_REG:
            arr = self._vregs.get(payload)
            if arr is None:
                return None
            return arr if lanes_idx is None else arr[lanes_idx]
        if mode == _SRC_CONST:
            return payload
        return self._tids if lanes_idx is None else self._tids[lanes_idx]

    @staticmethod
    def lanes_of(mask: int):
        """Yield the lane indices set in a 32-bit active mask."""
        lane = 0
        while mask:
            if mask & 1:
                yield lane
            mask >>= 1
            lane += 1

    # ------------------------------------------------------------------
    def exec_instr(self, instr: Instr, mask: int) -> List[LaneMemOp]:
        """Execute one instruction on all lanes in ``mask``.

        Returns the lane memory operations (empty for non-memory ops) so
        the SM can coalesce and time them.
        """
        return self.exec_prepared(prepare_instr(instr, self.params), mask)

    def exec_prepared(self, prep, mask: int) -> List[LaneMemOp]:
        """Execute one :func:`prepare_instr` row on all lanes in ``mask``.

        The whole active-lane batch evaluates with one
        :func:`repro.ir.vecops.vec_eval` call; results are identical to
        the per-lane walk, which handles the exceptional cases.
        """
        full = mask == self._full_mask
        lanes_idx = None if full else _lanes_index(mask)
        n = self.n_lanes if full else lanes_idx.shape[0]
        tag = prep[0]
        if tag == 2:  # ALU / SFU
            srcs, dst, dt, op = prep[2], prep[3], prep[4], prep[5]
            args = []
            for m, p in srcs:
                v = self._gather(m, p, lanes_idx)
                if v is None and m == _SRC_REG:
                    return self._exec_prepared_scalar(prep, mask)
                args.append(v)
            vals = vec_eval(op, tuple(args), dt, n)
            self._vwrite(dst, lanes_idx, vals)
            return []
        if tag == 0:  # LOAD
            _, (am, ap), dst, dt = prep
            a = self._gather(am, ap, lanes_idx)
            if a is None and am == _SRC_REG:
                return self._exec_prepared_scalar(prep, mask)
            addrs = addr_batch(a, n, self.memory.size)
            if addrs is None:
                return self._exec_prepared_scalar(prep, mask)
            raw = self.memory.data[addrs]
            vals = (f2i_array(raw) if dt == 1
                    else raw if dt == 2 else raw != 0)
            self._vwrite(dst, lanes_idx, vals)
            return [LaneMemOp(lane, addr) for lane, addr
                    in zip(_lanes_tuple(mask), addrs.tolist())]
        # STORE
        _, (am, ap), (vm, vp) = prep
        a = self._gather(am, ap, lanes_idx)
        if a is None and am == _SRC_REG:
            return self._exec_prepared_scalar(prep, mask)
        addrs = addr_batch(a, n, self.memory.size)
        if addrs is None:
            return self._exec_prepared_scalar(prep, mask)
        v = self._gather(vm, vp, lanes_idx)
        if v is None and vm == _SRC_REG:
            return self._exec_prepared_scalar(prep, mask)
        fvals = f64_batch(v, n)
        if fvals is None:
            return self._exec_prepared_scalar(prep, mask)
        # Fancy assignment resolves duplicate addresses last-lane-wins,
        # matching the ascending-lane scalar store order.
        self.memory.data[addrs] = fvals
        return [LaneMemOp(lane, addr) for lane, addr
                in zip(_lanes_tuple(mask), addrs.tolist())]

    def _exec_prepared_scalar(self, prep, mask: int) -> List[LaneMemOp]:
        """Per-lane reference walk (exact scalar semantics and errors)."""
        mem_ops: List[LaneMemOp] = []
        regs = self._vregs
        base = self.base_tid
        tag = prep[0]
        if tag == 2:  # ALU / SFU
            fn, srcs = prep[1], prep[2]
            dst, dt = prep[3], prep[4]
            for lane in _lanes_tuple(mask):
                args = [
                    _lane_value(regs[p], lane) if m == _SRC_REG
                    else p if m == _SRC_CONST else base + lane
                    for m, p in srcs
                ]
                v = fn(*args)
                self._write_lane(dst, lane,
                                 coerce_i64(v) if dt == 1
                                 else float(v) if dt == 2 else bool(v))
        elif tag == 0:  # LOAD
            _, (am, ap), dst, dt = prep
            mem_read = self.memory.read
            for lane in _lanes_tuple(mask):
                addr = int(_lane_value(regs[ap], lane) if am == _SRC_REG
                           else ap if am == _SRC_CONST else base + lane)
                v = mem_read(addr)
                self._write_lane(dst, lane,
                                 coerce_i64(v) if dt == 1
                                 else float(v) if dt == 2 else bool(v))
                mem_ops.append(LaneMemOp(lane, addr))
        else:  # STORE
            _, (am, ap), (vm, vp) = prep
            mem_write = self.memory.write
            for lane in _lanes_tuple(mask):
                addr = int(_lane_value(regs[ap], lane) if am == _SRC_REG
                           else ap if am == _SRC_CONST else base + lane)
                mem_write(addr,
                          _lane_value(regs[vp], lane) if vm == _SRC_REG
                          else vp if vm == _SRC_CONST else base + lane)
                mem_ops.append(LaneMemOp(lane, addr))
        return mem_ops

    def exec_terminator(self, term: Terminator, mask: int) -> Dict[str, int]:
        """Resolve the block terminator per lane; returns target -> mask."""
        if term.kind is TermKind.RET:
            return {EXIT: mask}
        if term.kind is TermKind.JMP:
            return {term.true_target: mask}
        cond = term.cond
        if mask and isinstance(cond, Reg) \
                and not is_param_reg(cond) and cond != TID_REG:
            arr = self._vregs.get(cond.name)
            if arr is not None and arr.dtype.kind in "bif":
                lanes_idx = _lanes_index(mask)
                cv = arr[lanes_idx]
                taken = cv if cv.dtype.kind == "b" else cv != 0
                tmask = int(np.where(taken, np.left_shift(
                    np.int64(1), lanes_idx), 0).sum())
                fmask = mask & ~tmask
                # Preserve the scalar dict insertion order: the lowest
                # active lane's target comes first.
                first_true = bool(taken[0])
                targets: Dict[str, int] = {}
                for target, m in (((term.true_target, tmask),
                                   (term.false_target, fmask))
                                  if first_true else
                                  ((term.false_target, fmask),
                                   (term.true_target, tmask))):
                    if m:
                        targets[target] = m
                return targets
        targets = {}
        for lane in self.lanes_of(mask):
            taken = bool(self._read(cond, lane))
            target = term.true_target if taken else term.false_target
            targets[target] = targets.get(target, 0) | (1 << lane)
        return targets
