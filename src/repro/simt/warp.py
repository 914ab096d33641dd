"""Warp state and lane-parallel functional execution.

A warp holds 32 lanes' architectural register state and executes one IR
instruction at a time under an active-lane mask.  Lane registers live in
numpy arrays, and each :func:`repro.ir.vecops.prepare_instr` row
evaluates for the active lanes as one :func:`repro.ir.vecops.eval_row`
batch, the evaluator the reference interpreter's thread waves share;
branch conditions resolve by its :func:`repro.ir.vecops.branch_taken`
rule.  The batch kernels are bit-identical to the scalar
:data:`repro.ir.instr.EVAL` semantics, so all machines stay
functionally identical.

The per-lane walk ``_exec_prepared_scalar`` is the error path: a row
``eval_row`` declines (undefined registers, invalid or out-of-bounds
addresses, mixed-type address or value lanes) runs lane by lane, so
error messages and error ordering stay those of a lane-by-lane walk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.ir.instr import Instr, TermKind, Terminator, coerce_i64
from repro.ir.vecops import (
    SRC_CONST,
    SRC_REG,
    SRC_TID,
    branch_taken,
    eval_row,
    prepare_instr,
    prepare_operand,
)
from repro.memory.image import MemoryImage
from repro.simt.simtstack import EXIT

Number = Union[int, float, bool]

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
        #: active-lane index of the row being evaluated (``None``: all
        #: lanes), read by :meth:`_fetch` and :meth:`_vwrite`
        self._idx: Optional[np.ndarray] = None

    @property
    def _regs(self) -> Dict[str, List[Number]]:
        """Register file as plain per-lane lists (inspection/debugging;
        the executors use the internal numpy arrays directly)."""
        return {name: arr.tolist() for name, arr in self._vregs.items()}

    # ------------------------------------------------------------------
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

    def _vwrite(self, dst: str, vals: np.ndarray) -> None:
        """Vector-path register write-back at the active lanes ``_idx``.
        Promotes to ``object`` dtype on type conflicts."""
        regs = self._vregs
        lanes_idx = self._idx
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

    def _fetch(self, mode: int, name: str) -> Optional[np.ndarray]:
        """The active lanes ``_idx`` of register ``name`` (``None`` if it
        was never written) or, for ``SRC_TID``, of the lane tids."""
        idx = self._idx
        arr = self._tids if mode == SRC_TID else self._vregs.get(name)
        return arr if arr is None or idx is None else arr[idx]

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
    def exec_instr(self, instr: Instr, mask: int) -> List[int]:
        """Execute one instruction on all lanes in ``mask``.

        Returns the active lanes' word addresses in ascending lane order
        (empty for non-memory ops) so the SM can coalesce and time them.
        """
        return self.exec_prepared(prepare_instr(instr, self.params), mask)

    def exec_prepared(self, prep, mask: int) -> List[int]:
        """Execute one :func:`repro.ir.vecops.prepare_instr` row on all
        lanes in ``mask``: one :func:`repro.ir.vecops.eval_row` batch,
        or the per-lane walk for a row it declines.  Returns the active
        lanes' word addresses in lane order, one list built from the
        batch's address array (no per-lane object), or ``[]``."""
        full = mask == self._full_mask
        self._idx = idx = None if full else _lanes_index(mask)
        data = self.memory.data
        out = eval_row(prep, self._fetch, self._vwrite, data,
                       self.n_lanes if full else idx.shape[0])
        if out is None:
            return self._exec_prepared_scalar(prep, mask)
        if not out:
            return []
        addrs, fvals = out
        if fvals is not None:
            # Fancy assignment resolves duplicate addresses
            # last-lane-wins, matching the ascending-lane store order.
            data[addrs] = fvals
        return addrs.tolist()

    def _exec_prepared_scalar(self, prep, mask: int) -> List[int]:
        """Per-lane reference walk (exact scalar semantics and errors)."""
        mem_addrs: List[int] = []
        regs = self._vregs
        base = self.base_tid
        tag = prep[0]
        if tag == 2:  # ALU / SFU
            fn, srcs = prep[1], prep[2]
            dst, dt = prep[3], prep[4]
            for lane in _lanes_tuple(mask):
                args = [
                    _lane_value(regs[p], lane) if m == SRC_REG
                    else p if m == SRC_CONST else base + lane
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
                addr = int(_lane_value(regs[ap], lane) if am == SRC_REG
                           else ap if am == SRC_CONST else base + lane)
                v = mem_read(addr)
                self._write_lane(dst, lane,
                                 coerce_i64(v) if dt == 1
                                 else float(v) if dt == 2 else bool(v))
                mem_addrs.append(addr)
        else:  # STORE
            _, (am, ap), (vm, vp) = prep
            mem_write = self.memory.write
            for lane in _lanes_tuple(mask):
                addr = int(_lane_value(regs[ap], lane) if am == SRC_REG
                           else ap if am == SRC_CONST else base + lane)
                mem_write(addr,
                          _lane_value(regs[vp], lane) if vm == SRC_REG
                          else vp if vm == SRC_CONST else base + lane)
                mem_addrs.append(addr)
        return mem_addrs

    def exec_terminator(self, term: Terminator, mask: int) -> Dict[str, int]:
        """Resolve the block terminator for the lanes in ``mask`` (a BR by
        :func:`repro.ir.vecops.branch_taken`); returns target -> lane
        mask, the lowest active lane's target first."""
        if term.kind is TermKind.RET:
            return {EXIT: mask}
        if term.kind is TermKind.JMP:
            return {term.true_target: mask}
        if not mask:
            return {}
        idx = _lanes_index(mask)
        m, p = prepare_operand(term.cond, self.params)
        c = (p if m == SRC_CONST else self._tids[idx] if m == SRC_TID
             else self._vregs[p][idx])
        taken = branch_taken(c, idx.shape[0])
        tmask = int(np.where(taken, np.left_shift(np.int64(1), idx), 0).sum())
        fmask = mask & ~tmask
        pairs = ((term.true_target, tmask), (term.false_target, fmask))
        return {target: lanes for target, lanes in
                (pairs if taken[0] else pairs[::-1]) if lanes}
