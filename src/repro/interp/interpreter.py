"""Reference interpreter for the virtual kernel ISA.

Executes a kernel thread-by-thread, sequentially, against a
:class:`~repro.memory.image.MemoryImage`.  It is the golden functional
model: every timing simulator's final memory image is asserted equal to
the interpreter's in the test suite.

The interpreter also records, per thread, the sequence of basic blocks
visited.  The SGMF model and several analyses consume these traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.ir.instr import EVAL, Op, TermKind, coerce_i64
from repro.ir.kernel import Kernel
from repro.ir.types import DType, Imm, Operand, Reg, TID_REG, is_param_reg, PARAM_PREFIX
from repro.ir.vecops import (
    addr_batch,
    f2i_array,
    f64_batch,
    run_waves,
    scatter,
    vec_eval,
)
from repro.memory.image import MemoryImage
from repro.resilience.errors import SimulationError

Number = Union[int, float, bool]


class InterpreterError(SimulationError):
    """Raised on runaway or ill-behaved kernels."""


@dataclass
class ThreadTrace:
    """Per-thread execution record."""

    tid: int
    blocks: List[str] = field(default_factory=list)
    instructions: int = 0
    loads: int = 0
    stores: int = 0


@dataclass
class InterpResult:
    """Aggregate result of interpreting a kernel launch."""

    kernel: Kernel
    n_threads: int
    traces: List[ThreadTrace]
    block_visits: Counter = field(default_factory=Counter)

    @property
    def total_instructions(self) -> int:
        """Instructions executed, summed over every thread."""
        return sum(t.instructions for t in self.traces)

    @property
    def total_loads(self) -> int:
        """Loads executed, summed over every thread."""
        return sum(t.loads for t in self.traces)

    @property
    def total_stores(self) -> int:
        """Stores executed, summed over every thread."""
        return sum(t.stores for t in self.traces)

    def visits_of(self, tid: int, block: str) -> int:
        """How many times thread ``tid`` entered basic block ``block``."""
        return sum(1 for b in self.traces[tid].blocks if b == block)


def _coerce(value: Number, dtype: DType) -> Number:
    if dtype is DType.INT:
        return coerce_i64(value)
    if dtype is DType.FLOAT:
        return float(value)
    return bool(value)


class Interpreter:
    """Sequential reference executor.

    Parameters
    ----------
    kernel:
        The kernel to run.
    memory:
        Memory image the kernel reads and writes.
    params:
        Launch-parameter values by name; must cover ``kernel.params``.
    max_block_visits:
        Per-thread safety bound against runaway loops.
    """

    def __init__(self, kernel: Kernel, memory: MemoryImage,
                 params: Dict[str, Number], max_block_visits: int = 1_000_000):
        missing = [p for p in kernel.params if p not in params]
        if missing:
            raise InterpreterError(f"missing parameter values: {missing}")
        self.kernel = kernel
        self.memory = memory
        self.params = {
            name: _coerce(params[name], kernel.param_dtypes[name])
            for name in kernel.params
        }
        self.max_block_visits = max_block_visits
        # Precompile each block into flat rows so the per-thread walk
        # never re-dispatches on operand kinds (immediates and launch
        # parameters fold into constants — parameters are fixed at
        # construction).  Purely a host-side speedup; semantics are
        # identical to the instruction-at-a-time path.
        self._plan = {
            name: self._compile_block(block)
            for name, block in kernel.blocks.items()
        }

    def _compile_block(self, block):
        """Flatten one basic block into interpreter rows.

        Row layouts (sources are ``(mode, payload)`` pairs: 0 = const
        value, 1 = register name, 2 = thread id; ``dt`` is 1 = int,
        2 = float, 0 = bool)::

            (0, asrc, dst, dt)           LOAD
            (1, asrc, vsrc)              STORE
            (2, fn, srcs, dst, dt, op)   everything else

        The trailing ``op`` lets the vectorized wave executor dispatch
        the same row through :func:`repro.ir.vecops.vec_eval`.

        Returns ``(rows, n_instrs, n_loads, n_stores, tcode, cond,
        true_target, false_target)`` with ``tcode`` 0 = RET, 1 = JMP,
        2 = BR.
        """
        params = self.params

        def prep(operand):
            if isinstance(operand, Imm):
                return (0, operand.value)
            if operand == TID_REG:
                return (2, 0)
            if is_param_reg(operand):
                return (0, params[operand.name[len(PARAM_PREFIX):]])
            return (1, operand.name)

        rows = []
        n_loads = n_stores = 0
        for instr in block.instrs:
            dt = (1 if instr.dtype is DType.INT
                  else 2 if instr.dtype is DType.FLOAT else 0)
            if instr.op is Op.LOAD:
                rows.append((0, prep(instr.srcs[0]), instr.dst, dt))
                n_loads += 1
            elif instr.op is Op.STORE:
                rows.append((1, prep(instr.srcs[0]), prep(instr.srcs[1])))
                n_stores += 1
            else:
                rows.append((2, EVAL[instr.op],
                             tuple(prep(s) for s in instr.srcs),
                             instr.dst, dt, instr.op))
        term = block.terminator
        tcode = (0 if term.kind is TermKind.RET
                 else 1 if term.kind is TermKind.JMP else 2)
        cond = prep(term.cond) if tcode == 2 else None
        return (tuple(rows), len(block.instrs), n_loads, n_stores,
                tcode, cond, term.true_target, term.false_target)

    # ------------------------------------------------------------------
    def _fetch(self, regs: Dict[str, Number], tid: int, operand: Operand) -> Number:
        if isinstance(operand, Imm):
            return operand.value
        if operand == TID_REG:
            return tid
        if is_param_reg(operand):
            return self.params[operand.name[len(PARAM_PREFIX):]]
        try:
            return regs[operand.name]
        except KeyError:
            raise InterpreterError(
                f"read of undefined register %{operand.name} "
                f"in kernel {self.kernel.name}"
            ) from None

    def run_thread(self, tid: int) -> ThreadTrace:
        """Execute one thread to completion; return its trace."""
        kernel = self.kernel
        plan = self._plan
        mem_read = self.memory.read
        mem_write = self.memory.write
        regs: Dict[str, Number] = {}
        trace = ThreadTrace(tid)
        visited = trace.blocks
        block_name: Optional[str] = kernel.entry
        visits = 0
        max_visits = self.max_block_visits
        n_instrs = n_loads = n_stores = 0
        try:
            while block_name is not None:
                visits += 1
                if visits > max_visits:
                    raise InterpreterError(
                        f"thread {tid} exceeded {max_visits} block visits "
                        f"in kernel {kernel.name} (runaway loop?)"
                    )
                (rows, bi, bl, bs, tcode, cond,
                 true_target, false_target) = plan[block_name]
                visited.append(block_name)
                n_instrs += bi
                n_loads += bl
                n_stores += bs
                for row in rows:
                    tag = row[0]
                    if tag == 2:  # ALU / SFU
                        fn, srcs, dst, dt = row[1], row[2], row[3], row[4]
                        v = fn(*[
                            regs[p] if m == 1 else p if m == 0 else tid
                            for m, p in srcs
                        ])
                        regs[dst] = (coerce_i64(v) if dt == 1
                                     else float(v) if dt == 2 else bool(v))
                    elif tag == 0:  # LOAD
                        _, (am, ap), dst, dt = row
                        v = mem_read(int(
                            regs[ap] if am == 1 else ap if am == 0 else tid
                        ))
                        regs[dst] = (coerce_i64(v) if dt == 1
                                     else float(v) if dt == 2 else bool(v))
                    else:  # STORE
                        _, (am, ap), (vm, vp) = row
                        mem_write(
                            int(regs[ap] if am == 1
                                else ap if am == 0 else tid),
                            regs[vp] if vm == 1 else vp if vm == 0 else tid,
                        )
                if tcode == 0:
                    block_name = None
                elif tcode == 1:
                    block_name = true_target
                else:
                    cm, cp = cond
                    taken = bool(regs[cp] if cm == 1
                                 else cp if cm == 0 else tid)
                    block_name = true_target if taken else false_target
        except KeyError as exc:
            raise InterpreterError(
                f"read of undefined register %{exc.args[0]} "
                f"in kernel {kernel.name}"
            ) from None
        trace.instructions = n_instrs
        trace.loads = n_loads
        trace.stores = n_stores
        return trace

    # ------------------------------------------------------------------
    # Vectorized wave execution
    # ------------------------------------------------------------------
    @staticmethod
    def _wave_values(regs, defined, wave, mode, payload):
        """Fetch one operand for a wave: a register's thread slice, a
        constant, or the tid array.  ``None`` means some thread reads an
        undefined register (scalar fallback reproduces the error)."""
        if mode == 1:
            d = defined.get(payload)
            if d is None or not d[wave].all():
                return None
            return regs[payload][wave]
        if mode == 0:
            return payload
        return wave

    def _run_wave(self, n_threads: int) -> Optional[List[ThreadTrace]]:
        """Execute all threads as vectorized waves
        (:func:`repro.ir.vecops.run_waves`), each row one
        :func:`repro.ir.vecops.vec_eval` batch; returns the traces.
        ``None`` hands the kernel to the sequential path, whose results
        are the contract, from untouched memory: an inexact log, an
        undefined register, an invalid address or a visit-bound overrun
        (the scalar path raises the exact errors)."""
        plan = self._plan
        data = self.memory.data
        size = data.shape[0]
        regs: Dict[str, np.ndarray] = {}
        defined: Dict[str, np.ndarray] = {}
        blocks_trace: List[List[str]] = [[] for _ in range(n_threads)]
        counts = np.zeros((n_threads, 3), np.int64)
        fetch = self._wave_values

        def step(block_name, wave):
            (rows, bi, bl, bs, tcode, cond,
             true_target, false_target) = plan[block_name]
            for t in wave.tolist():
                blocks_trace[t].append(block_name)
            counts[wave, 0] += bi
            counts[wave, 1] += bl
            counts[wave, 2] += bs
            n = wave.shape[0]
            mem_rows = []
            for row in rows:
                tag = row[0]
                if tag == 2:  # ALU / SFU
                    srcs, dst, dt, op = row[2], row[3], row[4], row[5]
                    args = []
                    for m, p in srcs:
                        v = fetch(regs, defined, wave, m, p)
                        if v is None and m == 1:
                            return None
                        args.append(v)
                    vals = vec_eval(op, tuple(args), dt, n)
                    scatter(regs, defined, dst, wave, vals, n_threads)
                    continue
                am, ap = row[1]
                a = fetch(regs, defined, wave, am, ap)
                if a is None and am == 1:
                    return None
                addrs = addr_batch(a, n, size)
                if addrs is None:
                    return None
                if tag == 0:  # LOAD
                    mem_rows.append((addrs, None))
                    raw = data[addrs]
                    dt = row[3]
                    vals = (f2i_array(raw) if dt == 1
                            else raw if dt == 2 else raw != 0)
                    scatter(regs, defined, row[2], wave, vals, n_threads)
                else:  # STORE
                    vm, vp = row[2]
                    v = fetch(regs, defined, wave, vm, vp)
                    if v is None and vm == 1:
                        return None
                    fvals = f64_batch(v, n)
                    if fvals is None:
                        return None
                    mem_rows.append((addrs, fvals))
            if tcode == 0:
                return mem_rows, ()
            if tcode == 1:
                return mem_rows, ((true_target, wave),)
            cm, cp = cond
            cv = fetch(regs, defined, wave, cm, cp)
            if cv is None and cm == 1:
                return None
            if isinstance(cv, np.ndarray):
                if cv.dtype.kind == "b":
                    taken = cv
                elif cv.dtype.kind in "if":
                    taken = cv != 0
                else:
                    taken = np.array([bool(x) for x in cv.tolist()])
            else:
                taken = np.full(n, bool(cv))
            return mem_rows, ((true_target, wave[taken]),
                              (false_target, wave[~taken]))

        log = run_waves(self.kernel.entry, n_threads,
                        self.max_block_visits, step)
        if log is None:
            return None
        log.commit(data)
        return [ThreadTrace(tid, blocks_trace[tid], *counts[tid].tolist())
                for tid in range(n_threads)]

    def run(self, n_threads: int) -> InterpResult:
        """Execute ``n_threads`` threads (TIDs 0..n-1).

        Threads at the same basic block are evaluated as one numpy batch
        through :mod:`repro.ir.vecops`; results are identical to the
        sequential :meth:`run_thread` walk, which remains the fallback
        for hazardous or erroneous kernels and the oracle the batch is
        tested against.
        """
        traces = self._run_wave(n_threads) if n_threads >= 4 else None
        if traces is None:
            traces = [self.run_thread(tid) for tid in range(n_threads)]
        result = InterpResult(self.kernel, n_threads, traces)
        for t in traces:
            result.block_visits.update(t.blocks)
        return result


def interpret(kernel: Kernel, memory: MemoryImage, params: Dict[str, Number],
              n_threads: int, max_block_visits: int = 1_000_000) -> InterpResult:
    """Convenience wrapper: build an :class:`Interpreter` and run it."""
    return Interpreter(kernel, memory, params, max_block_visits).run(n_threads)
