"""Reference interpreter for the virtual kernel ISA.

Executes a kernel against a :class:`~repro.memory.image.MemoryImage`.
It is the golden functional model: every timing simulator's final
memory image is asserted equal to the interpreter's in the test suite.

:meth:`Interpreter.run` evaluates the threads waiting at one block as a
wave, each instruction row one :func:`repro.ir.vecops.eval_row` batch
(the evaluator the Fermi warps share).  :meth:`Interpreter.run_thread`
walks one thread through the scalar ``EVAL`` table; it runs launches
narrower than :data:`WAVE_MIN_THREADS`, is the fallback for waves that
decline, and is the independent oracle both batch paths are tested
against.

The interpreter also records, per thread, the sequence of basic blocks
visited.  The SGMF model and several analyses consume these traces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.engine import bind_params
from repro.ir.instr import TermKind, coerce_i64
from repro.ir.kernel import Kernel
from repro.ir.vecops import (
    SRC_CONST,
    SRC_TID,
    branch_taken,
    eval_row,
    prepare_instr,
    prepare_operand,
    run_waves,
    scatter,
)
from repro.memory.image import MemoryImage
from repro.resilience.errors import SimulationError

Number = Union[int, float, bool]

#: Narrowest launch :meth:`Interpreter.run` evaluates as waves.  Below
#: it the scalar walk is faster: a wave row's numpy overhead is paid per
#: row whatever its width, and divergent loops split narrow waves into
#: fragments of one or two threads.  The measured crossover lies between
#: 10 and 16 threads, where single kernels scatter either way; 16 keeps
#: every default fuzz case (1-12 threads) and ``gaussian/Fan1`` (14, faster
#: scalar) on the scalar walk, and 12 measured no different end to end
#: (``docs/performance.md``, "Narrow launches", has the sweep and A/B).
WAVE_MIN_THREADS = 16


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
        self.params = bind_params(kernel, params)
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
        """Flatten one basic block into :func:`repro.ir.vecops.prepare_instr`
        rows.

        Returns ``(rows, n_instrs, n_loads, n_stores, tcode, cond,
        true_target, false_target)`` with ``tcode`` 0 = RET, 1 = JMP,
        2 = BR and ``cond`` the branch condition's
        :func:`repro.ir.vecops.prepare_operand` pair.
        """
        rows = tuple(prepare_instr(instr, self.params)
                     for instr in block.instrs)
        term = block.terminator
        tcode = (0 if term.kind is TermKind.RET
                 else 1 if term.kind is TermKind.JMP else 2)
        cond = prepare_operand(term.cond, self.params) if tcode == 2 else None
        return (rows, len(rows), sum(r[0] == 0 for r in rows),
                sum(r[0] == 1 for r in rows),
                tcode, cond, term.true_target, term.false_target)

    # ------------------------------------------------------------------
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
    def _run_wave(self, n_threads: int) -> Optional[List[ThreadTrace]]:
        """Execute all threads as vectorized waves
        (:func:`repro.ir.vecops.run_waves`), each row one
        :func:`repro.ir.vecops.eval_row` batch; returns the traces.
        ``None`` hands the kernel to the sequential path, whose results
        are the contract, from untouched memory: an inexact log, an
        undefined register, an invalid address or a visit-bound overrun
        (the scalar path raises the exact errors)."""
        plan = self._plan
        data = self.memory.data
        regs: Dict[str, np.ndarray] = {}
        defined: Dict[str, np.ndarray] = {}
        blocks_trace: List[List[str]] = [[] for _ in range(n_threads)]
        counts = np.zeros((n_threads, 3), np.int64)

        def step(block_name, wave):
            (rows, bi, bl, bs, tcode, cond,
             true_target, false_target) = plan[block_name]
            for t in wave.tolist():
                blocks_trace[t].append(block_name)
            counts[wave, 0] += bi
            counts[wave, 1] += bl
            counts[wave, 2] += bs

            def fetch(mode, name):
                if mode == SRC_TID:
                    return wave
                d = defined.get(name)
                if d is None or not d[wave].all():
                    return None
                return regs[name][wave]

            def write(dst, vals):
                scatter(regs, defined, dst, wave, vals, n_threads)

            n = wave.shape[0]
            mem_rows = []
            for row in rows:
                out = eval_row(row, fetch, write, data, n)
                if out is None:
                    return None
                if out:
                    mem_rows.append(out)
            if tcode == 0:
                return mem_rows, ()
            if tcode == 1:
                return mem_rows, ((true_target, wave),)
            m, p = cond
            c = p if m == SRC_CONST else fetch(m, p)
            if c is None:
                return None
            taken = branch_taken(c, n)
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

        A launch of at least :data:`WAVE_MIN_THREADS` threads evaluates
        the threads at the same basic block as one numpy batch through
        :mod:`repro.ir.vecops`; results are identical to the sequential
        :meth:`run_thread` walk, which runs narrower launches thread by
        thread, remains the fallback for hazardous or erroneous kernels,
        and is the oracle the batch is tested against.
        """
        traces = (self._run_wave(n_threads)
                  if n_threads >= WAVE_MIN_THREADS else None)
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
