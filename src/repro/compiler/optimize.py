"""Target-independent IR clean-up passes.

Applied once per kernel by the evaluation harness, before a kernel is
handed to *any* of the three machine models, so every architecture
executes the same instruction stream (the original toolchain gets this
for free from LLVM: dead-code elimination and FMA contraction happen
before PTX is emitted).

* :func:`eliminate_dead_code` — drops instructions whose results are
  never read (the structured builder leaves dead initialisers behind).
* :func:`fuse_fma` — contracts ``FADD(FMUL(a, b), c)`` into
  ``FMA(a, b, c)`` when the multiply's result has exactly one use.
  Arithmetic is double precision throughout the models, so contraction
  is exact and all machines stay bit-identical.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Tuple, Union

from repro.ir.block import BasicBlock
from repro.ir.instr import EVAL, Instr, Op, coerce_value
from repro.ir.kernel import Kernel
from repro.ir.types import TID_REG, DType, Imm, Reg, param_reg


def _use_counts(kernel: Kernel) -> Counter:
    uses: Counter = Counter()
    for block in kernel.blocks.values():
        for instr in block.instrs:
            for src in instr.srcs:
                if isinstance(src, Reg):
                    uses[src.name] += 1
        cond = block.terminator.cond
        if isinstance(cond, Reg):
            uses[cond.name] += 1
    return uses


def _def_counts(kernel: Kernel) -> Counter:
    defs: Counter = Counter()
    for block in kernel.blocks.values():
        for instr in block.instrs:
            if instr.dst is not None:
                defs[instr.dst] += 1
    return defs


def _rebuild(kernel: Kernel, blocks: Dict[str, BasicBlock]) -> Kernel:
    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        blocks=blocks,
        entry=kernel.entry,
        param_dtypes=dict(kernel.param_dtypes),
    )


def eliminate_dead_code(kernel: Kernel) -> Kernel:
    """Iteratively remove side-effect-free instructions whose destination
    register is never read anywhere in the kernel."""
    current = kernel
    while True:
        uses = _use_counts(current)
        changed = False
        blocks: Dict[str, BasicBlock] = {}
        for name, block in current.blocks.items():
            kept = []
            for instr in block.instrs:
                # Everything except STORE is side-effect-free (loads
                # cannot fault in this machine model), so any instruction
                # with an unread destination is dead.
                if instr.dst is not None and uses[instr.dst] == 0:
                    changed = True
                else:
                    kept.append(instr)
            blocks[name] = BasicBlock(name, kept, block.terminator)
        current = _rebuild(current, blocks)
        if not changed:
            return current


def fuse_fma(kernel: Kernel) -> Kernel:
    """Contract single-use FMUL feeding FADD into FMA, per block."""
    uses = _use_counts(kernel)
    defs = _def_counts(kernel)
    blocks: Dict[str, BasicBlock] = {}
    for name, block in kernel.blocks.items():
        instrs: list = list(block.instrs)
        producers: Dict[str, Tuple[int, Instr]] = {}
        for idx, instr in enumerate(instrs):
            if instr.dst is not None:
                producers[instr.dst] = (idx, instr)
        for idx, instr in enumerate(instrs):
            if instr is None or instr.op is not Op.FADD:
                continue
            for pos in (0, 1):
                src = instr.srcs[pos]
                if not isinstance(src, Reg):
                    continue
                prod = producers.get(src.name)
                if (
                    prod is not None
                    and prod[0] < idx
                    and instrs[prod[0]] is prod[1]  # multiply not yet fused away
                    and prod[1].op is Op.FMUL
                    and uses[src.name] == 1
                    and defs[src.name] == 1
                ):
                    mul_idx, mul = prod
                    other = instr.srcs[1 - pos]
                    instrs[idx] = Instr(
                        Op.FMA,
                        instr.dst,
                        (mul.srcs[0], mul.srcs[1], other),
                        instr.dtype,
                    )
                    instrs[mul_idx] = None
                    break
        blocks[name] = BasicBlock(
            name, [i for i in instrs if i is not None], block.terminator
        )
    return _rebuild(kernel, blocks)


def propagate_params(kernel: Kernel, params: Dict[str, Union[int, float]]
                     ) -> Kernel:
    """Substitute launch-parameter registers with immediates.

    On a VGIW machine, kernel parameters are configuration-time
    constants baked into unit configuration registers (paper §3.5), so
    specialising the IR on them before the per-launch compilation is
    faithful — and it exposes constant loop bounds to the unroller.
    """
    dtypes = kernel.param_dtypes
    values = {
        param_reg(p).name: Imm(coerce_value(params[p], dtypes[p]), dtypes[p])
        for p in kernel.params
        if p in params
    }

    def subst(operand):
        if isinstance(operand, Reg):
            return values.get(operand.name, operand)
        return operand

    blocks: Dict[str, BasicBlock] = {}
    for name, block in kernel.blocks.items():
        instrs = [
            Instr(i.op, i.dst, tuple(subst(s) for s in i.srcs), i.dtype)
            for i in block.instrs
        ]
        term = block.terminator
        if term.cond is not None:
            from repro.ir.instr import Terminator

            term = Terminator(term.kind, subst(term.cond),
                              term.true_target, term.false_target)
        blocks[name] = BasicBlock(name, instrs, term)
    return _rebuild(kernel, blocks)


def fold_constants(kernel: Kernel) -> Kernel:
    """Evaluate pure instructions whose operands are all immediates, and
    forward single-block constant MOV chains into later operands."""
    blocks: Dict[str, BasicBlock] = {}
    for name, block in kernel.blocks.items():
        consts: Dict[str, Imm] = {}
        instrs = []
        for instr in block.instrs:
            srcs = tuple(
                consts.get(s.name, s) if isinstance(s, Reg) else s
                for s in instr.srcs
            )
            if (
                instr.op not in (Op.LOAD, Op.STORE)
                and instr.dst is not None
                and all(isinstance(s, Imm) for s in srcs)
            ):
                raw = EVAL[instr.op](*(s.value for s in srcs))
                folded = Imm(coerce_value(raw, instr.dtype), instr.dtype)
                consts[instr.dst] = folded
                instrs.append(Instr(Op.MOV, instr.dst, (folded,), instr.dtype))
                continue
            if instr.dst is not None:
                consts.pop(instr.dst, None)
            instrs.append(Instr(instr.op, instr.dst, srcs, instr.dtype))
        blocks[name] = BasicBlock(name, instrs, block.terminator)
    return _rebuild(kernel, blocks)


def local_cse(kernel: Kernel) -> Kernel:
    """Block-local common-subexpression elimination.

    Pure instructions with identical (opcode, operands, result type)
    reuse the first occurrence's result.  The table is value-based
    despite the non-SSA IR: an entry dies as soon as any register it
    mentions (source or result) is redefined.  Loads and stores are never merged — memory
    disambiguation is the join nodes' job, not this pass's.
    """
    blocks: Dict[str, BasicBlock] = {}
    for name, block in kernel.blocks.items():
        table: Dict[Tuple, str] = {}
        instrs = []
        for instr in block.instrs:
            key = None
            if instr.op not in (Op.LOAD, Op.STORE) and instr.dst is not None:
                key = (instr.op, instr.srcs, instr.dtype)
                prev = table.get(key)
                if prev is not None:
                    instrs.append(
                        Instr(Op.MOV, instr.dst, (Reg(prev),), instr.dtype)
                    )
                    self_invalidate = instr.dst
                    table = {
                        k: v for k, v in table.items()
                        if v != self_invalidate
                        and not any(
                            isinstance(s, Reg) and s.name == self_invalidate
                            for s in k[1]
                        )
                    }
                    if prev != instr.dst:
                        table[key] = prev
                    continue
            if instr.dst is not None:
                # Kill every table entry that mentions the redefined reg.
                dst = instr.dst
                table = {
                    k: v for k, v in table.items()
                    if v != dst
                    and not any(
                        isinstance(s, Reg) and s.name == dst for s in k[1]
                    )
                }
            if key is not None:
                table[key] = instr.dst
            instrs.append(instr)
        blocks[name] = BasicBlock(name, instrs, block.terminator)
    return _rebuild(kernel, blocks)


def _reg_dtypes(kernel: Kernel) -> Dict[str, Optional[DType]]:
    """Every register's type across ``kernel``: a parameter's declared
    type, INT for ``%tid``, else the type of its definitions (``None``
    where they disagree)."""
    dtypes: Dict[str, Optional[DType]] = {
        param_reg(p).name: dt for p, dt in kernel.param_dtypes.items()
    }
    dtypes[TID_REG.name] = DType.INT
    for block in kernel.blocks.values():
        for instr in block.instrs:
            if instr.dst is None:
                continue
            if dtypes.setdefault(instr.dst, instr.dtype) is not instr.dtype:
                dtypes[instr.dst] = None
    return dtypes


def copy_propagate(kernel: Kernel) -> Kernel:
    """Block-local copy propagation: forward ``dst = MOV src-reg`` into
    later uses while both registers stay unredefined (makes the MOVs
    that CSE introduces dead, so DCE can drop them).  Only a MOV whose
    source register always holds the MOV's own type is a copy; any
    other MOV coerces its value."""
    dtypes = _reg_dtypes(kernel)
    blocks: Dict[str, BasicBlock] = {}
    for name, block in kernel.blocks.items():
        copies: Dict[str, str] = {}
        instrs = []
        for instr in block.instrs:
            srcs = tuple(
                Reg(copies[s.name]) if isinstance(s, Reg) and s.name in copies
                else s
                for s in instr.srcs
            )
            if instr.dst is not None:
                dst = instr.dst
                copies = {
                    a: b for a, b in copies.items() if a != dst and b != dst
                }
                if (instr.op is Op.MOV and isinstance(srcs[0], Reg)
                        and dtypes.get(srcs[0].name) is instr.dtype):
                    copies[dst] = srcs[0].name
            instrs.append(Instr(instr.op, instr.dst, srcs, instr.dtype))
        term = block.terminator
        if isinstance(term.cond, Reg) and term.cond.name in copies:
            from repro.ir.instr import Terminator

            term = Terminator(term.kind, Reg(copies[term.cond.name]),
                              term.true_target, term.false_target)
        blocks[name] = BasicBlock(name, instrs, term)
    return _rebuild(kernel, blocks)


def optimize_kernel(kernel: Kernel,
                    params: Optional[Dict[str, Union[int, float]]] = None,
                    unroll: bool = True) -> Kernel:
    """Standard pass order.

    Without ``params``: DCE, FMA contraction, DCE.  With ``params``
    (per-launch specialisation, as a VGIW configuration generator would
    do): parameter propagation and constant folding first, then loop
    unrolling of constant-trip loops, then the clean-up passes.
    """
    if params is not None:
        kernel = propagate_params(kernel, params)
        kernel = fold_constants(kernel)
        if unroll:
            from repro.compiler.unroll import unroll_loops

            kernel = eliminate_dead_code(kernel)
            kernel = unroll_loops(kernel)
            kernel = fold_constants(kernel)
    kernel = eliminate_dead_code(kernel)
    kernel = fuse_fma(kernel)
    kernel = local_cse(kernel)
    kernel = copy_propagate(kernel)
    return eliminate_dead_code(kernel)
