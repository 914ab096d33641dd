"""Structural and semantic validation of kernels.

``validate_kernel`` raises :class:`ValidationError` on the first problem
found.  It is called by :meth:`KernelBuilder.build`, so every kernel that
reaches a simulator is well-formed.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.ir.block import BasicBlock
from repro.ir.instr import Instr, Op, TermKind
from repro.ir.kernel import Kernel
from repro.ir.types import Reg, is_reserved_reg, param_reg
from repro.resilience.errors import CompileError

#: Expected operand count for each opcode.
_ARITY = {
    Op.ADD: 2, Op.SUB: 2, Op.MUL: 2, Op.MIN: 2, Op.MAX: 2,
    Op.AND: 2, Op.OR: 2, Op.XOR: 2, Op.SHL: 2, Op.SHR: 2,
    Op.NEG: 1, Op.NOT: 1, Op.ABS: 1,
    Op.FADD: 2, Op.FSUB: 2, Op.FMUL: 2, Op.FMIN: 2, Op.FMAX: 2,
    Op.FNEG: 1, Op.FABS: 1, Op.FMA: 3,
    Op.EQ: 2, Op.NE: 2, Op.LT: 2, Op.LE: 2, Op.GT: 2, Op.GE: 2,
    Op.I2F: 1, Op.F2I: 1, Op.MOV: 1, Op.SELECT: 3,
    Op.DIV: 2, Op.REM: 2, Op.FDIV: 2,
    Op.FSQRT: 1, Op.FRSQRT: 1, Op.FEXP: 1, Op.FLOG: 1,
    Op.FSIN: 1, Op.FCOS: 1, Op.FFLOOR: 1,
    Op.LOAD: 1, Op.STORE: 2,
}


class ValidationError(CompileError):
    """Raised when a kernel violates a structural or semantic rule."""


def _check_instr(kernel: Kernel, block: BasicBlock, instr: Instr) -> None:
    where = f"{kernel.name}/{block.name}: {instr!r}"
    arity = _ARITY.get(instr.op)
    if arity is None:
        raise ValidationError(f"unknown opcode in {where}")
    if len(instr.srcs) != arity:
        raise ValidationError(
            f"opcode {instr.op.value} expects {arity} operands, "
            f"got {len(instr.srcs)} in {where}"
        )
    if instr.op is Op.STORE:
        if instr.dst is not None:
            raise ValidationError(f"STORE must not define a register in {where}")
    elif instr.dst is None:
        raise ValidationError(f"{instr.op.value} must define a register in {where}")
    if instr.dst is not None and is_reserved_reg(Reg(instr.dst)):
        raise ValidationError(f"write to reserved register %{instr.dst} in {where}")


def _check_defined_on_all_paths(kernel: Kernel) -> None:
    """Reject reads of registers that may be undefined on some path.

    Forward may-be-undefined analysis: a register is *surely defined* at
    block entry if it is defined on every CFG path from the entry block.
    Reserved registers (``tid``, parameters) are always defined.
    """
    always: Set[str] = {param_reg(p).name for p in kernel.params}
    always.add("tid")

    defined_out: Dict[str, Set[str]] = {}
    preds = kernel.predecessors()
    order = list(kernel.blocks)
    changed = True
    while changed:
        changed = False
        for name in order:
            block = kernel.blocks[name]
            if name == kernel.entry:
                in_set = set(always)
            else:
                pred_outs = [defined_out[p] for p in preds[name] if p in defined_out]
                if not pred_outs:
                    # No processed predecessor yet; skip until one exists.
                    continue
                in_set = set.intersection(*pred_outs) | always
            out_set = in_set | block.defs()
            if defined_out.get(name) != out_set:
                defined_out[name] = out_set
                changed = True

    for name, block in kernel.blocks.items():
        if name not in defined_out:
            continue
        in_set = (
            set(always)
            if name == kernel.entry
            else set.intersection(
                *(defined_out[p] for p in preds[name] if p in defined_out)
            )
            | always
        )
        local = set(in_set)
        for instr in block.instrs:
            for src in instr.srcs:
                if isinstance(src, Reg) and src.name not in local:
                    raise ValidationError(
                        f"register %{src.name} may be read before definition "
                        f"in {kernel.name}/{name}: {instr!r}"
                    )
            if instr.dst is not None:
                local.add(instr.dst)
        cond = block.terminator.cond
        if isinstance(cond, Reg) and cond.name not in local:
            raise ValidationError(
                f"branch condition %{cond.name} may be undefined "
                f"in {kernel.name}/{name}"
            )


def validate_kernel(kernel: Kernel) -> None:
    """Validate ``kernel``; raise :class:`ValidationError` on any problem."""
    if kernel.entry not in kernel.blocks:
        raise ValidationError(f"entry block {kernel.entry!r} does not exist")
    if len(set(kernel.params)) != len(kernel.params):
        raise ValidationError("duplicate kernel parameter names")

    for name, block in kernel.blocks.items():
        if block.name != name:
            raise ValidationError(f"block registered as {name!r} is named {block.name!r}")
        if block.terminator is None:
            raise ValidationError(f"block {name!r} has no terminator")
        if block.terminator.kind is TermKind.BR and block.terminator.cond is None:
            raise ValidationError(f"conditional branch without condition in {name!r}")
        for target in block.successors():
            if target not in kernel.blocks:
                raise ValidationError(
                    f"block {name!r} branches to unknown block {target!r}"
                )
        for instr in block.instrs:
            _check_instr(kernel, block, instr)

    # Reachability: every block must be reachable from the entry.
    seen = {kernel.entry}
    stack = [kernel.entry]
    while stack:
        for succ in kernel.blocks[stack.pop()].successors():
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    unreachable = set(kernel.blocks) - seen
    if unreachable:
        raise ValidationError(f"unreachable blocks: {sorted(unreachable)}")

    if not kernel.exit_blocks():
        raise ValidationError("kernel has no exit (RET) block")

    _check_defined_on_all_paths(kernel)
