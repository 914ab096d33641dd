"""Loop unrolling for constant-trip-count loops.

The MT-CGRF rewards *fat* basic blocks: every block execution costs one
reconfiguration plus ``threads / replicas`` injection cycles plus a
pipeline drain, so folding a short constant-trip loop into straight-line
code multiplies the work per block visit without changing semantics.
The original toolchain gets this from LLVM's unroller; this pass
implements the restricted form our structured builder produces:

* the loop is a natural loop with exactly two blocks (header + latch
  body, as built by ``for_range``/``loop``);
* the header's condition compares the induction register against
  constants, and the induction register is advanced by a constant step
  exactly once, at the end of the body;
* the trip count is a compile-time constant and small enough that the
  unrolled body still fits the fabric
  (``trip count * body size <= max_unrolled_instrs``).

Loops that do not match stay untouched — dynamic trip counts (BFS's
edge loop, lavamd's ``per_box``) must keep their control flow, which is
exactly the behaviour the paper's evaluation depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.cfganalysis import natural_loops
from repro.ir.block import BasicBlock
from repro.ir.instr import Instr, Op, TermKind, Terminator, coerce_value
from repro.ir.kernel import Kernel
from repro.ir.types import Imm, Reg
from repro.ir.validate import validate_kernel

#: Cap on instructions an unrolled loop may expand into.
MAX_UNROLLED_INSTRS = 200

_CMP_OPS = {Op.LT, Op.LE, Op.GT, Op.GE, Op.NE}


@dataclass
class _UnrollPlan:
    header: str
    body: str
    exit_target: str
    induction: str
    dtype: object
    start: float
    step: float
    trips: int


def _constant_def(block: BasicBlock, reg: str) -> Optional[float]:
    """The constant a register holds at block exit, if statically known."""
    value: Optional[float] = None
    for instr in block.instrs:
        if instr.dst == reg:
            if instr.op is Op.MOV and isinstance(instr.srcs[0], Imm):
                value = instr.srcs[0].value
            else:
                return None
    return value


def _match_loop(kernel: Kernel, header_name: str, body_names) -> Optional[_UnrollPlan]:
    header = kernel.blocks[header_name]
    if len(body_names) != 2:  # header + single latch body
        return None
    body_name = next(n for n in body_names if n != header_name)
    body = kernel.blocks[body_name]
    if body.successors() != (header_name,):
        return None
    term = header.terminator
    if term.kind is not TermKind.BR:
        return None
    # The header must be: cmp = IV <op> const ; br cmp, body, exit.
    if len(header.instrs) != 1:
        return None
    cmp = header.instrs[0]
    if cmp.op not in _CMP_OPS or not isinstance(term.cond, Reg):
        return None
    if term.cond.name != cmp.dst:
        return None
    if term.true_target != body_name:
        return None
    if not (isinstance(cmp.srcs[0], Reg) and isinstance(cmp.srcs[1], Imm)):
        return None
    induction = cmp.srcs[0].name
    bound = cmp.srcs[1].value

    # The body must advance the induction register exactly once by a
    # constant, as its final definition of it.
    step: Optional[float] = None
    writes = [i for i in body.instrs if i.dst == induction]
    if len(writes) != 1 or writes[0] is not body.instrs[-1]:
        return None
    adv = writes[0]
    # Builder form: %tmp = add %i, step ; %i = mov %tmp   — or a direct add.
    if adv.op is Op.MOV and isinstance(adv.srcs[0], Reg):
        tmp = adv.srcs[0].name
        producers = [i for i in body.instrs if i.dst == tmp]
        if len(producers) != 1:
            return None
        adv = producers[0]
    if adv.op is not Op.ADD:
        return None
    if isinstance(adv.srcs[0], Reg) and adv.srcs[0].name == induction \
            and isinstance(adv.srcs[1], Imm):
        step = adv.srcs[1].value
    elif isinstance(adv.srcs[1], Reg) and adv.srcs[1].name == induction \
            and isinstance(adv.srcs[0], Imm):
        step = adv.srcs[0].value
    if not step:
        return None

    # The induction start: every predecessor of the header outside the
    # loop must leave it at the same known constant.
    preds = kernel.predecessors()[header_name]
    starts = set()
    for pred in preds:
        if pred == body_name:
            continue
        start = _constant_def(kernel.blocks[pred], induction)
        if start is None:
            return None
        starts.add(start)
    if len(starts) != 1:
        return None
    start = starts.pop()

    # Trip count for "while IV <op> bound".
    trips = _trip_count(cmp.op, start, bound, step)
    if trips is None or trips <= 0:
        return None
    if trips * len(body.instrs) > MAX_UNROLLED_INSTRS:
        return None
    return _UnrollPlan(
        header=header_name, body=body_name, exit_target=term.false_target,
        induction=induction, dtype=writes[0].dtype,
        start=start, step=step, trips=trips,
    )


def _trip_count(op: Op, start: float, bound: float, step: float) -> Optional[int]:
    trips = 0
    value = start
    for _ in range(MAX_UNROLLED_INSTRS + 1):
        taken = {
            Op.LT: value < bound,
            Op.LE: value <= bound,
            Op.GT: value > bound,
            Op.GE: value >= bound,
            Op.NE: value != bound,
        }[op]
        if not taken:
            return trips
        trips += 1
        value += step
    return None  # too many iterations (or non-terminating)


def unroll_loops(kernel: Kernel) -> Kernel:
    """Fully unroll every matching constant-trip loop."""
    changed = True
    current = kernel
    while changed:
        changed = False
        for header, loop in natural_loops(current).items():
            plan = _match_loop(current, header, loop.body)
            if plan is None:
                continue
            current = _apply(current, plan)
            validate_kernel(current)
            changed = True
            break  # loop structures changed; re-analyse
    return current


def _apply(kernel: Kernel, plan: _UnrollPlan) -> Kernel:
    from repro.ir.types import DType

    body = kernel.blocks[plan.body]
    dtype = plan.dtype or DType.INT

    def seed(value):
        v = coerce_value(value, dtype)
        return Instr(Op.MOV, plan.induction, (Imm(v, dtype),), dtype)

    # Each iteration starts from its own seeded constant; the body's own
    # advance instruction then recomputes the next value (redundantly but
    # harmlessly — DCE keeps things tidy).  A final seed exposes the
    # post-loop induction value to the epilogue.
    unrolled: List[Instr] = []
    value = plan.start
    for _ in range(plan.trips):
        unrolled.append(seed(value))
        unrolled.extend(body.instrs)
        value += plan.step
    unrolled.append(seed(value))

    new_header = BasicBlock(
        plan.header, unrolled, Terminator.jmp(plan.exit_target)
    )
    blocks: Dict[str, BasicBlock] = {}
    for name, blk in kernel.blocks.items():
        if name == plan.header:
            blocks[name] = new_header
        elif name == plan.body:
            continue  # absorbed into the header
        else:
            blocks[name] = blk
    return Kernel(
        name=kernel.name,
        params=list(kernel.params),
        blocks=blocks,
        entry=kernel.entry,
        param_dtypes=dict(kernel.param_dtypes),
    )
