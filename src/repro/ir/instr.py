"""Instructions and terminators of the virtual kernel ISA.

Each opcode is annotated with the MT-CGRF functional-unit class that
executes it (paper section 3.5):

* ``COMPUTE`` — the merged FPU-ALU compute units (pipelined, II = 1).
* ``SPECIAL`` — special compute units (SCUs) that pool non-pipelined
  circuits such as dividers and square roots.
* ``MEMORY``  — load/store units (LDSTUs) on the grid perimeter.

Live-value traffic (LVU), thread initiation/termination (CVU) and
split/join nodes are not opcodes; the compiler materialises them as
dataflow-graph nodes when it extracts each basic block's graph.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from repro.ir.types import DType, Operand


class UnitClass(enum.Enum):
    """Functional-unit class that executes an opcode."""

    __hash__ = object.__hash__  # singleton members: identity, in C

    COMPUTE = "compute"
    SPECIAL = "special"
    MEMORY = "memory"


class Op(enum.Enum):
    """Opcodes of the virtual ISA."""

    __hash__ = object.__hash__  # singleton members: identity, in C

    # Integer arithmetic / logic (ALU side of the merged unit).
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    MIN = "min"
    MAX = "max"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"
    NOT = "not"
    ABS = "abs"
    # Floating point (FPU side of the merged unit).
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FMIN = "fmin"
    FMAX = "fmax"
    FNEG = "fneg"
    FABS = "fabs"
    FMA = "fma"
    # Comparisons (operate on either numeric type, produce PRED).
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    # Conversions and moves.
    I2F = "i2f"
    F2I = "f2i"  # truncation toward zero
    MOV = "mov"
    SELECT = "select"  # (pred, if_true, if_false)
    # Non-pipelined operations, executed by the SCUs.
    DIV = "div"  # integer division, toward -inf; x/0 == 0 (pinned)
    REM = "rem"  # integer remainder, sign follows divisor; x%0 == 0
    FDIV = "fdiv"
    FSQRT = "fsqrt"
    FRSQRT = "frsqrt"
    FEXP = "fexp"
    FLOG = "flog"
    FSIN = "fsin"
    FCOS = "fcos"
    FFLOOR = "ffloor"
    # Memory.
    LOAD = "load"  # dst <- mem[src0]
    STORE = "store"  # mem[src0] <- src1


_SPECIAL_OPS = {
    Op.DIV,
    Op.REM,
    Op.FDIV,
    Op.FSQRT,
    Op.FRSQRT,
    Op.FEXP,
    Op.FLOG,
    Op.FSIN,
    Op.FCOS,
    Op.FFLOOR,
}

_MEMORY_OPS = {Op.LOAD, Op.STORE}

_FLOAT_RESULT_OPS = {
    Op.FADD,
    Op.FSUB,
    Op.FMUL,
    Op.FMIN,
    Op.FMAX,
    Op.FNEG,
    Op.FABS,
    Op.FMA,
    Op.I2F,
    Op.FDIV,
    Op.FSQRT,
    Op.FRSQRT,
    Op.FEXP,
    Op.FLOG,
    Op.FSIN,
    Op.FCOS,
    Op.FFLOOR,
}

_PRED_RESULT_OPS = {Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE}


def unit_class(op: Op) -> UnitClass:
    """Return the functional-unit class that executes ``op``."""
    if op in _SPECIAL_OPS:
        return UnitClass.SPECIAL
    if op in _MEMORY_OPS:
        return UnitClass.MEMORY
    return UnitClass.COMPUTE


def result_dtype(op: Op, operand_dtype: DType = DType.INT) -> DType:
    """Return the data type an opcode produces.

    ``MOV`` and ``SELECT`` are polymorphic; for those the caller supplies
    the operand type.
    """
    if op in _FLOAT_RESULT_OPS:
        return DType.FLOAT
    if op in _PRED_RESULT_OPS:
        return DType.PRED
    if op in (Op.MOV, Op.SELECT, Op.LOAD):
        return operand_dtype
    return DType.INT


@dataclass
class Instr:
    """A three-address instruction.

    ``dst`` is ``None`` only for ``STORE``.  ``srcs`` holds the operands
    in opcode-defined order.  ``dtype`` is the result data type (for
    ``STORE``, the type of the stored value).
    """

    op: Op
    dst: Optional[str]
    srcs: Tuple[Operand, ...]
    dtype: DType

    def __repr__(self) -> str:
        srcs = ", ".join(repr(s) for s in self.srcs)
        if self.dst is None:
            return f"{self.op.value} {srcs}"
        return f"%{self.dst} = {self.op.value} {srcs}"


class TermKind(enum.Enum):
    """Kinds of basic-block terminators."""

    __hash__ = object.__hash__  # singleton members: identity, in C

    JMP = "jmp"
    BR = "br"
    RET = "ret"


@dataclass
class Terminator:
    """Block terminator: an unconditional jump, a two-way conditional
    branch, or a kernel exit.

    The conditional branch carries a PRED operand; a true outcome
    transfers control to ``true_target``, false to ``false_target``.
    On a VGIW machine the terminator is executed by a control vector
    unit acting as a thread terminator (paper section 3.5, Fig. 6).
    """

    kind: TermKind
    cond: Optional[Operand] = None
    true_target: Optional[str] = None
    false_target: Optional[str] = None

    @staticmethod
    def jmp(target: str) -> "Terminator":
        """An unconditional jump to ``target``."""
        return Terminator(TermKind.JMP, true_target=target)

    @staticmethod
    def br(cond: Operand, true_target: str, false_target: str) -> "Terminator":
        """A branch to ``true_target`` when ``cond`` is true, else to
        ``false_target``."""
        return Terminator(
            TermKind.BR, cond=cond, true_target=true_target, false_target=false_target
        )

    @staticmethod
    def ret() -> "Terminator":
        """A kernel exit."""
        return Terminator(TermKind.RET)

    def targets(self) -> Tuple[str, ...]:
        """Successor block names, in (true, false) order."""
        if self.kind is TermKind.JMP:
            return (self.true_target,)
        if self.kind is TermKind.BR:
            return (self.true_target, self.false_target)
        return ()

    def __repr__(self) -> str:
        if self.kind is TermKind.JMP:
            return f"jmp {self.true_target}"
        if self.kind is TermKind.BR:
            return f"br {self.cond!r}, {self.true_target}, {self.false_target}"
        return "ret"


def _as_bool(x: Union[int, float, bool]) -> bool:
    return bool(x)


# ----------------------------------------------------------------------
# Pinned edge-case semantics
# ----------------------------------------------------------------------
# Every opcode below is *total*: no input (division by zero, out-of-range
# shift amount, non-finite float) may raise.  The full contract is
# rendered as the normative table in ``docs/semantics.md`` and is
# unit-tested per opcode in ``tests/test_instr_semantics.py`` (scalar)
# and ``tests/test_vecops.py`` (the numpy batch kernels in
# :mod:`repro.ir.vecops`, which must agree bit-for-bit); the
# differential fuzzer (``repro.fuzz``) relies on it to generate
# arbitrary operand values without crashing any substrate.
#
#   integer ops   operands/results -> wrapping signed 64-bit two's
#                                      complement (the INT datapath is
#                                      a 64-bit register, like SHL
#                                      always was); float operands of
#                                      integer ops convert by the F2I
#                                      rule first
#   DIV / REM     divisor 0        -> 0 (hardware-style "garbage" pinned
#                                      to a deterministic value)
#   DIV           INT64_MIN / -1   -> INT64_MIN (wraps)
#   SHL / SHR     shift amount     -> masked to [0, 63] (64-bit datapath)
#   F2I           NaN              -> 0
#                 out of i64 range -> saturates to INT64_MIN/MAX
#                 (also the rule for *every* float->int conversion:
#                 INT-typed result coercion, int-op operands, addresses)
#   I2F           |a| > DBL_MAX    -> +/-inf;  NaN -> NaN
#   FDIV          x/0              -> +/-inf (IEEE sign), 0/0, nan/0 -> nan
#   FSQRT         a < 0            -> nan
#   FRSQRT        a == 0           -> +inf;  a < 0 -> nan
#   FEXP          overflow         -> +inf
#   FLOG          a == 0           -> -inf;  a < 0 -> nan
#   FSIN / FCOS   nan / +/-inf     -> nan
#   FFLOOR        nan / +/-inf     -> propagated unchanged

_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63
INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)
_TWO63_F = float(1 << 63)


def _wrap_i64(v: int) -> int:
    """Wrap ``v`` to signed 64-bit two's complement."""
    v &= _I64_MASK
    return v - (1 << 64) if v & _I64_SIGN else v


def _asi(v) -> int:
    """Integer-op operand conversion: the INT datapath is a signed
    64-bit register, so integer values wrap and floats convert by the
    pinned F2I rule (truncate toward zero, NaN -> 0, saturate)."""
    if isinstance(v, float):
        return _f2i(v)
    return _wrap_i64(int(v))


def coerce_i64(v) -> int:
    """INT-typed result coercion (total): wraps integers to the 64-bit
    datapath, converts floats by the pinned F2I rule."""
    if isinstance(v, float):
        return _f2i(v)
    return _wrap_i64(int(v))


def coerce_value(v, dtype: DType) -> Union[int, float, bool]:
    """The value a register, memory load, folded constant or launch
    parameter of type ``dtype`` holds for the raw value ``v``: INT by
    :func:`coerce_i64`, FLOAT by ``float``, PRED by ``bool``.  Its batch
    twin is :func:`repro.ir.vecops.coerce_array`."""
    if dtype is DType.INT:
        return coerce_i64(v)
    if dtype is DType.FLOAT:
        return float(v)
    return bool(v)


def _add(a, b) -> int:
    return _wrap_i64(_asi(a) + _asi(b))


def _sub(a, b) -> int:
    return _wrap_i64(_asi(a) - _asi(b))


def _mul(a, b) -> int:
    return _wrap_i64(_asi(a) * _asi(b))


def _div(a, b) -> int:
    a, b = _asi(a), _asi(b)
    return _wrap_i64(a // b) if b else 0


def _rem(a, b) -> int:
    a, b = _asi(a), _asi(b)
    return a % b if b else 0


def _shl(a, b) -> int:
    return _wrap_i64(_asi(a) << (_asi(b) & 63))


def _shr(a, b) -> int:
    return _asi(a) >> (_asi(b) & 63)


def _neg(a) -> int:
    return _wrap_i64(-_asi(a))


def _abs(a) -> int:
    return _wrap_i64(abs(_asi(a)))


def _f2i(a) -> int:
    a = float(a)
    if a != a:  # NaN
        return 0
    if a >= _TWO63_F:
        return INT64_MAX
    if a <= -_TWO63_F:
        return INT64_MIN
    return int(a)  # truncation toward zero


def _i2f(a) -> float:
    if isinstance(a, float):
        if a != a or a in (math.inf, -math.inf):
            return a  # NaN / infinities propagate (pinned)
        a = int(a)
    else:
        a = int(a)
    try:
        return float(a)
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _fdiv(a, b) -> float:
    a, b = float(a), float(b)
    if b == 0.0:
        if a != a or a == 0.0:
            return math.nan
        inf = math.copysign(math.inf, a)
        return inf if math.copysign(1.0, b) > 0 else -inf
    return a / b


def _fsqrt(a) -> float:
    a = float(a)
    return math.nan if a < 0.0 else math.sqrt(a)


def _frsqrt(a) -> float:
    a = float(a)
    if a != a or a < 0.0:
        return math.nan
    if a == 0.0:
        return math.inf
    if a == math.inf:
        return 0.0
    return 1.0 / math.sqrt(a)


def _fexp(a) -> float:
    try:
        return math.exp(float(a))
    except OverflowError:
        return math.inf


def _flog(a) -> float:
    a = float(a)
    if a != a or a < 0.0:
        return math.nan
    if a == 0.0:
        return -math.inf
    return math.log(a)


def _fsin(a) -> float:
    a = float(a)
    return math.nan if (a != a or a in (math.inf, -math.inf)) else math.sin(a)


def _fcos(a) -> float:
    a = float(a)
    return math.nan if (a != a or a in (math.inf, -math.inf)) else math.cos(a)


def _ffloor(a) -> float:
    a = float(a)
    if a != a or a in (math.inf, -math.inf):
        return a
    return float(math.floor(a))


#: Pure evaluation functions for every non-memory opcode, shared by the
#: reference interpreter and all three timing simulators so that the
#: machines are functionally identical by construction.  Every function
#: is total (see the pinned edge-case table above / docs/fuzzing.md).
EVAL: Dict[Op, Callable] = {
    Op.ADD: _add,
    Op.SUB: _sub,
    Op.MUL: _mul,
    Op.MIN: lambda a, b: min(_asi(a), _asi(b)),
    Op.MAX: lambda a, b: max(_asi(a), _asi(b)),
    Op.AND: lambda a, b: _asi(a) & _asi(b),
    Op.OR: lambda a, b: _asi(a) | _asi(b),
    Op.XOR: lambda a, b: _asi(a) ^ _asi(b),
    Op.SHL: _shl,
    Op.SHR: _shr,
    Op.NEG: _neg,
    Op.NOT: lambda a: (not _as_bool(a)) if isinstance(a, bool) else ~_asi(a),
    Op.ABS: _abs,
    Op.FADD: lambda a, b: float(a) + float(b),
    Op.FSUB: lambda a, b: float(a) - float(b),
    Op.FMUL: lambda a, b: float(a) * float(b),
    Op.FMIN: lambda a, b: min(float(a), float(b)),
    Op.FMAX: lambda a, b: max(float(a), float(b)),
    Op.FNEG: lambda a: -float(a),
    Op.FABS: lambda a: abs(float(a)),
    Op.FMA: lambda a, b, c: float(a) * float(b) + float(c),
    Op.EQ: lambda a, b: a == b,
    Op.NE: lambda a, b: a != b,
    Op.LT: lambda a, b: a < b,
    Op.LE: lambda a, b: a <= b,
    Op.GT: lambda a, b: a > b,
    Op.GE: lambda a, b: a >= b,
    Op.I2F: _i2f,
    Op.F2I: _f2i,
    Op.MOV: lambda a: a,
    Op.SELECT: lambda p, a, b: a if _as_bool(p) else b,
    Op.DIV: _div,
    Op.REM: _rem,
    Op.FDIV: _fdiv,
    Op.FSQRT: _fsqrt,
    Op.FRSQRT: _frsqrt,
    Op.FEXP: _fexp,
    Op.FLOG: _flog,
    Op.FSIN: _fsin,
    Op.FCOS: _fcos,
    Op.FFLOOR: _ffloor,
}
