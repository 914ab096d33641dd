"""Core value types and operands of the virtual kernel ISA.

The ISA is a small RISC-style, three-address virtual instruction set that
stands in for the PTX/SSA form the original VGIW compiler consumed
(paper section 4, "Compiler": CUDA kernels compiled via LLVM to SSA).

Values carry one of three data types:

* ``INT`` — signed integers.  The simulators treat them as mathematical
  integers (no 32-bit wraparound); Rodinia-class kernels never rely on
  overflow, and words occupy 4 bytes for cache-geometry purposes.
* ``FLOAT`` — IEEE double precision floats used to model the 32-bit
  floats of the real hardware (exactness simplifies golden checks).
* ``PRED`` — booleans produced by comparisons and consumed by
  ``SELECT`` and conditional branches.

Instruction operands are either virtual registers (:class:`Reg`) or
immediates (:class:`Imm`).  Immediates, thread IDs and kernel parameters
are *configuration-time constants* for the dataflow fabric: they are baked
into functional-unit configuration registers and cost no token traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union


class DType(enum.Enum):
    """Data type of a value in the virtual ISA."""

    __hash__ = object.__hash__  # singleton members: identity, in C

    INT = "int"
    FLOAT = "float"
    PRED = "pred"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DType.{self.name}"


@dataclass(frozen=True)
class Reg:
    """A virtual register operand, identified by name.

    Register names are kernel-unique storage locations (the IR is *not*
    SSA); the compiler's liveness analysis decides which registers cross
    basic-block boundaries and must become live values (paper section 3.1).
    """

    name: str

    def __repr__(self) -> str:
        return f"%{self.name}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand with an explicit data type."""

    value: Union[int, float, bool]
    dtype: DType

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = Union[Reg, Imm]

#: Reserved register holding the CUDA-style thread index.  It is produced
#: by the control vector unit acting as a thread initiator (paper Fig. 6)
#: and is readable, never writable, by kernel code.
TID_REG = Reg("tid")

#: Prefix for kernel-parameter registers.  Parameters are uniform across
#: threads and known at configuration time.
PARAM_PREFIX = "arg."


def param_reg(name: str) -> Reg:
    """Return the reserved register that holds kernel parameter ``name``."""
    return Reg(PARAM_PREFIX + name)


def is_param_reg(reg: Reg) -> bool:
    """True if ``reg`` is a kernel-parameter register."""
    return reg.name.startswith(PARAM_PREFIX)


def is_reserved_reg(reg: Reg) -> bool:
    """True if ``reg`` may not be written by kernel instructions."""
    return reg == TID_REG or is_param_reg(reg)
