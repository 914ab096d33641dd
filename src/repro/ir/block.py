"""Basic blocks of the virtual kernel ISA."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.ir.instr import Instr, Terminator
from repro.ir.types import Reg


@dataclass
class BasicBlock:
    """A straight-line instruction sequence ending in one terminator.

    On a VGIW machine each basic block becomes one *graph instruction
    word*: its dataflow graph is what the BBS configures onto the
    MT-CGRF core (paper section 2).
    """

    name: str
    instrs: List[Instr] = field(default_factory=list)
    terminator: Terminator = None

    def append(self, instr: Instr) -> None:
        self.instrs.append(instr)

    def successors(self) -> tuple:
        """Names of successor blocks (empty for exit blocks)."""
        return self.terminator.targets()

    def defs(self) -> Set[str]:
        """Register names written in this block."""
        return {i.dst for i in self.instrs if i.dst is not None}

    def uses_before_def(self) -> Set[str]:
        """Register names read before being written in this block.

        This is the ``use`` set of classic liveness analysis.  The
        terminator's condition operand counts as a use at the end of the
        block.
        """
        defined: Set[str] = set()
        used: Set[str] = set()
        for instr in self.instrs:
            for src in instr.srcs:
                if isinstance(src, Reg) and src.name not in defined:
                    used.add(src.name)
            if instr.dst is not None:
                defined.add(instr.dst)
        cond = self.terminator.cond if self.terminator else None
        if isinstance(cond, Reg) and cond.name not in defined:
            used.add(cond.name)
        return used

    def __repr__(self) -> str:
        body = "\n".join(f"  {i!r}" for i in self.instrs)
        term = f"  {self.terminator!r}" if self.terminator else "  <unterminated>"
        return f"{self.name}:\n{body}\n{term}" if body else f"{self.name}:\n{term}"
