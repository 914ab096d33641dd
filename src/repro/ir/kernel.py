"""Kernel container: a named CFG of basic blocks plus parameter list."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ir.block import BasicBlock
from repro.ir.types import DType


@dataclass
class Kernel:
    """A data-parallel kernel: one CFG executed by every thread.

    ``params`` are launch-time scalars (array base addresses, sizes,
    coefficients); each thread additionally reads its thread index from
    the reserved ``tid`` register.  ``param_dtypes`` records the declared
    type of each parameter (INT unless declared otherwise).
    """

    name: str
    params: List[str]
    blocks: Dict[str, BasicBlock]
    entry: str
    param_dtypes: Dict[str, DType] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for p in self.params:
            self.param_dtypes.setdefault(p, DType.INT)

    # ------------------------------------------------------------------
    # CFG helpers
    # ------------------------------------------------------------------
    def successors(self, name: str) -> Tuple[str, ...]:
        return self.blocks[name].successors()

    def predecessors(self) -> Dict[str, List[str]]:
        """Map each block name to the names of its CFG predecessors."""
        preds: Dict[str, List[str]] = {name: [] for name in self.blocks}
        for name, block in self.blocks.items():
            for succ in block.successors():
                preds[succ].append(name)
        return preds

    def exit_blocks(self) -> List[str]:
        """Names of blocks that terminate the kernel (RET)."""
        return [n for n, b in self.blocks.items() if not b.successors()]

    # ------------------------------------------------------------------
    # Statistics used by the evaluation harness and Table 2
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def instruction_count(self) -> int:
        return sum(len(b.instrs) for b in self.blocks.values())

    def __repr__(self) -> str:
        header = f"kernel {self.name}({', '.join(self.params)})"
        body = "\n".join(repr(self.blocks[n]) for n in self.blocks)
        return f"{header}\n{body}"
