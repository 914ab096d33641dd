"""Static kernel statistics.

``kernel_statistics`` summarises a kernel the way architects skim one:
instruction mix by unit class, control-flow shape (blocks, branches,
loops, nesting), and block-size distribution.  Used by reports, handy
when writing new benchmark kernels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.ir.instr import TermKind, unit_class
from repro.ir.kernel import Kernel


@dataclass
class KernelStatistics:
    """Static summary of one kernel."""

    name: str
    n_blocks: int
    n_instructions: int
    n_branches: int          # conditional terminators
    n_loops: int
    max_loop_depth: int
    by_unit_class: Dict[str, int] = field(default_factory=dict)
    by_op: Counter = field(default_factory=Counter)
    block_sizes: List[int] = field(default_factory=list)

    @property
    def memory_fraction(self) -> float:
        mem = self.by_unit_class.get("memory", 0)
        return mem / self.n_instructions if self.n_instructions else 0.0

    @property
    def special_fraction(self) -> float:
        scu = self.by_unit_class.get("special", 0)
        return scu / self.n_instructions if self.n_instructions else 0.0

    @property
    def mean_block_size(self) -> float:
        return (
            sum(self.block_sizes) / len(self.block_sizes)
            if self.block_sizes else 0.0
        )

    def render(self) -> str:
        mix = ", ".join(
            f"{k}: {v}" for k, v in sorted(self.by_unit_class.items())
        )
        top_ops = ", ".join(
            f"{op.value} x{n}" for op, n in self.by_op.most_common(5)
        )
        return "\n".join([
            f"kernel {self.name}: {self.n_instructions} instructions in "
            f"{self.n_blocks} blocks",
            f"  branches: {self.n_branches}, loops: {self.n_loops} "
            f"(max depth {self.max_loop_depth})",
            f"  unit mix: {mix}",
            f"  top ops: {top_ops}",
            f"  block sizes: min {min(self.block_sizes or [0])}, "
            f"mean {self.mean_block_size:.1f}, "
            f"max {max(self.block_sizes or [0])}",
        ])


def kernel_statistics(kernel: Kernel) -> KernelStatistics:
    """Compute the static summary of ``kernel``."""
    from repro.compiler.cfganalysis import loop_depth, natural_loops

    by_class: Counter = Counter()
    by_op: Counter = Counter()
    sizes: List[int] = []
    branches = 0
    for block in kernel.blocks.values():
        sizes.append(len(block.instrs))
        if block.terminator.kind is TermKind.BR:
            branches += 1
        for instr in block.instrs:
            by_op[instr.op] += 1
            by_class[unit_class(instr.op).value] += 1

    loops = natural_loops(kernel)
    depth = loop_depth(kernel)
    return KernelStatistics(
        name=kernel.name,
        n_blocks=kernel.num_blocks,
        n_instructions=kernel.instruction_count(),
        n_branches=branches,
        n_loops=len(loops),
        max_loop_depth=max(depth.values()) if depth else 0,
        by_unit_class=dict(by_class),
        by_op=by_op,
        block_sizes=sizes,
    )
