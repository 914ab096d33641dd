"""Live-value ID allocation.

Every register that is live across a block boundary gets a *live value
ID*: a row index into the memory-resident live-value matrix that the LVC
caches (paper §3.4 — the matrix is indexed by ⟨live value ID, thread
ID⟩).  The mapping process is analogous to register allocation; here we
use a straightforward interference-based reuse so the matrix stays
compact: two registers may share an ID when no block has both live-out
(their memory rows never hold meaningful data for the same thread at
the same time... conservatively approximated by live-range overlap at
block granularity).

Per block, the allocation also records which live values the block must
*fetch* (live-in registers it actually reads) and which it must *spill*
(registers it defines that are live-out).  Registers that are merely
live *through* a block cost nothing: their rows simply stay resident in
the LVC/memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

from repro.compiler.liveness import LivenessResult, analyze_liveness
from repro.ir.kernel import Kernel
from repro.ir.types import Reg, is_reserved_reg


@dataclass
class LiveValueMap:
    """Result of live-value allocation for one kernel."""

    #: register name -> live value ID
    ids: Dict[str, int]
    #: per block: live-in registers the block reads (LVU load nodes)
    fetches: Dict[str, FrozenSet[str]]
    #: per block: registers defined here and live-out (LVU store nodes)
    spills: Dict[str, FrozenSet[str]]
    liveness: LivenessResult = None

    @property
    def n_live_values(self) -> int:
        return 1 + max(self.ids.values()) if self.ids else 0

    def lv_id(self, reg: str) -> int:
        return self.ids[reg]


def allocate_live_values(kernel: Kernel, liveness: LivenessResult = None) -> LiveValueMap:
    """Assign live value IDs and per-block fetch/spill sets."""
    liveness = liveness or analyze_liveness(kernel)
    crossing = liveness.crossing_registers()

    # Interference: registers simultaneously live at some block boundary
    # must not share an ID.
    interference: Dict[str, Set[str]] = {r: set() for r in crossing}
    for name in kernel.blocks:
        for live_set in (liveness.live_in[name], liveness.live_out[name]):
            group = sorted(live_set)
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    interference[a].add(b)
                    interference[b].add(a)

    # Greedy colouring in order of decreasing degree.
    ids: Dict[str, int] = {}
    for reg in sorted(crossing, key=lambda r: (-len(interference[r]), r)):
        taken = {ids[n] for n in interference[reg] if n in ids}
        color = 0
        while color in taken:
            color += 1
        ids[reg] = color

    fetches: Dict[str, FrozenSet[str]] = {}
    spills: Dict[str, FrozenSet[str]] = {}
    for name, block in kernel.blocks.items():
        reads = {
            r
            for r in block.uses_before_def()
            if not is_reserved_reg(Reg(r)) and r in liveness.live_in[name]
        }
        writes = {r for r in block.defs() if r in liveness.live_out[name]}
        fetches[name] = frozenset(reads)
        spills[name] = frozenset(writes)

    return LiveValueMap(ids=ids, fetches=fetches, spills=spills, liveness=liveness)
