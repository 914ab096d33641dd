"""SGMF whole-kernel mapping.

SGMF (Voitsechov & Etsion, ISCA 2014) statically maps the *entire*
kernel's control and dataflow graph onto the MT-CGRF: every block's
subgraph is resident at once, live values are wired directly between
subgraphs (no LVC), block terminators become steer nodes, and only the
kernel entry has a thread initiator.  Consequently (paper §1–§2):

* a kernel whose merged graph needs more units of some kind than the
  fabric provides simply cannot run (``SGMFUnmappableError``) — this is
  why the paper's Figure 8/11 comparison covers only a subset of the
  Rodinia kernels; and
* every control path is resident, so threads whose control flow
  bypasses a block still pump one (predicated, useless) token through
  each of its nodes — the utilisation loss VGIW eliminates.

This module builds the per-block subgraphs in "wire" mode (live-value
and non-entry initiator nodes become pseudo wires occupying no units),
checks capacity, and fits as many replicas of the merged graph as the
fabric holds, each placed on first use (:class:`ReplicaPlacer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.arch.config import FabricSpec, UnitKind
from repro.compiler.dfg import BlockDFG, NodeKind, build_block_dfg
from repro.compiler.livevalues import allocate_live_values
from repro.compiler.placement import (
    PlacedReplica,
    ReplicaPlacer,
    shared_fabric,
)
from repro.compiler.schedule import BlockSchedule, schedule_blocks
from repro.ir.kernel import Kernel
from repro.resilience.errors import MappingError


class SGMFUnmappableError(MappingError):
    """The kernel's CDFG exceeds the MT-CGRF capacity (paper §5: the
    SGMF comparison "is thus based on the subset of kernels that can be
    mapped to the SGMF cores")."""


@dataclass
class SGMFMapping:
    """A whole-kernel configuration: all blocks resident simultaneously."""

    kernel: Kernel
    schedule: BlockSchedule
    dfgs: Dict[str, BlockDFG]
    demand: Dict[UnitKind, int]
    #: places each replica's blocks in ``schedule.order``
    placer: ReplicaPlacer = field(repr=False)

    @property
    def n_replicas(self) -> int:
        """Number of whole-kernel graph replicas the fabric holds."""
        return self.placer.n_replicas

    def replica(self, k: int) -> Dict[str, PlacedReplica]:
        """Replica ``k``: block name -> placement, placed now if it has
        not been yet."""
        return dict(zip(self.schedule.order, self.placer.replica(k)))

    @property
    def replicas(self) -> List[Dict[str, PlacedReplica]]:
        """Every replica, placing all that have not been yet."""
        return [self.replica(k) for k in range(self.n_replicas)]


def build_sgmf_dfgs(kernel: Kernel) -> Dict[str, BlockDFG]:
    """Per-block subgraphs in wire mode (no LVC, single initiator)."""
    lv_map = allocate_live_values(kernel)
    dfgs: Dict[str, BlockDFG] = {}
    for name, block in kernel.blocks.items():
        dfg = build_block_dfg(
            kernel,
            block,
            lv_map.fetches[name],
            lv_map.spills[name],
            lv_map.ids,
        )
        for node in dfg.nodes:
            if node.kind in (NodeKind.LVLOAD, NodeKind.LVSTORE):
                node.pseudo = True  # direct fabric wire, not an LVU
            elif node.kind is NodeKind.INIT and name != kernel.entry:
                node.pseudo = True  # thread arrival wired from the steer
        dfgs[name] = dfg
    return dfgs


def kernel_demand(dfgs: Dict[str, BlockDFG]) -> Dict[UnitKind, int]:
    """Unit demand of the merged whole-kernel graph (one replica)."""
    demand: Dict[UnitKind, int] = {k: 0 for k in UnitKind}
    for dfg in dfgs.values():
        for kind, n in dfg.unit_demand().items():
            demand[kind] += n
    return demand


def map_kernel(
    kernel: Kernel,
    spec: FabricSpec = None,
    replica_cap: int = 8,
) -> SGMFMapping:
    """Map the whole kernel onto the fabric or raise
    :class:`SGMFUnmappableError`."""
    spec = spec or FabricSpec()
    dfgs = build_sgmf_dfgs(kernel)
    demand = kernel_demand(dfgs)

    n_replicas = replica_cap
    for kind, need in demand.items():
        if need == 0:
            continue
        n_replicas = min(n_replicas, spec.counts.get(kind, 0) // need)
    if n_replicas < 1:
        over = {
            kind.value: (need, spec.counts.get(kind, 0))
            for kind, need in demand.items()
            if need > spec.counts.get(kind, 0)
        }
        raise SGMFUnmappableError(
            f"kernel {kernel.name} does not fit the SGMF fabric: "
            f"demand vs capacity {over}"
        )

    schedule = schedule_blocks(kernel)
    placer = ReplicaPlacer([dfgs[name] for name in schedule.order],
                           shared_fabric(spec), n_replicas, improve_passes=0)
    return SGMFMapping(
        kernel=kernel,
        schedule=schedule,
        dfgs=dfgs,
        demand=demand,
        placer=placer,
    )
