"""Compilation driver: kernel -> configured, placed, scheduled blocks.

``compile_kernel`` runs the full VGIW compilation flow of paper §3.1:

1. liveness analysis and live-value ID allocation,
2. per-block dataflow-graph extraction (with split/join insertion),
3. oversized-block partitioning until every block fits the fabric,
4. block-ID scheduling (RPO; entry = 0; back edges to smaller IDs),
5. replication and place & route of each block onto the MT-CGRF grid
   (replica 0 now, the others when a launch first reaches them).

The result, :class:`CompiledKernel`, is everything the VGIW core needs
to execute: it is the analogue of the per-block configuration bitstreams
the real toolchain would emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.config import FabricSpec
from repro.compiler.dfg import BlockDFG, build_kernel_dfgs
from repro.compiler.livevalues import LiveValueMap, allocate_live_values
from repro.compiler.partition import split_block
from repro.compiler.placement import (
    CapacityError,
    Fabric,
    PlacedBlock,
    max_replicas,
    place_block,
    shared_fabric,
)
from repro.compiler.schedule import BlockSchedule, schedule_blocks
from repro.ir.kernel import Kernel
from repro.ir.validate import validate_kernel


@dataclass
class CompiledBlock:
    """One basic block, ready to configure onto the fabric."""

    name: str
    block_id: int
    dfg: BlockDFG
    placement: PlacedBlock

    @property
    def n_replicas(self) -> int:
        return self.placement.n_replicas


@dataclass
class CompiledKernel:
    """A fully compiled kernel (possibly with partitioned blocks)."""

    kernel: Kernel
    schedule: BlockSchedule
    lv_map: LiveValueMap
    blocks: Dict[str, CompiledBlock]
    fabric: Fabric
    spec: FabricSpec

    @property
    def n_blocks(self) -> int:
        return self.schedule.n_blocks

    @property
    def n_live_values(self) -> int:
        return self.lv_map.n_live_values

    def block_by_id(self, block_id: int) -> CompiledBlock:
        return self.blocks[self.schedule.name_of(block_id)]


def compile_kernel(
    kernel: Kernel,
    spec: Optional[FabricSpec] = None,
    replicate: bool = True,
    replica_cap: int = 8,
    max_partition_rounds: int = 64,
) -> CompiledKernel:
    """Compile ``kernel`` for a VGIW core with fabric ``spec``.

    ``replicate=False`` disables block replication (used by the
    replication ablation benchmark); the replica count is otherwise
    capped by ``replica_cap`` (each replica needs an initiator and a
    terminator CVU, so 16 CVUs support at most 8 replicas).
    """
    spec = spec or FabricSpec()

    for _ in range(max_partition_rounds):
        lv_map = allocate_live_values(kernel)
        dfgs = build_kernel_dfgs(kernel, lv_map)
        oversized = [
            name for name, dfg in dfgs.items() if max_replicas(dfg, spec, 1) == 0
        ]
        if not oversized:
            break
        kernel = split_block(kernel, oversized[0])
        validate_kernel(kernel)
    else:
        raise CapacityError(
            f"kernel {kernel.name} still has oversized blocks after "
            f"{max_partition_rounds} partition rounds"
        )

    schedule = schedule_blocks(kernel)
    fabric = shared_fabric(spec)
    blocks: Dict[str, CompiledBlock] = {}
    for name, dfg in dfgs.items():
        cap = replica_cap if replicate else 1
        n = max(1, max_replicas(dfg, spec, cap))
        placement = place_block(dfg, fabric, n)
        blocks[name] = CompiledBlock(
            name=name,
            block_id=schedule.id_of(name),
            dfg=dfg,
            placement=placement,
        )
    return CompiledKernel(
        kernel=kernel,
        schedule=schedule,
        lv_map=lv_map,
        blocks=blocks,
        fabric=fabric,
        spec=spec,
    )
