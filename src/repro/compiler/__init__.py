"""VGIW compiler: analyses, dataflow-graph extraction, place & route."""

from repro.compiler.cache import (
    CompileCache,
    cached_compile_kernel,
    cached_map_kernel,
    cached_optimize_kernel,
    kernel_fingerprint,
)
from repro.compiler.cfganalysis import (
    Loop,
    immediate_dominators,
    immediate_post_dominators,
    loop_depth,
    natural_loops,
    reverse_post_order,
)
from repro.compiler.dfg import (
    BlockDFG,
    DFGBuildError,
    DFGNode,
    ImmSrc,
    NodeKind,
    NodeSrc,
    ParamSrc,
    Src,
    TidSrc,
    build_block_dfg,
    build_kernel_dfgs,
)
from repro.compiler.dot import cfg_to_dot, dfg_to_dot, fabric_to_dot
from repro.compiler.liveness import LivenessResult, analyze_liveness
from repro.compiler.livevalues import LiveValueMap, allocate_live_values
from repro.compiler.optimize import (
    copy_propagate,
    eliminate_dead_code,
    fold_constants,
    fuse_fma,
    local_cse,
    optimize_kernel,
    propagate_params,
)
from repro.compiler.partition import PartitionError, split_block
from repro.compiler.unroll import unroll_loops
from repro.compiler.verifydfg import DFGVerificationError, verify_compiled, verify_dfg
from repro.compiler.pipeline import CompiledBlock, CompiledKernel, compile_kernel
from repro.compiler.placement import (
    CapacityError,
    Fabric,
    PlacedBlock,
    PlacedReplica,
    Unit,
    max_replicas,
    place_block,
    replica_deal,
)
from repro.compiler.schedule import BlockSchedule, schedule_blocks

__all__ = [
    "BlockDFG",
    "BlockSchedule",
    "CapacityError",
    "CompileCache",
    "cached_compile_kernel",
    "cached_map_kernel",
    "cached_optimize_kernel",
    "kernel_fingerprint",
    "CompiledBlock",
    "CompiledKernel",
    "DFGBuildError",
    "DFGNode",
    "Fabric",
    "ImmSrc",
    "LiveValueMap",
    "LivenessResult",
    "Loop",
    "NodeKind",
    "NodeSrc",
    "ParamSrc",
    "PartitionError",
    "PlacedBlock",
    "PlacedReplica",
    "Src",
    "TidSrc",
    "Unit",
    "allocate_live_values",
    "analyze_liveness",
    "build_block_dfg",
    "build_kernel_dfgs",
    "cfg_to_dot",
    "compile_kernel",
    "copy_propagate",
    "dfg_to_dot",
    "eliminate_dead_code",
    "fabric_to_dot",
    "fold_constants",
    "fuse_fma",
    "local_cse",
    "optimize_kernel",
    "propagate_params",
    "unroll_loops",
    "DFGVerificationError",
    "verify_compiled",
    "verify_dfg",
    "immediate_dominators",
    "immediate_post_dominators",
    "loop_depth",
    "max_replicas",
    "natural_loops",
    "place_block",
    "replica_deal",
    "reverse_post_order",
    "schedule_blocks",
    "split_block",
]
