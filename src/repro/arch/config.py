"""Architecture configuration dataclasses (paper Table 1).

Three machine configurations are modelled:

* :class:`VGIWConfig` — the proposed hybrid dataflow/von Neumann core.
* :class:`FermiConfig` — the NVIDIA Fermi-class SIMT streaming
  multiprocessor used as the von Neumann baseline.
* :class:`SGMFConfig` — the SGMF dataflow GPGPU baseline (ISCA 2014),
  which shares the MT-CGRF fabric description with VGIW.

All three share one :class:`MemoryConfig` (the paper keeps the uncore
identical; the only difference is the L1 write policy, which is a field
of the core configs).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict


class UnitKind(enum.Enum):
    """Physical functional-unit kinds of the MT-CGRF grid (paper §3.5)."""

    __hash__ = object.__hash__  # singleton members: identity, in C

    COMPUTE = "compute"  # merged FPU-ALU
    SPECIAL = "special"  # special compute unit (non-pipelined op pool)
    LDST = "ldst"        # load/store unit (grid perimeter)
    LVU = "lvu"          # live value load/store unit (grid perimeter)
    SJU = "sju"          # split/join unit
    CVU = "cvu"          # control vector unit (initiator/terminator)


@dataclass(frozen=True)
class FabricSpec:
    """Geometry and composition of the MT-CGRF grid.

    The default is the paper's 108-unit configuration: 32 FPU-ALU,
    12 SCU, 16 LDST, 16 LVU, 16 SJU, 16 CVU on a 12 x 9 grid, with the
    LDSTUs and LVUs on the grid perimeter (paper Table 1 and §3.5).
    """

    width: int = 12
    height: int = 9
    counts: Dict[UnitKind, int] = field(
        default_factory=lambda: {
            UnitKind.COMPUTE: 32,
            UnitKind.SPECIAL: 12,
            UnitKind.LDST: 16,
            UnitKind.LVU: 16,
            UnitKind.SJU: 16,
            UnitKind.CVU: 16,
        }
    )

    @property
    def total_units(self) -> int:
        return sum(self.counts.values())

    def __post_init__(self) -> None:
        if self.total_units != self.width * self.height:
            raise ValueError(
                f"unit counts sum to {self.total_units}, grid holds "
                f"{self.width * self.height}"
            )

    @property
    def config_cycles(self) -> int:
        """Reconfiguration cost in cycles.

        The configuration tokens are fed from the grid's left perimeter
        and propagate along rows; the process takes ~sqrt(#units) cycles
        and is performed twice (paper §3.2), plus a reset/drain constant
        chosen so the paper's 108-unit prototype costs 34 cycles.
        """
        return 2 * math.ceil(math.sqrt(self.total_units)) + 12


#: Operation latencies (cycles) for the dataflow fabric's units.
#: Pipelined units accept a new operation every cycle (II = 1);
#: SCU operations are non-pipelined but the SCU pools several instances.
DEFAULT_OP_LATENCY: Dict[str, int] = {
    "int_alu": 1,
    "int_mul": 3,
    "fp_alu": 3,
    "fp_mul": 3,
    "fma": 4,
    "compare": 1,
    "select": 1,
    "div": 16,
    "sqrt": 12,
    "transcendental": 18,
    "split": 1,
    "join": 1,
}


@dataclass(frozen=True)
class MemoryConfig:
    """Shared memory hierarchy (paper Table 1 / §3.6)."""

    # L1 (per core)
    l1_size_bytes: int = 64 * 1024
    l1_banks: int = 32
    l1_line_bytes: int = 128
    l1_ways: int = 4
    l1_hit_latency: int = 8
    # L2 (shared, runs at half the core clock; latency given in core cycles)
    l2_size_bytes: int = 768 * 1024
    l2_banks: int = 6
    l2_line_bytes: int = 128
    l2_ways: int = 16
    # Total L2 round trip is 2x this (request + response legs).
    l2_hit_latency: int = 20
    # GDDR5 DRAM
    dram_channels: int = 6
    dram_banks_per_channel: int = 16
    dram_row_bytes: int = 2048
    dram_row_hit_latency: int = 100
    dram_row_miss_latency: int = 200
    dram_burst_cycles: int = 4  # channel occupancy per 128B transfer


@dataclass(frozen=True)
class VGIWConfig:
    """The VGIW core (paper Table 1)."""

    fabric: FabricSpec = field(default_factory=FabricSpec)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    # Live value cache: 64KB (4x smaller than Fermi's 128KB register file
    # per the paper's comparison), banked like an L1, backed by L2.
    lvc_size_bytes: int = 64 * 1024
    lvc_banks: int = 16
    lvc_line_bytes: int = 64
    lvc_ways: int = 4
    lvc_hit_latency: int = 4
    # Control vector table: 8 banks of 64-bit words (paper §3.3).
    cvt_bits: int = 64 * 1024 * 8  # 64KB of thread bits
    cvt_banks: int = 8
    cvt_word_bits: int = 64
    # Token buffers: entries per functional unit = in-flight virtual
    # channels (threads) a unit can hold.  The MT-CGRF relies on deep
    # multithreading exactly like a GPGPU relies on resident warps
    # (48 warps x 32 threads = 1536 on Fermi); 256 channels x 8 replicas
    # gives the fabric a comparable in-flight population.
    token_buffer_depth: int = 512
    # LDST reservation buffer: outstanding memory ops per LDST unit
    # (the structure that lets unblocked threads overtake stalled ones,
    # paper section 3.5).  Sized so one unit can keep ~a DRAM round trip
    # of scalar requests in flight.
    ldst_reservation_entries: int = 256
    # SCU: instances of each non-pipelined circuit per SCU, sized so a
    # new non-pipelined operation can begin every cycle (paper section 3.5:
    # "The units thus enable a new non-pipelined operation to begin
    # execution on each cycle").
    scu_instances: int = 20
    # Max replicas of a block's DFG (each needs an initiator + terminator
    # CVU pair out of 16 CVUs).
    max_replicas: int = 8
    # BBS scheduling policy: "smallest_id" is the paper's (compiler-
    # assigned IDs preserve control dependencies, section 3.1);
    # "largest_vector" and "round_robin" exist for the scheduling
    # ablation benchmark.
    bbs_policy: str = "smallest_id"
    # L1 policy: write-back, write-allocate (the paper's only memory
    # system difference vs. Fermi, §3.6/§4).
    l1_write_back: bool = True
    op_latency: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_OP_LATENCY)
    )
    # Clock domains (GHz) — used for reporting only; all timing is in
    # core cycles.
    core_ghz: float = 1.4
    l2_ghz: float = 0.7
    dram_ghz: float = 0.924


@dataclass(frozen=True)
class FermiConfig:
    """Fermi-class streaming multiprocessor baseline (GTX480-like SM)."""

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    warp_size: int = 32
    max_resident_warps: int = 48
    n_schedulers: int = 2  # dual warp schedulers, 1 instr/cycle each
    # Aggregate issue throughput: GTX480's two schedulers each issue one
    # warp instruction every other cycle onto 16-wide pipes, so the SM
    # sustains ~one 32-lane warp instruction per cycle in aggregate
    # (Bakhoda et al., ISPASS 2009 model; GPGPU-Sim-class SMs measure
    # well under the 2/cycle peak on Rodinia).
    issue_period_cycles: float = 1.0
    n_lanes: int = 32
    n_ldst_units: int = 16
    n_sfu: int = 4
    alu_latency: int = 18  # Fermi-typical dependent-issue latency
    sfu_latency: int = 22
    register_file_bytes: int = 128 * 1024
    l1_write_back: bool = False  # write-through, write-no-allocate
    # Baseline-sensitivity knobs (0 disables either).  GPGPU-Sim's
    # GTX480 configuration limits the L1 to 32 outstanding misses and
    # replays missing memory instructions through the LDST pipe; the
    # headline comparison here keeps both OFF, which *favours Fermi* —
    # the ablation benchmark quantifies how much.
    l1_mshr_limit: int = 0
    miss_replay_cycles: int = 0
    # Occupancy: the register file bounds resident warps
    # (warps <= RF bytes / (4B x 32 lanes x registers per thread)).
    # Modelled from the kernel's register pressure when enabled.
    model_occupancy: bool = True
    core_ghz: float = 1.4

    @property
    def ldst_throughput_cycles(self) -> int:
        """Cycles a warp memory instruction occupies the LDST pipe
        (32 lanes over 16 LDST units)."""
        return max(1, self.warp_size // self.n_ldst_units)

    @property
    def sfu_throughput_cycles(self) -> int:
        """Cycles a warp SFU instruction occupies the SFU pipe
        (32 lanes over 4 SFUs)."""
        return max(1, self.warp_size // self.n_sfu)


@dataclass(frozen=True)
class SGMFConfig:
    """SGMF dataflow GPGPU baseline: the same MT-CGRF fabric, statically
    configured once with the *whole kernel's* CDFG (paper §1, §2).

    SGMF has no LVC (values flow through the fabric) and no CVT/BBS.
    """

    fabric: FabricSpec = field(default_factory=FabricSpec)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    token_buffer_depth: int = 512
    ldst_reservation_entries: int = 256
    scu_instances: int = 20
    max_replicas: int = 8
    l1_write_back: bool = True
    op_latency: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_OP_LATENCY)
    )
    core_ghz: float = 1.4


def op_latency_for(op, table: Dict[str, int]) -> int:
    """Latency class lookup for an IR opcode."""
    from repro.ir.instr import Op

    if op in (Op.MUL,):
        return table["int_mul"]
    if op in (Op.FADD, Op.FSUB, Op.FMIN, Op.FMAX, Op.FNEG, Op.FABS):
        return table["fp_alu"]
    if op is Op.FMUL:
        return table["fp_mul"]
    if op is Op.FMA:
        return table["fma"]
    if op in (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE):
        return table["compare"]
    if op is Op.SELECT:
        return table["select"]
    if op in (Op.DIV, Op.REM, Op.FDIV):
        return table["div"]
    if op in (Op.FSQRT, Op.FRSQRT):
        return table["sqrt"]
    if op in (Op.FEXP, Op.FLOG, Op.FSIN, Op.FCOS, Op.FFLOOR):
        return table["transcendental"]
    return table["int_alu"]
