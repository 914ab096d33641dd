"""Energy accounting for the three architectures.

Produces an :class:`EnergyBreakdown` per run, with the three aggregation
levels of the paper's Figure 10:

* **core** — the compute engine: datapath + (Fermi) pipeline/RF or
  (VGIW) token buffers/switches/LVC/CVT/configuration;
* **die**  — core + L1 + L2 + core-memory interconnect;
* **system** — die + DRAM.

Energy efficiency is defined exactly as the paper does (§5):
``performance/watt = work/energy``, and since every architecture
executes the same kernel on the same data, the efficiency ratio of two
architectures is the inverse ratio of their total energies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.power.energy_table import DEFAULT_ENERGY, EnergyTable
from repro.sgmf.core import SGMFRunResult
from repro.simt.sm import FermiRunResult
from repro.vgiw.core import VGIWRunResult

#: Units of the paper's 108-unit fabric (Table 1).  A VGIW block
#: reconfiguration and SGMF's one-time configuration each charge
#: ``unit_config`` for every one of them.
PAPER_FABRIC_UNITS = 108


@dataclass
class EnergyBreakdown:
    """Per-component energy (picojoules) of one kernel launch."""

    components: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, pj: float) -> None:
        self.components[name] = self.components.get(name, 0.0) + pj

    # -- aggregation levels (paper Figure 10) ---------------------------
    _CORE_KEYS = (
        "datapath", "pipeline", "rf", "token_buffer", "switch",
        "lvc", "cvt", "config", "core_static", "rf_static",
        "lvc_static", "cvt_static",
    )
    _DIE_EXTRA = ("l1", "l2", "noc", "l1_static", "l2_static", "noc_static")
    _SYSTEM_EXTRA = ("dram", "dram_static")

    @property
    def core(self) -> float:
        return sum(self.components.get(k, 0.0) for k in self._CORE_KEYS)

    @property
    def die(self) -> float:
        return self.core + sum(
            self.components.get(k, 0.0) for k in self._DIE_EXTRA
        )

    @property
    def system(self) -> float:
        return self.die + sum(
            self.components.get(k, 0.0) for k in self._SYSTEM_EXTRA
        )

    @property
    def total(self) -> float:
        return self.system

    def average_power_watts(self, cycles: float, core_ghz: float = 1.4,
                            level: str = "system") -> float:
        """Average power over a run: energy / wall time.

        ``cycles`` at ``core_ghz`` gives the wall time; energy is the
        chosen aggregation level (pJ / ns = mW; returned in watts)."""
        if cycles <= 0:
            return 0.0
        ns = cycles / core_ghz
        return getattr(self, level) / ns / 1000.0


def _memory_energy(bd: EnergyBreakdown, l1, l2, dram, cycles: float,
                   t: EnergyTable, scalar_l1: bool = False) -> None:
    l1_pj = t.l1_word_access if scalar_l1 else t.l1_access
    bd.add("l1", l1_pj * l1.accesses)
    bd.add("l2", t.l2_access * l2.accesses)
    bd.add("noc", t.noc_transfer * (l2.accesses + dram.accesses))
    bd.add("dram", t.dram_access * dram.accesses)
    bd.add("l1_static", t.l1_static * cycles)
    bd.add("l2_static", t.l2_static * cycles)
    bd.add("noc_static", t.noc_static * cycles)
    bd.add("dram_static", t.dram_static * cycles)


def energy_vgiw(result: VGIWRunResult, table: EnergyTable = DEFAULT_ENERGY
                ) -> EnergyBreakdown:
    """Energy of a VGIW run from its event counters."""
    t = table
    bd = EnergyBreakdown()
    ops = result.fabric.ops
    bd.add("datapath",
           t.alu_op * ops.get("alu", 0)
           + t.fpu_op * ops.get("fpu", 0)
           + t.sfu_op * ops.get("scu", 0)
           + t.ldst_issue * (ops.get("ldst", 0) + ops.get("lvu", 0))
           + t.sju_op * ops.get("sju", 0)
           + t.cvu_op * ops.get("cvu", 0))
    bd.add("token_buffer", t.token_buffer * result.fabric.tokens)
    bd.add("switch", t.switch_hop * result.fabric.token_hops)
    bd.add("lvc", t.lvc_access * result.lvc_bank_accesses
           + t.lvu_buffer * result.lvc_buffered)
    bd.add("cvt", t.cvt_word * result.cvt.accesses)
    bd.add("config", t.unit_config * result.bbs.reconfigurations
           * PAPER_FABRIC_UNITS)
    bd.add("core_static", t.core_static * result.cycles)
    bd.add("lvc_static", t.lvc_static * result.cycles)
    bd.add("cvt_static", t.cvt_static * result.cycles)
    _memory_energy(bd, result.l1, result.l2, result.dram, result.cycles, t,
                   scalar_l1=True)
    return bd


def energy_fermi(result: FermiRunResult, table: EnergyTable = DEFAULT_ENERGY
                 ) -> EnergyBreakdown:
    """Energy of a Fermi run from its event counters."""
    t = table
    bd = EnergyBreakdown()
    sm = result.sm
    bd.add("datapath",
           t.alu_op * sm.lane_alu_ops
           + t.fpu_op * sm.lane_fpu_ops
           + t.sfu_op * sm.lane_sfu_ops
           + t.ldst_issue * sm.lane_mem_ops)
    bd.add("datapath", t.idle_lane * sm.wasted_lane_slots)
    bd.add("pipeline", t.instr_issue * sm.instructions_issued)
    bd.add("rf", t.rf_access * sm.rf_accesses)
    bd.add("core_static", t.core_static * result.cycles)
    bd.add("rf_static", t.rf_static * result.cycles)
    _memory_energy(bd, result.l1, result.l2, result.dram, result.cycles, t)
    return bd


def energy_sgmf(result: SGMFRunResult, table: EnergyTable = DEFAULT_ENERGY
                ) -> EnergyBreakdown:
    """Energy of an SGMF run.  Predicated (wasted) fires are charged at
    full datapath cost — that is the power cost of mapping every control
    path (paper §2)."""
    t = table
    bd = EnergyBreakdown()
    ops = result.fabric.ops
    bd.add("datapath",
           t.alu_op * ops.get("alu", 0)
           + t.fpu_op * ops.get("fpu", 0)
           + t.sfu_op * ops.get("scu", 0)
           + t.ldst_issue * ops.get("ldst", 0)
           + t.sju_op * ops.get("sju", 0)
           + t.cvu_op * ops.get("cvu", 0))
    bd.add("token_buffer", t.token_buffer * result.fabric.tokens)
    bd.add("switch", t.switch_hop * result.fabric.token_hops)
    bd.add("config", t.unit_config * PAPER_FABRIC_UNITS)  # configured once
    bd.add("core_static", t.core_static * result.cycles)
    _memory_energy(bd, result.l1, result.l2, result.dram, result.cycles, t,
                   scalar_l1=True)
    return bd


def efficiency_ratio(baseline: EnergyBreakdown, candidate: EnergyBreakdown,
                     level: str = "system") -> float:
    """Energy-efficiency of ``candidate`` relative to ``baseline`` at an
    aggregation level ('core', 'die', or 'system'): > 1 means the
    candidate does the same work with less energy."""
    return getattr(baseline, level) / getattr(candidate, level)
