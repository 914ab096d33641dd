"""Tests for the energy model: accounting identities and paper-shaped
qualitative properties."""

from repro.compiler.optimize import optimize_kernel
from repro.kernels import make_fig1_workload
from repro.power import (
    DEFAULT_ENERGY,
    EnergyTable,
    efficiency_ratio,
    energy_fermi,
    energy_sgmf,
    energy_vgiw,
)
from repro.sgmf import SGMFCore
from repro.simt import FermiSM
from repro.vgiw import VGIWCore


def _run_all(n=512):
    kernel, mem, params = make_fig1_workload(n_threads=n)
    kernel = optimize_kernel(kernel)
    memf, memv, mems = mem.clone(), mem.clone(), mem.clone()
    rf = FermiSM().run(kernel, memf, params, n)
    rv = VGIWCore().run(kernel, memv, params, n)
    rs = SGMFCore().run(kernel, mems, params, n)
    return rf, rv, rs


def test_breakdown_levels_are_nested():
    rf, rv, rs = _run_all()
    for bd in (energy_fermi(rf), energy_vgiw(rv), energy_sgmf(rs)):
        assert 0 < bd.core <= bd.die <= bd.system
        assert bd.total == bd.system
        # Every accounted component belongs to some level.
        known = set(bd._CORE_KEYS) | set(bd._DIE_EXTRA) | set(bd._SYSTEM_EXTRA)
        assert set(bd.components) <= known


def test_fermi_pipeline_rf_share_is_about_30_percent():
    # The paper (section 1) cites studies attributing ~30% of GPGPU power
    # to the pipeline and register file; the model must land near that.
    rf, _, _ = _run_all(1024)
    bd = energy_fermi(rf)
    share = (bd.components["pipeline"] + bd.components["rf"]) / bd.system
    assert 0.15 < share < 0.45


def test_vgiw_has_no_rf_or_pipeline_energy():
    _, rv, _ = _run_all()
    bd = energy_vgiw(rv)
    assert "rf" not in bd.components
    assert "pipeline" not in bd.components
    assert bd.components["lvc"] > 0
    assert bd.components["cvt"] > 0
    assert bd.components["config"] > 0


def test_sgmf_has_no_lvc_and_single_config():
    _, _, rs = _run_all()
    bd = energy_sgmf(rs)
    assert "lvc" not in bd.components
    assert "cvt" not in bd.components
    assert bd.components["config"] == DEFAULT_ENERGY.unit_config * 108


def test_sgmf_wasted_fires_cost_energy():
    # SGMF pays datapath energy for predicated-off fires; for the same
    # divergent kernel its datapath energy must exceed VGIW's.
    _, rv, rs = _run_all(1024)
    ev, es = energy_vgiw(rv), energy_sgmf(rs)
    assert es.components["datapath"] > ev.components["datapath"]


def test_efficiency_ratio_definition():
    rf, rv, _ = _run_all()
    ef, ev = energy_fermi(rf), energy_vgiw(rv)
    r = efficiency_ratio(ef, ev, "system")
    assert r == ef.system / ev.system


def test_custom_table_scales_components():
    rf, _, _ = _run_all()
    double_rf = EnergyTable(rf_access=2 * DEFAULT_ENERGY.rf_access)
    base = energy_fermi(rf)
    scaled = energy_fermi(rf, double_rf)
    assert scaled.components["rf"] == 2 * base.components["rf"]
    assert scaled.components["pipeline"] == base.components["pipeline"]


def test_memory_energy_identical_accounting():
    # Same kernel, same data: all three architectures see DRAM traffic
    # of the same magnitude (memory accounting is shared).
    rf, rv, rs = _run_all(1024)
    ef, ev, es = energy_fermi(rf), energy_vgiw(rv), energy_sgmf(rs)
    drams = [bd.components["dram"] for bd in (ef, ev, es)]
    assert max(drams) < 4 * min(drams)


def test_idle_lanes_charged_on_divergence():
    n = 512
    kernel, mem, params = make_fig1_workload(n_threads=n)
    rf = FermiSM().run(kernel, mem, params, n)
    assert rf.sm.wasted_lane_slots > 0
    bd = energy_fermi(rf)
    # Datapath includes the idle-lane clocking charge.
    no_idle = EnergyTable(idle_lane=0.0)
    bd2 = energy_fermi(rf, no_idle)
    assert bd.components["datapath"] > bd2.components["datapath"]
