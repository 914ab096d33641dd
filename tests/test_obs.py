"""Tests for the observability layer (repro.obs) and the unified
engine API (repro.engine, repro.host.LaunchStats).

Covers the contracts promised by docs/observability.md:

* the Chrome-trace export is valid JSON with sorted timestamps and
  non-negative durations, and one traced run contains events from all
  five sources (VGIW BBS, Fermi SIMT, SGMF core, L1/L2 caches, DRAM);
* metric-name parity: the same kernel produces the same shared counter
  namespace on every engine;
* EngineRunResult / Engine-registry / LaunchStats backward
  compatibility.
"""

import json
import math
import random

import numpy as np
import pytest

from repro.engine import (
    EngineRunResult,
    Engine,
    UnknownEngineError,
    create_engine,
    engine_names,
    register_engine,
    _REGISTRY,
)
from repro.evalharness.experiments import metrics_table
from repro.evalharness.runner import RunOptions, run_kernel
from repro.host import Device, HostError, LaunchStats
from repro.kernels import saxpy_kernel
from repro.memory.image import MemoryImage
from repro.obs import (
    Histogram,
    Metrics,
    SHARED_COUNTERS,
    SHARED_GAUGES,
    TraceEvent,
    Tracer,
)
from repro.obs.metrics import MAX_BUCKETS, REL_ERROR
from repro.resilience import SimulationHangError, WatchdogConfig
from repro.sgmf import SGMFRunResult
from repro.simt import FermiRunResult
from repro.vgiw import VGIWRunResult


# ----------------------------------------------------------------------
# One traced, metered cross-machine run shared by the expensive tests.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_run():
    tracer, metrics = Tracer(), Metrics()
    run = run_kernel("bfs/Kernel", options=RunOptions(
        scale="tiny", tracer=tracer, metrics=metrics))
    return run, tracer, metrics


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------
def test_ring_buffer_bounded_and_counts_drops():
    tr = Tracer(capacity=4)
    for i in range(10):
        tr.instant(f"e{i}", "test", float(i))
    assert len(tr) == 4
    assert tr.dropped == 6
    # Oldest evicted: the surviving window is the most recent four.
    assert [ev.name for ev in tr.events] == ["e6", "e7", "e8", "e9"]
    assert [ev.name for ev in tr.tail(2)] == ["e8", "e9"]


def test_tracer_rejects_bad_capacity():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_complete_event_clamps_negative_duration():
    tr = Tracer()
    tr.complete("x", "test", ts=10.0, dur=-5.0)
    assert tr.events[0].dur == 0.0


def test_event_brief_is_compact():
    ev = TraceEvent(name="block:b1", cat="vgiw.block", ph="X",
                    ts=100.0, dur=34.0)
    text = ev.brief()
    assert "vgiw.block:block:b1" in text
    assert "@100" in text


# ----------------------------------------------------------------------
# Chrome-trace JSON schema
# ----------------------------------------------------------------------
def test_chrome_trace_schema(traced_run):
    _, tracer, _ = traced_run
    blob = tracer.to_json()
    doc = json.loads(blob)  # must be loadable
    events = doc["traceEvents"]
    assert events, "traced run produced no events"

    timeline = [e for e in events if e["ph"] != "M"]
    assert timeline, "no timeline events (only metadata)"
    # Sorted, non-negative timestamps and durations.
    ts = [e["ts"] for e in timeline]
    assert ts == sorted(ts)
    assert all(t >= 0 for t in ts)
    assert all(e.get("dur", 0) >= 0 for e in timeline)
    # Chrome wants integer pids; our labels ride in metadata events.
    assert all(isinstance(e["pid"], int) for e in timeline)
    meta = {e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"}
    assert {"vgiw", "fermi", "sgmf", "mem"} <= meta


def test_trace_covers_all_five_sources(traced_run):
    _, tracer, _ = traced_run
    cats = tracer.categories()
    assert cats.get("vgiw.bbs", 0) > 0, "no BBS reconfiguration events"
    assert cats.get("fermi.simt", 0) > 0, "no SIMT stack events"
    assert cats.get("sgmf.thread", 0) > 0, "no SGMF core events"
    assert cats.get("mem.l1", 0) > 0, "no L1 miss events"
    assert cats.get("mem.l2", 0) > 0, "no L2 miss events"
    assert cats.get("mem.dram", 0) > 0, "no DRAM row-activation events"


def test_trace_dump_roundtrip(tmp_path, traced_run):
    _, tracer, _ = traced_run
    path = tmp_path / "trace.json"
    tracer.dump(str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) >= len(tracer)
    assert doc["otherData"]["dropped_events"] == tracer.dropped


# ----------------------------------------------------------------------
# Metrics: cross-engine name parity
# ----------------------------------------------------------------------
def test_shared_metric_names_on_every_engine(traced_run):
    _, _, metrics = traced_run
    assert {"fermi", "vgiw", "sgmf"} <= set(metrics.scope_names())
    for engine in ("fermi", "vgiw", "sgmf"):
        names = set(metrics.scope(engine).names())
        missing = (set(SHARED_COUNTERS) | set(SHARED_GAUGES)) - names
        assert not missing, f"{engine} missing shared metrics: {missing}"


def test_shared_run_counters_agree_where_physics_agrees(traced_run):
    run, _, metrics = traced_run
    # Every machine ran the same threads, so run.threads must agree.
    per_engine = [metrics.value(f"{e}/run.threads")
                  for e in ("fermi", "vgiw", "sgmf")]
    assert per_engine == [run.n_threads] * 3


def test_metrics_scope_and_value():
    m = Metrics()
    s = m.scope("vgiw")
    s.inc("bbs.reconfigurations", 3)
    s.gauge("run.cycles", 123.0)
    s.observe("block.span", 10.0)
    s.observe("block.span", 30.0)
    assert m.value("vgiw/bbs.reconfigurations") == 3
    assert m.value("vgiw/run.cycles") == 123.0
    assert m.value("vgiw/block.span") == 20.0  # histogram mean
    assert m.value("nope/missing") is None
    assert m.scope_names() == ["vgiw"]
    assert "bbs.reconfigurations = 3" in m.format("vgiw")
    dumped = m.as_dict()
    assert dumped["histograms"]["vgiw/block.span"]["count"] == 2


# ----------------------------------------------------------------------
# The bounded histogram
# ----------------------------------------------------------------------
def _nearest_rank(ordered, p):
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _log_uniform(rng, n, lo_exp, hi_exp):
    return [10 ** rng.uniform(lo_exp, hi_exp) for _ in range(n)]


def test_histogram_percentiles_within_rel_error_of_nearest_rank():
    """Seeded sample sets spanning 9 decades: every percentile is within
    REL_ERROR (relative) of the exact nearest-rank sample."""
    worst = 0.0
    for seed in range(60):
        rng = random.Random(seed)
        samples = _log_uniform(rng, rng.randint(1, 800), -6, 3)
        hist = Histogram()
        for x in samples:
            hist.observe(x)
        ordered = sorted(samples)
        for p in (0, 1, 50, 90, 99, 100):
            want = _nearest_rank(ordered, p)
            got = hist.percentile(p)
            assert ordered[0] <= got <= ordered[-1]
            worst = max(worst, abs(got - want) / want)
    assert worst <= REL_ERROR * (1 + 1e-9)
    assert worst > REL_ERROR / 10  # the buckets really are approximate


def test_histogram_bucket_count_is_capped():
    """10^5 samples over 24 decades (past both ends of the bucketed
    range): the bucket count stays under the hard cap, and count /
    sum / min / max stay exact."""
    rng = random.Random(3)
    samples = _log_uniform(rng, 10 ** 5, -12, 12) + [0.0, -1.0]
    hist = Histogram()
    for x in samples:
        hist.observe(x)
    assert len(hist.buckets) <= MAX_BUCKETS
    assert MAX_BUCKETS < 2100
    assert hist.count == len(samples)
    assert hist.min == -1.0 and hist.max == max(samples)
    assert hist.total == pytest.approx(sum(samples))
    want = _nearest_rank(sorted(samples), 50)
    assert hist.percentile(50) == pytest.approx(want, rel=REL_ERROR)


def test_histogram_merge_equals_observing_all():
    rng = random.Random(11)
    a_samples = _log_uniform(rng, 500, -6, 2)
    b_samples = _log_uniform(rng, 300, -3, 4)
    a, b, both = Histogram(), Histogram(), Histogram()
    for x in a_samples:
        a.observe(x)
        both.observe(x)
    for x in b_samples:
        b.observe(x)
        both.observe(x)
    a.merge(b)
    assert a.buckets == both.buckets
    assert (a.count, a.min, a.max) == (both.count, both.min, both.max)
    assert a.total == pytest.approx(both.total)
    for p in (1, 50, 99):
        assert a.percentile(p) == both.percentile(p)


def test_empty_histogram_reads_zero():
    hist = Histogram()
    assert hist.percentile(50) == 0.0
    assert hist.as_dict() == {"count": 0, "sum": 0.0, "min": 0.0,
                              "max": 0.0, "mean": 0.0, "p50": 0.0,
                              "p99": 0.0}


def test_metrics_table_rows(traced_run):
    _, _, metrics = traced_run
    table = metrics_table(metrics)
    rendered = table.render()
    for name in SHARED_GAUGES + SHARED_COUNTERS:
        assert name in rendered
    assert "Vgiw" in rendered and "Fermi" in rendered and "Sgmf" in rendered


# ----------------------------------------------------------------------
# EngineRunResult base + engine registry
# ----------------------------------------------------------------------
def test_run_results_share_the_base(traced_run):
    run, tracer, metrics = traced_run
    assert isinstance(run.fermi, FermiRunResult)
    assert isinstance(run.vgiw, VGIWRunResult)
    assert isinstance(run.sgmf, SGMFRunResult)
    for res in (run.fermi, run.vgiw, run.sgmf):
        assert isinstance(res, EngineRunResult)
        for attr in EngineRunResult.REQUIRED_ATTRS:
            assert hasattr(res, attr), f"{res.engine} lacks {attr}"
        assert res.trace is tracer
        assert res.metrics is metrics
        assert 0.0 <= res.l1_hit_rate <= 1.0
        assert res.summary()["engine"] == res.engine
    assert {run.fermi.engine, run.vgiw.engine, run.sgmf.engine} == \
        {"fermi", "vgiw", "sgmf"}


def test_engine_registry_and_protocol():
    assert {"vgiw", "fermi", "sgmf", "interp"} <= set(engine_names())
    for name in ("vgiw", "fermi", "sgmf", "interp"):
        engine = create_engine(name)
        assert isinstance(engine, Engine), name
    with pytest.raises(UnknownEngineError):
        create_engine("tpu")


def test_register_custom_engine_reaches_device():
    class EchoResult(EngineRunResult):
        engine = "echo"
        cycles = 1.0

    class EchoEngine:
        def __init__(self, config=None):
            self.config = config

        def run(self, kernel, memory, params, n_threads, *, watchdog=None,
                faults=None, tracer=None, metrics=None):
            return EchoResult().attach_obs(tracer, metrics)

    register_engine("echo", EchoEngine)
    try:
        assert "echo" in engine_names()
        dev = Device("echo", memory_words=64, optimize=False)
        stats = dev.launch(saxpy_kernel(), 4, a=1.0, x=0, y=0,
                           out=0, n=4)
        assert stats.cycles == 1.0
        assert stats.result.engine == "echo"
    finally:
        _REGISTRY.pop("echo", None)


# ----------------------------------------------------------------------
# LaunchStats deprecation shim
# ----------------------------------------------------------------------
def test_launch_stats_unified_surface():
    tracer, metrics = Tracer(), Metrics()
    dev = Device("vgiw", memory_words=1 << 14, tracer=tracer,
                 metrics=metrics)
    n = 64
    x = dev.array(np.arange(float(n)))
    y = dev.array(np.ones(n))
    out = dev.empty(n)
    stats = dev.launch(saxpy_kernel(), n, a=2.0, x=x, y=y, out=out, n=n)
    assert isinstance(stats, LaunchStats)
    assert stats.cycles == stats.result.cycles > 0
    assert stats.trace is tracer
    assert stats.metrics is metrics
    # Forwarded result properties.
    assert stats.bbs.reconfigurations >= 1
    assert stats.fabric.node_fires > 0
    # No fall-through: any other result attribute is read via .result.
    assert stats.result.lvc_accesses >= 0
    with pytest.raises(AttributeError):
        stats.lvc_accesses
    with pytest.raises(AttributeError):
        stats.no_such_attribute
    assert "LaunchStats" in repr(stats)


def test_interp_backend_reports_no_cycles():
    dev = Device("interp", memory_words=1 << 12, metrics=Metrics())
    n = 16
    x = dev.array(np.arange(float(n)))
    y = dev.array(np.ones(n))
    out = dev.empty(n)
    stats = dev.launch(saxpy_kernel(), n, a=2.0, x=x, y=y, out=out, n=n)
    assert stats.cycles is None
    assert dev.metrics.value("interp/run.threads") == n


def test_unknown_backend_still_hosterror():
    with pytest.raises(HostError, match="unknown backend"):
        Device("definitely-not-a-backend")


# ----------------------------------------------------------------------
# Watchdog snapshots carry the recent trace window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine_name", ["fermi", "vgiw", "sgmf"])
def test_hang_snapshot_attaches_recent_trace(engine_name):
    tracer = Tracer()
    k = saxpy_kernel()
    n = 256
    mem = MemoryImage(1 << 12)
    x = mem.alloc_array("x", np.arange(float(n)))
    y = mem.alloc_array("y", np.ones(n))
    out = mem.alloc("out", n)
    wd = WatchdogConfig(max_cycles=10.0)  # absurdly tight: must fire
    with pytest.raises(SimulationHangError) as exc_info:
        create_engine(engine_name).run(
            k, mem, {"a": 2.0, "x": x, "y": y, "out": out, "n": n}, n,
            watchdog=wd, tracer=tracer)
    snap = exc_info.value.snapshot
    assert snap is not None and snap.sim == engine_name
    recent = snap.detail.get("recent_trace")
    assert isinstance(recent, list) and recent
    assert all(isinstance(line, str) for line in recent)
    # The watchdog itself leaves a marker in the timeline.
    marks = [ev for ev in tracer.events if ev.cat == "watchdog"]
    assert [(ev.name, ev.pid) for ev in marks] == [("snapshot", engine_name)]
