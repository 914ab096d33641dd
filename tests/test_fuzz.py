"""Tests for the differential fuzzing subsystem (:mod:`repro.fuzz`).

Covers the four moving parts independently of a live campaign:

* **generator** — arbitrary seeds produce valid, bounded, interpretable
  kernels, deterministically;
* **oracle** — classification of clean runs, engineered mismatches,
  missing stores, and benign unmappables;
* **reducer** — an engineered miscompile shrinks to a minimal
  reproducer (the ISSUE's <=3 blocks / <=10 instructions bar),
  deterministically;
* **campaign** — summaries are byte-identical across ``--jobs``
  settings and land the fuzz counters in the metrics registry.
"""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest

from repro.fuzz import (
    CampaignConfig,
    GenConfig,
    compare_images,
    generate_case,
    reduce_case,
    run_campaign,
    run_case,
)
from repro.interp import interpret
from repro.ir import EVAL, Op
from repro.ir.text import kernel_to_text, kernels_equivalent
from repro.ir.validate import validate_kernel
from repro.obs import Metrics

# ----------------------------------------------------------------------
# Generator
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(20))
def test_generated_kernels_are_valid_and_interpretable(seed):
    case = generate_case(seed)
    validate_kernel(case.kernel)  # raises on any problem
    mem = case.build_memory()
    result = interpret(case.kernel, mem, case.params, case.n_threads,
                       max_block_visits=100_000)
    assert result.total_stores >= 1  # the checksum epilogue always stores


def test_generation_is_deterministic():
    a, b = generate_case(1234), generate_case(1234)
    assert kernel_to_text(a.kernel) == kernel_to_text(b.kernel)
    assert a.params == b.params
    assert a.input_values == b.input_values
    assert a.n_threads == b.n_threads


def test_different_seeds_differ():
    texts = {kernel_to_text(generate_case(s).kernel) for s in range(10)}
    assert len(texts) == 10


def test_gen_config_knobs_bound_the_output():
    cfg = GenConfig(max_threads=2, max_depth=1, max_stmts=2, max_exprs=1)
    for seed in range(10):
        case = generate_case(seed, cfg)
        assert case.n_threads <= 2
        validate_kernel(case.kernel)


def test_stores_stay_inside_the_output_region():
    """Race-freedom invariant: no generated kernel ever writes below
    the output base (the input region is read-only)."""
    for seed in range(10):
        case = generate_case(seed)
        mem = case.build_memory()
        before_input = mem.data[:case.params["out"]].copy()
        interpret(case.kernel, mem, case.params, case.n_threads,
                  max_block_visits=100_000)
        assert np.array_equal(mem.data[:case.params["out"]], before_input)


# ----------------------------------------------------------------------
# Image comparison
# ----------------------------------------------------------------------
def test_compare_images_equal_and_nan_aware():
    a = np.array([1.0, float("nan"), 3.0])
    assert compare_images(a, a.copy()).equal
    b = np.array([1.0, float("nan"), 4.0])
    diff = compare_images(a, b)
    assert not diff.equal
    assert diff.words_diverged == 1 and diff.first_addr == 2


def test_compare_images_classifies_missing_stores():
    initial = np.zeros(4)
    golden = np.array([0.0, 5.0, 0.0, 7.0])
    got = np.array([0.0, 5.0, 0.0, 0.0])  # word 3 never written
    diff = compare_images(golden, got, initial)
    assert diff.words_diverged == 1
    assert diff.missing_store_words == 1


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def test_oracle_clean_case_reports_ok():
    report = run_case(generate_case(1))
    assert not report.divergent
    statuses = {o.engine: o.status for o in report.outcomes}
    assert set(statuses) <= {"fermi", "vgiw", "sgmf", "optimizer"}
    assert all(s in ("ok", "unmappable") for s in statuses.values())


def _sabotaged_fold_constants():
    """A patched constant folder that flips every XOR to OR — an
    engineered compiler miscompile the oracle must catch.  The golden
    model interprets the *raw* kernel, so it is unaffected."""
    from repro.compiler import optimize as opt_mod

    real_fold = opt_mod.fold_constants

    def buggy_fold(kernel):
        kernel = real_fold(kernel)
        for block in kernel.blocks.values():
            block.instrs = [
                dataclasses.replace(i, op=Op.OR) if i.op is Op.XOR else i
                for i in block.instrs
            ]
        return kernel

    return mock.patch.object(opt_mod, "fold_constants", buggy_fold)


def test_oracle_detects_engineered_miscompile():
    """An XOR->OR miscompile in the optimisation pipeline must show up
    as an ``optimizer`` mismatch (compiler bug, not machine bug) *and*
    as a mismatch on the engines that executed the mangled kernel."""
    with _sabotaged_fold_constants():
        report = run_case(generate_case(0), engines=("fermi",))
    assert report.divergent
    statuses = {o.engine: o.status for o in report.outcomes}
    assert statuses.get("optimizer") == "mismatch"
    assert statuses.get("fermi") == "mismatch"


def test_oracle_report_is_json_serialisable():
    report = run_case(generate_case(2))
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(text)["kernel"] == report.kernel_name


# ----------------------------------------------------------------------
# Reducer
# ----------------------------------------------------------------------
def _sizes(kernel):
    return (len(kernel.blocks),
            sum(len(b.instrs) for b in kernel.blocks.values()))


def _make_divergence_predicate():
    """An engineered miscompile: XOR is off by one in the 'buggy
    machine'.  The predicate interprets each candidate twice — once
    clean, once patched — and reports whether final memory diverges."""

    def buggy_xor(a, b):
        return (int(a) ^ int(b)) + 1

    def diverges(case):
        clean = case.build_memory()
        interpret(case.kernel, clean, case.params, case.n_threads,
                  max_block_visits=100_000)
        buggy = case.build_memory()
        with mock.patch.dict(EVAL, {Op.XOR: buggy_xor}):
            interpret(case.kernel, buggy, case.params, case.n_threads,
                      max_block_visits=100_000)
        return not compare_images(clean.data, buggy.data).equal

    return diverges


def test_reducer_shrinks_engineered_bug_to_minimal_reproducer():
    """The ISSUE's acceptance bar: an engineered injected-bug kernel
    reduces to <=3 blocks and <=10 instructions."""
    diverges = _make_divergence_predicate()
    case = generate_case(1)
    assert diverges(case)
    blocks0, instrs0 = _sizes(case.kernel)

    reduced = reduce_case(case, diverges)
    blocks1, instrs1 = _sizes(reduced.kernel)

    assert diverges(reduced)  # still a reproducer
    validate_kernel(reduced.kernel)  # and still a valid kernel
    assert blocks1 <= 3, f"{blocks0} -> {blocks1} blocks"
    assert instrs1 <= 10, f"{instrs0} -> {instrs1} instructions"
    assert reduced.n_threads <= case.n_threads


def test_reducer_is_deterministic():
    diverges = _make_divergence_predicate()
    r1 = reduce_case(generate_case(5), diverges)
    r2 = reduce_case(generate_case(5), diverges)
    assert kernels_equivalent(r1.kernel, r2.kernel)
    assert r1.n_threads == r2.n_threads


def test_reducer_returns_input_when_not_interesting():
    case = generate_case(7)
    reduced = reduce_case(case, lambda c: False)
    assert kernels_equivalent(case.kernel, reduced.kernel)


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def test_campaign_summary_is_byte_identical_across_jobs():
    cfgs = [CampaignConfig(seed=3, count=8, jobs=jobs) for jobs in (1, 2)]
    summaries = [
        json.dumps(run_campaign(cfg).summary(), sort_keys=True)
        for cfg in cfgs
    ]
    assert summaries[0] == summaries[1]


def test_campaign_records_metrics():
    metrics = Metrics()
    result = run_campaign(CampaignConfig(seed=0, count=4), metrics=metrics)
    assert len(result.reports) == 4
    assert metrics.value("fuzz/cases.processed") == 4
    assert metrics.value("fuzz/cases.divergent") == len(
        result.divergent_reports
    )
    assert metrics.value("fuzz/outcome.ok", 0) >= 1


def test_campaign_time_budget_skips_remaining(tmp_path):
    cfg = CampaignConfig(seed=0, count=50, time_budget=0.0)
    result = run_campaign(cfg)
    assert result.skipped > 0
    assert len(result.reports) + result.skipped == 50


def _counting_fingerprints(monkeypatch):
    """Count calls of the compile cache's content key."""
    from repro.compiler import cache as cache_mod

    calls = []
    real = cache_mod.kernel_fingerprint

    def counting(kernel):
        calls.append(kernel.name)
        return real(kernel)

    monkeypatch.setattr(cache_mod, "kernel_fingerprint", counting)
    return calls


def test_campaign_serial_cases_compile_uncached(monkeypatch):
    """Generated cases never repeat a kernel, so the serial case loop
    keys none of its compiles by content."""
    calls = _counting_fingerprints(monkeypatch)
    config = CampaignConfig(seed=3, count=3, jobs=1, reduce=False)
    assert len(run_campaign(config).reports) == 3
    assert calls == []


def test_campaign_worker_compiles_uncached(monkeypatch):
    """A pool worker's case compiles uncached too (called in process)."""
    from repro.fuzz import campaign

    calls = _counting_fingerprints(monkeypatch)
    config = CampaignConfig(seed=3, count=2)
    for index, seed in enumerate(config.case_seeds()):
        got, report = campaign._campaign_worker((index, seed, config))
        assert got == index and report.seed == seed
    assert calls == []


def test_campaign_reducer_compiles_through_one_hitting_cache(
        monkeypatch, tmp_path):
    """The reducer re-runs a candidate's kernel at narrower widths, so
    it alone keeps a compile cache: one instance, made through the
    campaign module's ``CompileCache`` name, and it hits."""
    from repro.fuzz import campaign

    caches = []
    base = campaign.CompileCache

    def recording(*args, **kwargs):
        caches.append(base(*args, **kwargs))
        return caches[-1]

    monkeypatch.setattr(campaign, "CompileCache", recording)
    with _sabotaged_fold_constants():
        result = run_campaign(CampaignConfig(
            seed=0, count=5, engines=("fermi",),
            corpus_dir=str(tmp_path), reduce=True,
        ))
    assert result.reproducers
    assert len(caches) == 1
    assert caches[0].stats()["hits"] > 0


def test_campaign_writes_reduced_reproducer_for_divergence(tmp_path):
    """End-to-end: a campaign whose compiler has an engineered bug must
    catch it, reduce it, and write a replayable corpus entry that still
    reproduces under the bug."""
    from repro.fuzz import load_corpus_case

    corpus = tmp_path / "corpus"
    with _sabotaged_fold_constants():
        cfg = CampaignConfig(
            seed=0, count=5, engines=("fermi",),
            corpus_dir=str(corpus), reduce=True,
        )
        result = run_campaign(cfg)
        assert result.divergent_reports, "sabotage went undetected"
        assert result.reproducers
        for path in result.reproducers.values():
            replay = load_corpus_case(path)
            validate_kernel(replay.kernel)
            # the reduced reproducer still fails under the bug
            report = run_case(replay, engines=("fermi",))
            assert report.divergent
            # ... and is genuinely minimal
            blocks, instrs = _sizes(replay.kernel)
            assert blocks <= 3 and instrs <= 12

    # with the bug fixed (patch exited) the reproducers replay clean
    for path in result.reproducers.values():
        assert not run_case(load_corpus_case(path),
                            engines=("fermi",)).divergent
