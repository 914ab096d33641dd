"""Content-addressed result cache: identity keys, tiers, validation.

The contracts under test (``docs/serving.md`` / ``docs/api.md``):

* :meth:`RunOptions.fingerprint` is a *content* key — equal options
  produce equal fingerprints in different processes (no ``repr``
  address leakage), and unkeyable objects raise a typed
  :class:`~repro.resilience.OptionKeyError` instead of silently
  producing a process-local key;
* cache hits replay the stored run byte-identically — same report,
  same digests — across serial, ``--jobs`` and serve executions;
* a corrupt, truncated or version-skewed disk entry is a *miss*
  (recovered by re-execution), never an exception or a wrong result —
  tested once for both cache namespaces in ``tests/test_store.py``;
* the seeded validation mode re-executes sampled hits and hard-fails
  on digest divergence (typed degraded response on the serve path).
"""

import hashlib
import os
import pickle
import subprocess
import sys

import pytest

from repro.evalharness import (
    ResultCache,
    RunOptions,
    option_key,
    run_kernel,
    run_suite,
)
from repro.evalharness.report import generate_report
from repro.resilience import (
    FaultSpec,
    OptionKeyError,
    ResultCacheDivergenceError,
    RetryPolicy,
    WatchdogConfig,
)
from repro.serve import ExecutionService, SubmitRequest, result_digest

TINY = RunOptions(scale="tiny")
KERNELS = ["nn/euclid", "gaussian/Fan1"]


# ----------------------------------------------------------------------
# Identity: canonical option keys
# ----------------------------------------------------------------------
_FP_SNIPPET = (
    "from repro.evalharness import RunOptions\n"
    "from repro.resilience import RetryPolicy, WatchdogConfig\n"
    "opts = RunOptions(scale='small', verify=False,\n"
    "                  watchdog=WatchdogConfig(max_cycles=1e6),\n"
    "                  retry=RetryPolicy(max_attempts=3),\n"
    "                  timeout=2.5)\n"
    "print(opts.fingerprint())\n"
)


def _fingerprint_in_subprocess() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _FP_SNIPPET], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_fingerprint_stable_across_processes():
    """The acceptance contract: two identical requests built in two
    different processes key to the same fingerprint (the old
    ``repr``-based key leaked ``object at 0x...`` addresses for any
    config without a custom repr)."""
    opts = RunOptions(scale="small", verify=False,
                      watchdog=WatchdogConfig(max_cycles=1e6),
                      retry=RetryPolicy(max_attempts=3),
                      timeout=2.5)
    here = opts.fingerprint()
    assert here == _fingerprint_in_subprocess()
    assert here == _fingerprint_in_subprocess()
    assert " at 0x" not in here


def test_fingerprint_ignores_reporting_knobs(tmp_path):
    """Jobs/result-cache/trace knobs change *how* a sweep runs, not
    *what* it computes — they must not shift the identity key."""
    base = RunOptions(scale="tiny")
    dressed = base.replace(jobs=4, result_cache_dir=str(tmp_path / "rc"),
                           validate_cache_fraction=0.5,
                           trace_path=str(tmp_path / "t.json"))
    assert base.fingerprint() == dressed.fingerprint()
    assert base.fingerprint() != base.replace(verify=False).fingerprint()


def test_identity_keys_are_pinned_across_versions():
    """Literal keys recorded before ``RunOptions`` lost its compile-cache
    directory field: adding or removing an option field that does not
    change a result must not move the batching key or any stored
    result-cache entry."""
    fingerprint = RunOptions(scale="tiny").fingerprint()
    assert hashlib.sha256(fingerprint.encode()).hexdigest() == (
        "84c8addda113c09fa62a476eafb8e86c4f1cd7c0054fc0e7be06023cd8f7066e")
    assert ResultCache.key_for("nn/euclid", RunOptions(scale="tiny")) == (
        "e0b6948b58478caef0202f9b209956ea6452cf1bf067086a5d56f6fb8ac6e385")


def test_fingerprint_canonicalizes_mapping_order():
    a = RunOptions(inject={"nn/euclid": FaultSpec(kind="token_corrupt"),
                           "gaussian/Fan1": FaultSpec(kind="mem_drop")})
    b = RunOptions(inject={"gaussian/Fan1": FaultSpec(kind="mem_drop"),
                           "nn/euclid": FaultSpec(kind="token_corrupt")})
    assert a.fingerprint() == b.fingerprint()


def test_fingerprint_keys_empty_mapping_as_none():
    """The CLI passes ``inject={}``; an API sweep leaves it ``None``.
    Both request the same execution, so both key the same."""
    assert RunOptions(inject={}).fingerprint() == RunOptions().fingerprint()
    assert (ResultCache.key_for("nn/euclid", TINY.replace(inject={}))
            == ResultCache.key_for("nn/euclid", TINY))


def test_cli_warmed_store_is_hit_by_api_sweep(tmp_path):
    """A store the CLI writes answers ``run_suite`` with
    ``RunOptions(result_cache_dir=...)``: a miss would store a second
    entry under another key."""
    from repro.evalharness.__main__ import main

    assert main(["--scale", "tiny", "--kernels", "nn/euclid",
                 "--result-cache", str(tmp_path),
                 "--out", str(tmp_path / "cli.md")]) == 0
    written = _entry_files(tmp_path)
    assert len(written) == 1
    before = os.stat(written[0]).st_mtime_ns
    runs = run_suite(["nn/euclid"], options=RunOptions(
        scale="tiny", result_cache_dir=str(tmp_path)))
    assert "nn/euclid" in runs
    assert _entry_files(tmp_path) == written
    assert os.stat(written[0]).st_mtime_ns == before


def test_option_key_rejects_default_repr_objects():
    with pytest.raises(OptionKeyError, match="object"):
        option_key(object())
    with pytest.raises(OptionKeyError, match="watchdog"):
        RunOptions(watchdog=object()).fingerprint()


# ----------------------------------------------------------------------
# Harness path: hits replay stored runs, byte-identically
# ----------------------------------------------------------------------
def test_run_kernel_hit_replays_identical_result(tmp_path):
    opts = TINY.replace(result_cache_dir=str(tmp_path))
    cold = run_kernel("nn/euclid", options=opts)
    warm = run_kernel("nn/euclid", options=opts)
    assert result_digest(cold) == result_digest(warm)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".result.pkl")]
    assert len(files) == 1


def test_suite_warm_reports_byte_identical_across_jobs(tmp_path):
    """Cold sweep populates the cache; warm sweeps — serial *and*
    ``--jobs`` — replay it into byte-identical reports."""
    opts = TINY.replace(result_cache_dir=str(tmp_path))
    cold = generate_report(run_suite(KERNELS, options=opts), scale="tiny")
    warm = generate_report(run_suite(KERNELS, options=opts), scale="tiny")
    jobs = generate_report(run_suite(KERNELS, options=opts.replace(jobs=2)),
                           scale="tiny")
    assert warm == cold
    assert jobs == cold


def test_live_cache_object_is_shared_and_counted():
    rcache = ResultCache()
    opts = TINY.replace(result_cache=rcache)
    run_kernel("nn/euclid", options=opts)
    run_kernel("nn/euclid", options=opts)
    stats = rcache.stats()
    assert stats["misses"] == 1 and stats["stores"] == 1
    assert stats["hits"] == 1 and stats["entries"] == 1


def _entry_files(tmp_path):
    return sorted(str(tmp_path / f) for f in os.listdir(tmp_path)
                  if f.endswith(".result.pkl"))


# ----------------------------------------------------------------------
# Validation: seeded sampling, hard failure on divergence
# ----------------------------------------------------------------------
def test_should_validate_is_deterministic_and_seeded():
    rcache = ResultCache()
    keys = [f"key-{i}" for i in range(200)]
    draw = [rcache.should_validate(k, 0.25, seed=7) for k in keys]
    again = [rcache.should_validate(k, 0.25, seed=7) for k in keys]
    other = [rcache.should_validate(k, 0.25, seed=8) for k in keys]
    assert draw == again
    assert draw != other
    assert 0 < sum(draw) < len(keys)
    assert all(rcache.should_validate(k, 1.0) for k in keys[:5])
    assert not any(rcache.should_validate(k, 0.0) for k in keys[:5])


def _poison_digest(tmp_path):
    (path,) = _entry_files(tmp_path)
    with open(path, "rb") as fh:
        entry = pickle.load(fh)
    entry.value.digest = "0" * 64
    with open(path, "wb") as fh:
        pickle.dump(entry, fh)


def test_validation_divergence_hard_fails_harness(tmp_path):
    opts = TINY.replace(result_cache_dir=str(tmp_path),
                        validate_cache_fraction=1.0)
    run_kernel("nn/euclid", options=opts)
    _poison_digest(tmp_path)
    with pytest.raises(ResultCacheDivergenceError, match="diverges"):
        run_kernel("nn/euclid", options=opts)


def test_validation_divergence_hard_fails_suite_even_isolated(tmp_path):
    """Divergence is never a degraded row — it impeaches every cached
    answer, so even an isolating sweep must abort."""
    opts = TINY.replace(result_cache_dir=str(tmp_path),
                        validate_cache_fraction=1.0, isolate=True)
    run_suite(["nn/euclid"], options=opts)
    _poison_digest(tmp_path)
    with pytest.raises(ResultCacheDivergenceError):
        run_suite(["nn/euclid"], options=opts)


def test_validation_clean_pass_counts(tmp_path):
    opts = TINY.replace(result_cache_dir=str(tmp_path),
                        validate_cache_fraction=1.0)
    want = result_digest(run_kernel("nn/euclid", options=opts))
    rcache = ResultCache(cache_dir=str(tmp_path))
    revalidated = run_kernel("nn/euclid", options=TINY.replace(
        result_cache=rcache, validate_cache_fraction=1.0))
    assert result_digest(revalidated) == want
    assert rcache.validations == 1 and rcache.divergences == 0


# ----------------------------------------------------------------------
# Serve path: admission-time hits, typed divergence
# ----------------------------------------------------------------------
def test_serve_warm_stream_is_cached_with_equal_digests(tmp_path):
    with ExecutionService(workers=1,
                          result_cache=ResultCache(str(tmp_path))) as svc:
        cold = [svc.wait(svc.submit(SubmitRequest(k, TINY)), timeout=120)
                for k in KERNELS]
        warm = [svc.wait(svc.submit(SubmitRequest(k, TINY)), timeout=120)
                for k in KERNELS]
        stats = svc.stats()
    assert [r.status for r in cold] == ["ok", "ok"]
    assert [r.status for r in warm] == ["cached", "cached"]
    assert [r.digest for r in warm] == [r.digest for r in cold]
    assert all(r.batch_id is None for r in warm)
    assert stats["requests"]["cached"] == 2
    assert stats["result_cache"]["hits"] == 2
    assert stats["latency"]["cached_s"]["count"] == 2


def test_serve_hits_cross_service_through_disk_tier(tmp_path):
    with ExecutionService(workers=1,
                          result_cache=ResultCache(str(tmp_path))) as svc:
        cold = svc.wait(svc.submit(SubmitRequest("nn/euclid", TINY)),
                        timeout=120)
    with ExecutionService(workers=1,
                          result_cache=ResultCache(str(tmp_path))) as svc2:
        warm = svc2.wait(svc2.submit(SubmitRequest("nn/euclid", TINY)),
                         timeout=120)
        stats = svc2.stats()
    assert cold.status == "ok" and warm.status == "cached"
    assert warm.digest == cold.digest
    assert stats["result_cache"]["disk_hits"] == 1


def test_serve_validation_divergence_is_typed_degraded(tmp_path):
    with ExecutionService(workers=1,
                          result_cache=ResultCache(str(tmp_path))) as svc:
        svc.wait(svc.submit(SubmitRequest("nn/euclid", TINY)), timeout=120)
    _poison_digest(tmp_path)
    with ExecutionService(workers=1,
                          result_cache=ResultCache(str(tmp_path)),
                          validate_cache_fraction=1.0) as svc:
        resp = svc.wait(svc.submit(SubmitRequest("nn/euclid", TINY)),
                        timeout=120)
        stats = svc.stats()
    assert resp.status == "degraded"
    assert resp.error_type == "ResultCacheDivergenceError"
    assert "diverges" in resp.error
    assert stats["result_cache"]["divergences"] == 1


def test_serve_unkeyable_options_rejected_not_raised():
    polluted = TINY.replace(watchdog=object())
    with ExecutionService(workers=1) as svc:
        resp = svc.wait(svc.submit(SubmitRequest("nn/euclid", polluted)),
                        timeout=30)
    assert resp.status == "rejected"
    assert resp.error_type == "OptionKeyError"
    assert "watchdog" in resp.error
