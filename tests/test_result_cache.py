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
    run_kernel,
    run_suite,
)
from repro.evalharness.report import generate_report
from repro.resilience import (
    FaultInjector,
    FaultSpec,
    OptionKeyError,
    ResultCacheDivergenceError,
    RetryPolicy,
    WatchdogConfig,
)
from repro.serve import ExecutionService, SubmitRequest, result_digest
from repro.store import option_key

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
    dressed = base.replace(jobs=4,
                           result_cache=ResultCache(str(tmp_path / "rc")),
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
    ``RunOptions(result_cache=ResultCache(dir))``: a miss would store a second
    entry under another key."""
    from repro.evalharness.__main__ import main

    assert main(["--scale", "tiny", "--kernels", "nn/euclid",
                 "--result-cache", str(tmp_path),
                 "--out", str(tmp_path / "cli.md")]) == 0
    written = _entry_files(tmp_path)
    assert len(written) == 1
    before = os.stat(written[0]).st_mtime_ns
    runs = run_suite(["nn/euclid"], options=RunOptions(
        scale="tiny", result_cache=ResultCache(str(tmp_path))))
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
    """The warm call gets a fresh store, so its hit is read back from
    disk rather than handed the cold run's object from memory."""
    cold = run_kernel("nn/euclid", options=TINY.replace(
        result_cache=ResultCache(str(tmp_path))))
    rcache = ResultCache(str(tmp_path))
    warm = run_kernel("nn/euclid", options=TINY.replace(result_cache=rcache))
    assert rcache.stats()["hits"] == 1 and rcache.stats()["misses"] == 0
    assert warm is not cold
    assert result_digest(cold) == result_digest(warm)
    files = [f for f in os.listdir(tmp_path) if f.endswith(".result.pkl")]
    assert len(files) == 1


def test_suite_warm_reports_byte_identical_across_jobs(tmp_path):
    """Cold sweep populates the cache; warm sweeps — serial *and*
    ``--jobs`` — replay it into byte-identical reports.  Each sweep
    gets a fresh store, so the warm ones replay entries from disk."""
    def sweep(jobs):
        rcache = ResultCache(str(tmp_path))
        runs = run_suite(KERNELS, options=TINY.replace(
            result_cache=rcache, jobs=jobs))
        return generate_report(runs, scale="tiny"), rcache.stats()

    cold, _ = sweep(1)
    warm, warm_stats = sweep(1)
    jobs, jobs_stats = sweep(2)
    assert warm_stats["hits"] == len(KERNELS) and warm_stats["misses"] == 0
    assert jobs_stats["hits"] == len(KERNELS) and jobs_stats["misses"] == 0
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
#: which of ``key-0`` ... ``key-199`` ``should_validate(k, 0.25)`` draws,
#: recorded before the draw's seed knob was retired
SAMPLED_AT_QUARTER = [
    4, 5, 8, 15, 18, 19, 25, 31, 35, 41, 46, 47, 48, 49, 52, 57, 60, 61,
    63, 66, 68, 71, 75, 80, 84, 86, 91, 94, 96, 100, 102, 107, 109, 113,
    116, 118, 119, 122, 131, 137, 164, 166, 169, 171, 180, 185, 188, 189,
    190, 194, 195, 198, 199,
]


def test_should_validate_is_deterministic_and_seeded():
    rcache = ResultCache()
    keys = [f"key-{i}" for i in range(200)]
    draw = [rcache.should_validate(k, 0.25) for k in keys]
    assert draw == [rcache.should_validate(k, 0.25) for k in keys]
    assert [i for i, hit in enumerate(draw) if hit] == SAMPLED_AT_QUARTER
    assert all(rcache.should_validate(k, 1.0) for k in keys[:5])
    assert not any(rcache.should_validate(k, 0.0) for k in keys[:5])


def test_retired_cache_knobs_are_gone(tmp_path):
    with pytest.raises(TypeError):
        RunOptions(result_cache_dir=str(tmp_path))
    with pytest.raises(TypeError):
        RunOptions(validate_cache_seed=1)
    with pytest.raises(TypeError):
        ExecutionService(validate_cache_fraction=1.0)
    with pytest.raises(TypeError):
        ExecutionService(validate_cache_seed=1)
    with pytest.raises(TypeError):
        ResultCache().should_validate("key-0", 0.5, seed=1)
    with pytest.raises(TypeError):  # fault campaigns travel as ``inject``
        RunOptions(faults=FaultInjector(FaultSpec("abort")))


class _RecordingCache(ResultCache):
    """Names the kernels whose hits were sent back for validation."""

    def __init__(self, cache_dir):
        super().__init__(cache_dir)
        self.validated = []

    def validate(self, key, entry, fresh_run):
        self.validated.append(entry.kernel)
        super().validate(key, entry, fresh_run)


SAMPLE_KERNELS = ["nn/euclid", "bfs/Kernel", "gaussian/Fan1",
                  "kmeans/invert_mapping"]


def test_every_path_validates_the_same_hits(tmp_path):
    """One lookup decides the sample: at a fraction of 0.5 over a warm
    store, ``run_kernel``, serial and ``--jobs`` sweeps and the service
    re-check exactly the hits the per-key draw selects.  Every path
    keys a run with default options the same way (the sweep and the
    service materialise ``retry``, and so does ``run_kernel``), so each
    one hits every entry the sweep stored."""
    store = str(tmp_path)
    run_suite(SAMPLE_KERNELS, options=TINY.replace(
        result_cache=ResultCache(store)))
    assert len(_entry_files(tmp_path)) == len(SAMPLE_KERNELS)
    opts = TINY.replace(validate_cache_fraction=0.5)
    swept = TINY.replace(retry=RetryPolicy())
    drawn = sorted(k for k in SAMPLE_KERNELS if ResultCache().should_validate(
        ResultCache.key_for(k, swept), 0.5))
    assert 0 < len(drawn) < len(SAMPLE_KERNELS)

    rcache = _RecordingCache(store)
    for name in SAMPLE_KERNELS:
        run_kernel(name, options=opts.replace(result_cache=rcache))
    assert rcache.misses == 0
    assert sorted(rcache.validated) == drawn

    for jobs in (1, 2):
        rcache = _RecordingCache(store)
        runs = run_suite(SAMPLE_KERNELS, options=opts.replace(
            result_cache=rcache, jobs=jobs))
        assert runs.ok and rcache.misses == 0
        assert sorted(rcache.validated) == drawn

    rcache = _RecordingCache(store)
    with ExecutionService(workers=1, result_cache=rcache) as svc:
        responses = [svc.wait(svc.submit(SubmitRequest(k, opts)),
                              timeout=120) for k in SAMPLE_KERNELS]
    assert [r.status == "ok" for r in responses] == [
        k in drawn for k in SAMPLE_KERNELS]
    assert rcache.misses == 0 and sorted(rcache.validated) == drawn
    assert rcache.divergences == 0


def _poison_digest(tmp_path):
    (path,) = _entry_files(tmp_path)
    with open(path, "rb") as fh:
        entry = pickle.load(fh)
    entry.value.digest = "0" * 64
    with open(path, "wb") as fh:
        pickle.dump(entry, fh)


def test_validation_divergence_hard_fails_harness(tmp_path):
    opts = TINY.replace(validate_cache_fraction=1.0)
    run_kernel("nn/euclid", options=opts.replace(
        result_cache=ResultCache(str(tmp_path))))
    _poison_digest(tmp_path)
    with pytest.raises(ResultCacheDivergenceError, match="diverges"):
        run_kernel("nn/euclid", options=opts.replace(
            result_cache=ResultCache(str(tmp_path))))


def test_validation_divergence_hard_fails_suite_even_isolated(tmp_path):
    """Divergence is never a degraded row — it impeaches every cached
    answer, so even an isolating sweep must abort."""
    opts = TINY.replace(validate_cache_fraction=1.0, isolate=True)
    run_suite(["nn/euclid"], options=opts.replace(
        result_cache=ResultCache(str(tmp_path))))
    _poison_digest(tmp_path)
    with pytest.raises(ResultCacheDivergenceError):
        run_suite(["nn/euclid"], options=opts.replace(
            result_cache=ResultCache(str(tmp_path))))


def test_validation_clean_pass_counts(tmp_path):
    opts = TINY.replace(result_cache=ResultCache(str(tmp_path)),
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
                          result_cache=ResultCache(str(tmp_path))) as svc:
        resp = svc.wait(svc.submit(SubmitRequest(
            "nn/euclid", TINY.replace(validate_cache_fraction=1.0))),
            timeout=120)
        stats = svc.stats()
    assert resp.status == "degraded"
    assert resp.error_type == "ResultCacheDivergenceError"
    assert "diverges" in resp.error
    assert stats["result_cache"]["divergences"] == 1


def test_serve_validates_per_request_fraction(tmp_path):
    """A default service honours the request's own
    ``validate_cache_fraction``: the hit executes and is validated."""
    rcache = ResultCache(str(tmp_path))
    with ExecutionService(workers=1, result_cache=rcache) as svc:
        svc.wait(svc.submit(SubmitRequest("nn/euclid", TINY)), timeout=120)
    with ExecutionService(workers=1, result_cache=rcache) as svc:
        resp = svc.wait(svc.submit(SubmitRequest(
            "nn/euclid", TINY.replace(validate_cache_fraction=1.0))),
            timeout=120)
        stats = svc.stats()
    assert resp.status == "ok"
    assert stats["result_cache"]["validations"] == 1
    assert stats["result_cache"]["divergences"] == 0


def test_serve_unkeyable_options_rejected_not_raised():
    polluted = TINY.replace(watchdog=object())
    with ExecutionService(workers=1) as svc:
        resp = svc.wait(svc.submit(SubmitRequest("nn/euclid", polluted)),
                        timeout=30)
    assert resp.status == "rejected"
    assert resp.error_type == "OptionKeyError"
    assert "watchdog" in resp.error
