"""Content-addressed result cache: the memoization tier above execution.

``run_kernel`` is fully deterministic given ``(kernel, RunOptions)`` —
that is what the serve layer's digest goldens prove on every CI run —
so re-simulating a request that has already been answered is pure
waste.  The paper's evaluation is exactly such a workload: the same
Table 2 kernels re-run across sweeps, ablations and serving streams.
This module memoises *entire runs*: entries are keyed by the content of
everything that determines the result and hold the finished
:class:`~repro.evalharness.runner.KernelRun` plus its result digest.

It is also how a killed sweep resumes: every healthy run is stored the
moment it finishes, so re-running the sweep against the same
``result_cache_dir`` replays the finished kernels and executes only
the rest.

Key anatomy
-----------

One cache key is :func:`repro.store.content_key` over four content
components:

1. **kernel content hash** — SHA-256 of the canonical textual IR
   (:func:`repro.compiler.cache.kernel_fingerprint`); renaming a
   registry entry does not fake a hit, editing one instruction misses;
2. **options fingerprint** — :meth:`RunOptions.fingerprint`, the
   canonical content key over the semantic option fields (scale,
   verify/optimize, arch configs, watchdog/retry, timeout).  Reporting
   knobs (jobs, trace paths, cache dirs) are excluded, so a resumed or
   parallel sweep hits the same entries;
3. **input digest** — the workload's initial memory image bytes, its
   parameter bindings and the launch size.  Workload construction is
   seeded and deterministic, but hashing the actual input keeps the
   cache honest if a generator ever changes;
4. **observability shape** — whether the run carried a per-kernel
   tracer / metrics registry.  A cached run replays its attached
   registries; a run recorded without them cannot serve a request that
   wants them.

:class:`ResultCache` is the ``resultcache`` namespace of
:class:`repro.store.Store`, which owns the bounded LRU memory tier, the
atomic disk tier (``<key>.result.pkl`` files), the tolerant loader
(corrupt, truncated, version-skewed or mis-keyed files are misses) and
the counters — the cache can only ever cost a re-run, never
correctness.

Trust, but verify
-----------------

``validate_cache_fraction`` arms the seeded validation mode: a
deterministic per-key draw (:meth:`ResultCache.should_validate`)
selects that fraction of hits for re-execution, and
:meth:`ResultCache.validate` compares the fresh run's
:func:`~repro.serve.result_digest` against the cached entry's.  A
mismatch raises :class:`~repro.resilience.ResultCacheDivergenceError`
— a hard failure, because it means either the cache is corrupted past
what the loader can detect or execution is not deterministic over the
key, and every cached answer is suspect.

The harness and :mod:`repro.serve` share one path for all of it:
:meth:`ResultCache.bypasses` decides what may be cached,
:meth:`ResultCache.validate` counts validations and divergences, and
:meth:`ResultCache.record_metrics` exports the counters through
:class:`repro.obs.Metrics` under the ``resultcache`` scope.
``docs/serving.md`` documents the serving-side behaviour and
``docs/api.md`` the harness-side flags.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.resilience.errors import ResultCacheDivergenceError
from repro.store import Store, content_key

__all__ = [
    "ResultCache",
    "ResultCacheEntry",
    "workload_digests",
]

#: Process-level memo for :func:`workload_digests` — workload
#: construction is deterministic in ``(name, scale)``, so the (cheap
#: but not free) build + hash runs once per process per pair.
_DIGEST_MEMO: Dict[Tuple[str, str], Tuple[str, str]] = {}


def workload_digests(name: str, scale: str) -> Tuple[str, str]:
    """``(kernel content hash, input digest)`` for a registry workload.

    The kernel hash is the canonical-IR fingerprint shared with the
    compile cache; the input digest is the content key of the initial
    memory image's SHA-256, the parameter bindings and the launch size.
    Memoised per process: workload builders are seeded and
    deterministic, so the pair is a pure function of ``(name, scale)``.
    """
    memo = _DIGEST_MEMO.get((name, scale))
    if memo is not None:
        return memo
    from repro.compiler.cache import kernel_fingerprint
    from repro.kernels.registry import make_workload

    workload = make_workload(name, scale)
    image = hashlib.sha256(workload.memory.data.tobytes()).hexdigest()
    digests = (kernel_fingerprint(workload.kernel),
               content_key(image, workload.params, workload.n_threads))
    _DIGEST_MEMO[(name, scale)] = digests
    return digests


def run_digest(run: Any) -> str:
    """The run's stable content digest (defers to
    :func:`repro.serve.result_digest`, so cached and served digests are
    the same function — the CI goldens compare them directly)."""
    from repro.serve.api import result_digest

    return result_digest(run)


@dataclass
class ResultCacheEntry:
    """One cached run, digest-stamped.

    ``digest`` is the :func:`~repro.serve.result_digest` of ``run`` at
    store time; the validation mode re-derives it from a fresh
    execution and compares.  The run carries its own per-kernel tracer
    / metrics registries (when the producer recorded them), so a hit
    replays observability exactly like the original execution.
    """

    kernel: str
    digest: str
    run: Any  # KernelRun


class ResultCache(Store):
    """Content-addressed memo for whole kernel runs.

    ``ResultCache(cache_dir=None, max_entries=None)``: see
    :class:`repro.store.Store` for the tiers and counters; values are
    :class:`ResultCacheEntry` records.  Adds the ``validations`` /
    ``divergences`` counters of the validation mode.
    """

    NAMESPACE = "resultcache"
    #: 2: an empty ``inject`` mapping keys as ``None``
    VERSION = 2
    SUFFIX = ".result.pkl"
    METRIC_SCOPE = "resultcache"
    COUNTERS = Store.COUNTERS + ("validations", "divergences")

    @staticmethod
    def bypasses(name: str, options: Any) -> bool:
        """True when running ``name`` under ``options`` must neither be
        answered from nor stored in the cache.

        A fault campaign on the kernel (``options.inject``) or a fault
        injector (``options.faults``) makes the execution deliberately
        not a pure function of the key.  The
        one policy ``run_kernel``, the sweep and ``repro.serve`` share.
        """
        return (options.faults is not None
                or name in (options.inject or {}))

    @classmethod
    def key_for(cls, name: str, options: Any) -> str:
        """The content key for ``(kernel name, options)``.

        Builds (memoised) the workload to hash the kernel IR and the
        actual input, takes the canonical options fingerprint, and
        folds in the observability shape — whether ``options`` carries
        a tracer / metrics registry; see the module docstring for the
        full key anatomy.  Raises
        :class:`~repro.resilience.OptionKeyError` if the options hold
        an unkeyable object (never silently a process-local key).
        """
        kfp, input_dg = workload_digests(name, options.scale)
        return cls.make_key(name, kfp, options.fingerprint(), input_dg,
                            options.tracer is not None,
                            options.metrics is not None)

    def put(self, key: str, kernel: str, run: Any) -> ResultCacheEntry:
        """Store a finished run under ``key`` (both tiers)."""
        return super().put(key, ResultCacheEntry(
            kernel=kernel, digest=run_digest(run), run=run))

    # -- validation ----------------------------------------------------
    def should_validate(self, key: str, fraction: float,
                        seed: int = 0) -> bool:
        """Deterministic seeded draw: is this hit in the validated
        sample?

        The draw hashes ``(seed, key)``, so the *same* hits validate on
        every replay of a stream (reproducible overhead), and different
        seeds sample different subsets.
        """
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        h = hashlib.sha256(f"validate|{seed}|{key}".encode()).digest()
        draw = int.from_bytes(h[:8], "big") / float(1 << 64)
        return draw < fraction

    def validate(self, key: str, entry: ResultCacheEntry,
                 fresh_run: Optional[Any]) -> None:
        """Compare a validation re-execution against the cached entry.

        Divergence — a failed re-execution (``fresh_run=None``) or a
        digest mismatch — is a hard
        :class:`~repro.resilience.ResultCacheDivergenceError`; see the
        module docstring for why it cannot be soft (``repro.serve``
        turns it into a degraded response).
        """
        self.validations += 1
        fresh = None if fresh_run is None else run_digest(fresh_run)
        if fresh != entry.digest:
            self.divergences += 1
            raise ResultCacheDivergenceError(
                "cached result diverges from validation re-execution",
                kernel=entry.kernel, key=key,
                cached_digest=entry.digest, fresh_digest=fresh,
            )
