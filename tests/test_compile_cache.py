"""Compile-cache correctness: content keys, the memory-only tier.

The cache's contract (``repro/compiler/cache.py``, ``docs/performance.md``):
keys are content hashes over the IR text and the canonically rendered
config and options, so any change to the kernel or the architecture
invalidates while equal configs always share an entry.  The store's
disk tier belongs to the result cache alone and is tested in
``tests/test_store.py``.
"""

import pytest

from repro.arch import FabricSpec, UnitKind
from repro.compiler import (
    CompileCache,
    cached_compile_kernel,
    cached_map_kernel,
    cached_optimize_kernel,
    kernel_fingerprint,
)
from repro.ir import KernelBuilder
from repro.obs import Metrics
from repro.resilience import OptionKeyError
from repro.sgmf.mapping import SGMFUnmappableError


def make_kernel(scale_by=2.0, name="cachetest"):
    kb = KernelBuilder(name, params=["x", "out", "n"])
    i = kb.tid()
    with kb.if_(i < kb.param("n")):
        kb.store(kb.param("out") + i, kb.load(kb.param("x") + i) * scale_by)
    return kb.build()


def small_spec():
    return FabricSpec(width=9, height=6, counts={
        UnitKind.COMPUTE: 16, UnitKind.SPECIAL: 6, UnitKind.LDST: 8,
        UnitKind.LVU: 8, UnitKind.SJU: 8, UnitKind.CVU: 8,
    })


# ----------------------------------------------------------------------
# Content keys
# ----------------------------------------------------------------------
def test_fingerprint_tracks_ir_content():
    assert kernel_fingerprint(make_kernel()) == kernel_fingerprint(make_kernel())
    assert (kernel_fingerprint(make_kernel(scale_by=2.0))
            != kernel_fingerprint(make_kernel(scale_by=3.0)))


def test_compile_hits_on_identical_kernel_and_spec():
    cache = CompileCache()
    k = make_kernel()
    first = cached_compile_kernel(k, cache=cache)
    again = cached_compile_kernel(make_kernel(), cache=cache)
    assert again is first  # same IR content -> same entry
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1


def test_ir_change_invalidates():
    cache = CompileCache()
    cached_compile_kernel(make_kernel(scale_by=2.0), cache=cache)
    cached_compile_kernel(make_kernel(scale_by=3.0), cache=cache)
    assert cache.misses == 2 and cache.hits == 0


def test_arch_config_change_invalidates():
    cache = CompileCache()
    k = make_kernel()
    default = cached_compile_kernel(k, cache=cache)
    other = cached_compile_kernel(k, small_spec(), cache=cache)
    assert cache.misses == 2 and cache.hits == 0
    assert other is not default


def test_equal_specs_share_one_entry_whatever_the_dict_order():
    """Canonical keys: equal ``FabricSpec``s whose ``counts`` dicts
    differ only in insertion order are one ``vgiw-compile`` entry (a
    ``repr``-based key saw two)."""
    spec = small_spec()
    reordered = FabricSpec(width=spec.width, height=spec.height,
                           counts=dict(reversed(list(spec.counts.items()))))
    assert reordered == spec and repr(reordered) != repr(spec)
    cache = CompileCache()
    first = cached_compile_kernel(make_kernel(), spec, cache=cache)
    again = cached_compile_kernel(make_kernel(), reordered, cache=cache)
    assert again is first
    assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 1
    assert cache.stats()["entries"] == 1


def test_unkeyable_params_raise_instead_of_keying_by_address():
    with pytest.raises(OptionKeyError):
        cached_optimize_kernel(make_kernel(), params={"n": object()},
                               cache=CompileCache())


def test_compile_options_participate_in_key():
    cache = CompileCache()
    k = make_kernel()
    cached_compile_kernel(k, cache=cache, replicate=True)
    cached_compile_kernel(k, cache=cache, replicate=False)
    assert cache.misses == 2


def test_optimize_params_participate_in_key():
    cache = CompileCache()
    k = make_kernel()
    a = cached_optimize_kernel(k, params={"n": 64}, cache=cache)
    b = cached_optimize_kernel(k, params={"n": 128}, cache=cache)
    assert cache.misses == 2
    c = cached_optimize_kernel(k, params={"n": 64}, cache=cache)
    assert c is a and cache.hits == 1
    assert b is not a


def test_cache_none_is_passthrough():
    k = make_kernel()
    compiled = cached_compile_kernel(k, cache=None)
    assert compiled.kernel.name == k.name


def test_unmappable_result_is_cached():
    # A kernel too big for a tiny fabric: the capacity proof is cached
    # as a sentinel and re-raised, not re-derived.
    spec = FabricSpec(width=3, height=3, counts={
        UnitKind.COMPUTE: 3, UnitKind.SPECIAL: 1, UnitKind.LDST: 2,
        UnitKind.LVU: 1, UnitKind.SJU: 1, UnitKind.CVU: 1,
    })
    cache = CompileCache()
    k = make_kernel()
    with pytest.raises(SGMFUnmappableError):
        cached_map_kernel(k, spec, cache=cache)
    with pytest.raises(SGMFUnmappableError):
        cached_map_kernel(k, spec, cache=cache)
    assert cache.misses == 1 and cache.hits == 1


# ----------------------------------------------------------------------
# Memory only
# ----------------------------------------------------------------------
def test_compile_cache_takes_no_directory(tmp_path):
    with pytest.raises(TypeError):
        CompileCache(str(tmp_path))
    with pytest.raises(TypeError):
        CompileCache(cache_dir=str(tmp_path))
    cache = CompileCache(max_entries=4)
    assert cache.cache_dir is None and cache.max_entries == 4
    assert set(cache.stats()) == {"hits", "misses", "stores", "evictions",
                                  "entries"}


# ----------------------------------------------------------------------
# Introspection / merging
# ----------------------------------------------------------------------
def test_record_metrics_publishes_compile_scope():
    cache = CompileCache()
    cached_compile_kernel(make_kernel(), cache=cache)
    cached_compile_kernel(make_kernel(), cache=cache)
    metrics = Metrics()
    cache.record_metrics(metrics)
    assert metrics.value("compile/cache.hits") == 1
    assert metrics.value("compile/cache.misses") == 1
    assert metrics.value("compile/cache.entries") == 1


def test_merge_stats_folds_worker_counters():
    parent, worker = CompileCache(), CompileCache()
    cached_compile_kernel(make_kernel(), cache=worker)
    cached_compile_kernel(make_kernel(), cache=worker)
    parent.merge_stats(worker.stats())
    assert parent.hits == 1 and parent.misses == 1
