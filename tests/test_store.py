"""The content-addressed store (``repro.store``) under both namespaces.

The compile cache and the result cache are namespaces on one
:class:`repro.store.Store`, so their shared contract is tested once,
parametrized over both (``docs/api.md``); the disk tier, which only
the result cache uses (the compile cache is memory-only), is tested
through the result cache:

* an entry written by one store instance is read back by a fresh one
  (a new process, same directory) as a self-describing ``StoreEntry``;
* a corrupt, truncated, version-skewed, foreign-namespace or mis-keyed
  file is a *miss*: removed, counted in ``disk_errors``, and rewritten
  by the next store;
* a value that cannot be pickled stays in memory, counted;
* the memory tier is an LRU bounded by ``max_entries`` (per-namespace
  default ``MAX_ENTRIES``), counting ``evictions``.
"""

import dataclasses
import os
import pickle

import pytest

from repro.compiler import CompileCache
from repro.evalharness import ResultCache, RunOptions, run_kernel
from repro.obs import Metrics
from repro.store import StoreEntry


@pytest.fixture(scope="module")
def tiny_run():
    return run_kernel("nn/euclid", options=RunOptions(scale="tiny"))


@pytest.fixture(params=[CompileCache, ResultCache],
                ids=["compile", "resultcache"])
def namespace(request):
    return request.param


def _put(cache, key, run):
    """Store ``run`` through the namespace's own front door."""
    if isinstance(cache, ResultCache):
        return cache.put(key, run.name, run)
    return cache.put(key, run)


@pytest.fixture(params=[ResultCache], ids=["resultcache"])
def disk_namespace(request):
    """The namespaces with a disk tier."""
    return request.param


@pytest.fixture
def stored(disk_namespace, tmp_path, tiny_run):
    """``(key, path)`` of one entry written to ``tmp_path``."""
    cache = disk_namespace(str(tmp_path))
    key = disk_namespace.make_key("entry")
    _put(cache, key, tiny_run)
    path = cache.path_for(key)
    assert cache.disk_writes == 1 and os.path.exists(path)
    return key, path


def _rewrite(path, **changes):
    with open(path, "rb") as fh:
        entry = pickle.load(fh)
    with open(path, "wb") as fh:
        pickle.dump(dataclasses.replace(entry, **changes), fh)


def test_disk_entry_round_trips(disk_namespace, stored, tmp_path):
    key, path = stored
    fresh = disk_namespace(str(tmp_path))  # new process, same directory
    assert fresh.get(key) is not None
    assert fresh.disk_hits == 1 and fresh.misses == 0
    with open(path, "rb") as fh:
        entry = pickle.load(fh)
    assert isinstance(entry, StoreEntry)
    assert (entry.namespace, entry.key) == (disk_namespace.NAMESPACE, key)


@pytest.mark.parametrize("damage", [
    "corrupt", "truncated", "version_skewed", "foreign_namespace",
    "mis_keyed",
])
def test_damaged_entry_is_a_counted_miss(disk_namespace, stored, tmp_path,
                                         tiny_run, damage):
    key, path = stored
    if damage == "corrupt":
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
    elif damage == "truncated":
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: len(data) // 2])
    elif damage == "version_skewed":
        _rewrite(path, version=disk_namespace.VERSION + 1)
    elif damage == "foreign_namespace":
        _rewrite(path, namespace="elsewhere")
    else:
        _rewrite(path, key=disk_namespace.make_key("another entry"))

    fresh = disk_namespace(str(tmp_path))
    assert fresh.get(key) is None
    assert fresh.disk_errors == 1
    assert fresh.misses == 1 and fresh.disk_hits == 0
    assert not os.path.exists(path)  # the poisoned file was removed
    # ...and the rebuilt value is written back, readable again.
    _put(fresh, key, tiny_run)
    assert disk_namespace(str(tmp_path)).get(key) is not None


def test_unpicklable_value_stays_in_memory(disk_namespace, tmp_path,
                                           tiny_run):
    cache = disk_namespace(str(tmp_path))
    key = disk_namespace.make_key("unpicklable")
    value = dataclasses.replace(tiny_run, trace=lambda: None)
    _put(cache, key, value)
    assert cache.disk_errors == 1 and cache.disk_writes == 0
    assert os.listdir(tmp_path) == []  # no entry, no temp litter
    assert cache.get(key) is not None  # the memory tier still serves it
    assert cache.hits == 1


def test_memory_tier_is_a_bounded_lru(namespace, tiny_run):
    assert namespace().max_entries == namespace.MAX_ENTRIES
    cache = namespace(max_entries=2)
    k0, k1, k2 = (namespace.make_key(i) for i in range(3))
    _put(cache, k0, tiny_run)
    _put(cache, k1, tiny_run)
    assert cache.get(k0) is not None  # k0 becomes most recently used
    _put(cache, k2, tiny_run)
    assert len(cache) == 2
    assert cache.stats()["evictions"] == 1
    assert cache.get(k1) is None  # the least recently used was evicted
    assert cache.get(k0) is not None and cache.get(k2) is not None


def test_counters_merge_and_export(namespace, tiny_run):
    worker = namespace()
    key = namespace.make_key("counted")
    worker.get(key)
    _put(worker, key, tiny_run)
    worker.get(key)
    parent = namespace()
    parent.merge_stats(worker.stats())
    assert (parent.hits, parent.misses, parent.stores) == (1, 1, 1)
    metrics = Metrics()
    parent.record_metrics(metrics)
    prefix = f"{namespace.METRIC_SCOPE}/{namespace.METRIC_PREFIX}"
    assert metrics.value(prefix + "hits") == 1
    assert metrics.value(prefix + "misses") == 1
    assert metrics.value(prefix + "entries") == 0
