"""One content-addressed store: the persistence primitive under every cache.

The compile cache (:class:`repro.compiler.CompileCache`) and the result
cache (:class:`repro.evalharness.ResultCache`) are *namespaces* on the
:class:`Store` defined here.  Each subclass names its namespace, entry
version, default memory bound, file suffix and metrics scope, and keeps
only its domain logic; everything else lives in this module and
nowhere else:

* **canonical keys** — :func:`option_key` renders a value by *content*
  (dataclasses field by field, mappings sorted, sequences element-wise)
  and :func:`content_key` hashes a tuple of such parts.  Two equal
  values key equally in every process; a value whose only rendering
  embeds a memory address raises
  :class:`~repro.resilience.OptionKeyError` instead of being keyed by
  address.
* **versioned, self-describing entries** — every disk file holds one
  :class:`StoreEntry` ``(version, namespace, key, value)``.
* **a bounded LRU memory tier** — at most ``max_entries`` values
  (per-namespace default :attr:`Store.MAX_ENTRIES`); the least recently
  used value is evicted and counted in ``evictions``.
* **an atomic disk tier** (optional, ``cache_dir=``; the result cache
  uses it, the compile cache is memory-only) — one pickle per entry at
  ``<cache_dir>/<key><SUFFIX>``, written through
  :func:`repro.resilience.atomicio.atomic_pickle`, so concurrent
  ``--jobs`` workers and serve pools may share a directory and a crash
  never leaves a torn file under the final name.
* **one tolerant loader** — a corrupt, truncated, version-skewed,
  foreign-namespace or mis-keyed file is a miss: it is removed and
  counted in ``disk_errors``.  A store can only ever cost a rebuild,
  never correctness.  A value that cannot be pickled stays in memory
  (also counted in ``disk_errors``).
* **one counter set** — :meth:`Store.stats`, :meth:`Store.merge_stats`
  (what a worker ships back across a process boundary) and
  :meth:`Store.record_metrics` (the ``<scope>/<prefix><counter>``
  metric names).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Dict, Optional, Tuple

from repro.resilience.atomicio import atomic_pickle
from repro.resilience.errors import OptionKeyError

__all__ = ["Store", "StoreEntry", "content_key", "option_key"]


def option_key(value: Any) -> str:
    """Canonical, process-stable content key for one value.

    * scalars (``None``/bool/int/float/str/bytes) — their ``repr``;
    * objects with an explicit ``cache_key()`` hook — the hook's value
      (the documented override for exotic config types);
    * dataclass instances — class name plus every field keyed
      recursively (declaration order, which is stable);
    * mappings — sorted ``key: value`` pairs, both keyed recursively;
    * sequences/sets — element-wise (sets sorted);
    * anything else with a custom, address-free ``repr`` — that repr.

    An object matching none of the above (default object ``repr``, or
    a custom one still embedding ``at 0x...``) raises a typed
    :class:`~repro.resilience.OptionKeyError` instead of silently
    producing a process-unique key.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return repr(value)
    hook = getattr(value, "cache_key", None)
    if callable(hook):
        return f"{type(value).__qualname__}.cache_key({hook()!r})"
    if is_dataclass(value) and not isinstance(value, type):
        inner = ", ".join(
            f"{f.name}={option_key(getattr(value, f.name))}"
            for f in fields(value)
        )
        return f"{type(value).__qualname__}({inner})"
    if isinstance(value, Mapping):
        items = sorted(
            (option_key(k), option_key(v)) for k, v in value.items()
        )
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(option_key(v) for v in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(option_key(v) for v in value)) + "}"
    rep = repr(value)
    if type(value).__repr__ is object.__repr__ or " at 0x" in rep:
        raise OptionKeyError(
            f"cannot build a stable key for {type(value).__qualname__} "
            f"(its repr embeds a memory address); make it a dataclass "
            f"or give it a cache_key() method",
            value_type=type(value).__qualname__,
        )
    return rep


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical key of ``parts``."""
    return hashlib.sha256(option_key(parts).encode()).hexdigest()


@dataclass
class StoreEntry:
    """One disk entry: the value plus the identity the loader checks."""

    version: int
    namespace: str
    key: str
    value: Any


class Store:
    """Two-tier content-addressed memo for one namespace.

    Parameters
    ----------
    cache_dir:
        Optional directory for the persistent tier (created on
        demand).  ``None`` keeps the store in memory only.
    max_entries:
        Bound on the in-memory LRU tier; ``None`` takes the
        namespace's :attr:`MAX_ENTRIES`.  The disk tier is unbounded
        (one pickle per distinct key).

    Values must not be ``None`` (:meth:`get` reports a miss as
    ``None``).  Counters are plain attributes named by
    :attr:`COUNTERS`.
    """

    #: identity of the namespace: part of every key and every entry
    NAMESPACE = "store"
    #: bump when the namespace's value schema changes; the loader
    #: rejects (and removes) entries written under another version
    VERSION = 1
    #: default bound on the memory tier
    MAX_ENTRIES = 256
    #: disk file name suffix after the key
    SUFFIX = ".pkl"
    #: metric names are ``<METRIC_SCOPE>/<METRIC_PREFIX><counter>``
    METRIC_SCOPE = "store"
    METRIC_PREFIX = ""
    COUNTERS: Tuple[str, ...] = (
        "hits", "misses", "stores", "evictions",
        "disk_hits", "disk_writes", "disk_errors",
    )

    def __init__(self, cache_dir: Optional[str] = None,
                 max_entries: Optional[int] = None):
        self.cache_dir = cache_dir
        self.max_entries = max(1, int(self.MAX_ENTRIES if max_entries is None
                                      else max_entries))
        self._mem: "OrderedDict[str, Any]" = OrderedDict()
        for name in self.COUNTERS:
            setattr(self, name, 0)

    @classmethod
    def make_key(cls, *parts: Any) -> str:
        """The key of ``parts`` in this namespace (see
        :func:`content_key`)."""
        return content_key(cls.NAMESPACE, *parts)

    # -- lookup --------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """The value for ``key``, or ``None`` (counted as a miss).

        Memory first (refreshing LRU recency), then the disk tier; a
        disk hit is promoted into memory.
        """
        value = self._mem.get(key)
        if value is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return value
        if self.cache_dir is not None:
            value = self._disk_load(key)
            if value is not None:
                self.disk_hits += 1
                self.hits += 1
                self._remember(key, value)
                return value
        self.misses += 1
        return None

    def put(self, key: str, value: Any) -> Any:
        """Store ``value`` under ``key`` in both tiers; returns it."""
        self.stores += 1
        self._remember(key, value)
        if self.cache_dir is not None:
            self._disk_store(key, value)
        return value

    def _remember(self, key: str, value: Any) -> None:
        self._mem[key] = value
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)
            self.evictions += 1

    # -- persistent tier -----------------------------------------------
    def path_for(self, key: str) -> str:
        """The disk file of ``key`` (requires ``cache_dir``)."""
        return os.path.join(self.cache_dir, f"{key}{self.SUFFIX}")

    def _disk_load(self, key: str) -> Optional[Any]:
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:  # corrupt / truncated / unreadable entry
            entry = None
        if (isinstance(entry, StoreEntry) and entry.version == self.VERSION
                and entry.namespace == self.NAMESPACE and entry.key == key):
            return entry.value
        self.disk_errors += 1
        try:
            os.remove(path)
        except OSError:
            pass
        return None

    def _disk_store(self, key: str, value: Any) -> None:
        entry = StoreEntry(self.VERSION, self.NAMESPACE, key, value)
        try:
            atomic_pickle(self.path_for(key), entry)
            self.disk_writes += 1
        except Exception:
            # An unpicklable value or an unwritable directory degrades
            # the store to memory-only; it never fails the caller.
            self.disk_errors += 1

    # -- introspection -------------------------------------------------
    def stats(self) -> Dict[str, int]:
        out = {name: getattr(self, name) for name in self.COUNTERS}
        out["entries"] = len(self._mem)
        return out

    def merge_stats(self, stats: Optional[Dict[str, int]]) -> None:
        """Fold a worker's :meth:`stats` dict into the counters."""
        if not stats:
            return
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + stats.get(name, 0))

    def record_metrics(self, metrics,
                       since: Optional[Dict[str, int]] = None) -> None:
        """Publish the counters into ``metrics`` under
        :attr:`METRIC_SCOPE`; with ``since`` (an earlier :meth:`stats`)
        only what they counted after it."""
        if metrics is None:
            return
        scope = metrics.scope(self.METRIC_SCOPE)
        base = since or {}
        for name in self.COUNTERS:
            scope.inc(self.METRIC_PREFIX + name,
                      getattr(self, name) - base.get(name, 0))
        scope.gauge(self.METRIC_PREFIX + "entries", len(self._mem))

    def __len__(self) -> int:
        return len(self._mem)

    def __repr__(self) -> str:
        tier = f", dir={self.cache_dir!r}" if self.cache_dir else ""
        return (f"{type(self).__name__}({len(self._mem)}/{self.max_entries} "
                f"entries, {self.hits} hits, {self.misses} misses{tier})")
