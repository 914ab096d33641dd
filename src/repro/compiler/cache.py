"""Content-hash-keyed compile cache.

Every evaluation sweep used to recompile each kernel once per engine
per run: the VGIW flow (liveness → DFGs → partitioning → place & route)
for the VGIW core, the whole-kernel mapping for SGMF, the CFG analyses
for the Fermi occupancy model, and the per-launch optimisation pipeline
before all of them.  None of those results depend on anything but the
kernel's IR and the architecture parameters, so they are perfectly
memoisable — this module is that memo.

:class:`CompileCache` is the ``compile`` namespace of
:class:`repro.store.Store`, which owns the keys, the bounded LRU memory
tier and the counters.  The namespace is memory-only and process-local:
compiling the whole Table 2 suite takes well under a second, so a disk
tier would save next to nothing.  Keys are **content hashes** over the
computation's category, the kernel's canonical textual IR
(:func:`repro.ir.text.kernel_to_text`), and the architecture config and
options rendered canonically by :func:`repro.store.option_key` — two
equal fabric specs key equally whatever their dict insertion order, and
a value without a stable rendering raises
:class:`~repro.resilience.OptionKeyError`.  Changing a single
instruction, a fabric unit count, or an option therefore changes the
key; nothing is ever served stale.

The memory tier is what a single sweep (or a long-lived serve worker)
hits when the same kernel×config pair recurs: retries of a degraded
kernel, ablation sweeps that vary one machine's knob while the others
recompile identically, and the same workload launched again.

Counters are exported through :class:`repro.obs.Metrics` (scope
``compile``, names ``cache.<counter>``) by
:meth:`CompileCache.record_metrics`, which the evaluation harness calls
at the end of a sweep; ``docs/performance.md`` documents how to read
them.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Optional

from repro.store import Store

__all__ = [
    "CompileCache",
    "cached_compile_kernel",
    "cached_fermi_analysis",
    "cached_map_kernel",
    "cached_optimize_kernel",
    "kernel_fingerprint",
]


def kernel_fingerprint(kernel) -> str:
    """SHA-256 of the kernel's canonical textual IR.

    The textual format is a complete round-trippable serialisation of
    the IR (``parse_kernel(kernel_to_text(k))`` is identity), so two
    kernels share a fingerprint iff they are the same program.
    """
    from repro.ir.text import kernel_to_text

    return hashlib.sha256(kernel_to_text(kernel).encode()).hexdigest()


class CompileCache(Store):
    """Content-addressed memo for pure kernel-level computations.

    ``CompileCache(*, max_entries=None)``: the memory tier of
    :class:`repro.store.Store` only, so it counts no disk traffic.
    """

    NAMESPACE = "compile"
    MAX_ENTRIES = 512
    METRIC_SCOPE = "compile"
    METRIC_PREFIX = "cache."
    COUNTERS = ("hits", "misses", "stores", "evictions")

    def __init__(self, *, max_entries: Optional[int] = None):
        super().__init__(max_entries=max_entries)

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building (and storing) it on a
        miss."""
        value = self.get(key)
        if value is None:
            value = self.put(key, builder())
        return value


# ----------------------------------------------------------------------
# Cached front ends for the four per-kernel computations
# ----------------------------------------------------------------------
def cached_compile_kernel(kernel, spec=None, cache: Optional[CompileCache]
                          = None, replicate: bool = True,
                          replica_cap: int = 8):
    """:func:`repro.compiler.pipeline.compile_kernel` through ``cache``.

    The key covers the kernel IR, the fabric spec, and both options;
    with ``cache=None`` this is exactly ``compile_kernel``.
    """
    from repro.compiler.pipeline import compile_kernel

    if cache is None:
        return compile_kernel(kernel, spec, replicate=replicate,
                              replica_cap=replica_cap)
    key = cache.make_key("vgiw-compile", kernel_fingerprint(kernel), spec,
                         replicate, replica_cap)
    return cache.get_or_build(
        key, lambda: compile_kernel(kernel, spec, replicate=replicate,
                                    replica_cap=replica_cap))


def cached_map_kernel(kernel, spec, cache: Optional[CompileCache] = None):
    """:func:`repro.sgmf.mapping.map_kernel` through ``cache``.

    ``SGMFUnmappableError`` is cached too (as a sentinel), so a sweep
    does not re-derive the capacity proof for every unmappable run.
    """
    from repro.sgmf.mapping import SGMFUnmappableError, map_kernel

    if cache is None:
        return map_kernel(kernel, spec)
    key = cache.make_key("sgmf-map", kernel_fingerprint(kernel), spec)

    def build():
        try:
            return map_kernel(kernel, spec)
        except SGMFUnmappableError as exc:
            return _Unmappable(str(exc))

    result = cache.get_or_build(key, build)
    if isinstance(result, _Unmappable):
        raise SGMFUnmappableError(result.message)
    return result


def cached_fermi_analysis(kernel, cache: Optional[CompileCache] = None):
    """The Fermi SM's CFG analyses through ``cache``: ``(ipdom,
    pressure)``, the immediate-post-dominator map that drives the SIMT
    stack and the register-pressure estimate behind the occupancy
    model."""
    from repro.compiler.cfganalysis import immediate_post_dominators
    from repro.simt.sm import _register_pressure

    def build():
        return immediate_post_dominators(kernel), _register_pressure(kernel)

    if cache is None:
        return build()
    key = cache.make_key("fermi-analysis", kernel_fingerprint(kernel))
    return cache.get_or_build(key, build)


def cached_optimize_kernel(kernel, params=None,
                           cache: Optional[CompileCache] = None):
    """:func:`repro.compiler.optimize.optimize_variants` through
    ``cache``: the ``(unrolled, rolled)`` pair under one key."""
    from repro.compiler.optimize import optimize_variants

    if cache is None:
        return optimize_variants(kernel, params)
    key = cache.make_key("optimize", kernel_fingerprint(kernel), params)
    return cache.get_or_build(key, lambda: optimize_variants(kernel, params))


class _Unmappable:
    """Cached stand-in for ``SGMFUnmappableError``."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message
