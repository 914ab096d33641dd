"""``RunOptions``: one value object for every execution option.

``run_kernel`` grew to a 13-keyword signature and ``run_suite`` to a
15-keyword one; every new capability (watchdogs, fault campaigns,
tracing, compile caching) widened both, and the
new :mod:`repro.serve` request types would have had to mirror the whole
sprawl a third time.  :class:`RunOptions` consolidates the execution
options into a single frozen dataclass that ``run_kernel``,
``run_suite``, the ``repro.evalharness`` CLI and the serving layer all
consume::

    from repro.evalharness import RunOptions, run_kernel

    opts = RunOptions(scale="tiny", verify=True)
    run = run_kernel("nn/euclid", options=opts)

``scale`` — positional or keyword — stays a first-class argument of
both entry points; every other option travels in the ``RunOptions``.

Field groups
------------

========================  ==============================================
workload                  ``scale``
correctness               ``verify`` (golden-interpreter check),
                          ``optimize`` (per-launch optimisation pipeline)
architecture              ``vgiw_config`` / ``fermi_config`` /
                          ``sgmf_config``
resilience                ``watchdog``, ``retry``, ``isolate``,
                          ``inject`` (per-kernel fault campaigns),
                          ``timeout`` (host-seconds wall-clock budget)
observability             ``tracer``, ``metrics``, ``trace_path``
compilation               ``cache``
result caching            ``result_cache``, ``validate_cache_fraction``
parallelism               ``jobs``
========================  ==============================================

Suite-only fields (``retry``, ``isolate``, ``trace_path``, ``jobs``) are
ignored by ``run_kernel``.

The class is frozen: derive variants with :meth:`replace`
(``opts.replace(scale="medium")``).  :meth:`fingerprint` returns a
stable content key over the *pure* fields, each rendered by the
canonical :func:`repro.store.option_key` — the
batching scheduler in :mod:`repro.serve` uses it to decide which
requests may share one execution, and the result cache keys on it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace as _dc_replace
from typing import Any, ClassVar, Mapping, Optional, Tuple

from repro.resilience.errors import OptionKeyError
from repro.store import option_key

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """Frozen bundle of every execution option (see module docstring)."""

    # -- workload ------------------------------------------------------
    scale: str = "small"
    # -- correctness ---------------------------------------------------
    verify: bool = True
    optimize: bool = True
    # -- architecture configs ------------------------------------------
    vgiw_config: Optional[Any] = None
    fermi_config: Optional[Any] = None
    sgmf_config: Optional[Any] = None
    # -- resilience ----------------------------------------------------
    watchdog: Optional[Any] = None
    retry: Optional[Any] = None
    isolate: bool = True
    inject: Optional[Mapping[str, Any]] = None
    timeout: Optional[float] = None
    # -- observability -------------------------------------------------
    tracer: Optional[Any] = None
    metrics: Optional[Any] = None
    trace_path: Optional[str] = None
    # -- compilation ---------------------------------------------------
    cache: Optional[Any] = None
    # -- result caching ------------------------------------------------
    result_cache: Optional[Any] = None
    validate_cache_fraction: float = 0.0
    # -- parallelism ---------------------------------------------------
    jobs: int = 1

    # -- construction --------------------------------------------------
    def replace(self, **changes: Any) -> "RunOptions":
        """A copy with ``changes`` applied (the class is frozen)."""
        return _dc_replace(self, **changes)

    # -- identity ------------------------------------------------------
    #: fields that carry live, process-local objects; excluded from the
    #: fingerprint.  repro.serve answers a set tracer/metrics with fresh
    #: registries of its own and rejects the others.
    LIVE_FIELDS: ClassVar[Tuple[str, ...]] = (
        "tracer", "metrics", "cache", "result_cache")

    def fingerprint(self) -> str:
        """Stable content key over the pure (value-like) fields.

        Two options objects with equal fingerprints request the same
        execution semantics: same scale, verification, optimisation,
        architecture configs, watchdog/retry/fault campaign, and
        timeout.  Reporting/persistence knobs that cannot change a
        result (``trace_path``, ``jobs``, validation sampling) are
        excluded, as are the live-object fields.
        :mod:`repro.serve` batches requests whose kernel and
        fingerprint match, and the result cache keys entries on it —
        both require the key to be identical *across processes*, so
        every field value is keyed canonically by content via
        :func:`option_key` (an unkeyable object raises
        :class:`~repro.resilience.OptionKeyError`).  An empty mapping
        keys as ``None``: ``inject={}`` (what the CLI passes) and the
        default ``inject=None`` request the same execution.
        """
        skip = set(self.LIVE_FIELDS) | {
            "trace_path", "jobs", "validate_cache_fraction"}
        parts = []
        for f in fields(self):
            if f.name in skip:
                continue
            value = getattr(self, f.name)
            if isinstance(value, Mapping) and not value:
                value = None
            try:
                parts.append(f"{f.name}={option_key(value)}")
            except OptionKeyError as exc:
                raise OptionKeyError(
                    f"RunOptions.{f.name} cannot be fingerprinted: {exc}",
                    field=f.name,
                ) from exc
        return "|".join(parts)

    def live_fields_set(self) -> Tuple[str, ...]:
        """Names of :data:`LIVE_FIELDS` that are non-``None`` here."""
        return tuple(n for n in self.LIVE_FIELDS
                     if getattr(self, n) is not None)
