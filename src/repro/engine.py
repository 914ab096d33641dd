"""Unified engine contracts: ``Engine`` protocol, ``EngineRunResult``
base, and the backend registry.

Before this module the three machines exposed three incompatible
``*RunResult`` shapes and the host :class:`~repro.host.Device` chose a
backend with an ``if/elif`` chain.  Now:

* :class:`Engine` is the structural protocol every execution backend
  satisfies: construct with an optional config, then
  ``run(kernel, memory, params, n_threads, *, watchdog=None,
  faults=None, tracer=None, metrics=None, compile_cache=None)``;
* :class:`EngineRunResult` is the common result base.  Subclasses
  (``VGIWRunResult``, ``FermiRunResult``, ``SGMFRunResult``) keep every
  historical field and field *order* — the base contributes the shared
  contract (``kernel_name``, ``n_threads``, ``cycles``, ``l1``/``l2``
  :class:`~repro.memory.cache.CacheStats`,
  :class:`~repro.memory.dram.DRAMStats` ``dram``) plus the
  observability attachments ``trace`` / ``metrics`` and shared derived
  properties;
* :func:`register_engine` / :func:`create_engine` form a registry keyed
  by backend name (``"vgiw"``, ``"fermi"``, ``"sgmf"``, ``"interp"``),
  so new backends plug into :class:`~repro.host.Device` without
  touching its dispatch.

The built-in engines register lazily (module-path strings) to keep this
module import-cycle-free: engine modules import ``repro.engine`` for
the result base.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, Optional, Protocol, Tuple, Union, runtime_checkable

__all__ = [
    "Engine",
    "EngineRunResult",
    "UnknownEngineError",
    "bind_params",
    "create_engine",
    "engine_names",
    "register_engine",
    "unknown_engine_error",
]

Number = Union[int, float, bool]


# ----------------------------------------------------------------------
# Result base
# ----------------------------------------------------------------------
class EngineRunResult:
    """Common base of every timing engine's run result.

    Contract (every subclass provides these attributes):

    ``kernel_name``  the launched kernel's name
    ``n_threads``    launch width
    ``cycles``       end-to-end simulated cycles
    ``l1`` / ``l2``  :class:`~repro.memory.cache.CacheStats`
    ``dram``         :class:`~repro.memory.dram.DRAMStats`

    The base is deliberately *not* a dataclass: the concrete results
    are dataclasses whose historical field order (and therefore
    positional-construction surface) must not change, so the shared
    fields stay declared in the subclasses and the base contributes the
    contract, the observability attachments, and derived properties.

    ``trace`` / ``metrics`` default to ``None`` (class attributes) and
    are attached by the engine via :meth:`attach_obs` when a tracer or
    metrics registry was passed to ``run``.
    """

    #: engine name, overridden per subclass ("vgiw", "fermi", "sgmf")
    engine: str = "?"
    #: :class:`repro.obs.Tracer` used during the run (or None)
    trace = None
    #: :class:`repro.obs.Metrics` populated during the run (or None)
    metrics = None

    REQUIRED_ATTRS: Tuple[str, ...] = (
        "kernel_name", "n_threads", "cycles", "l1", "l2", "dram",
    )

    def attach_obs(self, tracer=None, metrics=None) -> "EngineRunResult":
        """Attach the run's tracer / metrics registry (chainable)."""
        if tracer is not None:
            self.trace = tracer
        if metrics is not None:
            self.metrics = metrics
        return self

    # -- shared derived properties -------------------------------------
    @property
    def dram_accesses(self) -> int:
        return self.dram.accesses

    @property
    def l1_hit_rate(self) -> float:
        return self.l1.hit_rate

    def memory_summary(self) -> Dict[str, float]:
        """The shared memory-hierarchy counters as a flat dict (the
        same quantities :func:`repro.obs.record_shared_run_metrics`
        publishes into the shared counter namespace)."""
        return {
            "l1.accesses": self.l1.accesses,
            "l1.misses": self.l1.misses,
            "l2.accesses": self.l2.accesses,
            "l2.misses": self.l2.misses,
            "dram.reads": self.dram.reads,
            "dram.writes": self.dram.writes,
            "dram.row_activations": self.dram.row_misses,
        }

    def summary(self) -> Dict[str, Any]:
        """Engine-agnostic run summary (uniform across backends)."""
        out: Dict[str, Any] = {
            "engine": self.engine,
            "kernel": self.kernel_name,
            "n_threads": self.n_threads,
            "cycles": self.cycles,
        }
        out.update(self.memory_summary())
        return out


# ----------------------------------------------------------------------
# Engine protocol
# ----------------------------------------------------------------------
@runtime_checkable
class Engine(Protocol):
    """Structural protocol every execution backend satisfies.

    Engines are constructed with an optional architecture config
    (``VGIWCore(config)``, ``FermiSM(config)``, ...) and expose
    ``run`` with the uniform keyword surface below.  Extra
    engine-specific keywords (``profile=``, ``max_block_executions=``)
    are allowed; the protocol names the portable subset.
    """

    def run(
        self,
        kernel,
        memory,
        params: Dict[str, Number],
        n_threads: int,
        *,
        watchdog=None,
        faults=None,
        tracer=None,
        metrics=None,
        compile_cache=None,
    ):  # pragma: no cover - structural declaration only
        ...


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
class UnknownEngineError(KeyError):
    """Backend name not present in the engine registry.

    ``KeyError.__str__`` would wrap the message in quotes (it renders
    the missing *key*); the override keeps the rendered message usable
    verbatim, so :class:`~repro.host.Device` can surface it unchanged.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else ""


def unknown_engine_error(name: str) -> UnknownEngineError:
    """Build the registry's unknown-backend error for ``name``.

    The message lists every registered backend and, when the name looks
    like a typo of one of them, the nearest match.  Shared by
    :func:`create_engine` and :class:`~repro.host.Device` so the two
    entry points report identically.
    """
    import difflib

    names = engine_names()
    message = (f"unknown backend {name!r}; registered engines: "
               f"{', '.join(names)}")
    close = difflib.get_close_matches(name, names, n=1, cutoff=0.5)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return UnknownEngineError(message)


#: name -> factory(config) -> engine instance
_REGISTRY: Dict[str, Callable[[Optional[Any]], Any]] = {}

#: built-in backends, loaded lazily to avoid import cycles
_BUILTIN: Dict[str, Tuple[str, str]] = {
    "vgiw": ("repro.vgiw.core", "VGIWCore"),
    "fermi": ("repro.simt.sm", "FermiSM"),
    "sgmf": ("repro.sgmf.core", "SGMFCore"),
    "interp": ("repro.engine", "InterpEngine"),
}


def register_engine(name: str,
                    factory: Optional[Callable[[Optional[Any]], Any]] = None):
    """Register backend ``name``; usable as a decorator.

    ``factory(config)`` must return an object satisfying
    :class:`Engine`.  Classes whose ``__init__`` takes one optional
    config argument can be registered directly::

        @register_engine("mycore")
        class MyCore: ...
    """
    def _register(fac):
        _REGISTRY[name] = fac
        return fac

    if factory is None:
        return _register
    return _register(factory)


def engine_names() -> Tuple[str, ...]:
    """All registered backend names (built-ins included)."""
    return tuple(sorted(set(_BUILTIN) | set(_REGISTRY)))


def create_engine(name: str, config: Optional[Any] = None):
    """Instantiate the backend registered under ``name``."""
    factory = _REGISTRY.get(name)
    if factory is None:
        builtin = _BUILTIN.get(name)
        if builtin is None:
            raise unknown_engine_error(name)
        module, attr = builtin
        factory = getattr(import_module(module), attr)
        _REGISTRY[name] = factory
    return factory(config)


def bind_params(kernel, params: Dict[str, Number]) -> Dict[str, Number]:
    """An engine's launch parameters: ``kernel.params`` from ``params``,
    each coerced to its declared type by
    :func:`repro.ir.instr.coerce_value`."""
    from repro.ir.instr import coerce_value

    return {
        name: coerce_value(params[name], kernel.param_dtypes[name])
        for name in kernel.params
    }


# ----------------------------------------------------------------------
# Interpreter adapter
# ----------------------------------------------------------------------
class InterpEngine:
    """Adapts the reference interpreter to the :class:`Engine` surface.

    The interpreter has no timing model, so ``watchdog`` and ``tracer``
    hooks are accepted-and-ignored (``faults`` too — the interpreter is
    the golden model and must stay exact — and ``compile_cache``, as it
    compiles nothing).  The returned
    :class:`~repro.interp.interpreter.InterpResult` gains the
    ``trace`` / ``metrics`` attachments for a uniform launch surface.
    """

    def __init__(self, config: Optional[Any] = None):
        self.config = config

    def run(self, kernel, memory, params, n_threads, *,
            watchdog=None, faults=None, tracer=None, metrics=None,
            compile_cache=None):
        from repro.interp import interpret

        result = interpret(kernel, memory, params, n_threads)
        result.trace = tracer
        result.metrics = metrics
        if metrics is not None:
            scope = metrics.scope("interp")
            scope.inc("run.threads", n_threads)
            scope.inc("run.instructions", result.total_instructions)
        return result
