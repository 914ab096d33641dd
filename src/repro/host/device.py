"""Host-side convenience API: allocate arrays, launch kernels, read back.

A thin CUDA-runtime-flavoured wrapper over the memory image and the four
execution engines, so application code reads like host code:

    from repro.host import Device

    dev = Device("vgiw")
    x = dev.array(np.arange(1024.0))
    y = dev.array(np.ones(1024))
    out = dev.empty(1024)
    stats = dev.launch(saxpy, 1024, a=2.0, x=x, y=y, out=out, n=1024)
    print(stats.cycles, out.to_numpy()[:4])

Array handles passed as launch parameters are transparently converted to
their base addresses.  ``device="interp"`` runs the reference
interpreter (no timing), which is handy for golden checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.compiler.optimize import optimize_kernel
from repro.engine import create_engine, engine_names, unknown_engine_error
from repro.ir.kernel import Kernel
from repro.memory.image import MemoryImage
from repro.resilience.errors import ReproError

Number = Union[int, float]


class HostError(ReproError):
    """Misuse of the host API."""


class LaunchStats:
    """Unified per-launch wrapper returned by :meth:`Device.launch`.

    Exposes the same four attributes for every backend —

    * ``cycles`` — simulated end-to-end cycles (``None`` for the
      untimed interpreter backend);
    * ``result`` — the backend's native run result
      (:class:`~repro.engine.EngineRunResult` subclass or
      :class:`~repro.interp.interpreter.InterpResult`);
    * ``trace`` — the :class:`repro.obs.Tracer` used, or ``None``;
    * ``metrics`` — the :class:`repro.obs.Metrics` registry, or ``None``

    — plus explicit forwarded properties for the per-backend result
    attributes application code actually reaches for (``bbs``,
    ``fabric``, ``sm``, ``engine``, ``kernel_name``, ``n_threads``,
    ``n_blocks``), each raising the backend's natural
    ``AttributeError`` when the wrapped result has no such field.  Any
    other result attribute is read through ``stats.result.<name>``.
    """

    __slots__ = ("result",)

    def __init__(self, result: Any):
        self.result = result

    @property
    def cycles(self) -> Optional[float]:
        return getattr(self.result, "cycles", None)

    @property
    def trace(self):
        return getattr(self.result, "trace", None)

    @property
    def metrics(self):
        return getattr(self.result, "metrics", None)

    # -- explicit forwarded result attributes (grep-driven: the set the
    # repository's own tests, docs, and examples rely on) --------------
    @property
    def engine(self) -> str:
        """Backend name of the result (``"vgiw"``, ``"fermi"``, ...)."""
        return self.result.engine

    @property
    def kernel_name(self) -> str:
        return self.result.kernel_name

    @property
    def n_threads(self) -> int:
        return self.result.n_threads

    @property
    def n_blocks(self) -> int:
        return self.result.n_blocks

    @property
    def bbs(self):
        """VGIW basic-block scheduler statistics (``BBSStats``)."""
        return self.result.bbs

    @property
    def fabric(self):
        """VGIW / SGMF fabric statistics (``FabricStats``)."""
        return self.result.fabric

    @property
    def sm(self):
        """Fermi streaming-multiprocessor statistics (``SMStats``)."""
        return self.result.sm

    def __repr__(self) -> str:
        return f"LaunchStats(cycles={self.cycles}, result={self.result!r})"


@dataclass(frozen=True)
class DeviceArray:
    """A handle to a named region of device memory."""

    device: "Device"
    name: str
    base: int
    size: int

    def to_numpy(self) -> np.ndarray:
        """Copy the array's current contents back to the host."""
        return self.device.memory.read_block(self.base, self.size)

    def write(self, values: Sequence[Number]) -> None:
        """Overwrite the array's contents from the host."""
        values = np.asarray(values, dtype=np.float64)
        if len(values) != self.size:
            raise HostError(
                f"array {self.name!r} holds {self.size} words, "
                f"got {len(values)}"
            )
        self.device.memory.write_block(self.base, values)

    def __len__(self) -> int:
        return self.size


class Device:
    """One simulated device with its own memory image.

    Parameters
    ----------
    backend:
        Any name in the engine registry
        (:func:`repro.engine.engine_names`): ``"vgiw"``, ``"fermi"``,
        ``"sgmf"``, ``"interp"``, or a backend registered via
        :func:`repro.engine.register_engine`.
    memory_words:
        Size of the device memory image.
    config:
        Optional architecture configuration matching the backend.
    optimize:
        Run the per-launch optimisation pipeline (parameter
        specialisation, unrolling, CSE, FMA contraction) before
        executing.  Applies to every backend identically.
    tracer / metrics:
        Optional :class:`repro.obs.Tracer` / :class:`repro.obs.Metrics`
        threaded through every launch on this device; both are exposed
        on the returned :class:`LaunchStats`.
    """

    def __init__(self, backend: str = "vgiw", memory_words: int = 1 << 20,
                 config=None, optimize: bool = True,
                 tracer=None, metrics=None):
        if backend not in engine_names():
            # Surface the registry's own diagnosis (registered names +
            # nearest match) unchanged, typed as a host-API error.
            exc = unknown_engine_error(backend)
            raise HostError(str(exc)) from exc
        self.backend = backend
        self.memory = MemoryImage(memory_words)
        self.config = config
        self.optimize = optimize
        self.tracer = tracer
        self.metrics = metrics
        self._array_counter = 0
        self.last_result = None

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def _fresh_name(self, hint: str) -> str:
        self._array_counter += 1
        return f"{hint}.{self._array_counter}"

    def array(self, values: Sequence[Number], name: Optional[str] = None
              ) -> DeviceArray:
        """Allocate and initialise a device array."""
        values = np.asarray(values, dtype=np.float64)
        name = name or self._fresh_name("array")
        base = self.memory.alloc_array(name, values)
        return DeviceArray(self, name, base, len(values))

    def empty(self, size: int, name: Optional[str] = None) -> DeviceArray:
        """Allocate an uninitialised (zeroed) device array."""
        name = name or self._fresh_name("array")
        base = self.memory.alloc(name, size)
        return DeviceArray(self, name, base, size)

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    def launch(self, kernel: Kernel, n_threads: int, **params) -> LaunchStats:
        """Launch ``kernel`` over ``n_threads`` threads.

        Keyword arguments supply the kernel parameters; ``DeviceArray``
        handles are converted to their base addresses.  Returns a
        :class:`LaunchStats` (also stored as ``last_result``) exposing
        ``cycles`` / ``result`` / ``trace`` / ``metrics`` uniformly
        across backends; the backend's native run result is
        ``stats.result``.
        """
        missing = [p for p in kernel.params if p not in params]
        if missing:
            raise HostError(f"missing kernel parameters: {missing}")
        resolved: Dict[str, Number] = {}
        for name, value in params.items():
            if isinstance(value, DeviceArray):
                if value.device is not self:
                    raise HostError(
                        f"array {value.name!r} belongs to another device"
                    )
                resolved[name] = value.base
            else:
                resolved[name] = value

        run_kernel = kernel
        if self.optimize:
            run_kernel = optimize_kernel(kernel, params=resolved)

        # Registry dispatch: every backend satisfies the
        # repro.engine.Engine protocol, so one call site serves all.
        engine = create_engine(self.backend, self.config)
        result = engine.run(
            run_kernel, self.memory, resolved, n_threads,
            tracer=self.tracer, metrics=self.metrics,
        )
        stats = LaunchStats(result)
        self.last_result = stats
        return stats
