"""Differential oracle: golden interpreter vs. every timing engine.

The oracle takes one :class:`~repro.fuzz.generate.FuzzCase`, runs the
*raw* (unoptimised) kernel through the reference interpreter to obtain
the golden final memory image, then runs:

* the interpreter again on the **optimised** kernel — a divergence here
  is a compiler miscompile and is attributed to the pseudo-engine
  ``"optimizer"`` rather than to any machine;
* each registered timing engine (``fermi``, ``vgiw``, ``sgmf`` by
  default) on the optimised kernel (SGMF receives the rolled,
  ``unroll=False`` variant, matching the evaluation harness).

Each engine produces one :class:`EngineOutcome` whose ``status`` is a
point in the classification lattice::

    ok             final memory identical to golden (NaN == NaN)
    mismatch       some words differ and were written by the engine
    missing-store  every diverged word still holds its *initial* value
                   (the engine dropped stores rather than computing
                   wrong values)
    compile-error  CompileError from the optimisation/compile flow
    unmappable     SGMFUnmappableError — benign capacity limit, not a
                   semantics bug
    hang           SimulationHangError from the forward-progress
                   watchdog (deadlock/livelock)
    runtime-error  any other ReproError escaping the run

``missing-store`` is a *refinement* of ``mismatch``: it is reported
only when **all** diverged words are untouched, which is the signature
of a lost store queue entry rather than a wrong ALU result.

Memory comparison is bit-simple because every substrate works on the
same :class:`~repro.memory.image.MemoryImage` float64 words; the only
subtlety is NaN (a correct engine reproduces a NaN store, but
``nan != nan``), handled by :func:`compare_images`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.cache import CompileCache, cached_optimize_kernel
from repro.engine import create_engine
from repro.fuzz.generate import FuzzCase
from repro.interp import interpret
from repro.ir.kernel import Kernel
from repro.resilience.errors import (
    CompileError,
    MappingError,
    ReproError,
    SimulationHangError,
)
from repro.resilience.watchdog import WatchdogConfig
from repro.sgmf.mapping import SGMFUnmappableError

__all__ = [
    "CaseReport",
    "DEFAULT_ENGINES",
    "EngineOutcome",
    "ImageDiff",
    "compare_images",
    "run_case",
]

#: Engines the oracle exercises by default (the three timing machines).
DEFAULT_ENGINES: Tuple[str, ...] = ("fermi", "vgiw", "sgmf")

#: Statuses that do *not* indicate a semantics divergence.
BENIGN_STATUSES = frozenset({"ok", "unmappable"})

#: Generous default cycle budget: fuzz kernels are small, so any run
#: past this is a livelock, not a slow kernel.
DEFAULT_WATCHDOG = WatchdogConfig(max_cycles=5_000_000.0)


# ----------------------------------------------------------------------
# Image comparison
# ----------------------------------------------------------------------
@dataclass
class ImageDiff:
    """Word-level difference between a golden and an observed image."""

    #: no diverged words
    equal: bool
    #: number of diverged words
    words_diverged: int
    #: lowest diverged word address (or None)
    first_addr: Optional[int] = None
    #: diverged words whose observed value still equals the initial
    #: image (stores that never landed)
    missing_store_words: int = 0
    #: up to ``max_samples`` triples ``(addr, golden, got)``
    samples: List[Tuple[int, float, float]] = field(default_factory=list)

    def describe(self) -> str:
        if self.equal:
            return "images identical"
        parts = [
            f"{self.words_diverged} word(s) diverge, "
            f"first at address {self.first_addr}"
        ]
        if self.missing_store_words:
            parts.append(
                f"{self.missing_store_words} of them untouched "
                "(missing stores)"
            )
        for addr, want, got in self.samples:
            parts.append(f"  [{addr}] golden={want!r} got={got!r}")
        return "; ".join(parts[:2]) + (
            "\n" + "\n".join(parts[2:]) if len(parts) > 2 else ""
        )


def compare_images(
    golden: np.ndarray,
    got: np.ndarray,
    initial: Optional[np.ndarray] = None,
    max_samples: int = 8,
) -> ImageDiff:
    """NaN-aware word comparison of two memory images.

    ``initial`` (the pre-launch image) enables the missing-store
    refinement: a diverged word whose observed value equals its initial
    value was never written at all.
    """
    golden = np.asarray(golden, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if golden.shape != got.shape:
        return ImageDiff(
            equal=False,
            words_diverged=abs(int(golden.size) - int(got.size)),
            first_addr=int(min(golden.size, got.size)),
        )
    neq = (golden != got) & ~(np.isnan(golden) & np.isnan(got))
    diverged = np.flatnonzero(neq)
    if diverged.size == 0:
        return ImageDiff(equal=True, words_diverged=0)
    missing = 0
    if initial is not None:
        initial = np.asarray(initial, dtype=np.float64)
        same_as_initial = (got[diverged] == initial[diverged]) | (
            np.isnan(got[diverged]) & np.isnan(initial[diverged])
        )
        missing = int(np.count_nonzero(same_as_initial))
    samples = [
        (int(a), float(golden[a]), float(got[a]))
        for a in diverged[:max_samples]
    ]
    return ImageDiff(
        equal=False,
        words_diverged=int(diverged.size),
        first_addr=int(diverged[0]),
        missing_store_words=missing,
        samples=samples,
    )


# ----------------------------------------------------------------------
# Outcomes and reports
# ----------------------------------------------------------------------
@dataclass
class EngineOutcome:
    """One engine's verdict for one case."""

    engine: str
    status: str  # ok | mismatch | missing-store | compile-error |
    #              unmappable | hang | runtime-error
    detail: str = ""
    diff: Optional[ImageDiff] = None

    @property
    def benign(self) -> bool:
        return self.status in BENIGN_STATUSES

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "engine": self.engine,
            "status": self.status,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.diff is not None and not self.diff.equal:
            out["words_diverged"] = self.diff.words_diverged
            out["first_addr"] = self.diff.first_addr
        return out


@dataclass
class CaseReport:
    """Full oracle verdict for one fuzz case."""

    seed: int
    kernel_name: str
    n_threads: int
    n_blocks: int
    n_instrs: int
    outcomes: List[EngineOutcome] = field(default_factory=list)

    @property
    def divergent(self) -> bool:
        """True when any engine produced a non-benign outcome."""
        return any(not o.benign for o in self.outcomes)

    @property
    def divergent_engines(self) -> List[str]:
        return [o.engine for o in self.outcomes if not o.benign]

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "kernel": self.kernel_name,
            "n_threads": self.n_threads,
            "blocks": self.n_blocks,
            "instrs": self.n_instrs,
            "divergent": self.divergent,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def _kernel_size(kernel: Kernel) -> Tuple[int, int]:
    n_instrs = sum(len(b.instrs) for b in kernel.blocks.values())
    return len(kernel.blocks), n_instrs


def _classify_error(exc: ReproError) -> str:
    if isinstance(exc, SGMFUnmappableError):
        return "unmappable"
    if isinstance(exc, SimulationHangError):
        return "hang"
    if isinstance(exc, CompileError):
        return "compile-error"
    if isinstance(exc, MappingError):
        return "compile-error"
    return "runtime-error"


def run_case(
    case: FuzzCase,
    engines: Sequence[str] = DEFAULT_ENGINES,
    watchdog: Optional[WatchdogConfig] = DEFAULT_WATCHDOG,
    compile_cache: Optional[CompileCache] = None,
    check_optimizer: bool = True,
    max_block_visits: int = 1_000_000,
) -> CaseReport:
    """Run ``case`` differentially and classify every engine's outcome.

    The golden image comes from interpreting the raw kernel.  When
    ``check_optimizer`` is on, the optimised kernel is *also*
    interpreted: a divergence there is attributed to the pseudo-engine
    ``"optimizer"`` (a compiler miscompile) and the timing engines are
    still run so the report shows how the miscompile manifests.
    """
    n_blocks, n_instrs = _kernel_size(case.kernel)
    report = CaseReport(
        seed=case.seed,
        kernel_name=case.kernel.name,
        n_threads=case.n_threads,
        n_blocks=n_blocks,
        n_instrs=n_instrs,
    )

    initial = case.build_memory()
    initial_data = initial.data.copy()

    golden = initial.clone()
    interpret(case.kernel, golden, case.params, case.n_threads,
              max_block_visits=max_block_visits)
    golden_data = golden.data

    # -- compiler pipeline (shared by the engines) ---------------------
    try:
        opt_kernel = cached_optimize_kernel(
            case.kernel, params=case.params, cache=compile_cache
        )
        opt_rolled = cached_optimize_kernel(
            case.kernel, params=case.params, unroll=False,
            cache=compile_cache,
        )
    except ReproError as exc:
        report.outcomes.append(EngineOutcome(
            engine="optimizer",
            status=_classify_error(exc),
            detail=f"{type(exc).__name__}: {exc}",
        ))
        return report

    if check_optimizer:
        mem = initial.clone()
        try:
            interpret(opt_kernel, mem, case.params, case.n_threads,
                      max_block_visits=max_block_visits)
        except ReproError as exc:
            report.outcomes.append(EngineOutcome(
                engine="optimizer",
                status=_classify_error(exc),
                detail=f"{type(exc).__name__}: {exc}",
            ))
        else:
            diff = compare_images(golden_data, mem.data, initial_data)
            if not diff.equal:
                status = ("missing-store"
                          if diff.missing_store_words == diff.words_diverged
                          else "mismatch")
                report.outcomes.append(EngineOutcome(
                    engine="optimizer", status=status,
                    detail=diff.describe(), diff=diff,
                ))

    # -- timing engines ------------------------------------------------
    for name in engines:
        kernel = opt_rolled if name == "sgmf" else opt_kernel
        mem = initial.clone()
        try:
            create_engine(name).run(
                kernel, mem, case.params, case.n_threads,
                watchdog=watchdog, compile_cache=compile_cache,
            )
        except ReproError as exc:
            report.outcomes.append(EngineOutcome(
                engine=name,
                status=_classify_error(exc),
                detail=f"{type(exc).__name__}: {exc}",
            ))
            continue
        diff = compare_images(golden_data, mem.data, initial_data)
        if diff.equal:
            report.outcomes.append(EngineOutcome(engine=name, status="ok"))
        else:
            status = ("missing-store"
                      if diff.missing_store_words == diff.words_diverged
                      else "mismatch")
            report.outcomes.append(EngineOutcome(
                engine=name, status=status,
                detail=diff.describe(), diff=diff,
            ))
    return report
