"""Fuzz campaign orchestration: generate → oracle → reduce → corpus.

A *campaign* runs ``count`` generated cases (per-case seeds drawn from
one master seed) through the differential oracle, optionally fanning
the work out over a process pool, then — serially, in the parent —
reduces every divergent case to a minimal reproducer and writes it to
a corpus directory.

Determinism is the contract that makes campaign output a regression
artifact:

* per-case seeds are fixed up front from the master seed, so case *i*
  is the same kernel no matter how many workers run the campaign;
* results are collected in input order (not completion order);
* the summary (:meth:`CampaignResult.summary`) contains no wall-clock
  or worker-count fields, so ``--jobs 4`` and ``--jobs 1`` produce
  byte-identical summary JSON for the same seed/count.

The time budget is a parent-side check between case collections: when
it expires, unfinished cases are *skipped* (counted, never partially
reported).  A budget-truncated summary is still deterministic for the
cases it covers, but which cases those are depends on wall-clock — so
CI smoke jobs pick budgets comfortably above the expected runtime.

Campaign counters land in the ``fuzz`` metrics scope
(:mod:`repro.obs`): ``cases.processed``, ``cases.skipped``,
``cases.divergent``, ``outcome.<status>``, ``reduce.attempted``,
``reduce.written``.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.compiler.cache import CompileCache
from repro.fuzz.corpus import save_corpus_case
from repro.fuzz.generate import FuzzCase, GenConfig, generate_case
from repro.fuzz.oracle import (
    DEFAULT_ENGINES,
    DEFAULT_WATCHDOG,
    CaseReport,
    run_case,
)
from repro.fuzz.reduce import reduce_case
from repro.obs import Metrics

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one fuzz campaign."""

    #: master seed; per-case seeds derive from it deterministically
    seed: int = 0
    #: number of cases to generate and run
    count: int = 100
    #: process fan-out (1 = run inline in this process)
    jobs: int = 1
    #: wall-clock budget in seconds (None = unbounded)
    time_budget: Optional[float] = None
    #: engines the oracle exercises
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    #: generator size knobs
    gen: GenConfig = field(default_factory=GenConfig)
    #: reduce divergent cases to minimal reproducers
    reduce: bool = True
    #: where reduced reproducers are written (None = don't write)
    corpus_dir: Optional[str] = None

    def case_seeds(self) -> List[int]:
        rng = random.Random(self.seed)
        return [rng.getrandbits(48) for _ in range(self.count)]


# ----------------------------------------------------------------------
# Worker (module top level: picklable under every start method)
# ----------------------------------------------------------------------
def _oracle_one(index: int, case_seed: int,
                config: CampaignConfig) -> Tuple[int, CaseReport]:
    # Uncached: generated cases never repeat a kernel, so a compile
    # cache here only fingerprints and stores products nobody reads.
    case = generate_case(case_seed, config.gen)
    report = run_case(
        case,
        engines=config.engines,
        watchdog=DEFAULT_WATCHDOG,
        compile_cache=None,
    )
    return index, report


def _campaign_worker(payload) -> Tuple[int, CaseReport]:
    index, case_seed, config = payload
    return _oracle_one(index, case_seed, config)


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything one campaign produced."""

    config: CampaignConfig
    #: oracle verdicts in input order (budget-skipped cases absent)
    reports: List[CaseReport]
    #: cases skipped by the time budget
    skipped: int = 0
    #: corpus files written, ``{kernel_name: path}`` in input order
    reproducers: Dict[str, str] = field(default_factory=dict)

    @property
    def divergent_reports(self) -> List[CaseReport]:
        return [r for r in self.reports if r.divergent]

    @property
    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for report in self.reports:
            for outcome in report.outcomes:
                counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def summary(self) -> Dict[str, object]:
        """Deterministic campaign summary (no timing, no job count)."""
        return {
            "campaign": {
                "seed": self.config.seed,
                "count": self.config.count,
                "engines": list(self.config.engines),
            },
            "processed": len(self.reports),
            "skipped": self.skipped,
            "status_counts": dict(sorted(self.status_counts.items())),
            "divergent_count": len(self.divergent_reports),
            "divergent": [r.to_dict() for r in self.divergent_reports],
            "reproducers": list(self.reproducers),
        }


# ----------------------------------------------------------------------
# Reduction predicate
# ----------------------------------------------------------------------
def _signature(report: CaseReport) -> frozenset:
    """The non-benign ``(engine, status)`` pairs of a report."""
    return frozenset(
        (o.engine, o.status) for o in report.outcomes if not o.benign
    )


def _make_predicate(config: CampaignConfig, original: CaseReport,
                    cache: CompileCache):
    """Interestingness: the candidate still shows at least one of the
    original's failing ``(engine, status)`` pairs."""
    wanted = _signature(original)

    def predicate(case: FuzzCase) -> bool:
        report = run_case(
            case,
            engines=config.engines,
            watchdog=DEFAULT_WATCHDOG,
            compile_cache=cache,
        )
        return bool(_signature(report) & wanted)

    return predicate


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def run_campaign(config: CampaignConfig,
                 metrics: Optional[Metrics] = None,
                 progress=None) -> CampaignResult:
    """Run one campaign to completion (or to its time budget).

    ``progress`` is an optional callable ``(index, report)`` invoked in
    input order as each verdict lands (the CLI prints a line per case).
    """
    seeds = config.case_seeds()
    deadline = (time.monotonic() + config.time_budget
                if config.time_budget is not None else None)
    reports: List[CaseReport] = []
    skipped = 0

    def expired() -> bool:
        return deadline is not None and time.monotonic() > deadline

    if config.jobs <= 1:
        for index, case_seed in enumerate(seeds):
            if expired():
                skipped = len(seeds) - index
                break
            _, report = _oracle_one(index, case_seed, config)
            reports.append(report)
            if progress is not None:
                progress(index, report)
    else:
        payloads = [
            (index, case_seed, config)
            for index, case_seed in enumerate(seeds)
        ]
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = [
                pool.submit(_campaign_worker, payload)
                for payload in payloads
            ]
            # Input-order collection keeps reports (and therefore the
            # summary) independent of completion order.
            for index, future in enumerate(futures):
                if expired():
                    # Stragglers that could not be cancelled still
                    # finish, but their reports are dropped, so the cut
                    # is clean at ``index``.
                    for pending in futures[index:]:
                        pending.cancel()
                    skipped = len(seeds) - index
                    break
                _, report = future.result()
                reports.append(report)
                if progress is not None:
                    progress(index, report)

    # -- reduction + corpus (serial, parent-side, deterministic) -------
    reproducers: Dict[str, str] = {}
    reduce_attempted = 0
    if config.reduce and config.corpus_dir is not None:
        # The reducer re-runs each candidate's kernel at narrower widths
        # (``shrink_threads``), so its compile products do repeat.
        cache = CompileCache()
        os.makedirs(config.corpus_dir, exist_ok=True)
        for report in reports:
            if not report.divergent:
                continue
            reduce_attempted += 1
            case = generate_case(report.seed, config.gen)
            predicate = _make_predicate(config, report, cache)
            reduced = reduce_case(case, predicate)
            engines = sorted({e for e, _ in _signature(report)})
            statuses = sorted({s for _, s in _signature(report)})
            name = f"fuzz-seed-{report.seed:012x}"
            path = os.path.join(config.corpus_dir, f"{name}.kir")
            save_corpus_case(path, reduced, meta={
                "engines": " ".join(engines),
                "status": " ".join(statuses),
                "note": "auto-reduced campaign reproducer",
            })
            reproducers[name] = path

    result = CampaignResult(
        config=config,
        reports=reports,
        skipped=skipped,
        reproducers=reproducers,
    )

    if metrics is not None:
        scope = metrics.scope("fuzz")
        scope.inc("cases.processed", len(reports))
        scope.inc("cases.skipped", skipped)
        scope.inc("cases.divergent", len(result.divergent_reports))
        for status, count in result.status_counts.items():
            scope.inc(f"outcome.{status}", count)
        scope.inc("reduce.attempted", reduce_attempted)
        scope.inc("reduce.written", len(reproducers))
    return result
