"""The benchmark's workloads, driven only through public entry points.

Each workload takes its seed, prepares itself (``setup``), measures
work sized from the requested seconds (``measure``), and can replay
the same work under layer spans (``replay``) and under cProfile
(``profile``).  Every operation's output is checked: a wrong output is
a mismatch that fails the run, not a slower number.

Every time is taken at nominal host speed (see ``hostspeed.py``):
the host's speed drifts by up to 2x over seconds to minutes, and a
median over a whole run does not average that out.  Every workload
also repeats identical work within one run and reports each
operation's median time over its repeats; the first repeat doubles as
the run's warm-up (lazy imports, first-touch allocation).

Why these three (each stresses layers the others barely touch):

``table2_sweep``
    What reproduction users run: ``run_suite`` over Table 2 kernels at
    ``small`` with verification, ``jobs=1`` and a fresh in-memory
    compile cache per round.  Timing replay and the memory hierarchy
    dominate, compile is a few per cent.  A round is a fixed set of 12
    kernels in registry order, about 4.5 s on a 2-core host: the Table 2
    kernels except the nine longest rows (1.2-11 s each, 37 of the 41 s
    that all 21 take), which would leave room for too few repeats.  The
    seed changes nothing.  ``lud/lud_perimeter``, whose interpreter
    verification falls back to the scalar walk, is the known one-kernel
    outlier: the traced run runs it once, outside the measured work,
    to show it in the per-kernel rows.
``fuzz_campaign``
    ``run_campaign`` chunks of generated kernels with 1-12 threads.
    Every case misses the compile cache, so placement and DFG building
    dominate and the memory hierarchy is under 2 %; few-thread cases
    take the engines' scalar walks, which the sweep never runs.  A
    round is a fixed pool of 3 chunks of 20 cases whose per-case
    statuses are recorded in ``fuzz_statuses.json``; the seed orders
    the chunks, afresh in every round.
``serve_stream``
    An open loop against a fresh ``ExecutionService(workers=2)`` with
    the result cache off.  It exercises admission, coalescing,
    dispatch/IPC and warm worker compile caches (cache reads, where
    fuzz only writes).  Requests come in bursts, one every
    ``SERVE_BURST_S`` seconds: two distinct "lead" kernels, which take
    both workers, then two copies of a "hot" kernel, which wait in the
    queue and always coalesce into one execution (so
    ``serve.batch_size_mean`` is 4/3).  A burst is done well before
    the next one is due, so no request queues behind another burst.  A
    cycle is one burst per hot kernel ``SERVE_KERNELS[i]`` for even
    ``i``, with leads ``i+1`` and ``i+2`` (mod 8), so every kernel leads
    once a cycle; the seed orders each cycle's bursts.  The latency
    percentiles are over the cycle's 16 request slots (hot kernel and
    place in the burst), each at its median over the run's cycles; a
    request's latency is normalized by reference runs made while the
    service is idle before and after its burst.  The open loop
    completes what it is sent, so ``ops_per_s`` follows the burst
    rate; the program's speed shows in the latencies.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.compiler.cache import CompileCache
from repro.evalharness import RunOptions, run_suite
from repro.fuzz import CampaignConfig, run_campaign
from repro.serve import ExecutionService, SubmitRequest

from hostspeed import Stopwatch, host_reference_s, normalized
from layers import SimCounts, Spans, Taps

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CYCLES = ROOT / "benchmarks" / "golden_cycles_small.json"
FUZZ_STATUSES = Path(__file__).resolve().with_name("fuzz_statuses.json")

#: Repeats of a workload's work in one run, at least.
MIN_REPEATS = 3

#: One table2_sweep round, in registry order.
TABLE2_KERNELS = (
    "bfs/Kernel", "bfs/Kernel2", "cfd/compute_step_factor",
    "cfd/initialize_variables", "gaussian/Fan1", "gaussian/Fan2",
    "hotspot/hotspot_kernel", "nn/euclid",
    "particlefilter/normalize_weights", "backprop/adjust_weights",
    "nw/needle_cuda_shared_1", "nw/needle_cuda_shared_2",
)
#: The known per-kernel outlier, run once by the traced run only.
TABLE2_OUTLIER = "lud/lud_perimeter"
#: Fixed subset profiled under cProfile (about 2 s unprofiled; the
#: profiler roughly triples it).
TABLE2_PROFILE = ("hotspot/hotspot_kernel", "cfd/compute_step_factor",
                  "gaussian/Fan2")

#: Campaign seeds of one fuzz round and cases per chunk; the statuses
#: of every case are recorded in FUZZ_STATUSES.
FUZZ_POOL = (1000, 1001, 1002)
FUZZ_CHUNK = 20
FUZZ_PROFILE = FUZZ_POOL[:2]

SERVE_KERNELS = (
    "nn/euclid", "gaussian/Fan1", "gaussian/Fan2", "hotspot/hotspot_kernel",
    "bfs/Kernel", "cfd/compute_step_factor", "backprop/adjust_weights",
    "particlefilter/normalize_weights",
)
#: Seconds between bursts; each burst's hot kernel (by index into
#: SERVE_KERNELS, one burst each per cycle) and its lead kernels as
#: offsets from the hot one.
SERVE_BURST_S = 2.0
SERVE_HOTS = (0, 2, 4, 6)
SERVE_LEADS = (1, 2)
SERVE_HOT_COPIES = 2
SERVE_GOOD_S = 3.0  # goodput latency limit, from the request's due time
#: Reference runs after a burst stop this long before the next burst is
#: due, and start only if the service is idle twice as long before.
SERVE_IDLE_MARGIN_S = 0.1
SERVE_WORKERS = 2


@dataclass
class Pass:
    """What one measured (or traced) run did, and what it got wrong.

    The rates divide ``ops`` operations and ``counts`` simulated work by
    ``wall_s``; ``latencies`` has one entry per operation.  Both are at
    nominal host speed, set by the ``references`` (seconds) timed
    alongside.
    """

    wall_s: float = 0.0
    ops: int = 0
    latencies: List[float] = field(default_factory=list)
    #: of ``ops``, those ok (in every repeat), and for serve also
    #: within SERVE_GOOD_S
    good: int = 0
    counts: SimCounts = field(default_factory=SimCounts)
    references: List[float] = field(default_factory=list)
    #: raw wall time of one repeat of the work that ``replay`` runs
    repeat_wall_s: float = 0.0
    ok: int = 0  # over every repeat
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    def add_cache(self, stats: Dict[str, int]) -> None:
        self.cache_hits += stats["hits"]
        self.cache_misses += stats["misses"]


def load_golden() -> Dict[str, Dict[str, Optional[float]]]:
    with open(GOLDEN_CYCLES) as fh:
        return json.load(fh)


def check_cycles(golden: Dict[str, Dict[str, Optional[float]]], kernel: str,
                 cycles: Dict[str, Optional[float]]) -> List[str]:
    """Mismatches between one kernel's cycles and the golden file."""
    want = golden[kernel]
    return [f"{kernel}/{engine}: {cycles[engine]} != golden {want[engine]}"
            for engine in ("fermi", "vgiw", "sgmf")
            if cycles[engine] != want[engine]]


def quantile(values, p: float) -> float:
    """The ``p``-quantile of ``values``, linearly interpolated."""
    return float(np.percentile(values, 100.0 * p))


def median_of(times: Dict[str, List[float]]) -> Dict[str, float]:
    """Each operation's median time over its repeats."""
    return {item: statistics.median(repeats)
            for item, repeats in times.items()}


def rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


class RoundWorkload:
    """An in-process workload made of identical rounds.

    ``measure`` runs one round per ``round_s`` requested seconds (at
    least MIN_REPEATS) and reports each operation at its median round;
    ``replay`` runs one round under spans.  The count comes from the
    request, not the clock, so a fast host and a slow one measure the
    same work.
    """

    in_process = True
    round_s: float  # requested seconds per round
    #: interpreters whose set-up a run times (the median is reported);
    #: a set-up takes well under a second
    setup_reps = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def one_round(self, result: Pass, counts: SimCounts,
                  spans: Optional[Spans],
                  watch: Stopwatch) -> Dict[str, float]:
        """Run one round; return each operation's normalized seconds."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Pass:
        rounds = max(MIN_REPEATS, round(seconds / self.round_s))
        result = Pass()
        times: Dict[str, List[float]] = defaultdict(list)
        walls = []
        watch = Stopwatch()
        for index in range(rounds):
            counts = SimCounts()
            start = time.perf_counter()
            for item, seconds_ in self.one_round(result, counts, None,
                                                 watch).items():
                times[item].append(seconds_)
            walls.append(time.perf_counter() - start)
            if index == 0:
                result.counts = counts
            elif counts.values != result.counts.values:
                result.mismatches.append(
                    f"round {index} counts {counts.values} != round 0 "
                    f"{result.counts.values}")
        typical = median_of(times)
        result.wall_s = sum(typical.values())
        result.ops = len(typical)
        result.latencies = list(typical.values())
        result.good = result.ops if not result.failed else 0
        result.references = watch.references
        result.repeat_wall_s = statistics.median(walls)
        return result

    def replay(self, spans: Spans) -> Pass:
        result = Pass()
        start = time.perf_counter()
        times = self.one_round(result, result.counts, spans, Stopwatch())
        result.wall_s = result.repeat_wall_s = time.perf_counter() - start
        result.ops = len(times)
        return result

    def peak_rss_mb(self) -> float:
        return rss_mb()

    def close(self) -> None:
        pass


class Table2Sweep(RoundWorkload):
    """The seed does not change the work (see the module docstring)."""

    name = "table2_sweep"
    round_s = 7.5

    def setup(self) -> None:
        self.golden = load_golden()

    def _run(self, kernels, result: Pass, counts: SimCounts,
             spans: Optional[Spans],
             watch: Optional[Stopwatch]) -> Dict[str, float]:
        cache = CompileCache()
        opts = RunOptions(scale="small", jobs=1, verify=True, cache=cache)
        times = {}
        for kernel in kernels:
            if spans is not None:
                spans.item = kernel
            suite = run_suite([kernel], options=opts)
            if watch is not None:
                times[kernel] = watch.lap()
            if kernel in suite.failures:
                result.failed += 1
                result.mismatches.append(
                    f"{kernel}: degraded ({suite.failures[kernel].message})")
                continue
            result.ok += 1
            run = suite[kernel]
            counts.add_run(run)
            result.mismatches += check_cycles(self.golden, kernel, {
                "fermi": run.fermi.cycles, "vgiw": run.vgiw.cycles,
                "sgmf": None if run.sgmf is None else run.sgmf.cycles})
        result.add_cache(cache.stats())
        return times

    def one_round(self, result, counts, spans, watch):
        return self._run(TABLE2_KERNELS, result, counts, spans, watch)

    def outlier(self, spans: Spans) -> Pass:
        """The known outlier kernel once, under ``spans``."""
        result = Pass()
        start = time.perf_counter()
        self._run([TABLE2_OUTLIER], result, result.counts, spans, None)
        result.wall_s = time.perf_counter() - start
        return result

    def profile(self) -> None:
        self._run(TABLE2_PROFILE, Pass(), SimCounts(), None, None)


class FuzzCampaign(RoundWorkload):
    name = "fuzz_campaign"
    round_s = 10.0

    def setup(self) -> None:
        with open(FUZZ_STATUSES) as fh:
            recording = json.load(fh)
        if (recording["chunk"] != FUZZ_CHUNK
                or sorted(map(int, recording["chunks"])) != list(FUZZ_POOL)):
            raise ValueError(f"{FUZZ_STATUSES.name} does not cover the pool")
        self.recorded = recording["chunks"]
        self.rng = random.Random(self.seed)

    def _chunk(self, result: Pass, chunk_seed: int, times: Dict[str, float],
               watch: Optional[Stopwatch]) -> None:
        statuses: List[str] = []

        def progress(index, report) -> None:
            if watch is not None:
                times[f"{chunk_seed}:{index}"] = watch.lap()
            statuses.append(" ".join(f"{o.engine}:{o.status}"
                                     for o in report.outcomes))
            if report.divergent:
                result.failed += 1
                result.mismatches.append(
                    f"case {report.seed:012x}: divergent {statuses[-1]}")
            else:
                result.ok += 1

        run_campaign(CampaignConfig(seed=chunk_seed, count=FUZZ_CHUNK,
                                    jobs=1, reduce=False),
                     progress=progress)
        want = self.recorded[str(chunk_seed)]
        for index, (got, expected) in enumerate(zip(statuses, want)):
            if got != expected:
                result.mismatches.append(
                    f"chunk {chunk_seed} case {index}: {got!r} != "
                    f"recorded {expected!r}")
        if len(statuses) != len(want):
            result.mismatches.append(
                f"chunk {chunk_seed}: {len(statuses)} cases, recorded "
                f"{len(want)}")

    def _run(self, chunks, result: Pass, counts: SimCounts,
             spans: Optional[Spans],
             watch: Optional[Stopwatch]) -> Dict[str, float]:
        # run_case discards the engine results, so their counts are
        # collected at the engine classes: by the spans when tracing,
        # else by result-only taps.
        if spans is None:
            taps = Taps(counts).install()
        else:
            spans.counts = counts
        times: Dict[str, float] = {}
        try:
            for chunk_seed in chunks:
                self._chunk(result, chunk_seed, times, watch)
        finally:
            if spans is None:
                taps.uninstall()
        if spans is not None:
            for cache in spans.compile_caches:
                result.add_cache(cache.stats())
            spans.compile_caches.clear()
        return times

    def one_round(self, result, counts, spans, watch):
        order = list(FUZZ_POOL)
        self.rng.shuffle(order)
        return self._run(order, result, counts, spans, watch)

    def profile(self) -> None:
        self._run(FUZZ_PROFILE, Pass(), SimCounts(), None, None)


def record_fuzz_statuses() -> None:
    """Rewrite ``fuzz_statuses.json`` from the current program.

    Only for a deliberate change to the generator or the oracle's
    classification: the file is the reference the benchmark checks
    every run against.
    """
    chunks = {}
    for chunk_seed in FUZZ_POOL:
        result = run_campaign(CampaignConfig(seed=chunk_seed,
                                             count=FUZZ_CHUNK, jobs=1,
                                             reduce=False))
        chunks[str(chunk_seed)] = [
            " ".join(f"{o.engine}:{o.status}" for o in report.outcomes)
            for report in result.reports]
    with open(FUZZ_STATUSES, "w") as fh:
        json.dump({"chunk": FUZZ_CHUNK, "chunks": chunks}, fh, indent=1)
        fh.write("\n")


def stop_service(service: ExecutionService) -> None:
    """Stop the service and wait for every worker process to end."""
    service.stop()
    for proc in multiprocessing.active_children():
        proc.join(30)
        if proc.is_alive():
            proc.terminate()
            proc.join(5)


@dataclass
class Request:
    kernel: str
    slot: str  # hot kernel and place in the burst, equal in every cycle
    burst: int
    due: float
    admit_s: float
    ticket: object
    response: object = None


class ServeStream:
    #: the work runs in the service's workers; only submit/wait are
    #: spanned, from the load-generating thread
    in_process = False
    name = "serve_stream"
    setup_reps = 3  # a set-up takes seconds: two workers compile 8 kernels

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.golden: Dict = {}
        self.service: Optional[ExecutionService] = None
        self.seconds = 0.0
        self.requests: List[Request] = []
        self.stats_delta: Dict[str, float] = {}

    def _fresh_service(self) -> ExecutionService:
        """A started service whose every worker has compiled every
        kernel.  Each kernel is sent once per worker at the same time,
        with options that differ only in the timeout: they compile
        alike but cannot coalesce, so each takes its own worker."""
        service = ExecutionService(workers=SERVE_WORKERS).start()
        try:
            for kernel in SERVE_KERNELS:
                tickets = [service.submit(SubmitRequest(
                    kernel, RunOptions(scale="small", timeout=600.0 + w)))
                    for w in range(SERVE_WORKERS)]
                for ticket in tickets:
                    response = service.wait(ticket)
                    if response.status != "ok":
                        raise RuntimeError(
                            f"warm-up {ticket.kernel}: {response.status} "
                            f"{response.error}")
        except BaseException:
            stop_service(service)
            raise
        return service

    def setup(self) -> None:
        self.golden = load_golden()
        if self.service is not None:
            stop_service(self.service)
        self.service = self._fresh_service()

    def _bursts(self, cycles: int) -> List[List[tuple]]:
        """``cycles`` cycles of one burst per hot kernel, each cycle in
        a seeded order: leads first, then the hot copies.  Each request
        is ``(kernel, slot)``."""
        rng = random.Random(self.seed)
        n = len(SERVE_KERNELS)
        bursts: List[List[tuple]] = []
        for _ in range(cycles):
            hots = list(SERVE_HOTS)
            rng.shuffle(hots)
            for hot in hots:
                kernels = ([SERVE_KERNELS[(hot + lead) % n]
                            for lead in SERVE_LEADS]
                           + [SERVE_KERNELS[hot]] * SERVE_HOT_COPIES)
                bursts.append([(kernel, f"{SERVE_KERNELS[hot]}#{place}")
                               for place, kernel in enumerate(kernels)])
        return bursts

    def _stream(self, service: ExecutionService, seconds: float,
                submit: Callable, wait: Callable) -> Pass:
        """Submit on schedule from this one thread, then collect."""
        before = service.stats()
        opts = RunOptions(scale="small")
        requests: List[Request] = []
        # Whole cycles only, so that every slot repeats equally often.
        cycle_s = SERVE_BURST_S * len(SERVE_HOTS)
        cycles = max(MIN_REPEATS, round(seconds / cycle_s))
        clock = time.perf_counter
        # references[i]: host speed while the service idles before
        # burst i; references[i + 1], after it
        references: List[Optional[float]] = [host_reference_s()]
        start = time.time() + 0.05
        for i, burst in enumerate(self._bursts(cycles)):
            due = start + i * SERVE_BURST_S
            if i:
                references.append(self._idle_reference(
                    service, [r.ticket for r in requests[-len(burst):]],
                    due))
            delay = due - time.time()
            if delay > 0:
                time.sleep(delay)
            for kernel, slot in burst:
                t0 = clock()
                ticket = submit(SubmitRequest(kernel, opts))
                requests.append(Request(kernel, slot, i, due, clock() - t0,
                                        ticket))
        references.append(self._idle_reference(
            service, [r.ticket for r in requests[-len(burst):]],
            due + SERVE_BURST_S))
        result = Pass()
        result.references = ([r for r in references if r is not None]
                             or [host_reference_s()])
        finished = start
        slot_latencies: Dict[str, List[float]] = defaultdict(list)
        for req in requests:
            req.response = response = wait(req.ticket)
            done = req.ticket.submitted_s + response.total_s
            finished = max(finished, done)
            around = [r for r in references[req.burst:req.burst + 2]
                      if r is not None]
            latency = normalized(done - req.due, statistics.mean(
                around or result.references))
            slot_latencies[req.slot].append(latency)
            if response.status != "ok":
                result.failed += 1
                result.mismatches.append(
                    f"request {req.ticket.request_id} {req.kernel}: "
                    f"{response.status} {response.error}")
                continue
            result.ok += 1
            result.good += latency <= SERVE_GOOD_S
            result.counts.add_summary(response.summary)
            result.mismatches += check_cycles(self.golden, req.kernel, {
                "fermi": response.summary["fermi_cycles"],
                "vgiw": response.summary["vgiw_cycles"],
                "sgmf": response.summary["sgmf_cycles"]})
        result.wall_s = result.repeat_wall_s = finished - start
        result.ops = len(requests)
        result.latencies = list(median_of(slot_latencies).values())
        after = service.stats()
        result.add_cache({k: after["compile_cache"].get(k, 0)
                          - before["compile_cache"].get(k, 0)
                          for k in ("hits", "misses")})
        if result.cache_misses:
            result.mismatches.append(
                f"{result.cache_misses} compile-cache misses after the "
                f"warm-up: a worker ran a kernel cold")
        batches = after["batches"]["count"] - before["batches"]["count"]
        batched = (after["batches"]["batched_requests"]
                   - before["batches"]["batched_requests"])
        self.stats_delta = {"batch_size_mean": batched / max(1, batches)}
        self.requests = requests
        return result

    @staticmethod
    def _idle_reference(service: ExecutionService, tickets: list,
                        until: float) -> Optional[float]:
        """Once every ticket's response has landed, the host's speed
        (:func:`host_reference_s`) from then until ``until`` (a
        ``time.time()``) less a margin; None if the burst is not done
        in time."""
        while time.time() < until - SERVE_IDLE_MARGIN_S:
            if all(service.result(t) is not None for t in tickets):
                break
            time.sleep(0.005)
        if time.time() > until - 2 * SERVE_IDLE_MARGIN_S:
            return None
        return host_reference_s(until=until - SERVE_IDLE_MARGIN_S)

    def measure(self, seconds: float) -> Pass:
        self.seconds = seconds
        try:
            return self._stream(self.service, seconds, self.service.submit,
                                self.service.wait)
        finally:
            stop_service(self.service)
            self.service = None

    def replay(self, spans: Spans) -> Pass:
        """The same stream on another fresh service, timing each
        ``submit`` and ``wait`` as serve.admit / serve.wait spans."""
        self.service = service = self._fresh_service()
        try:
            return self._stream(service, self.seconds,
                                spans.wrap(service.submit, "serve.admit"),
                                spans.wrap(service.wait, "serve.wait"))
        finally:
            stop_service(service)
            self.service = None

    def profile(self) -> None:
        """The service's work runs in its workers, out of reach of an
        in-process profiler; the load-generating thread only paces and
        waits."""

    def serve_layers(self) -> Dict[str, float]:
        ok = [r for r in self.requests if r.response.status == "ok"]
        queue = [r.response.queue_s for r in ok]
        execute = [r.response.execute_s for r in ok]
        overhead = [r.response.total_s - r.response.queue_s
                    - r.response.compile_s - r.response.execute_s
                    for r in ok]
        return {
            "serve.admit_s_p50": quantile([r.admit_s for r in self.requests],
                                          0.5),
            "serve.queue_s_p50": quantile(queue, 0.5),
            "serve.queue_s_p90": quantile(queue, 0.9),
            "serve.compile_s_p50": quantile(
                [r.response.compile_s for r in ok], 0.5),
            "serve.execute_s_p50": quantile(execute, 0.5),
            "serve.execute_s_p90": quantile(execute, 0.9),
            "serve.overhead_s_p50": quantile(overhead, 0.5),
            "serve.batch_size_mean": self.stats_delta["batch_size_mean"],
            "loadgen.late_max_s": max(r.ticket.submitted_s - r.due
                                      for r in self.requests),
        }

    def kernel_rows(self) -> Dict[str, Dict[str, float]]:
        rows = {}
        for kernel in SERVE_KERNELS:
            mine = [r for r in self.requests
                    if r.kernel == kernel and r.response.status == "ok"]
            if mine:
                rows[kernel] = {
                    "requests": len(mine),
                    "latency_s_p50": statistics.median(
                        r.ticket.submitted_s + r.response.total_s - r.due
                        for r in mine),
                    "execute_s_p50": statistics.median(
                        r.response.execute_s for r in mine),
                    "batch_size_mean": statistics.mean(
                        r.response.batch_size for r in mine),
                }
        return rows

    def peak_rss_mb(self) -> float:
        return rss_mb(children=True)

    def close(self) -> None:
        if self.service is not None:
            stop_service(self.service)
            self.service = None


WORKLOADS: Dict[str, Callable[[int], object]] = {
    w.name: w for w in (Table2Sweep, FuzzCampaign, ServeStream)
}
