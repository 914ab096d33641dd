"""Host-time layer accounting for the benchmark, kept outside ``src/``.

Two instruments, both applied from this file to the program's public
functions and never compiled into it:

* :class:`Spans` wraps each layer's entry point at the name its caller
  looks it up by (a module attribute or an engine class's ``run``), and
  records one ``(name, start_ns, end_ns, parent, item)`` span per call
  in memory.  A layer's self time is its spans' durations minus the
  part their child spans cover.
* :func:`profile_shares` runs a callable under :mod:`cProfile` and folds
  self time by source module (``src/repro/<pkg>/<module>.py`` becomes
  ``<pkg>.<module>``; generated ``<timing:*>`` code becomes
  ``vgiw.timing``).  It serves the layers that interleave inside one
  call, such as timing replay and the memory hierarchy it drives.

:class:`Taps` is the light variant used by untraced runs: it only
collects engine results (cycles and memory counts) from calls whose
caller discards them, without timing anything.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Engine class name -> layer prefix (Fermi is the SIMT baseline).
ENGINES = (
    ("repro.simt.sm", "FermiSM", "simt"),
    ("repro.vgiw.core", "VGIWCore", "vgiw"),
    ("repro.sgmf.core", "SGMFCore", "sgmf"),
)

#: (module, attribute, layer) entry points wrapped at their import site.
ENTRY_POINTS = (
    ("repro.evalharness.runner", "make_workload", "kernels.build"),
    ("repro.evalharness.runner", "cached_optimize_kernel",
     "compiler.optimize"),
    ("repro.evalharness.runner", "interpret", "interp.verify"),
    ("repro.evalharness.runner", "energy_fermi", "power.energy"),
    ("repro.evalharness.runner", "energy_vgiw", "power.energy"),
    ("repro.evalharness.runner", "energy_sgmf", "power.energy"),
    # The engines import these two lazily, inside ``run``, so the
    # module attribute is the import site.
    ("repro.compiler.cache", "cached_compile_kernel", "compiler.compile"),
    ("repro.compiler.cache", "cached_map_kernel", "compiler.sgmf_map"),
    ("repro.fuzz.oracle", "cached_optimize_kernel", "compiler.optimize"),
    ("repro.fuzz.oracle", "interpret", "interp.verify"),
    ("repro.fuzz.oracle", "compare_images", "fuzz.compare"),
    ("repro.fuzz.campaign", "generate_case", "fuzz.generate"),
)

#: Every span layer whose self time is reported as ``<layer>_s``.
SPAN_LAYERS = (
    "kernels.build", "compiler.optimize", "compiler.compile",
    "compiler.sgmf_map", "interp.verify", "power.energy",
    "fuzz.generate", "fuzz.compare",
    "simt.run", "vgiw.run", "sgmf.run",
)


def _patch(patches: list, owner, attr: str, new) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def _unpatch(patches: list) -> None:
    while patches:
        owner, attr, old = patches.pop()
        setattr(owner, attr, old)


class SimCounts:
    """Simulated-work totals from engine results: exact and repeatable."""

    KEYS = ("simt.cycles", "vgiw.cycles", "sgmf.cycles",
            "memory.l1_accesses", "memory.l2_accesses",
            "memory.dram_accesses", "vgiw.lvc_accesses")

    def __init__(self) -> None:
        self.values: Dict[str, float] = {k: 0 for k in self.KEYS}

    def add_result(self, layer: str, result) -> None:
        v = self.values
        v[f"{layer}.cycles"] += result.cycles
        v["memory.l1_accesses"] += result.l1.accesses
        v["memory.l2_accesses"] += result.l2.accesses
        v["memory.dram_accesses"] += result.dram.accesses
        if layer == "vgiw":
            v["vgiw.lvc_accesses"] += result.lvc_accesses

    def add_run(self, run) -> None:
        """Fold in one :class:`~repro.evalharness.KernelRun`."""
        self.add_result("simt", run.fermi)
        self.add_result("vgiw", run.vgiw)
        if run.sgmf is not None:
            self.add_result("sgmf", run.sgmf)

    def add_summary(self, summary: Dict[str, Optional[float]]) -> None:
        """Fold in a serve response summary (cycles only)."""
        for layer, key in (("simt", "fermi_cycles"),
                           ("vgiw", "vgiw_cycles"),
                           ("sgmf", "sgmf_cycles")):
            if summary.get(key) is not None:
                self.values[f"{layer}.cycles"] += summary[key]

    @property
    def total_cycles(self) -> float:
        return sum(self.values[f"{e}.cycles"] for e in ("simt", "vgiw",
                                                         "sgmf"))


class Taps:
    """Collect engine results into a :class:`SimCounts` (no timing)."""

    def __init__(self, counts: SimCounts) -> None:
        self.counts = counts
        self._patches: list = []

    def install(self) -> "Taps":
        from importlib import import_module
        for module, cls_name, layer in ENGINES:
            cls = getattr(import_module(module), cls_name)
            _patch(self._patches, cls, "run", self._tap(cls.run, layer))
        return self

    def uninstall(self) -> None:
        _unpatch(self._patches)

    def _tap(self, fn: Callable, layer: str) -> Callable:
        counts = self.counts

        def run(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts.add_result(layer, result)
            return result
        return run


class Spans:
    """In-memory span recorder wrapped around the layer entry points.

    ``item`` labels every span opened while it is set (a kernel name or
    a fuzz case id); the fuzz generator's wrapper sets it itself because
    ``generate_case`` is the first call of every case.
    """

    def __init__(self, counts: Optional[SimCounts] = None) -> None:
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, item]
        self.item: Optional[str] = None
        self.thread_instrs = 0
        self.item_instrs: Dict[str, int] = defaultdict(int)
        self.counts = counts
        self.compile_caches: list = []
        self._stack: List[int] = []
        self._patches: list = []

    # -- installation ---------------------------------------------------
    def install(self) -> "Spans":
        from importlib import import_module
        for module, attr, layer in ENTRY_POINTS:
            owner = import_module(module)
            _patch(self._patches, owner, attr,
                   self.wrap(getattr(owner, attr), layer))
        for module, cls_name, layer in ENGINES:
            cls = getattr(import_module(module), cls_name)
            _patch(self._patches, cls, "run",
                   self.wrap(cls.run, f"{layer}.run"))
        # run_campaign builds its compile cache internally; record the
        # instances so their hit counters can be read afterwards.
        campaign = import_module("repro.fuzz.campaign")
        base = campaign.CompileCache
        caches = self.compile_caches

        def make_cache(*args, **kwargs):
            cache = base(*args, **kwargs)
            caches.append(cache)
            return cache
        _patch(self._patches, campaign, "CompileCache", make_cache)
        return self

    def uninstall(self) -> None:
        _unpatch(self._patches)

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if name == "fuzz.generate":
                self.item = f"case-{args[0]:012x}"
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1,
                          self.item])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            self._observe(name, result)
            return result
        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "interp.verify":
            n = result.total_instructions
            self.thread_instrs += n
            self.item_instrs[self.item] += n
        elif name.endswith(".run") and self.counts is not None:
            self.counts.add_result(name[:-4], result)

    # -- folding ----------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time in seconds (duration minus child spans)."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start - child[i]) / 1e9
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_self(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[0]] += own
        return totals

    def item_rows(self) -> Dict[str, Dict[str, float]]:
        rows: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            rows[span[4]][span[0]] += own
        return rows

    def dump(self) -> List[dict]:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p,
                 "item": i} for n, s, e, p, i in self.spans]


def outliers(rows: Dict[str, Dict[str, float]], instrs: Dict[str, int],
             wall_s: float) -> List[dict]:
    """One-item anomalies that a layer total would hide.

    An item (kernel or fuzz case) is an outlier in a layer when its self
    time there is at least 2 % of the traced wall time and its self time
    per interpreted thread-instruction is over 4x the rate of all other
    items in that layer pooled together.
    """
    found = []
    total_instrs = sum(instrs.values())
    for layer in SPAN_LAYERS:
        total = sum(row.get(layer, 0.0) for row in rows.values())
        for item, row in sorted(rows.items(), key=lambda kv: str(kv[0])):
            own, n = row.get(layer, 0.0), instrs.get(item, 0)
            rest_n = total_instrs - n
            if own < 0.02 * wall_s or not n or not rest_n:
                continue
            rate, rest = own / n, (total - own) / rest_n
            if rate > 4 * rest:
                found.append({"item": item, "layer": layer, "self_s": own,
                              "ns_per_instr": rate * 1e9,
                              "others_ns_per_instr": rest * 1e9})
    return found


def fold_module(filename: str) -> str:
    """Layer key of one profiled source file."""
    if filename.startswith("<timing:"):
        return "vgiw.timing"
    path = filename.replace("\\", "/")
    marker = "/src/repro/"
    if marker not in path:
        return "other"
    rel = path.split(marker, 1)[1]
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.replace("/", ".")


def profile_shares(fn: Callable[[], object]) -> Dict[str, float]:
    """Run ``fn`` under cProfile; return each module's share of the
    profiled self time (plus the ``memory`` package total)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    by_module: Dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, self_s, _, _) in \
            pstats.Stats(profiler).stats.items():
        by_module[fold_module(filename)] += self_s
    total = sum(by_module.values()) or 1.0
    shares = {key: value / total for key, value in by_module.items()}
    shares["memory"] = sum((v for k, v in shares.items()
                            if k.startswith("memory.")), 0.0)
    return shares
