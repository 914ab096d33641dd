"""Trace overhead: what recording a timeline costs the simulators.

Companion to ``bench_watchdog_overhead.py``: the pathfinder workload
(``scale="small"``) run through each machine with ``tracer=Tracer()``,
which appends to the ring buffer on every BBS reconfiguration, block
execution, divergence, cache miss and DRAM row activation.  With
``tracer=None`` (the default) every hook site is one
``if tracer is not None`` test.

Paired measurement (Python 3.11 on a 2-core Xeon host, warmed up,
min-of-3 per side, all three machines combined):

=============  ==========  ==========
 mode           combined    vs None
=============  ==========  ==========
 None           221.5 ms      —
 Tracer()       230.6 ms     +4.1 %
=============  ==========  ==========

Recording stays within a few percent on this workload because events
fire per block/warp/miss, not per node fire.  ``bench_*_traced`` track
the recording-mode absolute numbers.
"""

from repro.kernels.registry import make_workload
from repro.obs import Tracer
from repro.sgmf import SGMFCore
from repro.simt import FermiSM
from repro.vgiw import VGIWCore

WORKLOAD = "pathfinder/dynproc_kernel"
SCALE = "small"


def _run(cls, tracer):
    w = make_workload(WORKLOAD, SCALE)
    return cls().run(w.kernel, w.memory, w.params, w.n_threads,
                     tracer=tracer)


def bench_vgiw_traced(benchmark):
    result = benchmark(lambda: _run(VGIWCore, Tracer()))
    assert result.trace is not None and len(result.trace) > 0


def bench_fermi_traced(benchmark):
    result = benchmark(lambda: _run(FermiSM, Tracer()))
    assert result.trace is not None and len(result.trace) > 0


def bench_sgmf_traced(benchmark):
    result = benchmark(lambda: _run(SGMFCore, Tracer()))
    assert result.trace is not None and len(result.trace) > 0
