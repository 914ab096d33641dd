"""Common infrastructure for benchmark workloads.

A :class:`Workload` bundles everything one kernel launch needs — the
kernel, an initialised memory image, parameter values, the launch size —
plus a numpy golden model used by the test suite to validate the IR
implementation itself (the timing simulators are separately validated
against the reference interpreter).

Rodinia kernels synchronise through kernel-launch boundaries and
``__syncthreads`` barriers.  The virtual ISA has no barriers, so every
workload here is written *race-free within one launch*: no thread reads
a location another thread of the same launch writes.  Where the original
kernel relied on intra-launch synchronisation (LUD's tile factorisation,
NW's anti-diagonal sweep), the workload either privatises the
computation or models a single launch of the host-side loop; the
control-flow *shape* — which is what the architectures respond to — is
preserved.  Each substitution is documented on the kernel function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Union

import numpy as np

from repro.ir.kernel import Kernel
from repro.memory.image import MemoryImage

Number = Union[int, float]

#: Scale presets: tests use "tiny", benchmarks use "small"; "medium" is
#: for the final EXPERIMENTS.md runs (slower, closer to amortised
#: steady-state behaviour).
SCALES = ("tiny", "small", "medium")


@dataclass
class Workload:
    """One ready-to-run kernel launch with its golden model."""

    name: str                 # e.g. "bfs/Kernel"
    app: str                  # application (Table 2 row), e.g. "BFS"
    kernel: Kernel
    memory: MemoryImage
    params: Dict[str, Number]
    n_threads: int
    #: region name -> expected contents after the launch
    expected: Dict[str, np.ndarray] = field(default_factory=dict)
    #: reference block count from the paper's Table 2 (for reporting)
    paper_blocks: Optional[int] = None

    def check(self, atol: float = 1e-9, rtol: float = 1e-9) -> None:
        """Assert the memory image matches the golden model."""
        for region, want in self.expected.items():
            got = self.memory.read_region(region)
            np.testing.assert_allclose(
                got, want, atol=atol, rtol=rtol,
                err_msg=f"{self.name}: region {region!r} mismatch",
            )


def scale_index(scale: str) -> int:
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; pick one of {SCALES}")
    return SCALES.index(scale)


def pick(scale: str, tiny, small, medium):
    """Select a size parameter by scale preset."""
    return (tiny, small, medium)[scale_index(scale)]
