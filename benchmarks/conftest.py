"""Shared fixtures for the benchmark harness.

The full Table 2 suite is simulated once per session (three
architectures x 21 kernels, every run verified against the reference
interpreter) and shared by all figure benchmarks.  Scale is controlled
with the ``REPRO_SCALE`` environment variable (``tiny`` for smoke runs,
``small`` — the default — for the reported numbers, ``medium`` for
closer-to-amortised behaviour).
"""

import os

import pytest

from repro.evalharness.runner import RunOptions, run_suite


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_SCALE", "small")


@pytest.fixture(scope="session")
def suite_runs(scale):
    """All Table 2 kernels simulated on Fermi, VGIW, and SGMF."""
    return run_suite(options=RunOptions(scale=scale))
