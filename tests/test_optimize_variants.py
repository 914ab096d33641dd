"""The optimizer pair: ``optimize_variants`` (and ``optimize_kernel``,
its unrolled half) against two separate runs of the standard pass
order, and the callers that make one optimizer call per launch."""

import glob
import os

import pytest

from repro.compiler import optimize as optimize_module
from repro.compiler.cache import kernel_fingerprint
from repro.compiler.optimize import (
    copy_propagate,
    eliminate_dead_code,
    fold_constants,
    fuse_fma,
    local_cse,
    optimize_kernel,
    optimize_variants,
    propagate_params,
)
from repro.compiler.unroll import unroll_loops
from repro.fuzz import generate_case, load_corpus_case, run_case


def _one_variant(kernel, params, unroll):
    """The pass order as two separate calls ran it, one per variant:
    ``(kernel, whether a loop unrolled)``."""
    unrolled = False
    if params is not None:
        kernel = fold_constants(propagate_params(kernel, params))
        if unroll:
            kernel = eliminate_dead_code(kernel)
            before = kernel
            kernel = unroll_loops(kernel)
            unrolled = kernel is not before
            kernel = fold_constants(kernel)
    kernel = eliminate_dead_code(kernel)
    kernel = fuse_fma(kernel)
    kernel = local_cse(kernel)
    kernel = copy_propagate(kernel)
    return eliminate_dead_code(kernel), unrolled


def _check_pair(kernel, params, where):
    want_unrolled, unrolled = _one_variant(kernel, params, True)
    want_rolled, _ = _one_variant(kernel, params, False)
    got_unrolled, got_rolled = optimize_variants(kernel, params)
    assert kernel_fingerprint(got_unrolled) == \
        kernel_fingerprint(want_unrolled), where
    assert kernel_fingerprint(got_rolled) == \
        kernel_fingerprint(want_rolled), where
    assert (got_unrolled is got_rolled) == (not unrolled), where
    assert kernel_fingerprint(optimize_kernel(kernel, params)) == \
        kernel_fingerprint(want_unrolled), where
    return unrolled


@pytest.mark.parametrize("scale", ["tiny", "small", "medium"])
def test_pair_matches_two_calls_on_table2(scale):
    from repro.kernels.registry import all_names, make_workload

    unrolled = 0
    for name in all_names():
        wl = make_workload(name, scale)
        unrolled += _check_pair(wl.kernel, wl.params, (name, scale))
    # Non-vacuity: both sides of the one-object rule occur.
    assert 0 < unrolled < len(all_names())


def test_pair_matches_two_calls_on_corpus_and_generated_seeds():
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    cases = [load_corpus_case(path)
             for path in sorted(glob.glob(os.path.join(corpus, "*.kir")))]
    assert cases
    # Generated loops have data-dependent trip counts, so these cases
    # all take the one-object side; Table 2 covers the other.
    for case in cases + [generate_case(seed) for seed in range(1000)]:
        _check_pair(case.kernel, case.params, case.seed)


def test_pair_without_params_is_one_object():
    from repro.kernels import saxpy_kernel

    unrolled, rolled = optimize_variants(saxpy_kernel())
    assert unrolled is rolled
    _check_pair(saxpy_kernel(), None, "saxpy")


def _count_propagations(monkeypatch):
    calls = []
    propagate = optimize_module.propagate_params

    def counting(kernel, params):
        calls.append(kernel.name)
        return propagate(kernel, params)

    monkeypatch.setattr(optimize_module, "propagate_params", counting)
    return calls


def test_run_case_optimizes_once(monkeypatch):
    calls = _count_propagations(monkeypatch)
    report = run_case(generate_case(3))
    assert not report.divergent
    assert len(calls) == 1


def test_run_kernel_optimizes_once(monkeypatch):
    from repro.evalharness import run_kernel

    calls = _count_propagations(monkeypatch)
    run_kernel("nn/euclid", "tiny")
    assert len(calls) == 1
