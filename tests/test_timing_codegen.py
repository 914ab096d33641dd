"""Bounds on the generated timing-walk code: only replicas that receive
threads get a plan and a walk, replicas of one block shape share one
``compile()``, every compiled walk has its own code filename, and a
walk is bound to its replica's state once, by ``enter(rep)``."""

import collections

import numpy as np
import pytest

import repro.vgiw.mtcgrf as mtcgrf
from repro.compiler import compile_kernel
from repro.kernels import saxpy_kernel
from repro.memory import MemoryImage
from repro.sgmf import SGMFCore
from repro.vgiw import VGIWCore

BODY = "then.1"  # saxpy's replicated body block


def _saxpy(n):
    mem = MemoryImage(4 * n + 8)
    params = {
        "a": 2.0,
        "x": mem.alloc_array("x", np.arange(n, dtype=float)),
        "y": mem.alloc_array("y", np.ones(n)),
        "out": mem.alloc("out", n),
        "n": n,
    }
    return mem, params


@pytest.fixture
def codegen(monkeypatch):
    """Record every plan built and every timing walk compiled."""
    seen = {"plans": [], "compiles": []}
    build, real_compile = mtcgrf.build_exec_plan, compile

    def recording_build(dfg, *args, **kwargs):
        plan = build(dfg, *args, **kwargs)
        seen["plans"].append(plan)
        return plan

    def recording_compile(source, filename, mode):
        seen["compiles"].append(filename)
        return real_compile(source, filename, mode)

    monkeypatch.setattr(mtcgrf, "build_exec_plan", recording_build)
    monkeypatch.setattr(mtcgrf, "compile", recording_compile, raising=False)
    return seen


def _block_of(filename):
    return filename[len("<timing:"):].split("#")[0]


@pytest.mark.parametrize("n", [5, 64])
def test_small_vector_builds_one_plan_and_one_walk_per_block(codegen, n):
    assert compile_kernel(saxpy_kernel()).blocks[BODY].n_replicas >= 2
    mem, params = _saxpy(n)
    VGIWCore().run(saxpy_kernel(), mem, params, n)
    np.testing.assert_allclose(mem.read_region("out"),
                               2.0 * np.arange(n) + 1.0)
    per_block = collections.Counter(p.block_name for p in codegen["plans"])
    assert per_block[BODY] == 1
    assert set(per_block.values()) == {1}
    walks = collections.Counter(map(_block_of, codegen["compiles"]))
    assert walks[BODY] == 1
    assert set(walks.values()) == {1}


def test_replicas_of_one_block_share_one_compile(codegen):
    n_rep = compile_kernel(saxpy_kernel()).blocks[BODY].n_replicas
    n = 64 * n_rep
    mem, params = _saxpy(n)
    VGIWCore().run(saxpy_kernel(), mem, params, n)
    plans = [p for p in codegen["plans"] if p.block_name == BODY]
    assert len(plans) == n_rep
    # One shape, one compile; each replica binds its own units and hops.
    assert [_block_of(f) for f in codegen["compiles"]].count(BODY) == 1
    assert len({p.timing_fn.__code__ for p in plans}) == 1
    # ``timing_fn`` is ``enter(rep)``; the walk it returns reads the
    # replica's units and hops from closure cells.
    walks = [p.timing_fn(mtcgrf._ReplicaState()) for p in plans]
    assert len({w.__code__ for w in walks}) == 1
    bound = set(plans[0].timing_fn.__code__.co_freevars)
    assert any(name.startswith("h") for name in bound)
    assert len({
        tuple(cell.cell_contents
              for name, cell in zip(w.__code__.co_freevars, w.__closure__)
              if name in bound)
        for w in walks
    }) == n_rep


def test_sgmf_replicas_share_one_compile_per_block(codegen):
    n = 16
    mem, params = _saxpy(n)
    res = SGMFCore().run(saxpy_kernel(), mem, params, n)
    assert res.n_replicas >= 2
    walks = collections.Counter(map(_block_of, codegen["compiles"]))
    assert walks and set(walks.values()) == {1}


def test_compiled_walks_have_distinct_filenames(codegen):
    for _ in range(2):
        mem, params = _saxpy(8)
        VGIWCore().run(saxpy_kernel(), mem, params, 8)
    body = [f for f in codegen["compiles"] if _block_of(f) == BODY]
    assert len(body) == 2  # the binder dict lives for one run
    assert len(set(body)) == 2
    assert all(f.startswith("<timing:") for f in body)
    plans = [p for p in codegen["plans"] if p.block_name == BODY]
    assert ({p.timing_fn.__code__.co_filename for p in plans}
            == set(body))
