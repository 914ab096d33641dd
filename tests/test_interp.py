"""Tests for the reference interpreter against numpy golden models."""

from collections import Counter

import numpy as np
import pytest

from repro.interp import Interpreter, InterpreterError, interpret
from repro.interp import interpreter as interpreter_module
from repro.ir import DType, KernelBuilder
from repro.kernels import (
    fig1_reference,
    loop_sum_kernel,
    loop_sum_reference,
    make_fig1_workload,
    memcopy_kernel,
    saxpy_kernel,
)
from repro.memory import MemoryImage


def test_saxpy_matches_numpy():
    n = 32
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=n), rng.normal(size=n)
    mem = MemoryImage(256)
    bx = mem.alloc_array("x", x)
    by = mem.alloc_array("y", y)
    bo = mem.alloc("out", n)
    interpret(saxpy_kernel(), mem, {"a": 3.0, "x": bx, "y": by, "out": bo, "n": n}, n)
    np.testing.assert_allclose(mem.read_region("out"), 3.0 * x + y)


def test_saxpy_guard_masks_extra_threads():
    n = 8
    mem = MemoryImage(128)
    bx = mem.alloc_array("x", np.ones(n))
    by = mem.alloc_array("y", np.zeros(n))
    bo = mem.alloc("out", 16)
    # Launch 16 threads over 8 elements; the guard must keep 8..15 idle.
    interpret(saxpy_kernel(), mem, {"a": 1.0, "x": bx, "y": by, "out": bo, "n": n}, 16)
    out = mem.read_region("out")
    assert list(out[:8]) == [1.0] * 8
    assert list(out[8:]) == [0.0] * 8


def test_fig1_matches_golden_and_diverges():
    kernel, mem, params = make_fig1_workload(n_threads=64)
    data = mem.read_region("data")
    result = interpret(kernel, mem, params, 64)
    np.testing.assert_allclose(
        mem.read_region("out"), fig1_reference(data, params["a"], params["b"])
    )
    # The workload must actually diverge: all three arms taken.
    visited = set()
    for t in result.traces:
        visited.add(tuple(t.blocks))
    assert len(visited) == 3


def test_loop_sum_with_divergent_trip_counts():
    stride = 8
    n_threads = 16
    rng = np.random.default_rng(1)
    data = rng.normal(size=stride * n_threads)
    count = rng.integers(0, stride + 1, size=n_threads)
    mem = MemoryImage(4096)
    bd = mem.alloc_array("data", data)
    bc = mem.alloc_array("count", count)
    bo = mem.alloc("out", n_threads)
    result = interpret(
        loop_sum_kernel(),
        mem,
        {"data": bd, "count": bc, "out": bo, "stride": stride},
        n_threads,
    )
    np.testing.assert_allclose(
        mem.read_region("out"), loop_sum_reference(data, count, stride)
    )
    # Trace lengths must differ across threads (divergent trip counts).
    lengths = {len(t.blocks) for t in result.traces}
    assert len(lengths) > 1


def test_memcopy():
    n = 16
    mem = MemoryImage(256)
    src = mem.alloc_array("src", np.arange(float(n)))
    dst = mem.alloc("dst", n)
    interpret(memcopy_kernel(), mem, {"src": src, "dst": dst, "n": n}, n)
    np.testing.assert_array_equal(mem.read_region("dst"), np.arange(float(n)))


def test_missing_param_raises():
    mem = MemoryImage(64)
    with pytest.raises(InterpreterError, match="missing parameter"):
        Interpreter(saxpy_kernel(), mem, {"a": 1.0}, 8)


def test_runaway_loop_guard():
    kb = KernelBuilder("spin", params=["out"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_unless(i >= 0)  # never false
        kb.assign(i, i + 1)
    kb.store(kb.param("out"), i)
    k = kb.build()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    with pytest.raises(InterpreterError, match="block visits"):
        interpret(k, mem, {"out": out}, 1, max_block_visits=100)


def test_param_dtype_coercion():
    # A param read via fparam must arrive as float even if passed as int.
    kb = KernelBuilder("k", params=["a", "out"])
    kb.store(kb.param("out"), kb.fparam("a") * 2.0)
    k = kb.build()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    interpret(k, mem, {"a": 3, "out": out}, 1)
    assert mem.read(out) == 6.0


def test_int_load_truncates_dtype():
    kb = KernelBuilder("k", params=["src", "out"])
    v = kb.load(kb.param("src"), DType.INT)
    kb.store(kb.param("out"), v * 2)
    k = kb.build()
    mem = MemoryImage(8)
    src = mem.alloc("src", 1)
    out = mem.alloc("out", 1)
    mem.write(src, 5.0)
    interpret(k, mem, {"src": src, "out": out}, 1)
    assert mem.read(out) == 10.0


def test_trace_block_visit_counts():
    kernel, mem, params = make_fig1_workload(n_threads=16)
    result = interpret(kernel, mem, params, 16)
    # Every thread visits entry and the final merge block exactly once.
    assert result.block_visits["entry"] == 16
    merge = kernel.exit_blocks()[0]
    assert result.block_visits[merge] == 16
    assert result.total_instructions == sum(t.instructions for t in result.traces)


# ----------------------------------------------------------------------
# Wave execution vs. the per-thread oracle
# ----------------------------------------------------------------------
class _Table2Case:
    """A Table 2 registry workload at ``tiny`` in the fuzz-case shape:
    the optimized kernel, the one ``run_kernel`` verifies against the
    interpreter."""

    def __init__(self, name):
        from repro.compiler.optimize import optimize_kernel
        from repro.kernels.registry import make_workload

        wl = make_workload(name, "tiny")
        self.seed = name
        self.kernel = optimize_kernel(wl.kernel, params=wl.params)
        self.params = wl.params
        self.n_threads = wl.n_threads
        self._memory = wl.memory

    def build_memory(self):
        return self._memory.clone()


def _oracle_cases():
    import glob
    import os

    from repro.fuzz import generate_case, load_corpus_case
    from repro.kernels.registry import all_names

    cases = [generate_case(seed) for seed in range(40)]
    corpus = os.path.join(os.path.dirname(__file__), "corpus")
    cases += [load_corpus_case(path)
              for path in sorted(glob.glob(os.path.join(corpus, "*.kir")))]
    cases += [_Table2Case(name) for name in all_names()]
    return cases


def _threads_one_by_one(case):
    mem = case.build_memory()
    interp = Interpreter(case.kernel, mem, case.params)
    try:
        traces = [interp.run_thread(t) for t in range(case.n_threads)]
    except Exception as exc:  # noqa: BLE001 - the error is the result
        return (type(exc).__name__, str(exc)), None
    visits = Counter()
    for t in traces:
        visits.update(t.blocks)
    return (mem.data, traces), visits


def test_run_matches_per_thread_oracle(monkeypatch):
    """``Interpreter.run`` (waves of threads per block) against
    ``run_thread`` called thread by thread: memory image, per-thread
    traces and block visits all agree on generated kernels, the fuzz
    corpus and the Table 2 kernels.  Every case is forced onto the wave
    path whatever its width, so the narrow ones that ``run`` hands to
    ``run_thread`` keep their wave coverage.  The wave path itself, not
    its fallback to ``run_thread``, answers every Table 2 kernel but
    ``lud/lud_perimeter`` (its threads re-read their own stores).

    The Fermi warps evaluate the same instruction rows as the waves
    (``repro.ir.vecops.eval_row``), so ``FermiSM.run``'s final memory
    is checked against ``run_thread`` here too, not against the wave
    path that shares its evaluator."""
    from repro.kernels.registry import all_names
    from repro.simt import FermiSM

    answered = {}
    run_wave = Interpreter._run_wave

    def counting_run_wave(self, n_threads):
        result = run_wave(self, n_threads)
        answered[case.seed] = result is not None
        return result

    monkeypatch.setattr(Interpreter, "_run_wave", counting_run_wave)
    monkeypatch.setattr(interpreter_module, "WAVE_MIN_THREADS", 1)
    for case in _oracle_cases():
        want, want_visits = _threads_one_by_one(case)
        mem = case.build_memory()
        try:
            res = Interpreter(case.kernel, mem, case.params).run(
                case.n_threads)
        except Exception as exc:  # noqa: BLE001
            assert want == (type(exc).__name__, str(exc)), case.seed
            continue
        assert want_visits is not None, case.seed
        data, traces = want
        assert np.array_equal(mem.data, data, equal_nan=True), case.seed
        assert res.traces == traces, case.seed
        assert res.block_visits == want_visits, case.seed
        fermi_mem = case.build_memory()
        FermiSM().run(case.kernel, fermi_mem, case.params, case.n_threads)
        assert np.array_equal(fermi_mem.data, data, equal_nan=True), \
            case.seed
    fallbacks = [name for name in all_names() if not answered[name]]
    assert fallbacks == ["lud/lud_perimeter"]


def test_narrow_launches_interpret_thread_by_thread(monkeypatch):
    """``run`` hands a launch narrower than ``WAVE_MIN_THREADS`` to
    ``run_thread`` without trying a wave, and tries the wave first from
    that width up."""
    waves = []
    run_wave = Interpreter._run_wave

    def counting_run_wave(self, n_threads):
        waves.append(n_threads)
        return run_wave(self, n_threads)

    monkeypatch.setattr(Interpreter, "_run_wave", counting_run_wave)
    width = interpreter_module.WAVE_MIN_THREADS
    for n, want in ((width - 1, []), (width, [width])):
        waves.clear()
        kernel, mem, params = make_fig1_workload(n_threads=n)
        data = mem.read_region("data")
        result = interpret(kernel, mem, params, n)
        assert waves == want, n
        assert len(result.traces) == n
        np.testing.assert_allclose(
            mem.read_region("out"),
            fig1_reference(data, params["a"], params["b"]))
