"""Corner cases of the builder DSL: nested control-flow interactions."""

from repro.interp import interpret
from repro.ir import KernelBuilder
from repro.memory import MemoryImage


def _run(kernel, params, n_threads=1, mem_words=64):
    mem = MemoryImage(mem_words)
    out = mem.alloc("out", max(4, n_threads))
    params = dict(params, out=out)
    interpret(kernel, mem, params, n_threads)
    return mem.read_region("out")


def test_break_inside_nested_if_leaves_loop():
    kb = KernelBuilder("k", params=["out"])
    acc = kb.var("acc", 0)
    with kb.loop() as lp:
        lp.break_unless(acc < 100)
        kb.assign(acc, acc + 1)
        with kb.if_(acc == 5):
            lp.break_()
    kb.store(kb.param("out"), kb.i2f(acc))
    out = _run(kb.build(), {})
    assert out[0] == 5.0


def test_continue_skips_rest_of_iteration():
    kb = KernelBuilder("k", params=["out"])
    i = kb.var("i", 0)
    hits = kb.var("hits", 0)
    with kb.loop() as lp:
        lp.break_unless(i < 6)
        kb.assign(i, i + 1)
        with kb.if_(i == 3):
            lp.continue_()
        kb.assign(hits, hits + 1)
    kb.store(kb.param("out"), kb.i2f(hits))
    out = _run(kb.build(), {})
    assert out[0] == 5.0  # iteration i==3 skipped the tail


def test_loop_inside_both_if_arms():
    kb = KernelBuilder("k", params=["out", "sel"])
    acc = kb.var("acc", 0)
    with kb.if_(kb.param("sel") == 1):
        with kb.for_range(0, 3) as i:
            kb.assign(acc, acc + i)
    with kb.else_():
        with kb.for_range(0, 4) as j:
            kb.assign(acc, acc + 10)
    kb.store(kb.param("out") + kb.tid(), kb.i2f(acc))
    k = kb.build()
    assert _run(k, {"sel": 1})[0] == 3.0
    assert _run(k, {"sel": 0})[0] == 40.0


def test_triple_nested_loops():
    kb = KernelBuilder("k", params=["out"])
    acc = kb.var("acc", 0)
    with kb.for_range(0, 2) as a:
        with kb.for_range(0, 3) as b:
            with kb.for_range(0, 4) as c:
                kb.assign(acc, acc + 1)
    kb.store(kb.param("out"), kb.i2f(acc))
    assert _run(kb.build(), {})[0] == 24.0


def test_divergent_store_counts_per_thread():
    kb = KernelBuilder("k", params=["out"])
    t = kb.tid()
    with kb.if_((t % 2) == 0):
        kb.store(kb.param("out") + t, 1.0)
    with kb.else_():
        kb.store(kb.param("out") + t, 2.0)
    out = _run(kb.build(), {}, n_threads=4)
    assert list(out) == [1.0, 2.0, 1.0, 2.0]


def test_empty_loop_body_is_legal():
    kb = KernelBuilder("k", params=["out"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_unless(i < 3)
        kb.assign(i, i + 1)
    kb.store(kb.param("out"), kb.i2f(i))
    assert _run(kb.build(), {})[0] == 3.0


def test_if_condition_from_loop_variable_after_loop():
    kb = KernelBuilder("k", params=["out"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_unless(i < 7)
        kb.assign(i, i + 2)
    # i == 8 after the loop; readable post-loop.
    with kb.if_(i == 8):
        kb.store(kb.param("out"), 99.0)
    assert _run(kb.build(), {})[0] == 99.0


def test_break_if_variant():
    kb = KernelBuilder("k", params=["out"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_if(i >= 4)
        kb.assign(i, i + 1)
    kb.store(kb.param("out"), kb.i2f(i))
    assert _run(kb.build(), {})[0] == 4.0
