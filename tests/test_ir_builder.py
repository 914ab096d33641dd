"""Tests for the kernel builder DSL: structure, types, and misuse errors."""

import pytest

from repro.ir import (
    BuildError,
    DType,
    KernelBuilder,
    Op,
    TermKind,
    ValidationError,
)


def test_empty_kernel_builds_single_ret_block():
    k = KernelBuilder("empty").build()
    assert k.num_blocks == 1
    assert k.blocks["entry"].terminator.kind is TermKind.RET


def test_straightline_arithmetic_types():
    kb = KernelBuilder("k", params=["p"])
    a = kb.tid() + 1
    b = a * 2
    c = kb.i2f(b) + 0.5
    assert a.dtype is DType.INT
    assert b.dtype is DType.INT
    assert c.dtype is DType.FLOAT
    k = kb.build()
    ops = [i.op for i in k.blocks["entry"].instrs]
    assert ops == [Op.ADD, Op.MUL, Op.I2F, Op.FADD]


def test_int_float_mixing_promotes_to_float():
    kb = KernelBuilder("k")
    v = kb.tid() + 2.5
    assert v.dtype is DType.FLOAT
    ops = [i.op for i in kb._current.instrs]
    # tid (int reg) must be promoted through I2F before the FADD.
    assert Op.I2F in ops and Op.FADD in ops


def test_comparison_produces_pred():
    kb = KernelBuilder("k", params=["n"])
    c = kb.tid() < kb.param("n")
    assert c.dtype is DType.PRED


def test_if_creates_diamond_with_empty_else():
    kb = KernelBuilder("k", params=["n"])
    with kb.if_(kb.tid() < kb.param("n")):
        kb.store(kb.tid(), 1.0)
    k = kb.build()
    assert k.num_blocks == 3  # entry, then, merge
    entry = k.blocks["entry"]
    assert entry.terminator.kind is TermKind.BR
    t, f = entry.terminator.targets()
    assert k.blocks[t].successors() == (f,)


def test_if_else_creates_four_block_diamond():
    kb = KernelBuilder("k", params=["n"])
    r = kb.var("r", 0)
    with kb.if_(kb.tid() < kb.param("n")):
        kb.assign(r, 1)
    with kb.else_():
        kb.assign(r, 2)
    kb.store(0, r)
    k = kb.build()
    assert k.num_blocks == 4
    t, f = k.blocks["entry"].terminator.targets()
    merge = k.blocks[t].successors()[0]
    assert k.blocks[f].successors() == (merge,)


def test_else_without_if_raises():
    kb = KernelBuilder("k")
    with pytest.raises(BuildError):
        with kb.else_():
            pass


def test_else_after_intervening_code_raises():
    kb = KernelBuilder("k", params=["n"])
    with kb.if_(kb.tid() < kb.param("n")):
        pass
    kb.store(0, 1.0)  # invalidates the pending else
    with pytest.raises(BuildError):
        with kb.else_():
            pass


def test_nested_if_else():
    kb = KernelBuilder("k", params=["a", "b"])
    r = kb.var("r", 0)
    with kb.if_(kb.tid() < kb.param("a")):
        kb.assign(r, 1)
    with kb.else_():
        with kb.if_(kb.tid() < kb.param("b")):
            kb.assign(r, 2)
        with kb.else_():
            kb.assign(r, 3)
    kb.store(0, r)
    k = kb.build()
    assert k.num_blocks == 7


def test_loop_has_back_edge():
    kb = KernelBuilder("k", params=["n"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_unless(i < kb.param("n"))
        kb.assign(i, i + 1)
    k = kb.build()
    # Find the header: the block with a conditional branch.
    headers = [b for b in k.blocks.values() if b.terminator.kind is TermKind.BR]
    assert len(headers) == 1
    header = headers[0]
    body_name, exit_name = header.terminator.targets()
    assert k.blocks[body_name].successors() == (header.name,)
    assert not k.blocks[exit_name].instrs


def test_for_range_counts_correctly_via_interp():
    from repro.interp import interpret
    from repro.memory import MemoryImage

    kb = KernelBuilder("count", params=["out", "n"])
    acc = kb.var("acc", 0)
    with kb.for_range(0, kb.param("n")) as i:
        kb.assign(acc, acc + i)
    kb.store(kb.param("out") + kb.tid(), acc)
    k = kb.build()
    mem = MemoryImage(64)
    out = mem.alloc("out", 4)
    interpret(k, mem, {"out": out, "n": 5}, 4)
    assert list(mem.read_region("out")) == [10.0] * 4


def test_for_range_negative_step():
    from repro.interp import interpret
    from repro.memory import MemoryImage

    kb = KernelBuilder("countdown", params=["out"])
    acc = kb.var("acc", 0)
    with kb.for_range(5, 0, step=-1) as i:
        kb.assign(acc, acc + i)
    kb.store(kb.param("out"), acc)
    k = kb.build()
    mem = MemoryImage(16)
    out = mem.alloc("out", 1)
    interpret(k, mem, {"out": out}, 1)
    assert mem.read(out) == 15.0


def test_for_range_zero_step_raises():
    kb = KernelBuilder("k")
    with pytest.raises(BuildError):
        with kb.for_range(0, 4, step=0):
            pass


def test_loop_break_prunes_dead_code():
    kb = KernelBuilder("k", params=["n"])
    i = kb.var("i", 0)
    with kb.loop() as lp:
        lp.break_unless(i < kb.param("n"))
        with kb.if_(i == 3):
            lp.break_()
        kb.assign(i, i + 1)
    k = kb.build()  # must validate (dead blocks pruned)
    assert all(b.terminator is not None for b in k.blocks.values())


def test_loop_continue():
    from repro.interp import interpret
    from repro.memory import MemoryImage

    kb = KernelBuilder("evens", params=["out"])
    i = kb.var("i", 0)
    acc = kb.var("acc", 0)
    with kb.loop() as lp:
        lp.break_unless(i < 10)
        kb.assign(i, i + 1)
        with kb.if_((i % 2) == 1):
            lp.continue_()
        kb.assign(acc, acc + i)
    kb.store(kb.param("out"), acc)
    k = kb.build()
    mem = MemoryImage(8)
    out = mem.alloc("out", 1)
    interpret(k, mem, {"out": out}, 1)
    assert mem.read(out) == 2 + 4 + 6 + 8 + 10


def test_unknown_param_raises():
    kb = KernelBuilder("k", params=["n"])
    with pytest.raises(BuildError):
        kb.param("m")


def test_build_twice_raises():
    kb = KernelBuilder("k")
    kb.build()
    with pytest.raises(BuildError):
        kb.build()


def test_write_to_reserved_register_rejected():
    from repro.ir import Instr

    kb = KernelBuilder("k")
    kb._current.append(Instr(Op.MOV, "tid", (kb._wrap(1).operand,), DType.INT))
    with pytest.raises(ValidationError):
        kb.build()


def test_select_and_minmax():
    from repro.interp import interpret
    from repro.memory import MemoryImage

    kb = KernelBuilder("k", params=["out"])
    t = kb.tid()
    v = kb.select(t < 2, t * 10, t)
    m = kb.min_(v, 15)
    kb.store(kb.param("out") + t, kb.max_(m, 1))
    k = kb.build()
    mem = MemoryImage(16)
    out = mem.alloc("out", 4)
    interpret(k, mem, {"out": out}, 4)
    assert list(mem.read_region("out")) == [1.0, 10.0, 2.0, 3.0]


def test_float_mod_raises():
    kb = KernelBuilder("k")
    x = kb.const(1.5)
    with pytest.raises(BuildError):
        x % 2  # noqa: B018


def test_var_requires_init_or_dtype():
    kb = KernelBuilder("k")
    with pytest.raises(BuildError):
        kb.var("x")
    v = kb.var("y", dtype=DType.INT)
    assert v.dtype is DType.INT
