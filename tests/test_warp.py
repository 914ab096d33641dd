"""Unit tests for warp-level functional execution (repro.simt.warp)."""

import math

import numpy as np
import pytest

from repro.ir import DType, Imm, Instr, Op, Reg, Terminator
from repro.memory import MemoryImage
from repro.simt import EXIT, Warp


def make_warp(n_lanes=8, valid=8, params=None, mem_size=256):
    mem = MemoryImage(mem_size)
    warp = Warp(0, base_tid=0, n_lanes=n_lanes, valid_lanes=valid,
                params=params or {}, memory=mem)
    return warp, mem


def test_tid_reads_per_lane():
    warp, _ = make_warp()
    instr = Instr(Op.ADD, "x", (Reg("tid"), Imm(10, DType.INT)), DType.INT)
    warp.exec_instr(instr, 0xFF)
    assert warp._regs["x"] == [10, 11, 12, 13, 14, 15, 16, 17]


def test_mask_limits_lanes():
    warp, _ = make_warp()
    instr = Instr(Op.MOV, "y", (Imm(7, DType.INT),), DType.INT)
    warp.exec_instr(instr, 0b1010)
    y = warp._regs["y"]
    assert y[1] == 7 and y[3] == 7
    assert y[0] == 0 and y[2] == 0  # untouched lanes keep default


def test_param_broadcast():
    warp, _ = make_warp(params={"alpha": 2.5})
    instr = Instr(Op.FMUL, "z",
                  (Reg("arg.alpha"), Imm(2.0, DType.FLOAT)), DType.FLOAT)
    warp.exec_instr(instr, 0b1)
    assert warp._regs["z"][0] == 5.0


def test_load_store_per_lane_addresses():
    warp, mem = make_warp()
    mem.write_block(0, np.arange(8.0))
    load = Instr(Op.LOAD, "v", (Reg("tid"),), DType.FLOAT)
    ops = warp.exec_instr(load, 0xFF)
    assert ops == list(range(8))
    store = Instr(Op.STORE, None, (Reg("tid"), Reg("v")), DType.FLOAT)
    warp.exec_instr(store, 0x0F)  # only low lanes store
    np.testing.assert_array_equal(mem.read_block(0, 8), np.arange(8.0))


def test_terminator_ret_and_jmp():
    warp, _ = make_warp()
    assert warp.exec_terminator(Terminator.ret(), 0b111) == {EXIT: 0b111}
    assert warp.exec_terminator(Terminator.jmp("next"), 0b101) == {
        "next": 0b101
    }


def test_terminator_divergent_branch():
    warp, _ = make_warp()
    cmp = Instr(Op.LT, "c", (Reg("tid"), Imm(4, DType.INT)), DType.PRED)
    warp.exec_instr(cmp, 0xFF)
    targets = warp.exec_terminator(
        Terminator.br(Reg("c"), "low", "high"), 0xFF
    )
    assert targets == {"low": 0x0F, "high": 0xF0}


def test_select_and_special_ops():
    warp, _ = make_warp()
    warp.exec_instr(
        Instr(Op.LT, "p", (Reg("tid"), Imm(2, DType.INT)), DType.PRED), 0xFF
    )
    warp.exec_instr(
        Instr(Op.SELECT, "s",
              (Reg("p"), Imm(1.0, DType.FLOAT), Imm(9.0, DType.FLOAT)),
              DType.FLOAT),
        0xFF,
    )
    assert warp._regs["s"][:4] == [1.0, 1.0, 9.0, 9.0]
    warp.exec_instr(
        Instr(Op.FSQRT, "q", (Imm(16.0, DType.FLOAT),), DType.FLOAT), 0b1
    )
    assert warp._regs["q"][0] == 4.0


def test_lanes_of_iterates_set_bits():
    assert list(Warp.lanes_of(0b1011)) == [0, 1, 3]
    assert list(Warp.lanes_of(0)) == []


# ----------------------------------------------------------------------
# The per-lane path: lanes the vector path cannot represent
# ----------------------------------------------------------------------
def test_out_of_range_lane_address_raises_scalar_error():
    from repro.memory.image import MemoryError_

    warp, mem = make_warp(n_lanes=8, valid=8, mem_size=16)
    instr = Instr(Op.MUL, "a", (Reg("tid"), Imm(4, DType.INT)), DType.INT)
    warp.exec_instr(instr, 0xFF)
    load = Instr(Op.LOAD, "v", (Reg("a"),), DType.FLOAT)
    with pytest.raises(MemoryError_, match=r"^address 16 out of bounds "
                                           r"\[0, 16\)$"):
        warp.exec_instr(load, 0xFF)
    # Lanes before the faulting one completed, as in a lane-by-lane walk.
    assert warp._regs["v"][:4] == [0.0, 0.0, 0.0, 0.0]


def test_mixed_type_lanes_keep_their_values():
    warp, mem = make_warp(n_lanes=4, valid=4)
    mem.write_block(0, [10.0, 11.0, 12.0, 13.0])
    for lane, addr in enumerate([0, 1.0, 2, 3.0]):
        warp._write_lane("a", lane, addr)
    for lane, v in enumerate([-1, 2.5, False, 7]):
        warp._write_lane("v", lane, v)
    load = Instr(Op.LOAD, "v", (Reg("a"),), DType.FLOAT)
    ops = warp.exec_instr(load, 0b0101)
    assert ops == [0, 2]  # lanes 0 and 2, in lane order
    got = warp._regs["v"]
    assert got == [10.0, 2.5, 12.0, 7]
    assert [type(v) for v in got] == [float, float, float, int]
    store = Instr(Op.STORE, None, (Reg("a"), Reg("v")), DType.FLOAT)
    warp.exec_instr(store, 0b1010)
    assert mem.read_block(0, 4).tolist() == [10.0, 2.5, 12.0, 7.0]


# ----------------------------------------------------------------------
# Branch conditions: every operand kind takes the per-lane bool() rule
# ----------------------------------------------------------------------
def _per_lane_targets(values, mask):
    """The per-lane rule: ``bool(value)`` picks each lane's target, and
    the dict lists targets in order of their lowest lane."""
    targets = {}
    for lane in Warp.lanes_of(mask):
        target = "yes" if bool(values[lane]) else "no"
        targets[target] = targets.get(target, 0) | (1 << lane)
    return targets


_BRANCH_CONDITIONS = [
    ("tid", Reg("tid"), {}, list(range(8))),
    ("imm_zero", Imm(0, DType.INT), {}, [0] * 8),
    ("imm_float", Imm(-2.5, DType.FLOAT), {}, [-2.5] * 8),
    ("imm_pred", Imm(True, DType.PRED), {}, [True] * 8),
    ("param_zero", Reg("arg.flag"), {"flag": 0}, [0] * 8),
    ("param_nan", Reg("arg.flag"), {"flag": math.nan}, [math.nan] * 8),
    ("object_reg", Reg("c"), {},
     [0, 1.5, False, 7, -0.0, True, math.nan, 0.0]),
]


@pytest.mark.parametrize("mask", [0xFF, 0b11110, 0b10100001])
@pytest.mark.parametrize("cond,params,values",
                         [c[1:] for c in _BRANCH_CONDITIONS],
                         ids=[c[0] for c in _BRANCH_CONDITIONS])
def test_terminator_branch_condition_kinds(cond, params, values, mask):
    warp, _ = make_warp(params=params)
    if cond == Reg("c"):
        for lane, v in enumerate(values):
            warp._write_lane("c", lane, v)
        assert np.asarray(warp._vregs["c"]).dtype == object
    targets = warp.exec_terminator(Terminator.br(cond, "yes", "no"), mask)
    want = _per_lane_targets(values, mask)
    assert targets == want
    assert list(targets) == list(want)  # lowest active lane's target first
