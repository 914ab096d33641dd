"""Property-based tests for the SIMT stack under random divergence."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import EXIT, SIMTStack

#: A tiny synthetic CFG used by the property:
#:
#:    entry -> {a, b};  a -> {c, merge};  b -> merge;  c -> merge;
#:    merge -> exit
_SUCCS = {
    "entry": ("a", "b"),
    "a": ("c", "merge"),
    "b": ("merge",),
    "c": ("merge",),
    "merge": (),
}
_IPDOM = {
    "entry": "merge",
    "a": "merge",
    "b": "merge",
    "c": "merge",
    "merge": None,
}


@given(st.lists(st.booleans(), min_size=8, max_size=8),
       st.lists(st.booleans(), min_size=8, max_size=8))
@settings(max_examples=100, deadline=None)
def test_every_lane_executes_its_own_path_exactly_once(outer, inner):
    """Whatever the per-lane branch outcomes, each lane visits exactly the
    blocks on its path, in order, and the warp terminates."""
    full = 0xFF
    stack = SIMTStack("entry", full, _IPDOM)
    visits = {lane: [] for lane in range(8)}

    steps = 0
    while True:
        block = stack.peek_block()
        if block is None:
            break
        steps += 1
        assert steps < 64, "warp failed to terminate"
        mask = stack.current().mask
        for lane in range(8):
            if mask >> lane & 1:
                visits[lane].append(block)
        succs = _SUCCS[block]
        if not succs:
            targets = {EXIT: mask}
        elif len(succs) == 1:
            targets = {succs[0]: mask}
        else:
            t_mask = 0
            decider = outer if block == "entry" else inner
            for lane in range(8):
                if mask >> lane & 1 and decider[lane]:
                    t_mask |= 1 << lane
            targets = {succs[0]: t_mask, succs[1]: mask & ~t_mask}
        stack.advance(block, targets)

    for lane in range(8):
        expected = ["entry"]
        expected.append("a" if outer[lane] else "b")
        if outer[lane]:
            expected.append("c" if inner[lane] else None)
        expected.append("merge")
        expected = [b for b in expected if b is not None]
        assert visits[lane] == expected, f"lane {lane} path mismatch"


@given(st.integers(1, 255))
@settings(max_examples=50, deadline=None)
def test_partial_warps_terminate(mask):
    stack = SIMTStack("entry", mask, _IPDOM)
    steps = 0
    while stack.peek_block() is not None:
        steps += 1
        assert steps < 64
        block = stack.peek_block()
        m = stack.current().mask
        succs = _SUCCS[block]
        if not succs:
            stack.advance(block, {EXIT: m})
        elif len(succs) == 1:
            stack.advance(block, {succs[0]: m})
        else:
            # Alternate lanes diverge.
            t = m & 0x55
            stack.advance(block, {succs[0]: t, succs[1]: m & ~t})
