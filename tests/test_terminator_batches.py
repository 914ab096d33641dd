"""Tests for the terminator CVU batch-assembly protocol (paper §3.5)."""

from repro.vgiw import ThreadOutcome, terminator_batches
from repro.vgiw.bbs import iter_batch_tids


def _oc(tid, target, completion):
    return ThreadOutcome(tid=tid, next_block=target, completion=completion)


def _unpack(packets):
    """(target, tid) pairs encoded by a packet list."""
    out = []
    for target, base, bitmap in packets:
        out.extend((target, t) for t in iter_batch_tids(base, bitmap))
    return sorted(out)


def test_in_order_completion_packs_full_batches():
    outcomes = [_oc(t, "next", completion=float(t)) for t in range(128)]
    packets = terminator_batches(outcomes)
    assert len(packets) == 2  # two full 64-thread batches
    assert _unpack(packets) == sorted(("next", t) for t in range(128))


def test_out_of_order_completion_flushes_partial_batches():
    # Threads complete interleaved across three 64-aligned batches: with
    # only two open batch registers, the oldest is flushed partially.
    outcomes = []
    for i in range(16):
        for base in (0, 64, 128):
            tid = base + i
            outcomes.append(_oc(tid, "next", completion=float(i * 3 + base / 64)))
    packets = terminator_batches(outcomes)
    assert len(packets) > 3  # more packets than perfect batching
    assert _unpack(packets) == sorted(
        ("next", base + i) for i in range(16) for base in (0, 64, 128)
    )


def test_multiple_targets_have_separate_batches():
    outcomes = [
        _oc(0, "a", 1.0), _oc(1, "b", 2.0), _oc(2, "a", 3.0), _oc(3, "b", 4.0),
    ]
    packets = terminator_batches(outcomes)
    assert _unpack(packets) == [("a", 0), ("a", 2), ("b", 1), ("b", 3)]
    # In-order, same word: one packet per target.
    assert len(packets) == 2


def test_exited_threads_produce_no_packets():
    outcomes = [_oc(0, None, 1.0), _oc(1, None, 2.0)]
    assert terminator_batches(outcomes) == []


def test_tid_offset_makes_bases_tile_local():
    outcomes = [_oc(1000 + t, "n", float(t)) for t in range(4)]
    packets = terminator_batches(outcomes, tid_offset=1000)
    assert packets == [("n", 0, 0b1111)]


def test_no_thread_lost_under_any_interleaving():
    import random

    rng = random.Random(5)
    tids = list(range(300))
    outcomes = [
        _oc(t, "x" if t % 3 else "y", completion=rng.random()) for t in tids
    ]
    packets = terminator_batches(outcomes)
    got = _unpack(packets)
    want = sorted(("x" if t % 3 else "y", t) for t in tids)
    assert got == want


def test_equal_completions_emit_in_thread_order():
    # Outcomes sort natively by (completion, tid): three threads that
    # complete together in three words arrive in ascending ID order, so
    # the third arrival flushes word 0, not word 128.
    outcomes = [_oc(130, "n", 1.0), _oc(65, "n", 1.0), _oc(0, "n", 1.0)]
    assert terminator_batches(outcomes) == [
        ("n", 0, 1 << 0), ("n", 64, 1 << 1), ("n", 128, 1 << 2),
    ]
