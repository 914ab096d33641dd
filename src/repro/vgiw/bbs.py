"""Basic block scheduler: batch protocol and scheduling policy (paper §3.2).

Thread batches travel between the BBS and the control vector units as
⟨16-bit base thread ID, 64-bit bitmap⟩ tuples.  The BBS selects the next
block to run (smallest block ID with a non-empty thread vector — the
compiler's ID assignment makes this preserve control dependencies),
zeroes the bits it sends out (the CVT's read-and-reset does this for
free), and ORs terminator batches back in.

The configuration FIFO prefetches upcoming block configurations during
execution, so the exposed reconfiguration cost is just the grid
reset-and-feed: ``2 * ceil(sqrt(#units))`` passes plus a constant — 34
cycles for the 108-unit prototype (paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

BATCH_BITS = 64


def iter_batch_tids(base: int, bitmap: int) -> List[int]:
    """Thread IDs encoded by a ⟨base, bitmap⟩ batch, ascending, as a
    list built in one comprehension (no per-thread generator resume)."""
    return [base + i for i in range(bitmap.bit_length()) if bitmap >> i & 1]


def make_batches(tids: Iterable[int], word_bits: int = BATCH_BITS) -> List[Tuple[int, int]]:
    """Pack thread IDs into word-aligned ⟨base, bitmap⟩ batches."""
    batches: dict = {}
    for tid in tids:
        base = (tid // word_bits) * word_bits
        batches[base] = batches.get(base, 0) | (1 << (tid - base))
    return sorted(batches.items())


def batch_popcount(bitmap: int) -> int:
    """Number of set bits — threads pending — in a block's vector."""
    return bin(bitmap).count("1")


def terminator_batches(outcomes, word_bits: int = BATCH_BITS,
                       open_per_target: int = 2, tid_offset: int = 0):
    """Assemble the batch packets a replica's terminator CVU emits.

    The CVU keeps ``open_per_target`` batch registers per destination
    block (paper §3.5: two, to tolerate out-of-order completion).
    Threads arrive in completion order, ties in thread-ID order (the
    native order of :class:`~repro.vgiw.mtcgrf.ThreadOutcome`); a
    thread whose ID falls outside
    every open batch of its target flushes the oldest (possibly partial)
    batch to the BBS.  Returns ``[(target, base, bitmap), ...]`` in
    emission order — one CVT write each.
    """
    packets: List[Tuple[str, int, int]] = []
    # target -> ordered list of [base, bitmap] (front = oldest); a
    # target's open bases are unique, so its newest batch is tested
    # first (consecutive threads mostly share it) and a miss there
    # tests the rest.
    open_batches: dict = {}
    for _, tid, target in sorted(outcomes):
        if target is None:
            continue
        local = tid - tid_offset
        base = (local // word_bits) * word_bits
        bit = 1 << (local - base)
        slots = open_batches.get(target)
        if slots is None:
            open_batches[target] = [[base, bit]]
            continue
        if slots[-1][0] == base:
            slots[-1][1] |= bit
            continue
        for slot in slots:
            if slot[0] == base:
                slot[1] |= bit
                break
        else:
            if len(slots) >= open_per_target:
                old = slots.pop(0)
                packets.append((target, old[0], old[1]))
            slots.append([base, bit])
    for target, slots in open_batches.items():
        for base, bitmap in slots:
            packets.append((target, base, bitmap))
    return packets


@dataclass
class BBSStats:
    """Scheduler-side counters (feeds the §3.2 overhead experiment)."""

    blocks_executed: int = 0
    reconfigurations: int = 0
    config_cycles: int = 0
    batches_sent: int = 0
    batches_received: int = 0
    threads_streamed: int = 0

    def config_overhead(self, total_cycles: float) -> float:
        """Reconfiguration cycles as a fraction of total runtime."""
        return self.config_cycles / total_cycles if total_cycles else 0.0
