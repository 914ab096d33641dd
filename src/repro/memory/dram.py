"""GDDR5-style DRAM timing model.

16 banks across 6 channels (paper Table 1).  Each bank serves one access
at a time and keeps a row buffer; a row-buffer hit costs the
CAS-dominated latency, a miss adds precharge + activate.  Each channel's
data bus is occupied for a short burst per 128-byte transfer, so
accesses to different banks pipeline on one channel.

Because the core-side simulators generate requests in rough — not
strict — time order, banks and channels are modelled as *calendars*
(free-interval searches) rather than monotone free pointers: a request
with an earlier timestamp may backfill an idle slot instead of queueing
behind a logically-later request.

All times are in core-clock cycles (the DRAM's slower clock is folded
into the latency constants; paper Table 1 lists 0.924 GHz vs the
1.4 GHz core).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arch.config import MemoryConfig
from repro.memory.calendar import claim_slot


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def accesses(self) -> int:
        """Line reads and writes served."""
        return self.reads + self.writes


class _Bank:
    """One DRAM bank: a calendar of (start, end, row) accesses.

    ``schedule`` only inserts into a free gap, so with positive
    latencies a bank's intervals are pairwise disjoint and sorted starts
    imply sorted ends.  They are held as three parallel sorted lists,
    and every probe is a binary search: O(log n) per access where a
    scan of one interval list was O(n).
    """

    __slots__ = ("starts", "ends", "rows")

    def __init__(self):
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.rows: List[int] = []

    @property
    def intervals(self) -> List[Tuple[float, float, int]]:
        """The accesses as sorted (start, end, row) tuples (a copy)."""
        return list(zip(self.starts, self.ends, self.rows))

    def schedule(self, t: float, row: int, hit_lat: int, miss_lat: int
                 ) -> Tuple[float, float, bool]:
        """Find the earliest slot at/after ``t``; returns
        (start, end, row_hit)."""
        starts, ends = self.starts, self.ends
        candidate = t
        while True:
            # Row state at the candidate time = row of the latest access
            # starting at or before it.
            i = bisect_right(starts, candidate) - 1
            prev_row = self.rows[i] if i >= 0 else -1
            latency = hit_lat if row == prev_row else miss_lat
            end = candidate + latency
            # The first access ending after the candidate is the first
            # that can overlap [candidate, end); if it does not, none does.
            j = bisect_right(ends, candidate)
            if j == len(ends) or starts[j] >= end:
                k = bisect_left(starts, candidate)
                starts.insert(k, candidate)
                ends.insert(k, end)
                self.rows.insert(k, row)
                return candidate, end, latency == hit_lat
            candidate = ends[j]


class DRAM:
    """Main memory: the last level of every access path."""

    def __init__(self, config: MemoryConfig, tracer=None):
        self.config = config
        self.stats = DRAMStats()
        # Observability hook (repro.obs): row activations (row-buffer
        # misses) become instant timeline events when a Tracer is
        # attached; `None` keeps the hot path to one attribute test.
        self.tracer = tracer
        self._banks: Dict[Tuple[int, int], _Bank] = {}
        # channel -> burst-slot calendar (slot = cycle // burst_cycles),
        # path-compressed next-free pointers (repro.memory.calendar)
        self._channel_next: Dict[int, Dict[int, int]] = {}

    def _locate(self, line_addr: int) -> Tuple[int, int, int]:
        cfg = self.config
        channel = line_addr % cfg.dram_channels
        interleaved = line_addr // cfg.dram_channels
        bank = interleaved % cfg.dram_banks_per_channel
        lines_per_row = max(1, cfg.dram_row_bytes // 128)
        row = interleaved // (cfg.dram_banks_per_channel * lines_per_row)
        return channel, bank, row

    def _claim_channel(self, channel: int, t: float) -> float:
        """Claim the first free burst slot of ``channel`` at/after ``t``."""
        burst = self.config.dram_burst_cycles
        slot = int(t // burst)
        if t > slot * burst:
            slot += 1
        nf = self._channel_next.get(channel)
        if nf is None:
            nf = self._channel_next[channel] = {}
        slot = claim_slot(nf, slot)
        return slot * burst

    def access(self, time: float, line_addr: int, is_write: bool) -> float:
        """One 128-byte line transfer; returns its completion time."""
        cfg = self.config
        channel, bank_idx, row = self._locate(line_addr)
        bank = self._banks.setdefault((channel, bank_idx), _Bank())

        start, end, row_hit = bank.schedule(
            time, row, cfg.dram_row_hit_latency, cfg.dram_row_miss_latency
        )
        # The data burst at the end of the access needs the channel bus.
        burst_at = self._claim_channel(channel, end - cfg.dram_burst_cycles)
        done = burst_at + cfg.dram_burst_cycles

        if row_hit:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
            if self.tracer is not None:
                self.tracer.instant(
                    "row_activate", "mem.dram", start, pid="mem",
                    tid=f"ch{channel}", channel=channel, bank=bank_idx,
                    row=row,
                )
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        return done
