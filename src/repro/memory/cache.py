"""Timing/tag model for banked set-associative caches.

Used for the L1 (32 banks), the L2 (6 banks) and the VGIW live value
cache (paper §3.4: "implemented as a banked cache, similar to a GPGPU
L1 design, and backed by the memory system").

The cache tracks tags, LRU state, dirty bits, bank occupancy and MSHRs —
but no data: functional values live in the flat
:class:`~repro.memory.image.MemoryImage`, so the timing model cannot
corrupt results.  Two write policies are supported, because that is the
single memory-system difference between VGIW and Fermi (paper §3.6):

* ``write_back=True`` — write-back, write-allocate (VGIW, SGMF);
* ``write_back=False`` — write-through, write-no-allocate (Fermi).

The model is a resource timeline: every access reserves its bank for one
cycle and returns its completion time; misses recurse into the next
level.  Same-line misses in flight are merged through the MSHRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Protocol, Tuple

from repro.memory.calendar import claim_slot


class NextLevel(Protocol):
    """Anything a cache can miss into (another cache or DRAM)."""

    def access(self, time: float, line_addr: int, is_write: bool) -> float: ...


@dataclass
class CacheStats:
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0
    mshr_merges: int = 0
    bank_wait_cycles: float = 0.0

    @property
    def accesses(self) -> int:
        """Read and write requests, hits and misses."""
        return (
            self.read_hits + self.read_misses
            + self.write_hits + self.write_misses
        )

    @property
    def misses(self) -> int:
        """Read and write misses."""
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        """Hits per request (0.0 before the first request)."""
        total = self.accesses
        return 1.0 - self.misses / total if total else 0.0


class Cache:
    """One level of banked, set-associative cache (timing only)."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        line_bytes: int,
        ways: int,
        banks: int,
        hit_latency: int,
        next_level: Optional[NextLevel],
        write_back: bool = True,
        write_validate: bool = False,
        tracer=None,
    ):
        if size_bytes % (line_bytes * ways) != 0:
            raise ValueError(f"{name}: size not divisible by line*ways")
        self.name = name
        # Observability hook (repro.obs): when a Tracer is attached,
        # misses are emitted as instant timeline events.  The disabled
        # fast path is a single `is not None` test per miss.
        self.tracer = tracer
        self._trace_cat = f"mem.{name.lower()}"
        self.line_bytes = line_bytes
        self.ways = ways
        self.banks = banks
        self.hit_latency = hit_latency
        self.next_level = next_level
        self.write_back = write_back
        # write_validate: allocate write-miss lines without fetching them
        # (used by the LVC, whose backing matrix holds no meaningful data
        # until first spill — paper section 3.4).
        self.write_validate = write_validate
        self.n_sets = size_bytes // (line_bytes * ways)
        self.stats = CacheStats()
        # set index -> list of [tag, dirty] in LRU order (front = LRU),
        # or None before the set's first fill
        self._sets: List[Optional[List[List]]] = [None] * self.n_sets
        # bank -> path-compressed next-free-pointer calendar
        # (repro.memory.calendar): requests arriving out of simulation
        # order backfill idle cycles instead of queueing behind
        # logically-later requests, at amortized O(1) per claim.  A
        # ``bank`` override past ``banks`` gets its calendar on first use.
        self._bank_next: Dict[int, Dict[int, int]] = {
            b: {} for b in range(banks)
        }
        # line address -> in-flight fill completion time (MSHR), and a
        # min-heap of its (completion, line) pairs for the prune
        self._mshr: Dict[int, float] = {}
        self._mshr_heap: List[Tuple[float, int]] = []

    # ------------------------------------------------------------------
    def _lookup(self, set_idx: int, tag: int) -> Optional[List]:
        ways = self._sets[set_idx]
        if not ways:
            return None
        for entry in ways:
            if entry[0] == tag:
                return entry
        return None

    def _fill(self, time: float, line_addr: int, set_idx: int, tag: int,
              dirty: bool) -> None:
        ways = self._sets[set_idx]
        if ways is None:
            ways = self._sets[set_idx] = []
        if len(ways) >= self.ways:
            victim = ways.pop(0)
            if self.write_back and victim[1]:
                # Posted write-back of the dirty victim line (invert the
                # XOR set hash to recover the victim's line address).
                tag = victim[0]
                low = set_idx ^ (tag % self.n_sets)
                victim_line = tag * self.n_sets + low
                self.stats.writebacks += 1
                if self.next_level is not None:
                    self.next_level.access(time, victim_line, True)
        ways.append([tag, dirty])

    # ------------------------------------------------------------------
    def access(self, time: float, line_addr: int, is_write: bool,
               bank: Optional[int] = None) -> float:
        """Access one line; return the completion time.

        ``bank`` overrides the default line-interleaved bank selection —
        word-granularity clients like the LVC pass the word-interleaved
        bank so that consecutive words in one line hit different banks
        (the dataflow engines' L1 word row claims its bank itself, paper
        §3.6: 32-bank L1).

        Writes complete at the L1 port (posted); reads complete when the
        data is available (after a fill on a miss).
        """
        # XOR set-index hashing (standard in GPU caches): arrays laid out
        # at power-of-two strides would otherwise collide in one set and
        # thrash a low-associativity cache.
        n_sets = self.n_sets
        tag = line_addr // n_sets
        set_idx = (line_addr ^ tag) % n_sets
        if bank is None:
            bank = line_addr % self.banks
        # Claim the bank's first free cycle at or after ``time`` (one
        # access per bank per cycle); most claims find it free, which
        # needs no calendar walk.
        ti = int(time)
        t = ti if ti == time else ti + 1
        try:
            nf = self._bank_next[bank]
        except KeyError:
            nf = self._bank_next[bank] = {}
        if t in nf:
            start = claim_slot(nf, t)
            self.stats.bank_wait_cycles += start - t
        else:
            nf[t] = t + 1
            start = t
        return self._resolve(float(start), line_addr, set_idx, tag, is_write)

    def _resolve(self, start: float, line_addr: int, set_idx: int, tag: int,
                 is_write: bool) -> float:
        """The hit/miss rule of one access, once its bank is claimed at
        ``start``; return the completion time.

        Reached through :meth:`access` (the L2, the LVC, Fermi's
        coalesced segments) and directly by the dataflow engines' word
        row (:func:`repro.vgiw.mtcgrf.word_row`), which finishes a
        write-back MRU hit itself and calls this for anything else.
        """
        # A hit touches only the set: the MRU way first (consecutive
        # words of one line), then a scan.
        ways = self._sets[set_idx]
        if not ways:
            return self._miss(start, line_addr, set_idx, tag, is_write)
        entry = ways[-1]
        if entry[0] != tag:
            for entry in ways:
                if entry[0] == tag:
                    # Move to the MRU end (tags are unique within a set).
                    ways.remove(entry)
                    ways.append(entry)
                    break
            else:
                return self._miss(start, line_addr, set_idx, tag, is_write)
        if is_write:
            self.stats.write_hits += 1
            if self.write_back:
                entry[1] = True
            elif self.next_level is not None:
                # Write-through: propagate, completion stays local.
                self.next_level.access(start, line_addr, True)
            return start + self.hit_latency
        self.stats.read_hits += 1
        # A "hit" on a line whose fill is still in flight must wait for
        # the data to arrive (MSHR hit).
        pending = self._mshr.get(line_addr)
        if pending is not None and pending > start:
            self.stats.mshr_merges += 1
            return pending
        return start + self.hit_latency

    def _miss(self, start: float, line_addr: int, set_idx: int, tag: int,
              is_write: bool) -> float:
        """The miss paths of :meth:`_resolve`, once the bank is claimed
        at ``start``."""
        if self.tracer is not None:
            self.tracer.instant(
                "miss", self._trace_cat, start, pid="mem", tid=self.name,
                line=line_addr, write=is_write,
            )
        if is_write:
            self.stats.write_misses += 1
            if not self.write_back:
                # Write-no-allocate: forward the write, do not fill.
                if self.next_level is not None:
                    self.next_level.access(start, line_addr, True)
                return start + self.hit_latency
            if self.write_validate:
                # Allocate without fetching (no meaningful old data).
                self._fill(start, line_addr, set_idx, tag, dirty=True)
                return start + self.hit_latency
            # Write-allocate: fetch the line, then dirty it.
            ready = self._miss_fill(start, line_addr, set_idx, tag)
            entry = self._lookup(set_idx, tag)
            if entry is not None:
                entry[1] = True
            return ready

        self.stats.read_misses += 1
        return self._miss_fill(start, line_addr, set_idx, tag)

    def _miss_fill(self, start: float, line_addr: int, set_idx: int,
                   tag: int) -> float:
        pending = self._mshr.get(line_addr)
        if pending is not None and pending > start:
            self.stats.mshr_merges += 1
            return pending
        if self.next_level is not None:
            ready = self.next_level.access(start + self.hit_latency, line_addr, False)
        else:
            ready = start + self.hit_latency
        ready += self.hit_latency
        mshr = self._mshr
        mshr[line_addr] = ready
        heap = self._mshr_heap
        heappush(heap, (ready, line_addr))
        if len(mshr) > 4 * self.banks:
            # Lazy pruning of stale MSHR entries (fill done by ``start``):
            # pop them off the heap, skipping pairs whose line was
            # refilled since.
            while heap and heap[0][0] <= start:
                t, a = heappop(heap)
                if mshr.get(a) == t:
                    del mshr[a]
        if len(heap) > 2 * len(mshr):
            # Refilled lines leave stale pairs behind that a prune at an
            # earlier ``start`` (or no prune at all) never pops: rebuild
            # from the dict to keep the heap bounded.
            heap[:] = [(t, a) for a, t in mshr.items()]
            heapify(heap)
        self._fill(ready, line_addr, set_idx, tag, dirty=False)
        return ready

    # ------------------------------------------------------------------
    def contains(self, line_addr: int) -> bool:
        """Whether ``line_addr`` is resident (no LRU or stats change)."""
        tag = line_addr // self.n_sets
        return self._lookup((line_addr ^ tag) % self.n_sets, tag) is not None
