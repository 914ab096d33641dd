"""Assembled memory hierarchies for the three modelled cores.

``MemorySystem`` wires a banked L1 in front of a banked L2 in front of
GDDR5 DRAM (paper §3.6 / Table 1).  The VGIW core additionally owns a
``LiveValueCache`` instance backed by the same L2 (paper §3.4).

The dataflow engines' LDST units reach the L1 one word at a time: their
timing walks' memory-row helper (:func:`repro.vgiw.mtcgrf.word_row`)
maps each word to its line and word-interleaved bank, claims the bank,
finishes a hit on the set's most recently used way of the write-back L1
itself and leaves every other case to the L1's hit/miss rule,
:meth:`~repro.memory.cache.Cache._resolve`.  The Fermi path instead
uses :mod:`repro.memory.coalescer` and calls ``access_line`` once per
coalesced segment, which goes through
:meth:`~repro.memory.cache.Cache.access` like the L2 and the LVC.
VGIW's live-value row helper (:func:`repro.vgiw.mtcgrf.live_row`)
likewise finishes a hit in an LVU's line buffer itself and calls
:meth:`LiveValueCache.cross` at a line crossing.
"""

from __future__ import annotations

from repro.arch.config import MemoryConfig
from repro.memory.cache import Cache, CacheStats
from repro.memory.dram import DRAM
from repro.memory.image import WORD_BYTES


class MemorySystem:
    """L1 + L2 + DRAM with configurable L1 write policy.

    ``faults`` (a :class:`repro.resilience.faults.FaultInjector`) hooks
    the scalar (``l1-word``, in the dataflow engines' word-row helper)
    and coalesced (``l1-line``) access paths: a ``mem_drop`` fault makes
    a response complete ``drop_stall_cycles`` in the future — the timing
    shape of a response that never returns, which the forward-progress
    watchdog then catches as a hang.
    """

    def __init__(self, config: MemoryConfig, l1_write_back: bool,
                 faults=None, tracer=None):
        self.config = config
        self.faults = faults
        # ``tracer`` (a :class:`repro.obs.Tracer`) threads cycle-level
        # observability through every level: L1/L2 misses and DRAM row
        # activations become timeline events.
        self.dram = DRAM(config, tracer=tracer)
        self.l2 = Cache(
            "L2",
            size_bytes=config.l2_size_bytes,
            line_bytes=config.l2_line_bytes,
            ways=config.l2_ways,
            banks=config.l2_banks,
            hit_latency=config.l2_hit_latency,
            next_level=self.dram,
            write_back=True,
            # Every L2 write in this model is a full-line writeback from
            # the L1 or the LVC, so allocating without fetching is exact.
            write_validate=True,
            tracer=tracer,
        )
        self.l1 = Cache(
            "L1",
            size_bytes=config.l1_size_bytes,
            line_bytes=config.l1_line_bytes,
            ways=config.l1_ways,
            banks=config.l1_banks,
            hit_latency=config.l1_hit_latency,
            next_level=self.l2,
            write_back=l1_write_back,
            # Write-back/write-allocate (VGIW, SGMF) allocates store-miss
            # lines without fetching: data-parallel thread vectors fully
            # overwrite output lines, so fetch-on-store would stream
            # garbage (a standard write-validate optimisation).  The
            # Fermi configuration is write-through/no-allocate and never
            # consults this flag on its write path.
            write_validate=l1_write_back,
            tracer=tracer,
        )

    # -- coalesced (Fermi LDST pipeline) --------------------------------
    def access_line(self, time: float, line_addr: int, is_write: bool) -> float:
        """One 128-byte transaction (a coalesced warp segment)."""
        done = self.l1.access(time, line_addr, is_write)
        if self.faults is not None and self.faults.drop_response(
            "l1-line", line_addr, time
        ):
            return done + self.faults.drop_stall_cycles
        return done

    @property
    def l1_stats(self) -> CacheStats:
        """The L1's counters."""
        return self.l1.stats

    @property
    def l2_stats(self) -> CacheStats:
        """The L2's counters (L1 and LVC misses and write-backs)."""
        return self.l2.stats


class LiveValueCache:
    """The VGIW live value cache (paper §3.4).

    Caches the memory-resident live-value matrix, which is indexed by
    ⟨live value ID, thread ID⟩.  Rows are laid out thread-major so that
    consecutive threads' instances of one live value share lines; the
    matrix lives in its own address space (modelled as a distinct line
    namespace on the shared L2, offset far beyond kernel data).

    Each LVU streams the thread vector in ascending-ID order, so it
    holds the line it is working through in a single-entry line buffer
    and only touches an LVC bank when it crosses a line boundary.  This
    is what keeps the *bank-level* LVC access count an order of
    magnitude below a register file's (paper Figure 3); per-word
    requests are still tracked separately for the energy model.
    """

    #: line-address offset separating the live-value matrix from kernel
    #: data in the shared L2 namespace.
    ADDRESS_SPACE_BASE = 1 << 40

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int,
        ways: int,
        banks: int,
        hit_latency: int,
        l2: Cache,
        max_threads: int = 1 << 16,
        tracer=None,
    ):
        self.cache = Cache(
            "LVC",
            size_bytes=size_bytes,
            line_bytes=line_bytes,
            ways=ways,
            banks=banks,
            hit_latency=hit_latency,
            next_level=l2,
            write_back=True,
            write_validate=True,
            tracer=tracer,
        )
        self._cache_access = self.cache.access
        self.line_bytes = line_bytes
        self._banks = banks
        self.max_threads = max_threads
        #: word-granularity requests from the LVUs
        self.reads = 0
        self.writes = 0
        #: requests served out of an LVU's line buffer (no bank access)
        self.buffered = 0
        #: LVU port -> [current line, line ready time, dirty]
        self._ports: dict = {}

    def access(self, time: float, lv_id: int, tid: int, is_write: bool,
               port=None) -> float:
        """One live-value request by ⟨live value ID, thread ID⟩.

        ``port`` identifies the requesting LVU instance; requests that
        fall in the port's current line are served from its line buffer
        in one cycle.  Any other request is a line crossing
        (:meth:`cross`).  The VGIW walks' live-value row helper
        (:func:`repro.vgiw.mtcgrf.live_row`) bumps the same counters,
        finishes a line-buffer hit by this rule itself and calls
        :meth:`cross` for the rest.
        """
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        word = lv_id * self.max_threads + tid
        line = self.ADDRESS_SPACE_BASE + word * WORD_BYTES // self.line_bytes
        if port is not None:
            cur = self._ports.get(port)
            if cur is not None and cur[0] == line:
                self.buffered += 1
                if is_write:
                    cur[2] = True
                ready = cur[1]
                return (time if time > ready else ready) + 1.0
        return self.cross(time, line, word, is_write, port)

    def cross(self, time: float, line: int, word: int, is_write: bool,
              port=None) -> float:
        """A request for word ``word`` of ``line`` that ``port``'s line
        buffer does not hold: a banked LVC access (word-interleaved
        banks — the LVC is accessed at word granularity, paper §3.4),
        after which the port's previous line, if a store dirtied it, is
        flushed to its bank and the buffer holds ``line``.  Returns the
        request's answer cycle."""
        done = self._cache_access(time, line, is_write, word % self._banks)
        if port is not None:
            cur = self._ports.get(port)
            if cur is not None and cur[2]:
                self._cache_access(time, cur[0], True, cur[0] % self._banks)
            self._ports[port] = [line, done, is_write]
        return done

    @property
    def accesses(self) -> int:
        """Word-granularity requests (line-buffer hits included)."""
        return self.reads + self.writes

    @property
    def bank_accesses(self) -> int:
        """Actual banked LVC accesses (the paper Figure 3 count)."""
        return self.cache.stats.accesses

    @property
    def stats(self) -> CacheStats:
        """The LVC banks' counters (line-buffer hits excluded)."""
        return self.cache.stats
