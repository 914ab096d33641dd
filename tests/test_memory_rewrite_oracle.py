"""Differential tests for the memory model's fast paths.

The banked cache's one-frame ``access`` (bank claim, lookup and LRU
touch in line), its heap-pruned MSHR, and the DRAM bank's sorted
parallel lists are exact rewrites.  The reference implementations they
replaced are kept here, verbatim in behaviour: a per-call split / claim
/ touch access, an MSHR pruned by rebuilding its dict, and a bank that
scans one interval list.  Seeded out-of-order request streams drive
both through a whole L1 -> L2 -> DRAM hierarchy, and every returned
time, every statistics field and the surviving MSHR entries must agree
after every request.
"""

import dataclasses
import random

import pytest

import repro.memory.dram as dram_mod
from repro.arch import MemoryConfig
from repro.memory import DRAM, Cache
from repro.memory.calendar import claim_slot


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
class LinearBank:
    """One DRAM bank as a single sorted list of (start, end, row)."""

    def __init__(self):
        self.intervals = []

    def schedule(self, t, row, hit_lat, miss_lat):
        candidate = t
        intervals = self.intervals
        while True:
            prev_row = -1
            for s, e, r in intervals:
                if s <= candidate:
                    prev_row = r
                else:
                    break
            latency = hit_lat if row == prev_row else miss_lat
            end = candidate + latency
            conflict = None
            for s, e, r in intervals:
                if s < end and candidate < e:
                    conflict = e
                    break
            if conflict is None:
                lo = 0
                while lo < len(intervals) and intervals[lo][0] < candidate:
                    lo += 1
                intervals.insert(lo, (candidate, end, row))
                return candidate, end, latency == hit_lat
            candidate = conflict


class ReferenceCache(Cache):
    """A cache whose access splits, claims and touches in helper calls
    and whose MSHR prune rebuilds the dict."""

    prunes = 0

    def _split(self, line_addr):
        set_idx = (line_addr ^ (line_addr // self.n_sets)) % self.n_sets
        tag = line_addr // self.n_sets
        bank = line_addr % self.banks
        return set_idx, tag, bank

    def _bank_start(self, time, bank):
        ti = int(time)
        t = ti if ti == time else ti + 1
        nf = self._bank_next.get(bank)
        if nf is None:
            nf = self._bank_next[bank] = {}
        start = claim_slot(nf, t)
        if start > t:
            self.stats.bank_wait_cycles += start - t
        return float(start)

    def _touch(self, set_idx, entry):
        ways = self._sets[set_idx]
        ways.remove(entry)
        ways.append(entry)

    def access(self, time, line_addr, is_write, bank=None):
        set_idx, tag, default_bank = self._split(line_addr)
        start = self._bank_start(time, default_bank if bank is None else bank)
        entry = self._lookup(set_idx, tag)
        if entry is not None:
            self._touch(set_idx, entry)
            pending = self._mshr.get(line_addr)
            if is_write:
                self.stats.write_hits += 1
                if self.write_back:
                    entry[1] = True
                elif self.next_level is not None:
                    self.next_level.access(start, line_addr, True)
            else:
                self.stats.read_hits += 1
                if pending is not None and pending > start:
                    self.stats.mshr_merges += 1
                    return pending
            return start + self.hit_latency
        if is_write:
            self.stats.write_misses += 1
            if not self.write_back:
                if self.next_level is not None:
                    self.next_level.access(start, line_addr, True)
                return start + self.hit_latency
            if self.write_validate:
                self._fill(start, line_addr, set_idx, tag, dirty=True)
                return start + self.hit_latency
            ready = self._miss_fill(start, line_addr, set_idx, tag)
            entry = self._lookup(set_idx, tag)
            if entry is not None:
                entry[1] = True
            return ready
        self.stats.read_misses += 1
        return self._miss_fill(start, line_addr, set_idx, tag)

    def _miss_fill(self, start, line_addr, set_idx, tag):
        pending = self._mshr.get(line_addr)
        if pending is not None and pending > start:
            self.stats.mshr_merges += 1
            return pending
        if self.next_level is not None:
            ready = self.next_level.access(start + self.hit_latency,
                                           line_addr, False)
        else:
            ready = start + self.hit_latency
        ready += self.hit_latency
        self._mshr[line_addr] = ready
        if len(self._mshr) > 4 * self.banks:
            self.prunes += 1
            self._mshr = {a: t for a, t in self._mshr.items() if t > start}
        self._fill(ready, line_addr, set_idx, tag, dirty=False)
        return ready


# ----------------------------------------------------------------------
# Hierarchy and request streams
# ----------------------------------------------------------------------
def _hierarchy(cache_cls, l1_write_back):
    cfg = MemoryConfig()
    dram = DRAM(cfg)
    l2 = cache_cls("L2", size_bytes=8192, line_bytes=128, ways=4, banks=3,
                   hit_latency=20, next_level=dram, write_back=True,
                   write_validate=True)
    l1 = cache_cls("L1", size_bytes=2048, line_bytes=128, ways=2, banks=4,
                   hit_latency=8, next_level=l2, write_back=l1_write_back,
                   write_validate=l1_write_back)
    return l1, l2, dram


def _stream(seed, n=1500):
    """Requests ``(time, line, is_write, bank)`` whose times wander back
    and forth around a rising clock, repeat exactly, and land in bursts
    of distinct lines (more than ``4 * banks`` fills in flight)."""
    rng = random.Random(seed)
    cfg = MemoryConfig()
    # Lines of one DRAM row sit ``dram_channels`` apart; 4 rows x 8
    # lines give row hits, and the far lines give row misses.
    row_lines = [r * cfg.dram_channels * cfg.dram_banks_per_channel * 16
                 + k * cfg.dram_channels for r in range(4) for k in range(8)]
    out = []
    clock = 0.0
    t = 0.0
    for _ in range(n):
        kind = rng.random()
        if kind < 0.1:
            pass  # equal timestamp: reuse the last time
        elif kind < 0.25:
            t = max(0.0, clock - rng.uniform(0, 400))  # far in the past
        else:
            clock += rng.choice((0.0, 0.5, 1.0, 3.0, 17.25))
            t = clock + rng.uniform(-30, 30)
            t = max(0.0, t if rng.random() < 0.5 else float(int(t)))
        pick = rng.random()
        if pick < 0.4:
            line = rng.choice(row_lines)
        elif pick < 0.7:
            line = rng.randrange(4096)  # cold, scattered
        else:
            line = rng.randrange(64)  # hot, re-missed after eviction
        bank = rng.randrange(8) if rng.random() < 0.3 else None
        out.append((t, line, rng.random() < 0.3, bank))
    return out


def _state(l1, l2, dram):
    return (
        dataclasses.asdict(l1.stats), dataclasses.asdict(l2.stats),
        dataclasses.asdict(dram.stats), dict(l1._mshr), dict(l2._mshr),
    )


def _replay(cache_cls, l1_write_back, stream):
    l1, l2, dram = _hierarchy(cache_cls, l1_write_back)
    trail = []
    for t, line, is_write, bank in stream:
        done = l1.access(t, line, is_write, bank)
        trail.append((done, _state(l1, l2, dram)))
    banks = {k: b.intervals for k, b in dram._banks.items()}
    return trail, banks, (l1, l2)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("l1_write_back", [True, False])
def test_hierarchy_matches_the_reference_request_by_request(
        monkeypatch, seed, l1_write_back):
    stream = _stream(seed)
    with monkeypatch.context() as m:
        m.setattr(dram_mod, "_Bank", LinearBank)
        want, want_banks, (ref_l1, ref_l2) = _replay(
            ReferenceCache, l1_write_back, stream
        )
    got, got_banks, _ = _replay(Cache, l1_write_back, stream)
    for i, (w, g) in enumerate(zip(want, got)):
        assert g == w, f"request {i} {stream[i]} diverged"
    assert len(got) == len(stream)
    assert got_banks == want_banks
    # The stream exercises what the rewrites replaced.
    final = want[-1][1]
    assert ref_l1.prunes + ref_l2.prunes > 0
    assert final[2]["row_hits"] > 0 and final[2]["row_misses"] > 0
    assert final[0]["bank_wait_cycles"] > 0
    assert final[0]["mshr_merges"] + final[1]["mshr_merges"] > 0


@pytest.mark.parametrize("seed", range(6))
def test_dram_bank_matches_the_linear_scan(seed):
    rng = random.Random(seed)
    new, old = dram_mod._Bank(), LinearBank()
    for _ in range(600):
        t = float(rng.randrange(0, 3000)) + rng.choice((0.0, 0.5))
        row = rng.randrange(3)
        # Positive latencies only: a zero-length access would break the
        # disjointness the sorted lists rely on (no configuration has one).
        hit_lat, miss_lat = rng.choice(((100, 200), (7, 7), (1, 5)))
        assert (new.schedule(t, row, hit_lat, miss_lat)
                == old.schedule(t, row, hit_lat, miss_lat))
    assert new.intervals == old.intervals


def test_mshr_heap_stays_bounded_when_the_prune_never_fires():
    # One set, one way: two lines evict each other, so every access
    # misses and refills a line whose earlier fill is long done.  The
    # MSHR dict never exceeds 4 * banks entries, so it is never pruned.
    cache = Cache("L1", size_bytes=128, line_bytes=128, ways=1, banks=1,
                  hit_latency=8, next_level=None)
    t = 0.0
    for i in range(2000):
        t = cache.access(t, i % 2, False) + 1.0
        assert len(cache._mshr) <= 2
        assert len(cache._mshr_heap) <= 2 * len(cache._mshr)
    assert cache.stats.read_misses == 2000
    # Every live entry keeps its pair on the heap.
    assert ({(ready, line) for line, ready in cache._mshr.items()}
            <= set(cache._mshr_heap))
