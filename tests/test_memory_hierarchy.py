"""Tests for the cache/DRAM timing models and the coalescer."""

import pytest

from repro.arch import MemoryConfig
from repro.memory import (
    Cache,
    DRAM,
    LiveValueCache,
    MemorySystem,
    coalesce_word_addresses,
)


def make_l1(next_level=None, write_back=True, banks=4):
    return Cache(
        "L1", size_bytes=4096, line_bytes=128, ways=4, banks=banks,
        hit_latency=8, next_level=next_level, write_back=write_back,
    )


def test_cold_miss_then_hit():
    l1 = make_l1()
    t_miss = l1.access(0.0, line_addr=0, is_write=False)
    t_hit = l1.access(t_miss, line_addr=0, is_write=False)
    assert l1.stats.read_misses == 1
    assert l1.stats.read_hits == 1
    assert t_hit - t_miss == 8  # pure hit latency
    assert t_miss >= 16  # miss costs at least two traversals


def test_miss_latency_includes_next_level():
    dram = DRAM(MemoryConfig())
    l1 = make_l1(next_level=dram)
    t = l1.access(0.0, 0, False)
    assert t >= MemoryConfig().dram_row_miss_latency
    assert dram.stats.reads == 1


def _same_set_lines(cache, target_set, count):
    """Line addresses that map to one set under the XOR set hash."""
    lines = []
    tag = 0
    while len(lines) < count:
        low = target_set ^ (tag % cache.n_sets)
        lines.append(tag * cache.n_sets + low)
        tag += 1
    return lines


def test_lru_eviction():
    l1 = make_l1()  # 4096/128/4 ways = 8 sets
    lines = _same_set_lines(l1, target_set=3, count=5)
    for i, line in enumerate(lines[:4]):
        l1.access(float(i * 100), line, False)
    assert l1.contains(lines[0])
    # A fifth line in the same set evicts the LRU (the first line).
    l1.access(1000.0, lines[4], False)
    assert not l1.contains(lines[0])
    assert l1.contains(lines[4])


def test_writeback_policy_writes_on_eviction():
    dram = DRAM(MemoryConfig())
    l1 = make_l1(next_level=dram, write_back=True)
    lines = _same_set_lines(l1, target_set=2, count=5)
    l1.access(0.0, lines[0], True)  # write-allocate, dirties the line
    assert l1.stats.write_misses == 1
    writes_before = dram.stats.writes
    for i, line in enumerate(lines[1:], start=1):  # evict the dirty line
        l1.access(float(i * 1000), line, False)
    assert l1.stats.writebacks == 1
    assert dram.stats.writes == writes_before + 1


def test_writethrough_policy_propagates_immediately():
    dram = DRAM(MemoryConfig())
    l1 = make_l1(next_level=dram, write_back=False)
    l1.access(0.0, 0, True)
    assert dram.stats.writes == 1
    # Write-no-allocate: the line must not be resident.
    assert not l1.contains(0)
    assert l1.stats.writebacks == 0


def test_mshr_merges_same_line_misses():
    dram = DRAM(MemoryConfig())
    l1 = make_l1(next_level=dram)
    t1 = l1.access(0.0, 0, False)
    t2 = l1.access(1.0, 0, False)  # same line, while fill in flight
    assert t2 == t1
    assert l1.stats.mshr_merges == 1
    assert dram.stats.reads == 1  # only one fill went out


def test_bank_conflicts_serialize():
    l1 = make_l1(banks=1)
    # Warm two lines, both mapping to the single bank.
    l1.access(0.0, 0, False)
    l1.access(100.0, 1, False)
    base = 1000.0
    t_a = l1.access(base, 0, False)
    t_b = l1.access(base, 1, False)  # same cycle, same bank -> +1
    assert t_b == t_a + 1
    assert l1.stats.bank_wait_cycles >= 1


def test_dram_row_buffer_hits_are_faster():
    cfg = MemoryConfig()
    dram = DRAM(cfg)
    t1 = dram.access(0.0, 0, False)          # row miss
    t2 = dram.access(t1, cfg.dram_channels, False)  # same channel? next line same row?
    assert dram.stats.row_misses >= 1
    # Re-access the exact same line: guaranteed row hit.
    t3 = dram.access(t2, 0, False)
    assert dram.stats.row_hits >= 1
    assert t3 - t2 <= cfg.dram_row_miss_latency


def test_dram_channels_run_in_parallel():
    cfg = MemoryConfig()
    dram = DRAM(cfg)
    done = [dram.access(0.0, ch, False) for ch in range(cfg.dram_channels)]
    # All six channels can overlap: completion times cluster near one
    # row-miss latency rather than stacking.
    assert max(done) < cfg.dram_row_miss_latency + cfg.dram_burst_cycles * cfg.dram_channels


def test_memory_system_word_access():
    # The dataflow engines' LDST rows reach the L1 a word at a time,
    # through their timing walks' row helper.
    from repro.vgiw.mtcgrf import word_row

    ms = MemorySystem(MemoryConfig(), l1_write_back=True)
    wrd = word_row(ms)
    out, nf, uw = [], {}, {}
    t1 = wrd(out, 0.0, uw, 0, nf, 8, 0, False)
    t2 = wrd(out, t1, uw, 0, nf, 8, 1, False)  # same 128B line -> L1 hit
    assert ms.l1_stats.read_hits == 1
    assert t2 - t1 == ms.config.l1_hit_latency


def test_coalescer_groups_contiguous_warp():
    # 32 consecutive words = 128 bytes = exactly one transaction.
    assert coalesce_word_addresses(range(32)) == [0]
    # Stride-32 words touch 32 distinct lines.
    assert len(coalesce_word_addresses(range(0, 32 * 32, 32))) == 32
    # Unaligned run straddles two lines.
    assert coalesce_word_addresses(range(16, 48)) == [0, 1]


def test_lvc_counts_accesses_and_uses_l2():
    cfg = MemoryConfig()
    ms = MemorySystem(cfg, l1_write_back=True)
    lvc = LiveValueCache(
        size_bytes=64 * 1024, line_bytes=64, ways=4, banks=16,
        hit_latency=4, l2=ms.l2,
    )
    t = lvc.access(0.0, lv_id=0, tid=0, is_write=True)
    assert lvc.writes == 1
    t2 = lvc.access(t, lv_id=0, tid=1, is_write=False)
    assert lvc.reads == 1
    # Neighbouring threads share an LVC line: the read hits.
    assert lvc.stats.read_hits == 1
    # Distinct live values map to distinct lines: the first read of
    # another live value misses.
    lvc.access(t2, lv_id=1, tid=0, is_write=False)
    assert lvc.stats.read_misses == 1


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        Cache("bad", 1000, 128, 4, 4, 1, None)
