"""Detail tests for the DRAM bank/channel calendars."""

from repro.arch import MemoryConfig
from repro.memory import DRAM


def test_same_bank_back_to_back_serialises():
    cfg = MemoryConfig()
    dram = DRAM(cfg)
    lines_per_cycle = cfg.dram_channels * cfg.dram_banks_per_channel
    same_bank_stride = lines_per_cycle  # same channel & bank, next row set
    t1 = dram.access(0.0, 0, False)
    t2 = dram.access(0.0, 0, False)  # identical line: bank busy
    assert t2 > t1


def test_row_hit_faster_than_miss():
    cfg = MemoryConfig()
    dram = DRAM(cfg)
    first = dram.access(0.0, 0, False)           # opens the row (miss)
    second = dram.access(first, 0, False)        # same row: hit
    assert (second - first) == cfg.dram_row_hit_latency + 0 or \
           (second - first) <= cfg.dram_row_miss_latency
    assert dram.stats.row_hits >= 1
    assert dram.stats.row_misses >= 1


def test_out_of_order_backfill():
    cfg = MemoryConfig()
    dram = DRAM(cfg)
    # A request recorded far in the future must not block one in the past
    # on a *different* bank/channel.
    late = dram.access(10_000.0, 0, False)
    early = dram.access(0.0, 1, False)  # different channel
    assert early < late


def test_writes_counted():
    dram = DRAM(MemoryConfig())
    dram.access(0.0, 0, True)
    dram.access(0.0, 1, False)
    assert dram.stats.writes == 1
    assert dram.stats.reads == 1
    assert dram.stats.accesses == 2


def test_bank_intervals_sorted():
    dram = DRAM(MemoryConfig())
    for t in (50.0, 0.0, 100.0, 25.0):
        dram.access(t, 0, False)  # all to one bank
    for bank in dram._banks.values():
        starts = [s for s, _, _ in bank.intervals]
        assert starts == sorted(starts)
