"""Bounds on the generated timing-walk code: only replicas that receive
threads get a plan and a walk, replicas of one block shape share one
``compile()`` and one code object (from a bounded memo that outlives
each run), every compiled walk has its own code filename, and
``enter(rep)`` binds a walk to its replica's state once, as argument
defaults of one flat function, looking the state up in the order hang
snapshots list it.  The emitted source is bounded per row
(one statement per simple ALU row, one helper call per memory row) and
in total.  The loops that drive the walks make only modelling calls: a
batched SGMF visit is one walk call, a VGIW packet thread makes one
call, its walk, and a Fermi warp memory instruction makes no per-lane
call."""

import ast
import collections
import heapq
import math
import random
import sys

import numpy as np
import pytest

import repro.vgiw.mtcgrf as mtcgrf
from repro.compiler import compile_kernel
from repro.kernels import saxpy_kernel
from repro.memory import MemoryImage
from repro.memory.calendar import claim_slot
from repro.sgmf import SGMFCore
from repro.vgiw import VGIWCore

BODY = "then.1"  # saxpy's replicated body block


def _saxpy(n, pad=0):
    """saxpy's memory and parameters; ``pad`` words ahead of the arrays
    move them off line boundaries."""
    mem = MemoryImage(4 * n + 8 + pad)
    if pad:
        mem.alloc("pad", pad)
    params = {
        "a": 2.0,
        "x": mem.alloc_array("x", np.arange(n, dtype=float)),
        "y": mem.alloc_array("y", np.ones(n)),
        "out": mem.alloc("out", n),
        "n": n,
    }
    return mem, params


@pytest.fixture
def codegen(monkeypatch):
    """Record every plan built and every timing walk compiled, starting
    from an empty walk-code memo."""
    seen = {"plans": [], "compiles": []}
    monkeypatch.setattr(mtcgrf, "_walk_codes", collections.OrderedDict())
    build, real_compile = mtcgrf.build_exec_plan, compile

    def recording_build(dfg, *args, **kwargs):
        plan = build(dfg, *args, **kwargs)
        seen["plans"].append(plan)
        return plan

    def recording_compile(source, filename, mode):
        seen["compiles"].append(filename)
        return real_compile(source, filename, mode)

    monkeypatch.setattr(mtcgrf, "build_exec_plan", recording_build)
    monkeypatch.setattr(mtcgrf, "compile", recording_compile, raising=False)
    return seen


def _block_of(filename):
    return filename[len("<timing:"):].split("#")[0]


@pytest.mark.parametrize("n", [5, 64])
def test_small_vector_builds_one_plan_and_one_walk_per_block(codegen, n):
    assert compile_kernel(saxpy_kernel()).blocks[BODY].n_replicas >= 2
    mem, params = _saxpy(n)
    VGIWCore().run(saxpy_kernel(), mem, params, n)
    np.testing.assert_allclose(mem.read_region("out"),
                               2.0 * np.arange(n) + 1.0)
    per_block = collections.Counter(p.block_name for p in codegen["plans"])
    assert per_block[BODY] == 1
    assert set(per_block.values()) == {1}
    walks = collections.Counter(map(_block_of, codegen["compiles"]))
    assert walks[BODY] == 1
    assert set(walks.values()) == {1}


def test_replicas_of_one_block_share_one_compile(codegen):
    n_rep = compile_kernel(saxpy_kernel()).blocks[BODY].n_replicas
    n = 64 * n_rep
    mem, params = _saxpy(n)
    VGIWCore().run(saxpy_kernel(), mem, params, n)
    plans = [p for p in codegen["plans"] if p.block_name == BODY]
    assert len(plans) == n_rep
    # One shape, one compile; each replica binds its own units and hops.
    assert [_block_of(f) for f in codegen["compiles"]].count(BODY) == 1
    # ``timing_fn`` is ``enter(rep)``; the walk it returns is one flat
    # function that reads the replica's state, units and hops from its
    # argument defaults.
    walks = [p.timing_fn(mtcgrf._ReplicaState()) for p in plans]
    code = walks[0].__code__
    for w in walks:
        assert w.__code__ is code
        assert w.__closure__ is None
        assert w.__globals__ is walks[0].__globals__
        assert w.__name__ == "__timing"
        assert w.__kwdefaults__ is None
    assert not code.co_freevars
    assert not any(isinstance(c, type(code)) for c in code.co_consts)
    params = code.co_varnames[:code.co_argcount]
    bound = params[-len(walks[0].__defaults__):]
    assert bound[0] == "uw"
    assert any(name.startswith("h") for name in bound)
    assert len({
        tuple(v for name, v in zip(bound, w.__defaults__)
              if name.startswith(("u", "h")) and name != "uw")
        for w in walks
    }) == n_rep


def test_sgmf_replicas_share_one_compile_per_block(codegen):
    n = 16
    mem, params = _saxpy(n)
    res = SGMFCore().run(saxpy_kernel(), mem, params, n)
    assert res.n_replicas >= 2
    walks = collections.Counter(map(_block_of, codegen["compiles"]))
    assert walks and set(walks.values()) == {1}


def test_compiled_walks_have_distinct_filenames(codegen):
    def run():
        mem, params = _saxpy(8)
        VGIWCore().run(saxpy_kernel(), mem, params, 8)
        return [f for f in codegen["compiles"] if _block_of(f) == BODY]

    run()
    assert len(run()) == 1  # the second run finds the first run's code
    mtcgrf._walk_codes.clear()
    body = run()
    assert len(body) == 2
    assert len(set(body)) == 2
    assert all(f.startswith("<timing:") for f in body)
    plans = [p for p in codegen["plans"] if p.block_name == BODY]
    assert ({p.timing_fn(mtcgrf._ReplicaState()).__code__.co_filename
             for p in plans} == set(body))


# ----------------------------------------------------------------------
# The emitted walk: one issue rule, one statement per simple row
# ----------------------------------------------------------------------
def _old_issue(nf, ready, uw, uid):
    """The claim the walks emitted in line before :func:`claim_issue`:
    ``claim_slot`` on the ceiling, the wait added when the slot moved."""
    q = math.ceil(ready)
    s = claim_slot(nf, q)
    if s != q:
        uw[uid] = uw.get(uid, 0.0) + (s - q)
    return s


def _old_wait(out, ready, uw, uid):
    old = heapq.heappop(out)
    if old > ready:
        uw[uid] = uw.get(uid, 0.0) + (old - ready)
        ready = old
    return ready


@pytest.mark.parametrize("seed", range(4))
def test_claim_issue_matches_claim_slot_and_old_accounting(seed):
    rng = random.Random(seed)
    got_nf, want_nf = {}, {}
    got_uw, want_uw = {}, {}
    contended = free = 0
    for _ in range(3000):
        uid = rng.randrange(5)
        # Crowded units are mostly contended, sparse ones mostly free;
        # ready times are integral or not, as in the walks.
        span = 40 if uid < 2 else 4000
        ready = rng.uniform(0, span)
        if rng.random() < 0.5:
            ready = float(round(ready))
        before = dict(want_uw)
        want = _old_issue(want_nf.setdefault(uid, {}), ready, want_uw, uid)
        got = mtcgrf.claim_issue(got_nf.setdefault(uid, {}), ready, got_uw,
                                 uid)
        assert got == want and type(got) is type(want)
        if want_uw != before:
            contended += 1
        else:
            free += 1
        assert got_uw == want_uw
    assert got_nf == want_nf
    assert list(got_uw) == list(want_uw)  # insertion order too
    assert contended > 300 and free > 300


def _row_helpers(l1_write_back=True):
    """Both memory-row helpers, bound to a fresh hierarchy with an LVC."""
    from repro.arch import MemoryConfig
    from repro.memory import LiveValueCache, MemorySystem

    ms = MemorySystem(MemoryConfig(), l1_write_back=l1_write_back)
    lvc = LiveValueCache(size_bytes=64 * 1024, line_bytes=64, ways=4,
                         banks=16, hit_latency=4, l2=ms.l2)
    return ms, lvc, mtcgrf.word_row(ms), mtcgrf.live_row(lvc)


def _replay_rows(requests, l1_write_back=True):
    """Drive the row helpers and, beside them, the rule they replace
    (the reservation-buffer wait and the issue claim the walks once did
    in line, then ``Cache.access`` or ``LiveValueCache.access``) with
    ``requests`` of ``(kind, ready, is_write, addr, tid)``.  Every
    return, and after each request the L1's sets and MSHR and both
    caches' counters, must agree; the reservation buffers, calendars
    and stall totals must agree at the end.  Returns the reference's
    counts: full-buffer waits (``waited``), the L1 word requests by how
    the access found its line (``mru``, ``scan`` or ``miss``), the MRU
    read hits that merged into an in-flight fill (``mru_merge``), the
    line-buffer hits (``buffered``) and the L1's dirty evictions
    (``writebacks``)."""
    got_ms, got_lvc, wrd, lvr = _row_helpers(l1_write_back)
    want_ms, want_lvc, _, _ = _row_helpers(l1_write_back)
    got_l1, l1 = got_ms.l1, want_ms.l1
    line_words = l1.line_bytes // 4
    got = {"wrd": ([], {}, {}), "lvr": ([], {}, {})}  # out, nf, uw
    want = {"wrd": ([], {}, {}), "lvr": ([], {}, {})}
    counts = collections.Counter()
    for i, (kind, ready, is_write, addr, tid) in enumerate(requests):
        out, nf, uw = got[kind]
        if kind == "wrd":
            g = wrd(out, ready, uw, 3, nf, 4, addr, is_write)
        else:
            g = lvr(out, ready, uw, 3, nf, 4, addr % 8, tid, is_write)
        out, nf, uw = want[kind]
        if len(out) >= 4:
            counts["waited"] += out[0] > ready
            ready = _old_wait(out, ready, uw, 3)
        s = float(_old_issue(nf, ready, uw, 3))
        if kind == "wrd":
            line = addr // line_words
            tag = line // l1.n_sets
            ways = l1._sets[(line ^ tag) % l1.n_sets] or []
            found = ("mru" if ways and ways[-1][0] == tag
                     else "scan" if any(e[0] == tag for e in ways)
                     else "miss")
            counts[found] += 1
            merges = l1.stats.mshr_merges
            w = l1.access(s, line, is_write, addr % l1.banks)
            if found == "mru" and l1.stats.mshr_merges > merges:
                counts["mru_merge"] += 1
        else:
            word = addr % 8 * want_lvc.max_threads + tid
            line = (want_lvc.ADDRESS_SPACE_BASE
                    + word * 4 // want_lvc.line_bytes)
            cur = want_lvc._ports.get(3)
            counts["lv_flushes"] += bool(cur and cur[2] and cur[0] != line)
            w = want_lvc.access(s, addr % 8, tid, is_write, 3)
        heapq.heappush(out, w)
        assert g == w and type(g) is type(w), f"request {i}"
        assert got_lvc._ports == want_lvc._ports, f"request {i}"
        assert got_l1._sets == l1._sets, f"request {i}"
        assert got_l1._mshr == l1._mshr, f"request {i}"
        assert got_l1.stats == l1.stats, f"request {i}"
        assert got_ms.l2.stats == want_ms.l2.stats, f"request {i}"
    assert got == want
    assert got_l1._bank_next == l1._bank_next
    assert got_lvc.stats == want_lvc.stats
    assert (got_lvc.reads, got_lvc.writes, got_lvc.buffered) == (
        want_lvc.reads, want_lvc.writes, want_lvc.buffered)
    counts["buffered"] = want_lvc.buffered
    counts["writebacks"] = l1.stats.writebacks
    return counts


@pytest.mark.parametrize("seed", range(2))
def test_wait_entry_matches_old_accounting(seed):
    # Both memory-row helpers wait for the oldest reservation-buffer
    # entry when the buffer is full, then claim the issue cycle, as the
    # walks once did in line, before their access.
    rng = random.Random(seed)
    requests = []
    for _ in range(1000):
        kind = rng.choice(("wrd", "lvr"))
        ready = rng.uniform(0, 500)
        if rng.random() < 0.5:
            ready = float(round(ready))
        is_write = rng.random() < 0.3
        addr, tid = rng.randrange(4096), rng.randrange(256)
        requests.append((kind, ready, is_write, addr, tid))
    counts = _replay_rows(requests)
    assert counts["waited"] > 100
    assert counts["buffered"] > 0


def _word_runs(seed, n=2500):
    """LOAD/STORE row requests ``(kind, ready, is_write, addr, tid)`` as
    a thread vector makes them: runs of consecutive words (consecutive
    threads) at rising, wandering ready times, each run all loads or
    all stores.  A third of the runs start in one crowded L1 set of
    eight lines, which then hit on other ways, miss, and evict lines
    that stores dirtied."""
    rng = random.Random(seed)
    n_sets, line_words = 128, 32  # MemoryConfig's L1
    crowded = [(k * n_sets + (5 ^ k)) * line_words for k in range(8)]
    requests = []
    clock = 0.0
    while len(requests) < n:
        is_write = rng.random() < 0.35
        if rng.random() < 0.35:
            addr = rng.choice(crowded) + rng.randrange(line_words)
        else:
            addr = rng.randrange(1 << 16)
        for addr in range(addr, addr + rng.randrange(1, 48)):
            clock += rng.choice((0.0, 0.5, 1.0, 1.0, 3.0))
            ready = max(0.0, clock + rng.choice((0.0, -rng.uniform(0, 40))))
            if rng.random() < 0.5:
                ready = float(round(ready))
            requests.append(("wrd", ready, is_write, addr, 0))
        clock += rng.choice((0.0, 30.0, 400.0))
    return requests


@pytest.mark.parametrize("l1_write_back", [True, False])
@pytest.mark.parametrize("seed", range(2))
def test_word_row_matches_cache_access_on_word_runs(seed, l1_write_back):
    # ``wrd`` times a write-back MRU hit in its own frame and sends the
    # rest to ``Cache._resolve``; ``Cache.access`` with the word's bank
    # is the reference for both.  The stream reaches every case the
    # fast path decides: MRU hits (reads that merge into an in-flight
    # fill, and stores that dirty the line), hits on other ways, misses
    # and dirty evictions.
    counts = _replay_rows(_word_runs(seed), l1_write_back)
    assert counts["mru"] > 0 and counts["scan"] > 0 and counts["miss"] > 0
    assert counts["mru_merge"] > 0
    assert counts["waited"] > 0
    assert (counts["writebacks"] > 0) == l1_write_back


def _live_runs(seed, n=2500):
    """Live-value row requests ``(kind, ready, is_write, addr, tid)`` as
    an LVU streams a thread vector: runs of consecutive thread IDs of
    one live value (``addr``) on one port, at rising, wandering ready
    times.  A run is all loads, all stores or mixed, so stores dirty
    lines the buffer fetched clean and most runs cross lines, flushing
    the dirty buffer."""
    rng = random.Random(seed)
    requests = []
    clock = 0.0
    while len(requests) < n:
        lv_id = rng.randrange(8)
        p_write = rng.choice((0.0, 0.3, 1.0))
        start = rng.randrange(256)
        for tid in range(start, start + rng.randrange(1, 64)):
            clock += rng.choice((0.0, 0.5, 1.0, 1.0, 3.0))
            ready = max(0.0, clock + rng.choice((0.0, -rng.uniform(0, 20))))
            if rng.random() < 0.5:
                ready = float(round(ready))
            requests.append(("lvr", ready, rng.random() < p_write, lv_id,
                             tid))
        clock += rng.choice((0.0, 30.0, 400.0))
    return requests


@pytest.mark.parametrize("seed", range(2))
def test_live_row_matches_lvc_access_on_thread_runs(seed):
    # ``lvr`` finishes a line-buffer hit in its own frame and sends a
    # line crossing to ``LiveValueCache.cross``; ``LiveValueCache.access``
    # is the reference for both.  The stream reaches buffered loads and
    # stores, crossings and the flush of a buffer a store dirtied.
    counts = _replay_rows(_live_runs(seed))
    assert counts["buffered"] > 0
    assert counts["lv_flushes"] > 0
    assert counts["waited"] > 0


def _python_calls(fn, *args):
    """``fn(*args)`` and the code objects of the Python frames it ran."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_memory_row_hits_cost_one_frame():
    # Behind a full reservation buffer: an L1 hit of a LOAD row on its
    # set's MRU way is the row helper alone, a hit on another way adds
    # the cache's hit rule, and a line-buffer hit of a live-value row
    # is the row helper alone.
    from repro.memory import Cache, LiveValueCache

    ms, lvc, wrd, lvr = _row_helpers()
    l1 = ms.l1
    line_words = l1.line_bytes // 4
    other = (l1.n_sets + 1) * line_words  # line n_sets + 1: line 0's set
    out, nf, uw = [], {}, {}
    t = wrd(out, 0.0, uw, 5, nf, 1, 0, False)  # miss, fills the line
    t, calls = _python_calls(wrd, out, t, uw, 5, nf, 1, 1, False)
    assert l1.stats.read_hits == 1
    assert calls == [wrd.__code__]

    t = wrd(out, t, uw, 5, nf, 1, other, False)  # miss, now the MRU way
    t, calls = _python_calls(wrd, out, t, uw, 5, nf, 1, 2, False)
    assert (l1.stats.read_hits, l1.stats.read_misses) == (2, 2)
    assert calls == [wrd.__code__, Cache._resolve.__code__]

    out, nf = [], {}
    t = lvr(out, 0.0, uw, 7, nf, 1, 0, 0, True)
    t, calls = _python_calls(lvr, out, t, uw, 7, nf, 1, 0, 1, False)
    assert lvc.buffered == 1
    assert calls == [lvr.__code__]
    # A line crossing adds the LVC's crossing rule, and nothing else.
    t, calls = _python_calls(lvr, out, t, uw, 7, nf, 1, 0, 64, False)
    assert lvc.buffered == 1
    assert calls[:2] == [lvr.__code__, LiveValueCache.cross.__code__]
    assert LiveValueCache.access.__code__ not in calls


def _calls_from(caller, fn, *args):
    """Counts of the Python calls made directly by frames of the code
    object ``caller`` while ``fn(*args)`` runs, by callee code object
    (every compiled timing walk counted under ``"walk"``)."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_back.f_code is caller:
            code = frame.f_code
            counts["walk" if code.co_filename.startswith("<timing:")
                   else code] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts


def _saxpy_calls(caller, core, n):
    mem, params = _saxpy(n)
    return _calls_from(caller, core.run, saxpy_kernel(), mem, params, n)


def test_batched_sgmf_visit_is_one_walk_call():
    # Each thread adds its admission, waste pass and retirement, and
    # each of its three block visits exactly one call: its walk (the
    # walk's row helpers are its own callees).
    run = SGMFCore.run.__code__
    small = _saxpy_calls(run, SGMFCore(), 64)
    large = _saxpy_calls(run, SGMFCore(), 200)
    assert large - small == collections.Counter({
        "walk": 3 * 136,
        mtcgrf._ReplicaState.admit.__code__: 136,
        mtcgrf._ReplicaState.retire.__code__: 136,
        SGMFCore._waste_pass.__code__: 136,
    })
    assert small["walk"] == 3 * 64


def test_vgiw_packet_thread_makes_one_walk_call():
    # A batched vector makes one call per 64-thread packet, its
    # replica's ``stream_packet``, and each packet thread one call, its
    # walk: admission and retirement run in line, with no admit, retire
    # or outcome frame.
    block = mtcgrf.MTCGRFExecutor.execute_block.__code__
    packet = mtcgrf._ReplicaState.stream_packet.__code__
    for n in (64, 200):
        assert _saxpy_calls(packet, VGIWCore(), n) == collections.Counter(
            {"walk": 3 * n})
        calls = _saxpy_calls(block, VGIWCore(), n)
        assert calls[packet] == 3 * -(-n // 64)
        assert "walk" not in calls
        assert mtcgrf._ReplicaState.admit.__code__ not in calls
        assert mtcgrf._ReplicaState.retire.__code__ not in calls


def test_fermi_memory_instruction_makes_no_per_lane_call():
    # A warp LOAD's Python calls do not depend on its active lanes, and
    # the SM coalesces straight from the warp's addresses.
    from repro.arch.config import FermiConfig
    from repro.ir import DType, Instr, Op, Reg
    from repro.memory import CacheStats
    from repro.memory.coalescer import coalesce_word_addresses
    from repro.memory.hierarchy import MemorySystem
    from repro.simt import FermiSM, Warp

    mem = MemoryImage(64)
    warp = Warp(0, 0, 32, 32, {}, mem)
    load = Instr(Op.LOAD, "v", (Reg("tid"),), DType.FLOAT)
    seen = {}
    for mask in (0xFF, 0xFFFF, 0xFF, 0xFFFF):  # the second pair is warm
        addrs, calls = _python_calls(warp.exec_instr, load, mask)
        assert addrs == list(range(mask.bit_length()))
        seen[mask] = calls
    assert seen[0xFF] == seen[0xFFFF]

    dispatch = FermiSM._dispatch.__code__
    mem, params = _saxpy(64, pad=3)  # two segments per warp access
    calls = _calls_from(dispatch, FermiSM().run, saxpy_kernel(), mem,
                        params, 64)
    assert set(calls) <= {
        Warp.exec_prepared.__code__,
        coalesce_word_addresses.__code__,
        FermiConfig.ldst_throughput_cycles.fget.__code__,
        # per coalesced segment
        MemorySystem.access_line.__code__,
        FermiSM._miss_penalty.__code__,
    }
    assert calls[coalesce_word_addresses.__code__] == 6  # 3 per warp
    assert calls[MemorySystem.access_line.__code__] == 12
    # The pipe's throughput is read once per memory instruction.
    assert calls[FermiConfig.ldst_throughput_cycles.fget.__code__] == 6
    # A miss is seen on the access kind's own counter, never through
    # the summed ``misses`` property.
    assert calls[CacheStats.misses.fget.__code__] == 0


def test_replica_issue_uses_the_walks_rule():
    # Two threads visit only the entry block; each then pumps one
    # predicated token through every unit of the blocks it never
    # reached, at its mid-flight cycle, in plan order.
    from types import SimpleNamespace

    plans = {"entry": object(), "a": object(), "b": object()}
    waste = {"entry": [1, 2], "a": [7, 3, 7], "b": [3, 9, 9]}
    kernel = SimpleNamespace(entry="entry", name="k")
    rep = mtcgrf._ReplicaState()
    fires = {}
    for inject, done in ((4.0, 20.0), (5.0, 12.5)):
        def visit(plan, entry_time, rr, done=done):
            return done, done - 1.0, None

        assert SGMFCore()._walk_thread(kernel, plans, waste, rep, 0,
                                       inject, visit, fires, None, None,
                                       10) == done
    want_nf, want_uw = {}, {}
    for waste_time in (12.0, 8.75):
        for uid in (7, 3, 7, 3, 9, 9):
            mtcgrf.claim_issue(want_nf.setdefault(uid, {}), waste_time,
                               want_uw, uid)
    assert rep.unit_next == want_nf
    assert list(rep.unit_next) == [7, 3, 9]  # insertion order too
    assert rep.unit_wait == want_uw
    assert list(rep.unit_wait) == list(want_uw)
    assert rep.unit_wait == {7: 2.0, 3: 2.0, 9: 2.0}
    assert fires == {plans["entry"]: [2, 0], plans["a"]: [0, 2],
                     plans["b"]: [0, 2]}


def _walk_source(plan, sgmf=False):
    """The source ``compile_timing`` emits for ``plan``: the memo's most
    recently used entry afterwards, whether it compiled or hit."""
    mtcgrf.compile_timing(plan, 8, 2, sgmf)
    return next(reversed(mtcgrf._walk_codes))


def test_walk_code_memo_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(mtcgrf, "_walk_codes", collections.OrderedDict())
    monkeypatch.setattr(mtcgrf, "WALK_CODE_ENTRIES", 2)
    sources = [f"def __timing(x):\n    return x + {k}" for k in range(3)]
    a = mtcgrf.walk_code(sources[0], "a")
    b = mtcgrf.walk_code(sources[1], "b")
    assert mtcgrf.walk_code(sources[0], "other") is a  # a hit, refreshed
    assert a.co_filename.startswith("<timing:a#")
    mtcgrf.walk_code(sources[2], "c")  # evicts b, the least recent
    assert list(mtcgrf._walk_codes) == [sources[0], sources[2]]
    assert mtcgrf.walk_code(sources[1], "b") is not b


def _timing_body(source):
    (timing,) = ast.parse(source).body
    assert isinstance(timing, ast.FunctionDef)
    assert not any(isinstance(x, (ast.FunctionDef, ast.Lambda))
                   for x in ast.walk(timing) if x is not timing)
    return timing.body


def _row_statements(body, n):
    """The walk statements of row ``n``: those naming its calendar, unit
    or hops, or assigning its done time ``d{n}``."""
    own = {f"nf{n}", f"u{n}"}

    def mine(name):
        return name in own or name.startswith(f"h{n}_")

    return [s for s in body
            if any(isinstance(x, ast.Name) and mine(x.id)
                   for x in ast.walk(s))
            or (isinstance(s, ast.Assign)
                and ast.unparse(s.targets[0]) == f"d{n}")]


def test_single_input_alu_row_is_one_statement(codegen):
    mem, params = _saxpy(8)
    VGIWCore().run(saxpy_kernel(), mem, params, 8)
    (plan,) = [p for p in codegen["plans"] if p.block_name == BODY]
    rows = [row for row in plan.rows
            if row[0] == mtcgrf.T_OP and len(row[3]) == 1]
    assert rows
    body = _timing_body(_walk_source(plan))
    for row in rows:
        n = row[1]
        ((up, _),) = row[3]
        (stmt,) = _row_statements(body, n)
        assert ast.unparse(stmt) == (
            f"d{n} = iss(nf{n}, d{up} + h{n}_0, uw, u{n})"
            f" + {float(row[4])!r}")


def test_memory_row_is_one_helper_call(codegen):
    # A LOAD or STORE row passes the helper its state, its ready time
    # and its address; the helper is bound to the run's hierarchy.
    mem, params = _saxpy(8)
    VGIWCore().run(saxpy_kernel(), mem, params, 8)
    (plan,) = [p for p in codegen["plans"] if p.block_name == BODY]
    rows = [(ri, row) for ri, row in enumerate(plan.rows)
            if row[0] in (mtcgrf.T_LOAD, mtcgrf.T_STORE)]
    assert len(rows) == 3
    body = _timing_body(_walk_source(plan))
    for ri, row in rows:
        n = row[1]
        # A row with two inputs starts at ``r``, their later arrival.
        ready = f"d{row[3][0][0]} + h{n}_0" if len(row[3]) == 1 else "r"
        (stmt,) = [s for s in _row_statements(body, n)
                   if ast.unparse(s).startswith(f"d{n} = ")]
        assert ast.unparse(stmt) == (
            f"d{n} = wrd(out{n}, {ready}, uw, u{n}, nf{n}, 8,"
            f" alists[{ri}][ti], {row[0] == mtcgrf.T_STORE})")


@pytest.fixture(scope="module")
def table2_plans():
    """Every VGIW replica plan and SGMF plan of the 21 Table 2 kernels at
    ``tiny``, optimised as the sweep optimises them: ``(sgmf, plan)``."""
    from repro.arch.config import SGMFConfig, VGIWConfig
    from repro.compiler.optimize import optimize_variants
    from repro.kernels.registry import all_names, make_workload
    from repro.sgmf.mapping import SGMFUnmappableError, map_kernel

    vgiw_lat, sgmf_lat = VGIWConfig().op_latency, SGMFConfig().op_latency
    names = all_names()
    assert len(names) == 21
    plans = []
    for name in names:
        w = make_workload(name, "tiny")
        k, rolled = optimize_variants(w.kernel, w.params)
        for cb in compile_kernel(k).blocks.values():
            for placed in cb.placement.replicas:
                plans.append((False, mtcgrf.build_exec_plan(
                    cb.dfg, placed.unit_of, placed.edge_hops, w.params,
                    vgiw_lat)))
        try:
            mapping = map_kernel(rolled)
        except SGMFUnmappableError:
            continue
        for placed in mapping.replicas:
            for bname, dfg in mapping.dfgs.items():
                pl = placed[bname]
                plans.append((True, mtcgrf.build_exec_plan(
                    dfg, pl.unit_of, pl.edge_hops, w.params, sgmf_lat,
                    count_pseudo_ops=False)))
    return plans


def test_every_input_hop_is_at_least_one_cycle(table2_plans):
    # The walks start a row with inputs at its first input's arrival,
    # not at ``inject``: exact only because every hop is >= 1 cycle.
    hops = [hop for _, plan in table2_plans for row in plan.rows
            if row[0] != mtcgrf.T_INIT for _, hop in row[3]]
    assert len(hops) > 1000
    assert min(hops) >= 1


#: Bound on the total walk source over ``table2_plans``: 583 673 chars
#: since each walk is one flat function and each memory row one helper
#: call (1 067 850 before; 2 386 053 before each issue became one helper
#: call), plus 3 %
WALK_SOURCE_CHARS = 601_000


def test_emitted_walk_source_stays_small(table2_plans):
    total = sum(len(_walk_source(plan, sgmf))
                for sgmf, plan in table2_plans)
    assert total <= WALK_SOURCE_CHARS



def _issue_units(plan, sgmf=False):
    return [row[2] for row in plan.rows
            if row[0] != mtcgrf.T_INIT
            and not (sgmf and row[0] in (mtcgrf.T_LVLOAD, mtcgrf.T_LVSTORE))]


def _mem_units(plan, sgmf=False):
    tags = (mtcgrf.T_LOAD, mtcgrf.T_STORE) + (
        () if sgmf else (mtcgrf.T_LVLOAD, mtcgrf.T_LVSTORE))
    return [row[2] for row in plan.rows if row[0] in tags]


def test_first_enter_creates_state_in_snapshot_order(table2_plans):
    # A replica's first entry looks its calendars up in row order and
    # creates its reservation buffers in unit-ID order, then its SCU
    # pools in row order: hang snapshots list them in insertion order.
    telling = 0
    for sgmf, plan in table2_plans:
        issue, mem = _issue_units(plan, sgmf), _mem_units(plan, sgmf)
        scu = [row[2] for row in plan.rows if row[0] == mtcgrf.T_SCU]
        rep = mtcgrf._ReplicaState()
        enter = mtcgrf.compile_timing(plan, 8, 2, sgmf)
        walk = enter(rep)
        assert list(rep.unit_next) == list(dict.fromkeys(issue))
        assert list(rep.ldst_outstanding) == sorted(set(mem))
        assert list(rep.scu_pool) == list(dict.fromkeys(scu))
        assert all(pool == [0.0, 0.0] for pool in rep.scu_pool.values())
        # The walk holds the replica's containers themselves.
        held = {id(x) for x in walk.__defaults__}
        assert id(rep.unit_wait) in held
        assert all(id(nf) in held for nf in rep.unit_next.values())
        assert all(id(out) in held for out in rep.ldst_outstanding.values())
        # A later entry creates nothing and rebinds the same objects.
        before = (list(rep.unit_next), list(rep.ldst_outstanding),
                  list(rep.scu_pool))
        again = enter(rep)
        assert before == (list(rep.unit_next), list(rep.ldst_outstanding),
                          list(rep.scu_pool))
        assert all(a is b for a, b in zip(walk.__defaults__,
                                          again.__defaults__))
        if len(set(mem)) > 1 and sorted(set(mem)) != list(
                dict.fromkeys(mem)):
            telling += 1
    # Plans whose memory rows are not in unit-ID order tell the two
    # orders apart.
    assert telling > 20


#: Bound on the walk source one in-process fuzz chunk (seed 1000, 20
#: cases) compiles from an empty walk-code memo: 93 304 chars in 102
#: compiles since the memo outlives each engine run (102 220 in 114
#: compiles with one code dict per run, 172 102 in those compiles
#: before each walk was one flat function with one helper call per
#: memory row), plus 7 %
FUZZ_CHUNK_WALK_CHARS = 100_000


def test_fuzz_chunk_walk_source_stays_small(monkeypatch):
    from repro.fuzz.campaign import CampaignConfig, run_campaign

    monkeypatch.setattr(mtcgrf, "_walk_codes", collections.OrderedDict())
    sources = []
    real_compile = compile

    def recording_compile(source, filename, mode):
        sources.append(source)
        return real_compile(source, filename, mode)

    monkeypatch.setattr(mtcgrf, "compile", recording_compile, raising=False)
    result = run_campaign(CampaignConfig(seed=1000, count=20, jobs=1,
                                         reduce=False))
    assert len(result.reports) == 20
    assert len(sources) > 100
    assert sum(map(len, sources)) <= FUZZ_CHUNK_WALK_CHARS
