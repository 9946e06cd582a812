import json
import time
import tracemalloc

import pytest

from emsim import cli, simulate
from emsim.cache import (
    CacheConfig,
    Hierarchy,
    RotatingCache,
    build_hierarchy,
)
from emsim.rng import SplitMix64
from emsim.simulate import CHUNK_RECORDS, SimConfig, run_simulation
from emsim.workload import ConfigError, Event, MemAccess, Trace, mem_code, parse_trace
from reference_models import RefSetAssocLRU, access, physical_set


def make(sets=4, ways=2, line_bytes=64, **kw):
    cfg_kw = {k: kw.pop(k) for k in ("rotation_period", "write_allocate") if k in kw}
    cfg = CacheConfig(name="t", sets=sets, ways=ways, line_bytes=line_bytes, **cfg_kw)
    return RotatingCache(cfg, **kw)


def test_config_validation():
    with pytest.raises(ValueError, match="power of two"):
        CacheConfig(name="x", sets=3, ways=2, line_bytes=64)
    with pytest.raises(ValueError, match="power of two"):
        CacheConfig(name="x", sets=4, ways=2, line_bytes=48)
    with pytest.raises(ValueError, match="ways"):
        CacheConfig(name="x", sets=4, ways=0, line_bytes=64)
    with pytest.raises(ValueError, match="rotation_period"):
        CacheConfig(name="x", sets=4, ways=1, line_bytes=64, rotation_period=0)


def test_physical_set_mapping():
    c = make(sets=64, ways=1)
    assert physical_set(c, 10 * 64) == 10  # rot 0: plain index field
    for _ in range(5):
        c.rotate()
    assert physical_set(c, 10 * 64) == 15
    access(c, 10 * 64, "WRITE")
    assert c.set_writes[15] == 1 and sum(c.set_writes) == 1
    c2 = make(sets=64, ways=1)
    c2.rotate()
    c2.rotate()
    assert physical_set(c2, 63 * 64) == 1  # wraps


def test_cold_fill_counts_one_write():
    c = make()
    out = access(c, 0x1000, "READ")
    assert out == (False, True, None)
    assert sum(c.line_writes) == 1 and c.fills == 1


def test_write_then_write_same_address():
    c = make()
    assert access(c, 0x40, "WRITE") == (False, True, None)
    assert access(c, 0x40, "WRITE") == (True, False, None)
    s = physical_set(c, 0x40)
    assert c.set_writes[s] == 2
    assert sum(c.line_writes) == 2
    assert c.fills == 1


def test_direct_mapped_conflict_thrash():
    # five blocks sharing one index field in a 4-set direct-mapped cache:
    # after the cold pass, every access misses
    c = make(sets=4, ways=1)
    addrs = [i * 4 * 64 for i in range(5)]
    for a in addrs:
        assert access(c, a, "READ") == (False, True, None)
    for _ in range(3):
        for a in addrs:
            assert access(c, a, "READ") == (False, True, None)


def test_rotate_on_empty_cache():
    c = make(sets=8)
    c.rotate()
    assert c.rot_counter == 1
    assert c.fills == 0 and sum(c.line_writes) == 0 and c.accesses == 0
    for _ in range(7):
        c.rotate()
    assert c.rot_counter == 0


def test_rotation_cost_follows_resident_lines_not_sets():
    # 65,536 sets but one resident line per rotation: each rotate() visits
    # that line, not every set
    c = make(sets=65536, ways=1)
    t0 = time.perf_counter()
    for i in range(2000):
        access(c, i * 64, "WRITE")
        c.rotate()
    elapsed = time.perf_counter() - t0
    assert c.rotation_writebacks == 2000 and c.rot_counter == 2000
    assert elapsed < 1.0


def test_rotation_writebacks_leave_set_major_and_way_ascending():
    # dirty lines filled in neither block nor set order: the write-backs of
    # a rotation still leave by entry index (set * ways + way), not by block,
    # fill or recency; the level below sees them in that order
    c = make(sets=4, ways=2, line_bytes=1, rotation_period=6)
    blocks = [6, 1, 3, 2, 5, 7]  # sets 2, 1, 3, 2, 1, 3
    out = c.run([b << 2 | 2 for b in blocks])
    writebacks = [1, 5, 6, 2, 3, 7]  # set 1 ways 0-1, set 2 ways 0-1, set 3 ways 0-1
    fetches = [b << 2 for b in blocks]
    assert out == fetches[:5] + [b << 2 | 2 for b in writebacks] + fetches[5:]
    assert c.rotation_writebacks == 6 and c.rot_counter == 1


def _decoded(code):
    """A mem code read back in mem_code's layout."""
    return MemAccess(("READ", "WRITE")[code >> 1 & 1], code >> 2, ("DATA", "INSTR")[code & 1])


def test_a_level_reads_and_emits_mem_codes():
    # one set per block parity, one way each, rotating after the fifth access
    c = make(sets=2, ways=1, rotation_period=5)
    accesses = [MemAccess("WRITE", 0x1004, "DATA"),  # miss in set 0, dirty
                MemAccess("READ", 0x2048, "INSTR"),  # miss in set 1
                MemAccess("READ", 0x3000, "DATA"),  # evicts the dirty 0x1000 line
                MemAccess("WRITE", 0x3010, "DATA"),  # hit: the 0x3000 line is dirty
                MemAccess("READ", 0x0040, "DATA")]  # evicts a clean line, then rotates
    tags = []
    out = c.run([mem_code(a) for a in accesses], tags)
    # a fetch reads the access's address; a write-back, an eviction's or a
    # rotation's, writes the victim's block-aligned address
    assert list(zip(tags, map(_decoded, out))) == [
        (0, MemAccess("READ", 0x1004, "DATA")),
        (1, MemAccess("READ", 0x2048, "DATA")),
        (2, MemAccess("WRITE", 0x1000, "DATA")),
        (2, MemAccess("READ", 0x3000, "DATA")),
        (4, MemAccess("WRITE", 0x3000, "DATA")),
        (4, MemAccess("READ", 0x0040, "DATA"))]
    assert c.rotation_writebacks == 1 and c.rot_counter == 1
    # a write that does not allocate leaves as it came, space bit included
    passing = [mem_code(MemAccess("WRITE", 0x1234, space)) for space in ("DATA", "INSTR")]
    assert make(write_allocate=False).run(passing) == passing


def test_rotation_invalidates_everything():
    c = make()
    access(c, 0x80, "WRITE")
    assert access(c, 0x80, "READ") == (True, False, None)
    c.rotate()
    assert access(c, 0x80, "READ") == (False, True, None)
    # the rotation writeback was recorded even without a sink attached
    assert c.rotation_writebacks == 1


def test_dirty_eviction_reports_writeback():
    c = make(sets=4, ways=1)
    a, b = 0x0, 4 * 64  # same index field
    access(c, a, "WRITE")
    assert access(c, b, "READ") == (False, True, a)
    assert access(c, a, "READ") == (False, True, None)  # b is clean


def test_write_no_allocate():
    c = make(write_allocate=False)
    assert access(c, 0x100, "WRITE") == (False, False, None)
    assert c.fills == 0 and sum(c.line_writes) == 0 and c.accesses == 1
    assert access(c, 0x100, "READ") == (False, True, None)  # reads still allocate


def test_rotation_trigger_fires_after_period():
    c = make(sets=8, rotation_period=3)
    access(c, 0, "READ")
    access(c, 64, "READ")
    assert c.rot_counter == 0
    access(c, 128, "READ")
    assert c.rot_counter == 1


def test_lru_eviction_order():
    c = make(sets=1, ways=3, line_bytes=64)
    for blk in (0, 1, 2):
        access(c, blk * 64, "READ")
    access(c, 0, "READ")  # 0 becomes MRU; LRU is now 1
    assert access(c, 3 * 64, "READ") == (False, True, None)
    assert access(c, 0, "READ") == (True, False, None)   # still resident
    assert access(c, 64, "READ") == (False, True, None)  # 1 was the victim


@pytest.mark.parametrize("sets,ways,line_bytes", [
    (1, 1, 64), (4, 1, 32), (8, 2, 64), (64, 8, 64), (16, 4, 1),
])
def test_oracle_equivalence_no_rotation(sets, ways, line_bytes):
    mine = make(sets=sets, ways=ways, line_bytes=line_bytes)
    ref = RefSetAssocLRU(sets, ways, line_bytes)
    rng = SplitMix64(sets * 10007 + ways)
    span = sets * ways * line_bytes * 4
    for _ in range(20_000):
        addr = rng.randbelow(span)
        kind = "WRITE" if rng.randbelow(2) else "READ"
        assert access(mine, addr, kind) == ref.access(addr, kind)


def test_conservation_random_trace():
    c = make(sets=8, ways=4, rotation_period=500)
    rng = SplitMix64(99)
    fills = write_hits = 0
    for _ in range(5000):
        kind = "WRITE" if rng.randbelow(2) else "READ"
        hit, fill, _ = access(c, rng.randbelow(1 << 16), kind)
        fills += fill
        write_hits += hit and kind == "WRITE"
    # every entry write is a fill or a write hit, as the accesses reported them
    assert c.fills == fills
    assert sum(c.line_writes) == fills + write_hits
    for s in range(8):
        assert c.set_writes[s] == sum(c.line_writes[s * 4:(s + 1) * 4])


def test_hammering_spreads_exactly():
    sets, epoch = 8, 100
    c = make(sets=sets, ways=2, rotation_period=epoch)
    for _ in range(sets * epoch):
        access(c, 0x0, "WRITE")
    assert tuple(c.set_writes) == (epoch,) * sets
    flat = tuple(c.line_writes)
    assert max(flat) == epoch
    # without rotation one set absorbs everything
    base = make(sets=sets, ways=2)
    for _ in range(sets * epoch):
        access(base, 0x0, "WRITE")
    assert max(base.set_writes) == sets * epoch
    assert base.set_writes.count(0) == sets - 1


# --- hierarchy ---------------------------------------------------------------


def replay(h, records):
    """Replays MemAccess records through a hierarchy as one batch."""
    h.access([mem_code(p) for p in records])


def test_default_geometry():
    cfgs = {role: c.config for role, c in build_hierarchy().caches.items()}
    assert (cfgs["L1D"].sets, cfgs["L1D"].ways) == (64, 8)
    assert (cfgs["L1I"].sets, cfgs["L1I"].ways) == (128, 4)
    assert (cfgs["L2"].sets, cfgs["L2"].ways) == (512, 8)
    assert (cfgs["L3"].sets, cfgs["L3"].ways) == (8192, 16)
    assert cfgs["DTLB"].sets * cfgs["DTLB"].ways == 64
    assert cfgs["ITLB"].sets * cfgs["ITLB"].ways == 128
    assert cfgs["STLB"].sets * cfgs["STLB"].ways == 512
    for role in ("DTLB", "ITLB", "STLB"):
        assert cfgs[role].line_bytes == 1


def test_default_hierarchy_keeps_no_per_entry_tag_array():
    # an eviction finds its entry through the block map, so the counters and
    # dirty bits are the only per-entry arrays; a tag array would add 1 MiB
    # for the L3's 131,072 lines alone
    tracemalloc.start()
    try:
        hier = build_hierarchy()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2_000_000
    assert len(hier.caches["L3"].line_writes) == 131_072


def test_cold_read_fills_whole_data_path():
    h = build_hierarchy()
    replay(h, [MemAccess("READ", 0x1234, "DATA")])
    for role in ("DTLB", "STLB", "L1D", "L2", "L3"):
        assert h.caches[role].fills == 1, role
    assert h.caches["L1I"].accesses == 0 and h.caches["ITLB"].accesses == 0

    replay(h, [MemAccess("READ", 0x1234, "DATA")])  # now everything near hits
    assert h.caches["DTLB"].accesses == 2 and h.caches["DTLB"].fills == 1
    assert h.caches["L1D"].accesses == 2 and h.caches["L1D"].fills == 1
    assert h.caches["L2"].accesses == 1 and h.caches["STLB"].accesses == 1


def test_instruction_path():
    h = build_hierarchy()
    replay(h, [MemAccess("READ", 0x4000, "INSTR")])
    for role in ("ITLB", "STLB", "L1I", "L2", "L3"):
        assert h.caches[role].fills == 1, role
    assert h.caches["DTLB"].accesses == 0 and h.caches["L1D"].accesses == 0


def test_dirty_evictions_write_into_l2():
    h = build_hierarchy(overrides={"L1D": {"sets": 1, "ways": 1}})
    a, b = 0x0, 0x40
    # warm both blocks into L2 so the write stream below adds no cold fills
    replay(h, [MemAccess("READ", a, "DATA"), MemAccess("READ", b, "DATA")])
    l2 = h.caches["L2"]
    before = sum(l2.line_writes)
    n = 9
    replay(h, [MemAccess("WRITE", a if i % 2 == 0 else b, "DATA") for i in range(n)])
    # every access after the first evicts a dirty line into L2
    assert sum(l2.line_writes) - before == n - 1
    assert l2.fills == 2  # so the other n - 1 entry writes are write hits


def test_rotation_writebacks_charged_to_next_level():
    h = build_hierarchy(overrides={"L1D": {"sets": 4, "ways": 1,
                                           "rotation_period": 4}})
    # 4 dirty lines, then rotation
    replay(h, [MemAccess("WRITE", i * 0x40, "DATA") for i in range(4)])
    assert h.caches["L1D"].rot_counter == 1
    assert h.caches["L1D"].rotation_writebacks == 4
    l2 = h.caches["L2"]
    # L2 sees 3 cold fill fetches before the rotation, then the 4 write-backs
    # (the last one arrives before its own fill fetch, so it lands as a fill
    # and the fetch then hits), 7 entry writes in total
    assert l2.fills == 4 and sum(l2.line_writes) == 7

    quiet = build_hierarchy(overrides={"L1D": {"sets": 4, "ways": 1,
                                               "rotation_period": 4}},
                            charge_rotation_writebacks=False)
    replay(quiet, [MemAccess("WRITE", i * 0x40, "DATA") for i in range(4)])
    assert quiet.caches["L1D"].rotation_writebacks == 4
    # fill fetches still reach L2, but no write-back traffic does
    assert quiet.caches["L2"].accesses == 4
    assert quiet.caches["L2"].fills == sum(quiet.caches["L2"].line_writes) == 4


def test_batch_reaches_l2_in_record_order():
    # one batch, INSTR record first: the L1I fetch reaches the one-line L2
    # before the L1D fetch, which then evicts it
    h = build_hierarchy(overrides={"L2": {"sets": 1, "ways": 1}})
    replay(h, [MemAccess("READ", 0x0, "INSTR"), MemAccess("READ", 0x40, "DATA")])
    l2 = h.caches["L2"]
    assert (l2.accesses, l2.fills) == (2, 2)
    assert list(l2._where) == [0x40 // 64]


def test_hierarchy_rejects_bad_input():
    # memory records are checked once, where a Trace encodes them
    for record, message in ((MemAccess("READ", -1, "DATA"), "address must be non-negative"),
                            (MemAccess("READ", 0, "CODE"), "address space must be DATA or INSTR"),
                            (MemAccess("FETCH", 0, "DATA"), "memory kind must be READ or WRITE")):
        with pytest.raises(ValueError, match=message):
            Trace.from_events([Event(0, record)])
    with pytest.raises(ConfigError):
        build_hierarchy(overrides={"L9": {}})
    with pytest.raises(ConfigError):
        build_hierarchy(overrides={"L1D": {"bogus": 1}})
    with pytest.raises(ConfigError):
        build_hierarchy(overrides={"L1D": {"sets": 3}})


def _peak_bytes(replay):
    tracemalloc.start()
    try:
        replay()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _split_reference(codes):
    """How a batch was split by space before access() took mem codes: per
    space its L1 stream, its TLB stream and, for a mixed batch, its indices,
    all held at once."""
    instr = [i for i, code in enumerate(codes) if code & 1]
    if 0 < len(instr) < len(codes):
        by_space = ([i for i, code in enumerate(codes) if not code & 1], instr)
        spaces = [[codes[i] for i in indices] for indices in by_space]
    else:
        by_space = ([], [])
        spaces = [[], codes] if instr else [codes, []]
    return tuple(([code >> 1 for code in space], [code >> 14 << 1 for code in space],
                  indices) for space, indices in zip(spaces, by_space))


@pytest.mark.parametrize("spaces", [("DATA", "INSTR"), ("DATA",)], ids=["mixed", "data"])
def test_access_memory_stays_within_one_split_of_the_batch(spaces):
    # 64 distinct lines per space, all L1-resident after the first pass:
    # access() holds its split streams and what each level sends below, so
    # its peak must not pass that of splitting the batch once beforehand
    distinct = [MemAccess("WRITE" if i % 3 else "READ", i * 64, space)
                for space in spaces for i in range(64)]
    codes = [mem_code(distinct[i * 37 % len(distinct)]) for i in range(200_000)]
    h = build_hierarchy()
    assert _peak_bytes(lambda: h.access(codes)) <= \
        _peak_bytes(lambda: _split_reference(codes)) + 64 * 1024


def test_run_simulation_calls_access_once_per_hierarchy_and_only_with_records(monkeypatch):
    calls = []
    monkeypatch.setattr(Hierarchy, "access", lambda self, codes: calls.append(
        (sum(not code & 1 for code in codes), sum(code & 1 for code in codes))))
    # keyword arguments only: the benchmark's tracer tells the two
    # hierarchies apart by the rotation_period keyword
    builds = []
    build = simulate.build_hierarchy
    monkeypatch.setattr(simulate, "build_hierarchy",
                        lambda **kwargs: builds.append(kwargs) or build(**kwargs))
    no_memory = parse_trace(["0 A 2", "0 R GPR 3", "5 A 1"])
    run_simulation(no_memory, SimConfig())
    assert calls == [] and builds == []
    run_simulation(parse_trace(["0 A 2", "1 M W 64 D", "2 R GPR 3", "2 M R 0 I"]), SimConfig())
    assert calls == [(1, 1), (1, 1)]
    # the never-rotating baseline is built and replayed first
    assert [kwargs["rotation_period"] for kwargs in builds] == [None, SimConfig().rotation_period]
    # a batch is handed on once it holds CHUNK_RECORDS records, and at the
    # end of the trace, also when that ends a full chunk of events: here
    # every second event of five full chunks is a memory record; the
    # baseline takes all of its batches before the aware copy takes any
    calls.clear()
    n = CHUNK_RECORDS
    lines = [line for c in range(5 * n // 2) for line in (f"{c} A 1", f"{c} M R {c * 64} D")]
    run_simulation(parse_trace(lines), SimConfig())
    assert calls == [(n, 0), (n, 0), (n // 2, 0)] * 2


def test_run_simulation_holds_one_hierarchy_at_a_time():
    # one write to each of 20,000 distinct data lines: the baseline keeps
    # them all in L3, so its block map is the largest thing alive. The
    # aware copy, built only once the baseline is gone, rotates every 5,000
    # accesses and so holds far fewer lines; with the baseline's counters
    # beside it, the whole run still peaks no higher than one baseline
    # replay of the same batches.
    trace = Trace.from_events(Event(i, MemAccess("WRITE", i * 64, "DATA")) for i in range(20_000))
    codes = trace.mem

    def one_baseline():
        base = build_hierarchy(rotation_period=None)
        for start in range(0, len(codes), CHUNK_RECORDS):
            base.access(codes[start:start + CHUNK_RECORDS])

    cfg = SimConfig(structures=("cache",), rotation_period=5000)
    assert _peak_bytes(lambda: run_simulation(trace, cfg)) <= \
        _peak_bytes(one_baseline) + 64 * 1024


def _simulate_with_cache_config(tmp_path, cache, *flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cache": cache}), encoding="utf-8")
    trace = tmp_path / "t.trace"
    trace.write_text("0 M W 64 D\n1 M R 4096 I\n", encoding="utf-8")
    return cli.main(["simulate", "--trace", str(trace), "--config", str(cfg),
                     "--out", str(tmp_path / "o"), *flags])


def test_overrides_from_json(tmp_path, monkeypatch):
    # a config file's cache section reaches SimConfig as given, and
    # build_hierarchy maps a per-level "never" to no rotation
    doc = {"rotation_period": "never",
           "count_rotation_writebacks": False,
           "levels": {"L1D": {"sets": 16, "rotation_period": 1000},
                      "L2": {"rotation_period": "never"},
                      "STLB": {"ways": 8}}}
    seen = []
    monkeypatch.setattr(cli, "run_simulation",
                        lambda events, cfg: seen.append(cfg) or run_simulation(events, cfg))
    assert _simulate_with_cache_config(tmp_path, doc, "--rotation-period", "7") == 0
    (cfg,) = seen
    assert cfg.rotation_period == 7
    assert cfg.charge_rotation_writebacks is False
    assert cfg.cache_overrides == doc["levels"]
    levels = {role: c.config for role, c in build_hierarchy(
        rotation_period=cfg.rotation_period, overrides=cfg.cache_overrides).caches.items()}
    assert (levels["L1D"].sets, levels["L1D"].rotation_period) == (16, 1000)
    assert levels["L2"].rotation_period is None
    assert (levels["STLB"].ways, levels["STLB"].rotation_period) == (8, 7)
    # the flag wins over the config's period, which is still checked
    assert _simulate_with_cache_config(
        tmp_path, {"rotation_period": -5}, "--rotation-period", "7") == 2


@pytest.mark.parametrize("doc,needle", [
    ({"levels": {"L1D": []}}, "level L1D config must be an object"),
    ("[]", "must be a JSON object"),
    ({"rotation_period": -5}, "rotation_period"),
    ({"rotation_period": True}, "rotation_period"),
    ({"count_rotation_writebacks": "yes"}, "boolean"),
    ({"levels": {"LX": {}}}, "unknown hierarchy level"),
    ({"levels": []}, "levels must be an object"),
    ({"extra": 1}, "unknown hierarchy config fields"),
])
def test_overrides_from_json_errors(tmp_path, capsys, doc, needle):
    assert _simulate_with_cache_config(tmp_path, doc) == 2
    assert needle in capsys.readouterr().err
