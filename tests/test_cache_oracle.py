"""Differential tests of the rotating cache and the hierarchy against the
independent models in reference_models.py, over random geometries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from emsim.cache import LEVEL_ROLES, CacheConfig, RotatingCache, build_hierarchy
from emsim.workload import MemAccess, mem_code
from reference_models import RefHierarchy, RefRotatingCache, access

KINDS = st.sampled_from(["READ", "WRITE"])
PERIODS = st.none() | st.integers(1, 40)


def flat(rows):
    return [n for row in rows for n in row]


def write_hits(cache):
    """A package cache's write hits: the entry writes that are not fills."""
    return sum(cache.line_writes) - cache.fills


def assert_same_counters(mine, ref):
    assert mine.line_writes == flat(ref.line_writes)
    assert mine.set_writes == [sum(row) for row in ref.line_writes]
    assert (mine.accesses, mine.fills, write_hits(mine), mine.rotation_writebacks,
            mine.rot_counter) == \
        (ref.accesses, ref.fills, ref.write_hits, ref.rotation_writebacks, ref.shift)


def assert_lru_state(mine, ref):
    """Each set's LRU list holds blocks that map to that set, the block map
    sends it onto a permutation of its resident ways 0 .. len-1, and the
    block map holds exactly the resident blocks."""
    sets_mask = mine.config.sets - 1
    for s, lru in enumerate(mine._lru):
        assert all((block + mine.rot_counter) & sets_mask == s for block in lru)
        assert sorted(mine._where[block] for block in lru) == list(range(len(lru)))
    resident = [block for lru in mine._lru for block in lru]
    assert len(resident) == len(mine._where)
    assert set(resident) == set(mine._where) == ref.resident_blocks()


def encode(address, kind):
    return address << 2 | (kind == "WRITE") << 1


def ref_outputs(ref, address, kind):
    """What one reference access sends below, in the level loop's order and
    encoding: its rotation write-backs, its evicted dirty line, then its fill
    fetch (a read) or its passed-on write."""
    rotated = []
    ref.on_writeback = rotated.append
    hit, fill, writeback = ref.access(address, kind)
    out = [a << 2 | 2 for a in rotated]
    if writeback is not None:
        out.append(writeback << 2 | 2)
    if not hit:
        out.append(encode(address, "READ" if fill else kind))
    return out


def batches(items, cuts):
    """items cut at the given positions (those past the end are ignored)."""
    bounds = sorted({0, len(items), *(c for c in cuts if c < len(items))})
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def cache_pair(sets, ways, line_bytes, period, write_allocate, charge):
    cfg = CacheConfig(name="dut", sets=sets, ways=ways, line_bytes=line_bytes,
                      rotation_period=period, write_allocate=write_allocate)
    mine = RotatingCache(cfg, charge_rotation_writebacks=charge)
    ref = RefRotatingCache(sets, ways, line_bytes, rotation_period=period,
                           write_allocate=write_allocate,
                           charge_rotation_writebacks=charge)
    return mine, ref


CACHE_GEOMETRY = dict(sets=st.sampled_from([1, 2, 4, 8, 16]), ways=st.integers(1, 6),
                      line_bytes=st.sampled_from([1, 2, 8, 64]), period=PERIODS,
                      write_allocate=st.booleans(), charge=st.booleans())


@settings(max_examples=300, deadline=None)
@given(accesses=st.lists(st.tuples(st.integers(0, 1 << 12), KINDS, st.booleans()),
                         max_size=300), **CACHE_GEOMETRY)
def test_rotating_cache_matches_reference(sets, ways, line_bytes, period,
                                          write_allocate, charge, accesses):
    # one access at a time, through access() or a one-element run()
    mine, ref = cache_pair(sets, ways, line_bytes, period, write_allocate, charge)
    for address, kind, as_stream in accesses:
        if as_stream:
            assert mine.run([encode(address, kind)]) == ref_outputs(ref, address, kind)
        else:
            ref.on_writeback = None
            assert access(mine, address, kind) == ref.access(address, kind)
        assert_lru_state(mine, ref)
    assert_same_counters(mine, ref)


@settings(max_examples=300, deadline=None)
@given(accesses=st.lists(st.tuples(st.integers(0, 1 << 12), KINDS), max_size=300),
       cuts=st.lists(st.integers(0, 300)), **CACHE_GEOMETRY)
def test_level_stream_in_random_splits_matches_reference(
        sets, ways, line_bytes, period, write_allocate, charge, accesses, cuts):
    # whole streams cut at random points, so that rotations straddle calls;
    # every output must carry the stream index of the access that sent it
    mine, ref = cache_pair(sets, ways, line_bytes, period, write_allocate, charge)
    for batch in batches(accesses, cuts):
        expected, expected_tags = [], []
        for k, (address, kind) in enumerate(batch):
            sent = ref_outputs(ref, address, kind)
            expected += sent
            expected_tags += [k] * len(sent)
        tags = []
        assert mine.run([encode(a, k) for a, k in batch], tags) == expected
        assert tags == expected_tags
    assert_lru_state(mine, ref)
    assert_same_counters(mine, ref)


@st.composite
def dirty_rotation_runs(draw):
    """A cache and a stream whose rotations find several dirty lines: a pool
    of a few blocks more than the cache holds, three writes in four
    accesses, and a period of at least sets x ways accesses, so the cache
    can fill up between rotations."""
    sets, ways = draw(st.sampled_from([1, 2, 4])), draw(st.integers(2, 4))
    line_bytes = draw(st.sampled_from([1, 8, 64]))
    period = draw(st.integers(sets * ways, 3 * sets * ways))
    pool = draw(st.lists(st.integers(0, 1 << 10), min_size=2,
                         max_size=sets * ways + 4, unique=True))
    accesses = draw(st.lists(
        st.tuples(st.sampled_from(pool).map(lambda b: b * line_bytes),
                  st.sampled_from(["WRITE", "WRITE", "WRITE", "READ"])),
        min_size=period, max_size=4 * period))
    return sets, ways, line_bytes, period, draw(st.booleans()), accesses


def test_rotations_with_several_dirty_lines_match_reference():
    # the write-back order of a rotation shows only when it finds two or
    # more dirty lines, so the test counts those it drew and needs one;
    # the write-backs are charged, or run() would return none of them
    multi_dirty = 0

    @settings(max_examples=200, deadline=None)
    @given(run=dirty_rotation_runs(), cuts=st.lists(st.integers(0, 200)))
    def check(run, cuts):
        nonlocal multi_dirty
        sets, ways, line_bytes, period, write_allocate, accesses = run
        mine, ref = cache_pair(sets, ways, line_bytes, period, write_allocate, True)
        for batch in batches(accesses, cuts):
            expected = []
            for address, kind in batch:
                before = ref.rotation_writebacks
                expected += ref_outputs(ref, address, kind)
                multi_dirty += ref.rotation_writebacks - before >= 2
            assert mine.run([encode(a, k) for a, k in batch]) == expected
        assert_lru_state(mine, ref)
        assert_same_counters(mine, ref)

    check()
    assert multi_dirty >= 1


def level_geometry(line_bytes):
    return st.fixed_dictionaries({
        "sets": st.sampled_from([1, 2, 4, 8]), "ways": st.integers(1, 4),
        "line_bytes": line_bytes, "rotation_period": PERIODS,
        "write_allocate": st.booleans()})


HIERARCHY_LEVELS = st.fixed_dictionaries({
    role: level_geometry(st.sampled_from([1, 4] if role.endswith("TLB") else [16, 64]))
    for role in LEVEL_ROLES})
RECORDS = st.lists(st.tuples(st.integers(0, 1 << 15), KINDS,
                             st.sampled_from(["DATA", "INSTR"])), max_size=200)


@settings(max_examples=150, deadline=None)
@given(levels=HIERARCHY_LEVELS, charge=st.booleans(), accesses=RECORDS)
def test_hierarchy_matches_reference(levels, charge, accesses):
    # one-element batches, compared after every access
    mine = build_hierarchy(overrides=levels, charge_rotation_writebacks=charge)
    ref = RefHierarchy(levels, charge_rotation_writebacks=charge)
    for address, kind, space in accesses:
        mine.access([mem_code(MemAccess(kind, address, space))])
        ref.access(address, kind, space)
        for role in LEVEL_ROLES:
            m, r = mine.caches[role], ref.levels[role]
            assert (m.accesses, m.fills, write_hits(m), m.rotation_writebacks) == \
                (r.accesses, r.fills, r.write_hits, r.rotation_writebacks), role
            assert_lru_state(m, r)
    for role in LEVEL_ROLES:
        assert_same_counters(mine.caches[role], ref.levels[role])


@settings(max_examples=150, deadline=None)
@given(levels=HIERARCHY_LEVELS, charge=st.booleans(), accesses=RECORDS,
       cuts=st.lists(st.integers(0, 200)))
def test_hierarchy_batches_in_random_splits_match_reference(levels, charge, accesses, cuts):
    # the same DATA/INSTR records in batches cut at random points and passed
    # level by level, so that rotation points straddle batch boundaries
    mine = build_hierarchy(overrides=levels, charge_rotation_writebacks=charge)
    ref = RefHierarchy(levels, charge_rotation_writebacks=charge)
    for batch in batches(accesses, cuts):
        mine.access([mem_code(MemAccess(kind, address, space))
                     for address, kind, space in batch])
    for address, kind, space in accesses:
        ref.access(address, kind, space)
    for role in LEVEL_ROLES:
        assert_same_counters(mine.caches[role], ref.levels[role])
        assert_lru_state(mine.caches[role], ref.levels[role])
