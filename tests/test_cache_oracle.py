"""Differential tests of the rotating cache and the hierarchy against the
independent models in reference_models.py, over random geometries."""

from hypothesis import given, settings
from hypothesis import strategies as st

from emsim.cache import LEVEL_ROLES, CacheConfig, RotatingCache, build_hierarchy
from reference_models import RefHierarchy, RefRotatingCache

KINDS = st.sampled_from(["READ", "WRITE"])
PERIODS = st.none() | st.integers(1, 40)


def flat(rows):
    return [n for row in rows for n in row]


def assert_same_counters(mine, ref):
    assert mine.line_writes == flat(ref.line_writes)
    assert mine.set_writes == [sum(row) for row in ref.line_writes]
    assert (mine.accesses, mine.fills, mine.write_hits, mine.rotation_writebacks) == \
        (ref.accesses, ref.fills, ref.write_hits, ref.rotation_writebacks)


def assert_lru_state(mine, ref):
    """Each set's LRU list is a permutation of its resident entries
    base .. base+len-1, and the block map holds exactly the resident blocks."""
    ways = mine.config.ways
    for s, lru in enumerate(mine._lru):
        assert sorted(lru) == list(range(s * ways, s * ways + len(lru)))
    resident = {mine._tag[e]: e for lru in mine._lru for e in lru}
    assert mine._where == resident
    assert set(resident) == ref.resident_blocks()


@settings(max_examples=300, deadline=None)
@given(sets=st.sampled_from([1, 2, 4, 8, 16]), ways=st.integers(1, 6),
       line_bytes=st.sampled_from([1, 2, 8, 64]), period=PERIODS,
       write_allocate=st.booleans(), charge=st.booleans(),
       accesses=st.lists(st.tuples(st.integers(0, 1 << 12), KINDS), max_size=300))
def test_rotating_cache_matches_reference(sets, ways, line_bytes, period,
                                          write_allocate, charge, accesses):
    cfg = CacheConfig(name="dut", sets=sets, ways=ways, line_bytes=line_bytes,
                      rotation_period=period, write_allocate=write_allocate)
    sunk, ref_sunk = [], []
    mine = RotatingCache(cfg, writeback_sink=sunk.append,
                         charge_rotation_writebacks=charge)
    ref = RefRotatingCache(sets, ways, line_bytes, rotation_period=period,
                           write_allocate=write_allocate,
                           charge_rotation_writebacks=charge)
    ref.on_writeback = ref_sunk.append
    for address, kind in accesses:
        assert mine.access(address, kind) == ref.access(address, kind)
        assert sunk == ref_sunk
        assert_lru_state(mine, ref)
    assert_same_counters(mine, ref)


def level_geometry(line_bytes):
    return st.fixed_dictionaries({
        "sets": st.sampled_from([1, 2, 4, 8]), "ways": st.integers(1, 4),
        "line_bytes": line_bytes, "rotation_period": PERIODS,
        "write_allocate": st.booleans()})


HIERARCHY_LEVELS = st.fixed_dictionaries({
    role: level_geometry(st.sampled_from([1, 4] if role.endswith("TLB") else [16, 64]))
    for role in LEVEL_ROLES})


@settings(max_examples=150, deadline=None)
@given(levels=HIERARCHY_LEVELS, charge=st.booleans(),
       accesses=st.lists(st.tuples(st.integers(0, 1 << 15), KINDS,
                                   st.sampled_from(["DATA", "INSTR"])),
                         max_size=200))
def test_hierarchy_matches_reference(levels, charge, accesses):
    mine = build_hierarchy(overrides=levels, charge_rotation_writebacks=charge)
    ref = RefHierarchy(levels, charge_rotation_writebacks=charge)
    for address, kind, space in accesses:
        mine.access(address, kind, space)
        ref.access(address, kind, space)
        for role in LEVEL_ROLES:
            m, r = mine.caches[role], ref.levels[role]
            assert (m.accesses, m.fills, m.write_hits, m.rotation_writebacks) == \
                (r.accesses, r.fills, r.write_hits, r.rotation_writebacks), role
            assert_lru_state(m, r)
    for role in LEVEL_ROLES:
        assert_same_counters(mine.caches[role], ref.levels[role])
