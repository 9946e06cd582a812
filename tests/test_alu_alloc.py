import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsim.alu_alloc import (
    COUNTER_ROTATE,
    FIXED_PRIORITY,
    POLICIES,
    TOGGLE_BALANCE,
    AluAllocator,
)
from emsim.rng import SplitMix64
from reference_models import RefAluAllocator, clone, ex_bits, global_bit, grant


def test_toggle_balance_worked_example():
    # Three units, request widths 0, 2, 2, 3 from reset. Expected grants,
    # per-unit bits (unit 0 first), and global bit at each step are the
    # worked sequence this allocator is defined by.
    alloc = AluAllocator(3, TOGGLE_BALANCE)
    assert ex_bits(alloc) == (0, 0, 0) and global_bit(alloc) == 0

    r = grant(alloc, 0)
    assert r == ()
    assert ex_bits(alloc) == (0, 0, 0) and global_bit(alloc) == 0

    r = grant(alloc, 2)
    assert r == (0, 1)
    assert ex_bits(alloc) == (1, 1, 0) and global_bit(alloc) == 0

    r = grant(alloc, 2)
    assert r == (2, 0)
    assert ex_bits(alloc) == (0, 1, 1) and global_bit(alloc) == 1

    r = grant(alloc, 3)
    assert r == (1, 2, 0)
    assert ex_bits(alloc) == (1, 0, 0) and global_bit(alloc) == 0

    assert tuple(alloc.usage) == (3, 2, 2)


def test_fixed_priority_selects_prefix():
    alloc = AluAllocator(4, FIXED_PRIORITY)
    assert grant(alloc, 3) == (0, 1, 2)
    assert grant(alloc, 1) == (0,)
    assert grant(alloc, 4) == (0, 1, 2, 3)
    assert tuple(alloc.usage) == (3, 2, 2, 1)


def test_fixed_priority_usage_monotone():
    alloc = AluAllocator(5, FIXED_PRIORITY)
    for k in [3, 1, 5, 0, 2, 4, 4, 1, 3]:
        alloc.allocate([k])
        u = alloc.usage
        assert all(u[i] >= u[i + 1] for i in range(len(u) - 1))


def test_counter_rotate_round_robin():
    alloc = AluAllocator(3, COUNTER_ROTATE)
    picks = [grant(alloc, 1)[0] for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    assert tuple(alloc.usage) == (2, 2, 2)


def test_counter_rotate_window_walks():
    alloc = AluAllocator(3, COUNTER_ROTATE)
    assert grant(alloc, 2) == (0, 1)
    assert grant(alloc, 2) == (1, 2)
    assert grant(alloc, 2) == (2, 0)
    assert tuple(alloc.usage) == (2, 2, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cycles", [1, 7, 12, 40])
def test_counter_rotate_balance_bound(n, cycles):
    # With the leading index advancing one position per call, each unit is
    # covered k*floor(C/n) to k*ceil(C/n) times over C calls, and exactly
    # C*k/n times whenever n divides C. (A flat +-1 band around C*k/n does
    # not hold for this counter, e.g. n=5, k=2, C=7 gives usage 4 vs 2.8.)
    for k in range(n + 1):
        alloc = AluAllocator(n, COUNTER_ROTATE)
        for _ in range(cycles):
            alloc.allocate([k])
        lo = k * (cycles // n)
        hi = k * (-(-cycles // n))
        for count in alloc.usage:
            assert lo <= count <= hi
        if cycles % n == 0:
            assert set(alloc.usage) == {k * cycles // n}


@pytest.mark.parametrize("policy", POLICIES)
def test_k_zero_changes_nothing(policy):
    alloc = AluAllocator(3, policy)
    before = (tuple(alloc.usage), ex_bits(alloc), global_bit(alloc))
    r = grant(alloc, 0)
    assert r == ()
    # counter-rotate still advances its cycle counter; usage must not move
    assert tuple(alloc.usage) == before[0]
    if policy == TOGGLE_BALANCE:
        assert (ex_bits(alloc), global_bit(alloc)) == before[1:]


@pytest.mark.parametrize("policy", POLICIES)
def test_k_out_of_range(policy):
    alloc = AluAllocator(3, policy)
    with pytest.raises(ValueError):
        alloc.allocate([-1])
    with pytest.raises(ValueError):
        alloc.allocate([4])


def test_bad_construction():
    with pytest.raises(ValueError):
        AluAllocator(0, FIXED_PRIORITY)
    with pytest.raises(ValueError):
        AluAllocator(3, "optimal")


@pytest.mark.parametrize("policy", POLICIES)
def test_result_shape_exhaustive(policy):
    # every k-sequence of length 4 over 3 units: grant size, uniqueness,
    # range, and usage conservation
    n = 3
    for seq in itertools.product(range(n + 1), repeat=4):
        alloc = AluAllocator(n, policy)
        for k in seq:
            r = grant(alloc, k)
            assert len(r) == k
            assert len(set(r)) == k
            assert all(0 <= u < n for u in r)
        assert sum(alloc.usage) == sum(seq)


def test_toggle_balance_stays_balanced():
    # exhaustively: all request sequences of length 5 over 3 units keep
    # the usage spread at 2 or less at every step (the wide sweep over
    # more unit counts and longer sequences lives in the acceptance suite)
    n = 3
    for seq in itertools.product(range(n + 1), repeat=5):
        alloc = AluAllocator(n, TOGGLE_BALANCE)
        for k in seq:
            alloc.allocate([k])
            u = alloc.usage
            assert max(u) - min(u) <= 2, (seq, u)


@pytest.mark.parametrize("policy", POLICIES)
def test_deterministic_trajectories(policy):
    seq = [2, 0, 3, 1, 1, 3, 2, 2, 0, 1]
    a = AluAllocator(3, policy)
    b = AluAllocator(3, policy)
    for k in seq:
        ra, rb = grant(a, k), grant(b, k)
        assert ra == rb
        assert a.usage == b.usage
        assert ex_bits(a) == ex_bits(b) and global_bit(a) == global_bit(b)


def test_clone_is_independent():
    a = AluAllocator(3, TOGGLE_BALANCE)
    a.allocate([2])
    c = clone(a)
    assert c.usage == a.usage
    assert ex_bits(c) == ex_bits(a) and global_bit(c) == global_bit(a)
    c.allocate([3])
    assert c.usage != a.usage
    # and the clone continues exactly like the original would have
    assert grant(clone(a), 3) == grant(a, 3)


def _same_state(mine, ref):
    assert mine.usage == ref.usage
    if ref.policy == TOGGLE_BALANCE:
        assert ex_bits(mine) == tuple(ref.bits)
        assert global_bit(mine) == ref.global_bit


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), policy=st.sampled_from(POLICIES))
def test_matches_reference_allocator(data, n, policy):
    # the memoised transition table against a step-by-step reference; a
    # clone taken part way must run on independently of the original
    ks = data.draw(st.lists(st.integers(0, n), max_size=60))
    split = data.draw(st.integers(0, len(ks)))
    mine, ref = AluAllocator(n, policy), RefAluAllocator(n, policy)
    for k in ks[:split]:
        r = grant(mine, k)
        assert r == ref.allocate(k)
        _same_state(mine, ref)
    twin = clone(mine)
    frozen = (tuple(mine.usage), ex_bits(mine), global_bit(mine))
    twin_ref = RefAluAllocator(n, policy)
    twin_ref.usage, twin_ref.lead = list(ref.usage), ref.lead
    twin_ref.bits, twin_ref.global_bit = list(ref.bits), ref.global_bit
    for k in ks[split:]:
        r = grant(twin, k)
        assert r == twin_ref.allocate(k)
        _same_state(twin, twin_ref)
    assert (tuple(mine.usage), ex_bits(mine), global_bit(mine)) == frozen
    for k in ks[split:]:
        r = grant(mine, k)
        assert r == ref.allocate(k)
        _same_state(mine, ref)


@pytest.mark.parametrize("n", range(1, 9))
def test_toggle_balance_table_stays_small(n):
    # toggle-balance reaches only 2N states, so the memo holds at most
    # 2N * (N + 1) transitions however long the request stream runs
    seen, frontier = set(), [AluAllocator(n, TOGGLE_BALANCE)]
    while frontier:
        a = frontier.pop()
        for k in range(n + 1):
            b = clone(a)
            b.allocate([k])
            state = (ex_bits(b), global_bit(b))
            if state not in seen:
                seen.add(state)
                frontier.append(b)
    assert len(seen) == 2 * n
    alloc = AluAllocator(n, TOGGLE_BALANCE)
    rng = SplitMix64(n)
    for _ in range(5000):
        alloc.allocate([rng.randbelow(n + 1)])
        steps = sum(step is not None for row in alloc._table.values() for step in row)
        assert steps <= 2 * n * (n + 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), policy=st.sampled_from(POLICIES))
def test_batches_in_random_splits_match_reference(data, n, policy):
    # one request stream cut into batches at random points, against the
    # reference allocator one request at a time; a clone taken before each
    # batch replays it one request at a time for the per-cycle grants
    ks = data.draw(st.lists(st.integers(0, n), max_size=80))
    cuts = sorted(set(data.draw(st.lists(st.integers(0, len(ks))))) | {0, len(ks)})
    mine, ref = AluAllocator(n, policy), RefAluAllocator(n, policy)
    for lo, hi in zip(cuts, cuts[1:]):
        probe = clone(mine)
        assert [grant(probe, k) for k in ks[lo:hi]] == [ref.allocate(k) for k in ks[lo:hi]]
        assert mine.allocate(ks[lo:hi]) is None
        _same_state(mine, ref)
        _same_state(probe, ref)
    mine.allocate([])
    _same_state(mine, ref)


@pytest.mark.parametrize("policy", POLICIES)
def test_bad_request_in_a_batch_grants_nothing(policy):
    alloc = AluAllocator(3, policy)
    alloc.allocate([1, 2])
    before = (tuple(alloc.usage), ex_bits(alloc), global_bit(alloc))
    for ks in ([2, 4, 1], [0, -1]):
        with pytest.raises(ValueError, match="k must be in"):
            alloc.allocate(ks)
        assert (tuple(alloc.usage), ex_bits(alloc), global_bit(alloc)) == before
    # and it goes on as if the bad batches never came
    fresh = AluAllocator(3, policy)
    fresh.allocate([1, 2, 3])
    alloc.allocate([3])
    assert (tuple(alloc.usage), ex_bits(alloc), global_bit(alloc)) == \
        (tuple(fresh.usage), ex_bits(fresh), global_bit(fresh))
