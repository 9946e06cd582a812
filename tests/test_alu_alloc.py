import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsim import simulate
from emsim.alu_alloc import (
    COUNTER_ROTATE,
    FIXED_PRIORITY,
    POLICIES,
    TOGGLE_BALANCE,
    AluAllocator,
)
from emsim.rng import SplitMix64
from emsim.simulate import MAX_ALU_UNITS
from emsim.workload import parse_trace
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
    # a negative or non-int request raises; one above N saturates at N
    alloc = AluAllocator(3, policy)
    with pytest.raises(ValueError):
        alloc.allocate([-1])
    with pytest.raises(TypeError):
        alloc.allocate([1.5])
    saturated, full = AluAllocator(3, policy), AluAllocator(3, policy)
    saturated.allocate([4, 9, 1])
    full.allocate([3, 3, 1])
    assert saturated.usage == full.usage
    assert saturated.position == full.position


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
    # exhaustively: all request sequences of length 5 over 3 units leave
    # each unit T // N or T // N + 1 of the T grants so far at every step,
    # units below T mod N holding the extra one (the wide sweep of the
    # spread over more unit counts and longer sequences lives in the
    # acceptance suite)
    n = 3
    for seq in itertools.product(range(n + 1), repeat=5):
        alloc = AluAllocator(n, TOGGLE_BALANCE)
        for k in seq:
            alloc.allocate([k])
            laps, rest = divmod(sum(alloc.usage), n)
            assert alloc.usage == [laps + (u < rest) for u in range(n)], (seq, alloc.usage)


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
    elif ref.policy == COUNTER_ROTATE:
        assert mine.position == ref.lead


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), policy=st.sampled_from(POLICIES))
def test_matches_reference_allocator(data, n, policy):
    # the closed-form batches against a step-by-step reference; a
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
@pytest.mark.parametrize("policy", POLICIES)
def test_position_stays_small(n, policy):
    # all an allocator keeps between batches, besides usage, is a position
    # in [0, N), however long the request stream runs
    alloc = AluAllocator(n, policy)
    rng = SplitMix64(n)
    for _ in range(2000):
        alloc.allocate([rng.randbelow(n + 3) for _ in range(rng.randbelow(2 * n + 2))])
        assert 0 <= alloc.position < n
        if policy == FIXED_PRIORITY:
            assert alloc.position == 0


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
    before = (tuple(alloc.usage), alloc.position)
    for ks, error, message in (([2, -4, 1], ValueError, "k must be >= 0, got -4"),
                               ([0, -1], ValueError, "k must be >= 0, got -1"),
                               ([1, 2.5], TypeError, "k must be an integer, got 2.5"),
                               ([1, 1.0], TypeError, "k must be an integer, got 1.0"),
                               ([Fraction(2), 2], TypeError,
                                "k must be an integer, got Fraction(2, 1)"),
                               ([3, None], TypeError, "k must be an integer, got None")):
        with pytest.raises(error) as excinfo:
            alloc.allocate(ks)
        assert str(excinfo.value) == message
        assert (tuple(alloc.usage), alloc.position) == before
    # and it goes on as if the bad batches never came
    fresh = AluAllocator(3, policy)
    fresh.allocate([1, 2, 3])
    alloc.allocate([3])
    assert (tuple(alloc.usage), alloc.position) == (tuple(fresh.usage), fresh.position)


def closed_form_usage(policy, n, ks):
    """Each unit's grants after the requests ks from reset, straight from
    each policy's closed form: fixed-priority grants units below k;
    counter-rotate's i-th request covers the window of its k units from
    unit i mod N; toggle-balance hands its T grants out round-robin, so
    unit u holds T // N, plus one if u < T mod N."""
    ks = [min(k, n) for k in ks]
    if policy == FIXED_PRIORITY:
        return [sum(u < k for k in ks) for u in range(n)]
    if policy == COUNTER_ROTATE:
        return [sum((u - i) % n < k for i, k in enumerate(ks)) for u in range(n)]
    laps, rest = divmod(sum(ks), n)
    return [laps + (u < rest) for u in range(n)]


NON_INTS = st.one_of(st.floats(allow_nan=True), st.fractions(), st.decimals(),
                     st.none(), st.text(max_size=2))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, MAX_ALU_UNITS), policy=st.sampled_from(POLICIES))
def test_batches_match_closed_form_and_reference(data, n, policy):
    # a request stream of widths up to N + 2, cut into batches at random
    # points, with now and then a batch that holds a non-int request: that
    # batch raises and leaves usage and position as they were
    ks = data.draw(st.lists(st.integers(0, n + 2), max_size=40))
    cuts = sorted(set(data.draw(st.lists(st.integers(0, len(ks)), max_size=8))) | {0, len(ks)})
    mine, ref = AluAllocator(n, policy), RefAluAllocator(n, policy)
    for lo, hi in zip(cuts, cuts[1:]):
        if data.draw(st.booleans()):
            bad = data.draw(NON_INTS)
            batch = list(ks[lo:hi])
            batch.insert(data.draw(st.integers(0, len(batch))), bad)
            before = (list(mine.usage), mine.position)
            with pytest.raises(TypeError):
                mine.allocate(batch)
            assert (mine.usage, mine.position) == before
        mine.allocate(ks[lo:hi])
        for k in ks[lo:hi]:
            ref.allocate(min(k, n))
        _same_state(mine, ref)
        assert mine.usage == closed_form_usage(policy, n, ks[:hi])
        assert 0 <= mine.position < n


def test_run_simulation_calls_allocate_once_per_slice_on_each_allocator(monkeypatch):
    # 2.5 chunks of ALU records: each allocator takes each slice in one
    # call, the baseline first, and the last slice is the partial one
    calls = []
    allocate = AluAllocator.allocate
    monkeypatch.setattr(AluAllocator, "allocate", lambda self, ks: calls.append(
        (self.policy, list(ks))) or allocate(self, ks))
    n = simulate.CHUNK_RECORDS
    widths = [c % 5 for c in range(5 * n // 2)]
    trace = parse_trace([f"{c} A {k}" for c, k in enumerate(widths)])
    simulate.run_simulation(trace, simulate.SimConfig(alu_policy=COUNTER_ROTATE))
    slices = [widths[:n], widths[n:2 * n], widths[2 * n:]]
    assert calls == [(policy, ks) for ks in slices
                     for policy in (FIXED_PRIORITY, COUNTER_ROTATE)]
