import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emsim import simulate
from emsim.em_models import mtf_improvement
from emsim.simulate import _write_by_epoch
from emsim.regfile import RING_PRESETS, RotatingRegFile
from emsim.rng import SplitMix64
from emsim.workload import parse_trace
from reference_models import member_index, write_each


def make(n, **kw):
    return RotatingRegFile([("GPR", i) for i in range(n)], **kw)


def test_map_identity_at_reset():
    rf = make(16)
    assert [rf.map(a) for a in range(16)] == list(range(16))


def test_map_after_rotations():
    rf = make(16)
    rf.rotate()
    rf.rotate()
    assert rf.map(3) == 5
    rf2 = make(16)
    for _ in range(15):
        rf2.rotate()
    assert rf2.map(3) == 2  # wraps


def test_write_counter_follows_mapping():
    rf = make(4)
    write_each(rf, [0], [11])
    assert rf.phys_writes == [1, 0, 0, 0]
    rf.rotate()
    write_each(rf, [0], [22])
    assert rf.phys_writes == [1, 1, 0, 0]


def test_single_register_wear_leveling():
    # one hot register, rotation every 25 writes, 100 writes on N=4:
    # each physical slot ends up with exactly 25 writes, and the hotspot
    # improvement over the non-rotating file is exactly 3x
    rf = make(4)
    for i in range(100):
        write_each(rf, [0], [i])
        if (i + 1) % 25 == 0:
            rf.rotate()
    assert rf.phys_writes == [25, 25, 25, 25]
    assert mtf_improvement(100, max(rf.phys_writes)) == 3.0


def test_reads_survive_rotation():
    rf = make(2)
    write_each(rf, [0], [7])
    write_each(rf, [1], [9])
    rf.rotate()
    assert rf.read(0) == 7
    assert rf.read(1) == 9
    assert rf.values == [9, 7]  # physical layout swapped


def test_rotate_single_slot():
    rf = make(1)
    write_each(rf, [0], [5])
    rf.rotate()
    assert rf.read(0) == 5
    assert rf.map(0) == 0


def test_full_cycle_restores_layout():
    rf = make(5)
    for a in range(5):
        write_each(rf, [a], [a * 10])
    layout = list(rf.values)
    for _ in range(5):
        rf.rotate()
    assert [rf.map(a) for a in range(5)] == list(range(5))
    assert rf.values == layout


def test_uninitialized_reads_zero():
    rf = make(3)
    assert [rf.read(a) for a in range(3)] == [0, 0, 0]


@pytest.mark.parametrize("bad", [-1, 4, 100])
def test_index_errors(bad):
    rf = make(4)
    with pytest.raises(IndexError):
        rf.map(bad)
    with pytest.raises(IndexError):
        rf.read(bad)
    with pytest.raises(IndexError):
        write_each(rf, [bad], [0])


def test_construction_errors():
    with pytest.raises(ValueError):
        RotatingRegFile([])
    with pytest.raises(ValueError):
        RotatingRegFile([("GPR", 0), ("GPR", 0)])


@pytest.mark.parametrize("n", [2, 5, 16])
def test_transparency_fuzz(n):
    # random interleaving of writes, reads, and rotations must agree with a
    # plain dict at every read
    rf = make(n)
    ref = {}
    rng = SplitMix64(n * 1000 + 17)
    for _ in range(4000):
        op = rng.randbelow(4)
        a = rng.randbelow(n)
        if op <= 1:
            v = rng.next_u64()
            write_each(rf, [a], [v])
            ref[a] = v
        elif op == 2:
            assert rf.read(a) == ref.get(a, 0)
        else:
            rf.rotate()
    for a in range(n):
        assert rf.read(a) == ref.get(a, 0)


def test_rotation_shift_counting_flag():
    rf = make(4, count_rotation_shifts=True)
    write_each(rf, [0], [1])
    rf.rotate()
    assert rf.phys_writes == [2, 1, 1, 1]
    rf2 = make(4)
    write_each(rf2, [0], [1])
    rf2.rotate()
    assert rf2.phys_writes == [1, 0, 0, 0]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 20), shifts=st.booleans(),
       ops=st.lists(st.tuples(st.integers(0, 50), st.integers(0, 19)), max_size=30))
def test_rotate_times_matches_single_rotations(n, shifts, ops):
    # rotate(t) against t calls of rotate(), interleaved with writes
    batched = make(n, count_rotation_shifts=shifts)
    stepped = make(n, count_rotation_shifts=shifts)
    for value, (times, reg) in enumerate(ops):
        batched.rotate(times)
        for _ in range(times):
            stepped.rotate()
        write_each(batched, [reg % n], [value])
        write_each(stepped, [reg % n], [value])
        assert (batched.rotations_done, batched.values, batched.phys_writes) == \
            (stepped.rotations_done, stepped.values, stepped.phys_writes)


def test_rotate_rejects_negative_times():
    with pytest.raises(ValueError):
        make(4).rotate(-1)


def test_ring_presets():
    assert list(RING_PRESETS) == ["gpr16", "gpr-flags-sp", "fp32"]
    g = RING_PRESETS["gpr16"]
    assert len(g) == 16 and all(c == "GPR" for c, _ in g)
    e = RING_PRESETS["gpr-flags-sp"]
    assert len(e) == 18
    assert e[16] == ("FLAGS", 0) and e[17] == ("SP", 0)
    f = RING_PRESETS["fp32"]
    assert len(f) == 32 and f[31] == ("FP", 31)


def test_member_index():
    rf = RotatingRegFile(RING_PRESETS["gpr-flags-sp"])
    assert member_index(rf, "GPR", 5) == 5
    assert member_index(rf, "FLAGS", 0) == 16
    assert member_index(rf, "SP", 0) == 17
    assert member_index(rf, "FP", 0) is None
    assert member_index(rf, "GPR", 99) is None


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20), period=st.integers(1, 12), shifts=st.booleans(),
       writes=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 24)), max_size=60),
       cuts=st.lists(st.integers(0, 60)))
@example(n=2, period=10, shifts=False, writes=[(3, 1), (2, 1), (0, 5), (9, 0)], cuts=[])
def test_epoch_batches_match_writes_one_at_a_time(n, period, shifts, writes, cuts):
    # the register writes of a run, some to registers outside the ring, cut
    # into batches at random points and each batch split at rotation-epoch
    # boundaries, against one write at a time to the ring members, after
    # catching up on the rotations owed at its cycle
    cycles, keys = [], []
    cycle = 0
    for step, reg in writes:
        cycle += step
        cycles.append(cycle)
        keys.append(("GPR", reg))
    class Counting(RotatingRegFile):
        rotate_calls = 0

        def rotate(self, times=1):
            self.rotate_calls += 1
            super().rotate(times)

    base = make(n)
    batched = Counting([("GPR", i) for i in range(n)], count_rotation_shifts=shifts)
    flat, stepped = make(n), make(n, count_rotation_shifts=shifts)
    bounds = sorted({0, len(cycles), *(c for c in cuts if c < len(cycles))})
    for lo, hi in zip(bounds, bounds[1:]):
        _write_by_epoch(base, batched, period, keys[lo:hi], cycles[lo:hi])
    rotate_calls = 0
    for (_, reg), c in zip(keys, cycles):
        if reg >= n:
            continue
        owed = c // period - stepped.rotations_done
        if owed > 0:
            stepped.rotate(owed)
            rotate_calls += 1
        write_each(stepped, [reg], [c])
        write_each(flat, [reg], [c])
    assert (batched.rotations_done, batched.phys_writes) == \
        (stepped.rotations_done, stepped.phys_writes)
    assert (base.rotations_done, base.phys_writes) == (0, flat.phys_writes)
    # a trace carries no register values: the replay writes counts only
    assert batched.values == base.values == [0] * n
    # one rotate() per epoch that has ring writes, as one write at a time makes
    assert batched.rotate_calls == rotate_calls


def test_write_batch_counts_every_write_and_keeps_the_last_value():
    rf = make(4)
    rf.rotate()
    write_each(rf, [0, 2, 0, 3, 0], [10, 20, 30, 40, 50])
    assert rf.phys_writes == [1, 3, 0, 1]
    assert [rf.read(a) for a in range(4)] == [50, 0, 20, 40]
    rf.write({}, {})
    assert rf.phys_writes == [1, 3, 0, 1]
    rf.write({1: 5, 3: 1}, {3: 7, 1: 8})
    assert rf.phys_writes == [2, 3, 5, 1]
    assert [rf.read(a) for a in range(4)] == [50, 8, 20, 7]
    rf.write({0: 2, 3: 4})  # counts only: the stored values stay
    assert rf.phys_writes == [6, 5, 5, 1]
    assert [rf.read(a) for a in range(4)] == [50, 8, 20, 7]


@pytest.mark.parametrize("counts,values,error", [
    ({0: 1, 4: 1}, {0: 1, 4: 2}, IndexError), ({-1: 1, 0: 1}, {-1: 1, 0: 2}, IndexError),
    ({0: 1, 1: 1}, {0: 1}, ValueError), ({0: 1}, {0: 1, 1: 1}, ValueError)])
def test_bad_write_batch_writes_nothing(counts, values, error):
    rf = make(4)
    with pytest.raises(error):
        rf.write(counts, values)
    assert rf.phys_writes == [0, 0, 0, 0]
    assert rf.values == [0, 0, 0, 0]


def test_run_simulation_writes_once_per_epoch_segment(monkeypatch):
    # slices of 4 register writes at period 10: the first slice holds an
    # epoch boundary (cycle 10), the second starts on one (cycle 20) and
    # holds another that owes two rotations (cycle 45), and the last holds
    # only a write outside the ring, which makes no call
    calls = []
    write, rotate = RotatingRegFile.write, RotatingRegFile.rotate

    def label(rf):
        return "aware" if rf.count_rotation_shifts else "base"

    monkeypatch.setattr(RotatingRegFile, "write", lambda self, counts, values=None: calls.append(
        (label(self), "write", dict(counts))) or write(self, counts, values))
    monkeypatch.setattr(RotatingRegFile, "rotate", lambda self, times=1: calls.append(
        (label(self), "rotate", times)) or rotate(self, times))
    lines = ["0 R GPR 0", "1 R GPR 1", "10 R GPR 0", "11 R FP 0",
             "20 R GPR 2", "21 R GPR 2", "45 R GPR 3", "49 R GPR 0",
             "52 R FP 0"]
    cfg = simulate.SimConfig(structures=("regfile",), rotation_period=10,
                             count_rotation_shifts=True)
    monkeypatch.setattr(simulate, "CHUNK_RECORDS", 4)
    simulate.run_simulation(parse_trace(lines), cfg)
    assert calls == [
        ("base", "write", {0: 1, 1: 1}), ("aware", "write", {0: 1, 1: 1}),
        ("base", "write", {0: 1}), ("aware", "rotate", 1), ("aware", "write", {0: 1}),
        ("base", "write", {2: 2}), ("aware", "rotate", 1), ("aware", "write", {2: 2}),
        ("base", "write", {3: 1, 0: 1}), ("aware", "rotate", 2),
        ("aware", "write", {3: 1, 0: 1})]
