import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emsim.em_models import UNBOUNDED
from emsim.wear_stats import (
    CSV_COLUMNS,
    geo_mean,
    histogram,
    histogram_report,
    idle_histogram,
    improvement_from_maxima,
    improvement_report,
    report_rows,
    reports_to_doc,
    write_outputs,
)

from reference_models import ref_avg_to_max, ref_histogram

count_vectors = st.lists(st.integers(min_value=0, max_value=10_000),
                         min_size=1, max_size=60)


def test_histogram_worked_example():
    h = histogram((100, 90, 50, 10))
    assert h.bins == (1, 1, 0, 1, 1)
    assert h.max_writes == 100
    assert h.avg_writes == 62.5
    assert h.num_entries == 4


def test_histogram_all_equal():
    assert histogram((7, 7, 7)).bins == (0, 0, 0, 0, 3)


def test_histogram_all_zero():
    h = histogram((0, 0))
    assert h.bins == (2, 0, 0, 0, 0)
    assert h.max_writes == 0 and h.avg_writes == 0.0


@pytest.mark.parametrize("c,expected_bin", [
    (25, 0),   # exactly 25% stays in the bottom bin
    (26, 1),
    (50, 1),
    (51, 2),
    (75, 2),
    (76, 3),
    (90, 3),   # exactly 90% stays in the fourth bin
    (91, 4),
    (0, 0),
    (100, 4),
])
def test_histogram_boundaries(c, expected_bin):
    h = histogram((c, 100))
    expected = [0, 0, 0, 0, 1]  # the max itself
    expected[expected_bin] += 1
    assert h.bins == tuple(expected)


def test_histogram_boundary_exact_at_odd_max():
    # 100*c vs 25*m in integers: c=3, m=12 is exactly 25%
    assert histogram((3, 12)).bins == (1, 0, 0, 0, 1)
    # c=27, m=30 is exactly 90%
    assert histogram((27, 30)).bins == (0, 0, 0, 1, 1)


def test_histogram_rejects():
    with pytest.raises(ValueError):
        histogram(())
    with pytest.raises(ValueError):
        histogram((1, -1))


@pytest.mark.parametrize("counts", [(-1,), [0, -3, 2], iter([2, -1]), range(-1, 2)])
def test_histogram_rejects_negative_counts(counts):
    # tuples are read in place, other sequences and iterables copied first
    with pytest.raises(ValueError, match="counts must be non-negative"):
        histogram(counts)


def test_improvement_report_rejects_negative_counts():
    with pytest.raises(ValueError, match="counts must be non-negative"):
        improvement_report((1, 2), (0, -1), "x")


@given(count_vectors)
def test_histogram_conserves_entries(counts):
    h = histogram(counts)
    assert sum(h.bins) == len(counts)
    if h.max_writes > 0:
        assert h.bins[4] >= 1  # the max entry sits at 100%


@given(count_vectors, st.integers(min_value=1, max_value=997))
def test_histogram_scale_invariant(counts, k):
    assert histogram(counts).bins == histogram([k * c for c in counts]).bins


@st.composite
def repetitive_count_vectors(draw):
    """Wear-like vectors: few distinct values, many repeats, and counts at
    exactly 25/50/75/90% of the maximum."""
    m = draw(st.integers(min_value=0, max_value=10**12))
    pool = draw(st.lists(st.integers(min_value=0, max_value=m), min_size=1, max_size=6))
    pool += [m * pct // 100 for pct in (25, 50, 75, 90, 100)]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))


@st.composite
def mostly_zero_count_vectors(draw):
    """Large-array-like vectors: most entries idle, a few written, as a
    tuple (a snapshot) or a list."""
    counts = [0] * draw(st.integers(min_value=0, max_value=2000))
    for c in draw(st.lists(st.integers(min_value=0, max_value=10**6), max_size=20)):
        counts.insert(draw(st.integers(min_value=0, max_value=len(counts))), c)
    counts = counts or [0]
    return tuple(counts) if draw(st.booleans()) else counts


@settings(max_examples=300)
@given(count_vectors | repetitive_count_vectors() | mostly_zero_count_vectors())
def test_histogram_matches_reference(counts):
    h = histogram(counts)
    assert (h.bins, h.max_writes, h.avg_writes, h.num_entries) == ref_histogram(counts)


def test_avg_to_max():
    assert ref_avg_to_max((100, 90, 50, 10)) == 0.625
    assert ref_avg_to_max((5, 5, 5)) == 1.0
    assert ref_avg_to_max((8, 0, 0, 0)) == 0.25
    with pytest.raises(ValueError):
        ref_avg_to_max((0, 0))
    with pytest.raises(ValueError):
        ref_avg_to_max(())
    # the reports carry the same ratio, and 0 for an idle structure
    r = improvement_report((100, 90, 50, 10), (8, 0, 0, 0), "x")
    assert (r.avg_to_max_baseline, r.avg_to_max_aware) == (0.625, 0.25)
    assert improvement_report((0, 0), (5, 5), "idle").avg_to_max_baseline == 0.0


def test_improvement_report_identical_inputs():
    r = improvement_report((4, 2, 9), (4, 2, 9), "alu")
    assert r.mtf_improvement == 0.0
    assert r.avg_to_max_baseline == r.avg_to_max_aware == 5 / 9


def test_improvement_report_worked_example():
    r = improvement_report((60, 30, 10), (34, 33, 33), "alu")
    assert math.isclose(r.mtf_improvement, 60 / 34 - 1, rel_tol=1e-12)
    assert round(r.mtf_improvement, 3) == 0.765


def test_improvement_report_single_hot_regfile():
    r = improvement_report((100, 0, 0, 0), (25, 25, 25, 25), "regfile")
    assert r.mtf_improvement == 3.0
    assert r.avg_to_max_baseline == 0.25
    assert r.avg_to_max_aware == 1.0


def test_improvement_degenerate_maxima():
    assert improvement_from_maxima(10, 0) is UNBOUNDED
    assert improvement_from_maxima(0, 0) == 0.0
    assert improvement_from_maxima(0, 10) == -1.0
    r = improvement_report((5, 5), (0, 0), "idle")
    assert r.mtf_improvement is UNBOUNDED
    assert r.avg_to_max_aware == 0.0


def test_histogram_report_copies_nothing():
    n = 131_072  # the lines of one default L3
    base, aware = [0] * n, [0] * n
    base[5], aware[9] = 3, 1
    tracemalloc.start()
    try:
        r = histogram_report(histogram(base), histogram(aware), "cache.L3.lines")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # a tuple copy of one of them alone is 1 MiB
    assert (r.histogram_baseline.max_writes, r.histogram_aware.max_writes) == (3, 1)
    assert r.counts_baseline is r.counts_aware is None


def test_improvement_report_keeps_copies_of_its_counts():
    # a copy, not the caller's list
    base, aware = [4, 2], [3, 3]
    r = improvement_report(base, aware, "alu")
    base[0] = aware[0] = 0
    assert (r.counts_baseline, r.counts_aware) == ((4, 2), (3, 3))


@pytest.mark.parametrize("n", [1, 2, 7, 512, 131072])
def test_idle_histogram_equals_the_histogram_of_zero_counts(n):
    built = histogram([0] * n)
    idle = idle_histogram(n)
    assert idle == built
    assert repr(idle) == repr(built)  # 0.0, not 0, where the histogram holds a float


def test_improvement_report_length_mismatch():
    with pytest.raises(ValueError, match="one structure"):
        improvement_report((1, 2), (1, 2, 3), "x")


@given(count_vectors.filter(lambda c: max(c) > 0),
       count_vectors.filter(lambda c: max(c) > 0))
@settings(max_examples=200)
def test_improvement_antisymmetric_in_ratio_space(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    # truncation can drop the only nonzero count; the law needs live maxima
    assume(max(a) > 0 and max(b) > 0)
    fwd = improvement_report(a, b, "s").mtf_improvement
    rev = improvement_report(b, a, "s").mtf_improvement
    assert math.isclose((1 + fwd) * (1 + rev), 1.0, rel_tol=1e-12)


def test_geo_mean():
    assert geo_mean([0.42]) == pytest.approx(0.42, rel=1e-15)
    assert geo_mean([0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert geo_mean([1.0, 3.0]) == pytest.approx(math.sqrt(8) - 1, rel=1e-15)
    assert geo_mean([0.5, UNBOUNDED]) is UNBOUNDED
    with pytest.raises(ValueError):
        geo_mean([])
    with pytest.raises(ValueError):
        geo_mean([0.5, -1.0])


def sample_reports():
    return [
        improvement_report((60, 30, 10), (34, 33, 33), "alu"),
        improvement_report((100, 0, 0, 0), (25, 25, 25, 25), "regfile.gpr16"),
        histogram_report(histogram((5, 5)), histogram((0, 0)), "cache.L1D.lines"),
    ]


def test_csv_emission(tmp_path):
    reports = sample_reports()
    path, _ = write_outputs(tmp_path, "report", CSV_COLUMNS, report_rows(reports),
                            reports_to_doc(reports))
    assert path == str(tmp_path / "report.csv")
    text = (tmp_path / "report.csv").read_bytes().decode("utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    alu = lines[1].split(",")
    assert alu[0] == "alu"
    assert alu[1] == "3" and alu[2] == "60" and alu[3] == "34"
    assert alu[-1] == "76.47%"
    assert float(alu[-2]) == 60 / 34 - 1
    idle = lines[3].split(",")
    assert idle[-2] == "unbounded" and idle[-1] == "unbounded"


def test_json_mirror(tmp_path):
    reports = sample_reports()
    doc = reports_to_doc(reports, summary={"total_cycles": 9})
    assert doc["summary"] == {"total_cycles": 9}
    alu, reg, idle = doc["reports"]
    assert alu["counts_baseline"] == [60, 30, 10]
    assert reg["counts_aware"] == [25, 25, 25, 25]
    assert "counts_baseline" not in idle
    assert idle["mtf_improvement"] == "unbounded"
    assert reg["bins_aware"] == [0, 0, 0, 0, 4]

    _, path = write_outputs(tmp_path / "new", "report", CSV_COLUMNS,
                            report_rows(reports), doc)
    assert path == str(tmp_path / "new" / "report.json")
    import json
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == doc
