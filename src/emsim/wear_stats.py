"""Write-distribution statistics and report emission.

Raw per-entry write counters become: a five-bin histogram of each entry's
write count relative to the hottest entry (r = 100*c/max, bins r <= 25,
25 < r <= 50, 50 < r <= 75, 75 < r <= 90, r > 90), the average-to-max
ratio, the hotspot lifetime improvement max_baseline/max_aware - 1, and a
ratio-space geometric mean for aggregating improvements across structures.

report_entry holds a report row's values, for report.json and report.csv
alike; write_outputs owns the bytes of every report file, report.* and
report-merge's merged.*.

Bin placement compares 100*c against edge*max in exact integer arithmetic,
so a count at exactly 25% or 90% of the maximum lands deterministically on
the closed side of its boundary regardless of magnitudes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from bisect import bisect_left
from collections import Counter
from typing import Iterable, NamedTuple, Sequence, Union

from .em_models import UNBOUNDED, Unbounded, mtf_improvement

BIN_LABELS = ("0_25", "25_50", "50_75", "75_90", "90_100")
_BIN_UPPER = (25, 50, 75, 90)

Improvement = Union[float, Unbounded]


class WriteHistogram(NamedTuple):
    bins: tuple[int, int, int, int, int]
    max_writes: int
    avg_writes: float
    num_entries: int


class StructureReport(NamedTuple):
    structure: str
    num_entries: int
    histogram_baseline: WriteHistogram
    histogram_aware: WriteHistogram
    avg_to_max_baseline: float
    avg_to_max_aware: float
    mtf_improvement: Improvement
    counts_baseline: tuple[int, ...] | None = None
    counts_aware: tuple[int, ...] | None = None


def histogram(counts: Sequence[int]) -> WriteHistogram:
    if not isinstance(counts, (list, tuple)):
        counts = list(counts)
    if not counts:
        raise ValueError("counts must be non-empty")
    # idle entries, often most of a large array, all fall in the lowest bin;
    # the other counters repeat a lot: place each distinct value once
    written = Counter(filter(None, counts))
    if written and min(written) < 0:
        raise ValueError("counts must be non-negative")
    m = max(written, default=0)
    bins = [counts.count(0), 0, 0, 0, 0]
    edges = [upper * m for upper in _BIN_UPPER]
    for c, n in written.items():
        bins[bisect_left(edges, 100 * c)] += n
    return WriteHistogram(bins=tuple(bins), max_writes=m,
                          avg_writes=sum(c * n for c, n in written.items()) / len(counts),
                          num_entries=len(counts))


def idle_histogram(num_entries: int) -> WriteHistogram:
    """What histogram returns for an all-zero count vector of num_entries
    (>= 1) entries, built without it."""
    return WriteHistogram(bins=(num_entries, 0, 0, 0, 0), max_writes=0,
                          avg_writes=0.0, num_entries=num_entries)


def _ratio_or_zero(hist: WriteHistogram) -> float:
    if hist.max_writes == 0:
        return 0.0
    return hist.avg_writes / hist.max_writes


def improvement_from_maxima(max_baseline: int, max_aware: int) -> Improvement:
    """Hotspot lifetime improvement, with degenerate maxima handled:
    an idle aware structure against a busy baseline is unbounded, two idle
    structures are a wash (0), an idle baseline against a busy aware
    structure is total regression (-1)."""
    if max_baseline > 0 and max_aware > 0:
        return mtf_improvement(max_baseline, max_aware)
    if max_baseline > 0:
        return UNBOUNDED
    if max_aware > 0:
        return -1.0
    return 0.0


def improvement_report(baseline_counts: Sequence[int],
                       aware_counts: Sequence[int],
                       structure: str) -> StructureReport:
    """The report row of two count vectors, which it keeps as copies."""
    return histogram_report(
        histogram(baseline_counts), histogram(aware_counts), structure,
        counts_baseline=tuple(baseline_counts), counts_aware=tuple(aware_counts))


def histogram_report(hist_baseline: WriteHistogram,
                     hist_aware: WriteHistogram,
                     structure: str,
                     counts_baseline: tuple[int, ...] | None = None,
                     counts_aware: tuple[int, ...] | None = None) -> StructureReport:
    """The report row of two runs' histograms: a caller that histograms its
    counters as it lets them go keeps no count vector for the row."""
    if hist_baseline.num_entries != hist_aware.num_entries:
        raise ValueError(
            f"{structure}: baseline has {hist_baseline.num_entries} entries, "
            f"aware has {hist_aware.num_entries}; the runs must cover one structure")
    return StructureReport(
        structure=structure,
        num_entries=hist_baseline.num_entries,
        histogram_baseline=hist_baseline,
        histogram_aware=hist_aware,
        avg_to_max_baseline=_ratio_or_zero(hist_baseline),
        avg_to_max_aware=_ratio_or_zero(hist_aware),
        mtf_improvement=improvement_from_maxima(hist_baseline.max_writes, hist_aware.max_writes),
        counts_baseline=counts_baseline,
        counts_aware=counts_aware,
    )


def geo_mean(improvements: Iterable[Improvement]) -> Improvement:
    vals = list(improvements)
    if not vals:
        raise ValueError("need at least one improvement")
    if any(v is UNBOUNDED for v in vals):
        return UNBOUNDED
    if any(v <= -1.0 for v in vals):
        raise ValueError("improvements must be > -1")
    # plain left-to-right addition: from Python 3.12 on, sum() compensates
    # float rounding and would change the last digits between interpreters
    total = 0.0
    for v in vals:
        total += math.log1p(v)
    return math.exp(total / len(vals)) - 1.0


# --- report emission ----------------------------------------------------------

CSV_COLUMNS = (
    "structure", "num_entries", "max_baseline", "max_aware",
    "avg_to_max_baseline", "avg_to_max_aware",
    *(f"bin_baseline_{lbl}" for lbl in BIN_LABELS),
    *(f"bin_aware_{lbl}" for lbl in BIN_LABELS),
    "mtf_improvement", "mtf_improvement_display",
)


def improvement_display(value: Improvement) -> str:
    """Percent form for people: "194.12%", or "unbounded"."""
    return "unbounded" if value is UNBOUNDED else f"{value * 100:.2f}%"


def improvement_to_json(value: Improvement) -> float | str:
    """The exact float, or "unbounded": a report's JSON value and CSV cell."""
    return "unbounded" if value is UNBOUNDED else value


def improvement_from_json(value: float | str) -> Improvement:
    return UNBOUNDED if value == "unbounded" else value


def report_entry(r: StructureReport) -> dict:
    """The one list of a report row's values, in CSV_COLUMNS order: the row
    of report.json, and, with each bin list spread over five cells, of
    report.csv."""
    return {
        "structure": r.structure,
        "num_entries": r.num_entries,
        "max_baseline": r.histogram_baseline.max_writes,
        "max_aware": r.histogram_aware.max_writes,
        "avg_to_max_baseline": r.avg_to_max_baseline,
        "avg_to_max_aware": r.avg_to_max_aware,
        "bins_baseline": list(r.histogram_baseline.bins),
        "bins_aware": list(r.histogram_aware.bins),
        "mtf_improvement": improvement_to_json(r.mtf_improvement),
    }


def report_rows(reports: Iterable[StructureReport]):
    """report.csv's cells under CSV_COLUMNS: the report_entry values, a
    list spread one element per cell, then the improvement's display form."""
    for r in reports:
        row = []
        for value in report_entry(r).values():
            row += value if isinstance(value, list) else [value]
        yield row + [improvement_display(r.mtf_improvement)]


def reports_to_doc(reports: Iterable[StructureReport],
                   summary: dict | None = None) -> dict:
    """report.json's document: each report_entry, plus raw counts where
    captured, and the summary."""
    out = []
    for r in reports:
        entry = report_entry(r)
        if r.counts_baseline is not None:
            entry["counts_baseline"] = list(r.counts_baseline)
            entry["counts_aware"] = list(r.counts_aware)
        out.append(entry)
    doc = {"reports": out}
    if summary is not None:
        doc["summary"] = summary
    return doc


def write_outputs(out_dir, name: str, header: Sequence[str],
                  rows: Iterable[Sequence], doc) -> tuple[str, str]:
    """The one owner of every report file's bytes: creates out_dir and
    writes NAME.csv (header, then rows; UTF-8, LF line ends, minimal
    quoting, a float as its repr) and then NAME.json (doc, two-space
    indent, final LF). Returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path
