"""Whole-run differential test: run_simulation plus the report writers
against ref_run_simulation, on small random traces and configurations.
Every number of both report files and the summary is compared exactly."""

import csv
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emsim import simulate
from emsim.cache import LEVEL_ROLES
from emsim.simulate import STRUCTURES, SimConfig, run_simulation, write_report_files
from emsim.workload import parse_trace
from reference_models import ref_parse_trace, ref_run_simulation

# a low address, or one with a high part of 1-7 at bit 21, above the index
# field of every level the draws configure
ADDRESSES = st.integers(0, 1 << 14) | st.builds(
    lambda low, high: low | high << 21, st.integers(0, 1 << 14), st.integers(1, 7))
RECORDS = st.one_of(
    st.tuples(st.just("A"), st.integers(0, 7)),
    st.tuples(st.just("R"), st.sampled_from(["GPR", "FP", "FLAGS", "SP"]),
              st.integers(0, 33)),
    st.tuples(st.just("M"), st.sampled_from("RW"), ADDRESSES, st.sampled_from("DI")))
GAPS = st.integers(0, 2) | st.integers(3, 400)


@st.composite
def trace_lines(draw):
    """Lines of a valid trace: non-decreasing cycles with idle gaps, at most
    one ALU record per cycle."""
    lines = []
    cycle, alu_cycle = 0, -1
    for gap, record in draw(st.lists(st.tuples(GAPS, RECORDS), max_size=120)):
        cycle += gap
        if record[0] == "A":
            if cycle == alu_cycle:
                cycle += 1
            alu_cycle = cycle
        lines.append(" ".join(map(str, (cycle, *record))))
    return lines


LEVEL_OVERRIDE = st.fixed_dictionaries(
    {"sets": st.sampled_from([1, 2, 4, 8]), "ways": st.integers(1, 4)},
    optional={"line_bytes": st.sampled_from([4, 16, 64]),
              "rotation_period": st.integers(1, 30) | st.sampled_from(["never", None]),
              "write_allocate": st.booleans()})
# L3 is always shrunk: its default geometry holds 131,072 lines
CACHE_OVERRIDES = st.fixed_dictionaries(
    {"L3": LEVEL_OVERRIDE},
    optional={role: LEVEL_OVERRIDE for role in LEVEL_ROLES if role != "L3"})
CONFIGS = st.fixed_dictionaries({
    "structures": st.lists(st.sampled_from(STRUCTURES), min_size=1, max_size=3,
                           unique=True).map(tuple),
    "alu_units": st.integers(1, 5),
    "alu_policy": st.sampled_from(["counter-rotate", "toggle-balance"]),
    "regfile_preset": st.sampled_from(["gpr16", "gpr-flags-sp", "fp32"]),
    "rotation_period": st.integers(1, 50),
    "count_rotation_shifts": st.booleans(),
    "cache_overrides": CACHE_OVERRIDES,
    "charge_rotation_writebacks": st.booleans(),
})


def check_against_reference(lines, config):
    reports, summary = run_simulation(parse_trace(lines), SimConfig(**config))
    doc, rows, ref_summary = ref_run_simulation(ref_parse_trace(lines), **config)
    assert summary == ref_summary
    with tempfile.TemporaryDirectory() as out:
        csv_path, json_path = write_report_files(reports, summary, out)
        with open(csv_path, encoding="utf-8", newline="") as fh:
            assert list(csv.reader(fh)) == rows
        assert json.loads(Path(json_path).read_text(encoding="utf-8")) == doc


@settings(max_examples=200, deadline=None)
@given(lines=trace_lines(), config=CONFIGS)
def test_run_simulation_matches_reference(lines, config):
    check_against_reference(lines, config)


def boundary_config(structures):
    return dict(structures=structures, alu_units=2, alu_policy="toggle-balance",
                regfile_preset="gpr16", rotation_period=2, count_rotation_shifts=True,
                cache_overrides={"L3": {"sets": 2, "ways": 2, "rotation_period": 3}},
                charge_rotation_writebacks=True)


@settings(max_examples=100, deadline=None)
@given(lines=trace_lines(), config=CONFIGS, chunk=st.integers(1, 8))
# traces that end on the last record of a full chunk with fewer than a
# chunk of memory records pending: the last batch must still be replayed
@example(lines=["0 A 2", "0 M W 64 D", "1 R GPR 3", "2 A 1", "2 R GPR 5",
                "3 M R 4096 I"], config=boundary_config(STRUCTURES), chunk=3)
@example(lines=["0 M W 64 D", "0 M R 4096 I", "1 A 3", "1 M W 8192 D", "2 A 1",
                "3 R GPR 1"], config=boundary_config(STRUCTURES), chunk=2)
@example(lines=[f"{c} M {'RW'[c % 2]} {c * 64} {'DI'[c % 3 == 0]}" for c in range(7)]
         + ["7 A 1"], config=boundary_config(("cache",)), chunk=4)
def test_run_simulation_in_small_chunks_matches_reference(lines, config, chunk):
    # chunks of a few records, so that rotation epochs, the records of one
    # cycle and runs of ALU requests straddle chunk boundaries
    with mock.patch.object(simulate, "CHUNK_RECORDS", chunk):
        check_against_reference(lines, config)


@pytest.mark.parametrize("lines", [[], ["0 A 2", "0 R GPR 3", "4 R FP 1", "5 A 9"]])
def test_trace_without_memory_records_matches_reference(lines):
    # no hierarchy is built for such a trace: its idle cache rows must
    # still match the reference, which replays two full hierarchies
    check_against_reference(lines, boundary_config(STRUCTURES))


def test_default_l3_geometry_matches_reference():
    # the draws above always shrink L3; here 8,193 reads of distinct lines
    # reach the default L3 (8,192 sets), which rotates after every access
    # and so wraps its set mapping once, while no other level rotates
    levels = {role: {"rotation_period": 1 if role == "L3" else "never"}
              for role in LEVEL_ROLES}
    lines = [f"{c} M R {c * 64} D" for c in range(8193)]
    check_against_reference(lines, dict(boundary_config(("cache",)), cache_overrides=levels))
