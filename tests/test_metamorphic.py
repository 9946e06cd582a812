"""Metamorphic whole-run checks: the simulator against itself under input
transformations whose effect on the reports is known exactly, so no
reference model is needed and long traces at the default geometry are
affordable.

Offsetting every cycle by k whole ring turns (k * rotation_period * ring
size) moves every register write by a multiple of the ring size in
rotation epochs, which leaves each write on the same physical slot; the
ALU and the caches do not read cycles at all. With count_rotation_shifts
off, the extra catch-up rotations write nothing, so only summary.cycles
may change, and by exactly the offset."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emsim.regfile import RING_PRESETS
from emsim.simulate import SimConfig, run_simulation, write_report_files
from emsim.workload import parse_trace
from test_simulate_oracle import CONFIGS, trace_lines


def report_files(lines, config):
    """(report.csv bytes, parsed report.json) of one run on lines."""
    reports, summary = run_simulation(parse_trace(lines), SimConfig(**config))
    with tempfile.TemporaryDirectory() as out:
        csv_path, json_path = write_report_files(reports, summary, out)
        return (Path(csv_path).read_bytes(),
                json.loads(Path(json_path).read_text(encoding="utf-8")))


def offset_cycles(lines, offset):
    return [f"{int(cycle) + offset} {rest}"
            for cycle, _, rest in (line.partition(" ") for line in lines)]


def assert_only_the_cycle_count_moves(lines, config, k):
    offset = k * config["rotation_period"] * len(RING_PRESETS[config["regfile_preset"]])
    csv_before, doc_before = report_files(lines, config)
    csv_after, doc_after = report_files(offset_cycles(lines, offset), config)
    assert csv_after == csv_before
    cycles_before = doc_before["summary"].pop("cycles")
    cycles_after = doc_after["summary"].pop("cycles")
    assert doc_after == doc_before
    assert cycles_after == cycles_before + offset


@settings(max_examples=150, deadline=None)
@given(lines=trace_lines(), config=CONFIGS, k=st.integers(1, 3))
def test_offsetting_cycles_by_whole_ring_turns_changes_only_the_cycle_count(lines, config, k):
    assume(lines)  # an empty trace has no cycle to offset
    assert_only_the_cycle_count_moves(lines, dict(config, count_rotation_shifts=False), k)


def long_mixed_lines(n):
    """n cycles at the default geometry, each with an ALU burst and a
    register write over 34 GPR/FP ids (some outside every ring), and every
    other cycle a memory access over 2,048 data and instruction lines."""
    lines = []
    for c in range(n):
        lines.append(f"{c} A {c * 5 % 7}")
        lines.append(f"{c} R {'GPR' if c % 3 else 'FP'} {c * 13 % 34}")
        if c % 2:
            lines.append(f"{c} M {'RW'[c % 5 == 0]} {c * 97 % 2048 * 64} {'DI'[c % 7 == 0]}")
    return lines


@pytest.mark.parametrize("preset", sorted(RING_PRESETS))
def test_offsetting_cycles_holds_on_a_long_default_geometry_trace(preset):
    # longer than the whole-run oracle can afford: 40,000 cycles, many
    # rotation epochs, and every cache level at its default geometry
    config = dict(structures=("alu", "regfile", "cache"), alu_units=3,
                  alu_policy="toggle-balance", regfile_preset=preset,
                  rotation_period=1000, count_rotation_shifts=False,
                  cache_overrides=None, charge_rotation_writebacks=True)
    assert_only_the_cycle_count_moves(long_mixed_lines(40_000), config, 3)
