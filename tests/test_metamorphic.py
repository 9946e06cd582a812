"""Metamorphic whole-run checks: the simulator against itself under input
transformations whose effect on the reports is known exactly, so no
reference model is needed and long traces at the default geometry are
affordable.

Offsetting every cycle by k whole ring turns (k * rotation_period * ring
size) moves every register write by a multiple of the ring size in
rotation epochs, which leaves each write on the same physical slot; the
ALU and the caches do not read cycles at all. With count_rotation_shifts
off, the extra catch-up rotations write nothing, so only summary.cycles
may change, and by exactly the offset.

Adding k * S to every memory address, where S is the largest level span,
leaves both reports as they are. A cache level's span is sets * line_bytes
bytes and a TLB's is sets * line_bytes pages of 4 KiB: the bytes after which
its set index repeats. Every span is a power of two, so S is a multiple of
each, and the offset moves only address bits above every level's index
field: each access keeps its set at every level, so every count stays.

Moving every write to ring member i onto member (i + 1) mod N moves each
of them one slot up in both register files, since a file places ring
position a at slot (a + rotations) mod N; the ring writes keep their
cycles, so the aware file rotates as before. Both regfile count vectors
turn by one slot, which leaves every row's maxima, bins, average-to-max
ratio and improvement, and so the summary, unchanged."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emsim.cache import level_configs
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


PAGE_BYTES = 4096


def largest_span(config):
    """S: the largest number of address bytes after which a level's set
    index repeats."""
    levels = level_configs(config["rotation_period"], config["cache_overrides"])
    return max(level.sets * level.line_bytes * (PAGE_BYTES if role.endswith("TLB") else 1)
               for role, level in levels.items())


def offset_addresses(lines, offset):
    out = []
    for line in lines:
        cycle, kind, *fields = line.split()
        if kind == "M":
            fields[1] = str(int(fields[1]) + offset)
        out.append(" ".join((cycle, kind, *fields)))
    return out


@settings(max_examples=150, deadline=None)
@given(lines=trace_lines(), config=CONFIGS, data=st.data())
def test_offsetting_addresses_by_the_largest_span_changes_nothing(lines, config, data):
    if "cache" not in config["structures"]:
        config = dict(config, structures=(*config["structures"], "cache"))
    span = largest_span(config)
    # offsets up to about 2**40 move address bits far above every index field
    k = data.draw(st.integers(1, max(1, (1 << 40) // span)), label="k")
    assert report_files(offset_addresses(lines, k * span), config) == \
        report_files(lines, config)


DEFAULT_CONFIG = dict(structures=("alu", "regfile", "cache"), alu_units=3,
                      alu_policy="toggle-balance", regfile_preset="gpr16",
                      rotation_period=1000, count_rotation_shifts=False,
                      cache_overrides=None, charge_rotation_writebacks=True)


def test_offsetting_addresses_holds_on_a_long_default_geometry_trace():
    # longer than the whole-run oracle can afford, with every level at its
    # default geometry, where L3 and the STLB both span 512 KiB
    span = largest_span(DEFAULT_CONFIG)
    assert span == 512 << 10
    lines = long_mixed_lines(40_000)
    before = report_files(lines, DEFAULT_CONFIG)
    for k in (1, 3, (1 << 40) // span - 1):
        assert report_files(offset_addresses(lines, k * span), DEFAULT_CONFIG) == before


@pytest.mark.parametrize("offset", [64, PAGE_BYTES])
def test_offsetting_addresses_by_less_than_a_span_changes_the_reports(offset):
    # the relation has teeth: 64 B moves some lines into the next page, so
    # the TLBs see other pages; 4 KiB moves the set index of L1I and L2,
    # whose rotation write-backs then reach L3 in another order
    lines = long_mixed_lines(40_000)
    csv_after, doc_after = report_files(offset_addresses(lines, offset), DEFAULT_CONFIG)
    csv_before, doc_before = report_files(lines, DEFAULT_CONFIG)
    assert csv_after != csv_before and doc_after != doc_before


def relabel_ring(lines, ring):
    """lines with every write to ring member i moved onto member (i + 1) mod N."""
    successor = {member: ring[(i + 1) % len(ring)] for i, member in enumerate(ring)}
    out = []
    for line in lines:
        cycle, kind, *fields = line.split()
        if kind == "R":
            member = (fields[0], int(fields[1]))
            reg_class, arch_id = successor.get(member, member)
            fields = [reg_class, str(arch_id)]
        out.append(" ".join((cycle, kind, *fields)))
    return out


def assert_relabeling_turns_the_regfile_counts(lines, config):
    """Returns the baseline regfile counts before the relabeling."""
    csv_before, doc_before = report_files(lines, config)
    csv_after, doc_after = report_files(
        relabel_ring(lines, RING_PRESETS[config["regfile_preset"]]), config)
    assert csv_after == csv_before
    for before, after in zip(doc_before["reports"], doc_after["reports"]):
        if before["structure"].startswith("regfile."):
            counts_baseline = before["counts_baseline"]
            for key in ("counts_baseline", "counts_aware"):
                counts = before.pop(key)
                assert after.pop(key) == counts[-1:] + counts[:-1]
    assert doc_after == doc_before
    return counts_baseline


@settings(max_examples=150, deadline=None)
@given(lines=trace_lines(), config=CONFIGS)
def test_relabeling_ring_members_turns_the_regfile_counts_by_one_slot(lines, config):
    if "regfile" not in config["structures"]:
        config = dict(config, structures=(*config["structures"], "regfile"))
    assert_relabeling_turns_the_regfile_counts(lines, config)


@pytest.mark.parametrize("shifts", [False, True])
@pytest.mark.parametrize("preset", sorted(RING_PRESETS))
def test_relabeling_holds_on_a_long_default_geometry_trace(preset, shifts):
    # the relation has teeth: the baseline counts differ from their own turn
    config = dict(DEFAULT_CONFIG, regfile_preset=preset, count_rotation_shifts=shifts)
    counts = assert_relabeling_turns_the_regfile_counts(long_mixed_lines(40_000), config)
    assert counts[-1:] + counts[:-1] != counts
