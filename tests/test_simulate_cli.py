"""Side-by-side simulation driver and command-line interface tests."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsim import cli
from emsim.alu_alloc import AluAllocator
from emsim.cache import LEVEL_ROLES
from emsim.cli import main
from emsim.regfile import RotatingRegFile
from emsim.rng import SplitMix64
from emsim.simulate import SimConfig, run_simulation
from emsim.workload import (
    AluIssue,
    ConfigError,
    Event,
    MemAccess,
    RegWrite,
    Trace,
    generate,
    genspec_from_json,
    parse_trace,
    save_trace,
)

WORKED_ALU_TRACE = """\
# emsim trace v1
0 A 0
1 A 2
2 A 2
3 A 3
"""

MIXED_TRACE = """\
# emsim trace v1
0 A 0
0 R GPR 3
0 M R 4096 D
1 A 2
1 R GPR 3
2 A 2
2 M W 8192 D
3 A 3
3 M R 65536 I
"""


def events_of(text):
    return parse_trace(text.splitlines())


# --- run_simulation -----------------------------------------------------------


def test_worked_alu_sequence_side_by_side():
    reports, summary = run_simulation(events_of(WORKED_ALU_TRACE),
                                      SimConfig(structures=("alu",)))
    (row,) = reports
    assert row.structure == "alu"
    assert row.counts_aware == (3, 2, 2)
    assert row.counts_baseline == (3, 3, 1)
    # both maxima are 3 here, so the hotspot gain is zero
    assert row.mtf_improvement == 0.0
    assert summary["alu_issues"] == 4
    assert summary["cycles"] == 4


def test_empty_event_list():
    reports, summary = run_simulation(Trace(), SimConfig())
    assert all(r.histogram_baseline.max_writes == 0 for r in reports)
    assert all(r.mtf_improvement == 0.0 for r in reports)
    assert summary["cycles"] == 0
    assert summary["events"] == 0
    assert summary["geo_mean_improvement"] is None


def test_structure_selection_controls_report_rows():
    ev = events_of(MIXED_TRACE)
    alu_only, _ = run_simulation(ev, SimConfig(structures=("alu",)))
    assert [r.structure for r in alu_only] == ["alu"]
    cache_only, _ = run_simulation(ev, SimConfig(structures=("cache",)))
    names = [r.structure for r in cache_only]
    assert len(names) == 14  # seven levels, a lines row and a tags row each
    assert names[0] == "cache.L1D.lines"
    assert names[1] == "cache.L1D.tags"
    assert all(n.startswith("cache.") for n in names)


def test_report_rows_keep_fixed_order():
    reports, _ = run_simulation(events_of(MIXED_TRACE), SimConfig())
    names = [r.structure for r in reports]
    assert names[:2] == ["alu", "regfile.gpr16"]
    assert names[2:6] == ["cache.L1D.lines", "cache.L1D.tags",
                          "cache.L1I.lines", "cache.L1I.tags"]
    assert names[-2:] == ["cache.STLB.lines", "cache.STLB.tags"]


def test_regfile_rotation_catches_up_across_idle_gaps():
    # one write at cycle 0, the next at cycle 100 with period 10: by then
    # ten rotations are owed, so the same architectural register lands on
    # physical slot 10
    text = "# emsim trace v1\n0 R GPR 0\n100 R GPR 0\n"
    reports, _ = run_simulation(
        events_of(text),
        SimConfig(structures=("regfile",), rotation_period=10))
    (row,) = reports
    counts = row.counts_aware
    assert counts[0] == 1
    assert counts[10] == 1
    assert sum(counts) == 2
    assert row.counts_baseline[0] == 2


def test_regfile_catch_up_cost_does_not_grow_with_cycle_span():
    # 3e9 owed rotations at period 1 are applied as one modular shift
    text = "0 R GPR 0\n3000000000 R GPR 0\n"
    t0 = time.perf_counter()
    reports, _ = run_simulation(
        events_of(text),
        SimConfig(structures=("regfile",), rotation_period=1,
                  count_rotation_shifts=True))
    elapsed = time.perf_counter() - t0
    (row,) = reports
    # slot 0 took the first write, slot 3e9 mod 16 = 0 the second, and
    # every slot was charged one shift per rotation
    assert row.counts_aware == (3_000_000_002,) + (3_000_000_000,) * 15
    assert elapsed < 1.0


def test_baseline_caches_never_rotate_even_with_level_overrides():
    text = "# emsim trace v1\n" + "".join(
        f"{c} M R {c * 64} D\n" for c in range(20))
    cfg = SimConfig(structures=("cache",), rotation_period=1000,
                    cache_overrides={"L1D": {"rotation_period": 4}})
    ev = events_of(text)

    from emsim.cache import build_hierarchy
    base = build_hierarchy(rotation_period=None)
    # drive through run_simulation and reproduce the baseline by hand: the
    # baseline hierarchy must behave exactly like a never-rotating one
    reports, _ = run_simulation(ev, cfg)
    base.access(ev.mem)
    by_name = {r.structure: r for r in reports}
    assert by_name["cache.L1D.tags"].histogram_baseline.max_writes == max(
        base.caches["L1D"].set_writes)


def test_aware_cache_rotation_spreads_tag_writes():
    # hammer one line so the baseline concentrates set writes; the rotating
    # variant walks the hot set around the array
    text = "# emsim trace v1\n" + "".join(
        f"{c} M W 0 D\n" for c in range(64))
    cfg = SimConfig(structures=("cache",),
                    cache_overrides={"L1D": {"sets": 8, "ways": 1,
                                             "rotation_period": 8}})
    reports, _ = run_simulation(events_of(text), cfg)
    row = {r.structure: r for r in reports}["cache.L1D.tags"]
    assert row.histogram_baseline.max_writes == 64
    assert row.histogram_aware.max_writes == 8
    assert row.mtf_improvement == pytest.approx(7.0)


def test_no_allocate_or_write_calls_without_alu_or_ring_records(monkeypatch):
    # chunks without ALU records skip allocate(), and chunks without writes
    # to ring members skip write() and rotate()
    calls = []
    monkeypatch.setattr(AluAllocator, "allocate", lambda self, ks: calls.append(ks))
    # the replay writes counts only: a trace carries no register values
    monkeypatch.setattr(RotatingRegFile, "write", lambda self, counts: calls.append(counts))
    monkeypatch.setattr(RotatingRegFile, "rotate", lambda self, t=1: calls.append(t))
    for text in ("0 M W 64 D\n9000 M R 0 I\n",
                 "0 R FP 3\n1 M R 0 D\n70000 R GPR 16\n",
                 ""):
        reports, _ = run_simulation(events_of(text), SimConfig(rotation_period=10))
        assert calls == []
        assert reports[0].counts_aware == (0, 0, 0)
        assert sum(reports[1].counts_aware) == 0
    run_simulation(events_of("0 A 1\n20 R GPR 0\n"), SimConfig(rotation_period=10))
    assert calls == [[1], [1], {0: 1}, 2, {0: 1}]


def _peak_bytes_inside_run_simulation(cycles):
    # one ALU burst and one register write per cycle, with shared values
    # as the parser makes them; the structures take them a chunk at a time
    alu = [AluIssue(k) for k in range(5)]
    regs = [RegWrite("GPR", i) for i in range(20)]
    trace = Trace.from_events(Event(c, p) for c in range(cycles)
                              for p in (alu[c % 5], regs[c * 7 % 20]))
    cfg = SimConfig(structures=("alu", "regfile"), rotation_period=5000)
    tracemalloc.start()
    try:
        run_simulation(trace, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_simulation_memory_stays_flat_in_the_trace_length():
    # ten times the events must not raise the peak allocated inside
    # run_simulation: no column may span the whole trace
    assert _peak_bytes_inside_run_simulation(100_000) <= \
        _peak_bytes_inside_run_simulation(10_000) + 64 * 1024


def _peak_bytes_inside_cache_run(records):
    # memory records cycling over 32 data and 32 instruction lines that stay
    # L1-resident after the first pass
    lines = [MemAccess("WRITE" if i % 3 else "READ", i * 64, "DATA") for i in range(32)]
    lines += [MemAccess("READ", 0x10000 + i * 64, "INSTR") for i in range(32)]
    trace = Trace.from_events(Event(c, lines[c * 7 % 64]) for c in range(records))
    cfg = SimConfig(structures=("cache",), rotation_period=5000)
    tracemalloc.start()
    try:
        run_simulation(trace, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_simulation_memory_stays_flat_in_the_memory_records():
    # the hierarchies take the memory records a batch at a time, so ten
    # times the records must not raise the peak either
    assert _peak_bytes_inside_cache_run(200_000) <= \
        _peak_bytes_inside_cache_run(20_000) + 64 * 1024


@pytest.mark.parametrize("overrides", [None, {"L3": {"sets": 131072}}])
def test_run_simulation_memory_stays_flat_in_the_cache_geometry(overrides):
    # without memory records no level is ever touched, so the cache rows
    # must cost nothing that grows with the geometry (2M L3 lines here)
    trace = parse_trace(["0 A 2", "0 R GPR 3", "5 A 1"])
    cfg = SimConfig(cache_overrides=overrides)
    tracemalloc.start()
    try:
        run_simulation(trace, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("kwargs", [
    dict(structures=("alu", "bogus")),
    dict(structures=()),
    dict(alu_policy="fixed-priority"),
    dict(alu_policy="nope"),
    dict(alu_units=0),
    dict(rotation_period=0),
    dict(alu_units=True),
    dict(alu_units=2.5),
    dict(rotation_period="5"),
    dict(charge_rotation_writebacks="yes"),
    dict(rotation_period=None),
    dict(regfile_preset="gpr8"),
    dict(regfile_preset=[]),
    dict(cache_overrides={"L9": {}}),
    dict(cache_overrides={"L1D": {"sets": 3}}),
    # checked whatever the structures, so a constructed SimConfig always runs
    dict(structures=("alu",), regfile_preset="gpr8"),
    dict(structures=("regfile",), cache_overrides={"L1D": {"sets": 3}}),
    # the summary writes both as given, so a string flag or a repeated
    # structure would reach report.json
    dict(count_rotation_shifts="yes"),
    dict(count_rotation_shifts=1),
    dict(structures=("alu", "alu")),
])
def test_simconfig_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


def test_summary_event_counts():
    _, summary = run_simulation(events_of(MIXED_TRACE), SimConfig())
    assert summary["events"] == 9
    assert summary["alu_issues"] == 4
    assert summary["reg_writes"] == 2
    assert summary["mem_accesses"] == 3
    assert summary["cycles"] == 4


# --- CLI: simulate ----------------------------------------------------------


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_simulate_worked_example(tmp_path, capsys):
    trace = write(tmp_path / "t.trace", WORKED_ALU_TRACE)
    out = tmp_path / "out"
    rc = main(["simulate", "--trace", trace, "--structure", "alu",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    (row,) = doc["reports"]
    assert row["counts_aware"] == [3, 2, 2]
    assert row["counts_baseline"] == [3, 3, 1]
    stdout = capsys.readouterr().out
    assert "structure" in stdout and "improvement" in stdout
    assert "wrote" in stdout
    assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json"]


def test_cli_simulate_single_hot_register(tmp_path):
    lines = ["# emsim trace v1"] + [f"{c} R GPR 0" for c in range(100)]
    trace = write(tmp_path / "hot.trace", "\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--trace", trace, "--structure", "regfile",
               "--rotation-period", "25", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    (row,) = doc["reports"]
    assert row["max_baseline"] == 100
    assert row["max_aware"] == 25
    assert row["mtf_improvement"] == 3.0
    assert row["counts_aware"][:4] == [25, 25, 25, 25]


def test_cli_simulate_empty_trace(tmp_path, capsys):
    trace = write(tmp_path / "empty.trace", "# emsim trace v1\n")
    rc = main(["simulate", "--trace", trace, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "n/a" in capsys.readouterr().out


def test_cli_simulate_from_gen_spec(tmp_path):
    spec = ('{"kind": "zipf-reg-writes", "seed": 5, "length": 200, '
            '"num_regs": 16, "zipf_s": 1.5}')
    out = tmp_path / "o"
    rc = main(["simulate", "--gen", spec, "--structure", "regfile",
               "--rotation-period", "20", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert doc["summary"]["reg_writes"] == 200
    assert doc["summary"]["rotation_period"] == 20


@pytest.mark.parametrize("spec", [
    '{"kind": "zipf-reg-writes", "seed": 3, "length": 3000, "num_regs": 20, "zipf_s": 1.2}',
    '{"kind": "skewed-addrs", "seed": 4, "length": 3000, "working_set_lines": 4096, '
    '"hot_fraction": 0.05, "hot_weight": 20.0}',
    '{"kind": "alu-bursts", "seed": 5, "length": 3000, "max_width": 4, '
    '"width_distribution": [1, 2, 3, 2, 2]}',
])
def test_cli_simulate_gen_matches_the_saved_trace(tmp_path, spec):
    # --gen encodes the generated events in memory; --trace parses the same
    # events from their text: the reports must not tell the two apart
    trace = tmp_path / "t.trace"
    save_trace(trace, generate(genspec_from_json(json.loads(spec))))
    outs = [tmp_path / "gen", tmp_path / "trace"]
    for out, source in zip(outs, (["--gen", spec], ["--trace", str(trace)])):
        assert main(["simulate", *source, "--rotation-period", "500",
                     "--out", str(out)]) == 0
    for name in ("report.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("spec,limit", [
    ('{"kind": "zipf-reg-writes", "seed": 3, "length": 20000, "num_regs": 20, '
     '"zipf_s": 1.2}', 80),
    ('{"kind": "alu-bursts", "seed": 5, "length": 20000, "max_width": 4, '
     '"width_distribution": [1, 2, 3, 2, 2]}', 80),
    ('{"kind": "skewed-addrs", "seed": 4, "length": 20000, "working_set_lines": 4096, '
     '"hot_fraction": 0.05, "hot_weight": 20.0}', 120),
], ids=["zipf-reg-writes", "alu-bursts", "skewed-addrs"])
def test_cli_simulate_gen_holds_no_event_list(tmp_path, monkeypatch, spec, limit):
    # --gen builds the column trace as the events are generated, with one
    # payload per register or width: the peak until the replay starts stays
    # near the trace's own columns (an Event list with a payload per event
    # took about 150 B/event, 225 for memory records)
    peaks = []
    real_run = cli.run_simulation

    def run_simulation(trace, cfg):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return real_run(trace, cfg)

    monkeypatch.setattr(cli, "run_simulation", run_simulation)
    tracemalloc.start()
    try:
        assert main(["simulate", "--gen", spec, "--structure", "alu",
                     "--out", str(tmp_path / "o")]) == 0
    finally:
        tracemalloc.stop()
    assert peaks[0] / 20000 < limit


def test_cli_simulate_runs_are_byte_identical(tmp_path):
    spec = ('{"kind": "skewed-addrs", "seed": 11, "length": 400, '
            '"working_set_lines": 64, "hot_fraction": 0.1, "hot_weight": 8.0}')
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--gen", spec, "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "report.csv").read_bytes() == \
           (outs[1] / "report.csv").read_bytes()
    assert (outs[0] / "report.json").read_bytes() == \
           (outs[1] / "report.json").read_bytes()


def mixed_trace(seed, cycles):
    """Every cycle: an ALU burst, a skewed GPR write, a looping instruction
    fetch and a data read or write, hot or spread over 256 KiB."""
    rng = SplitMix64(seed)
    lines = []
    for cycle in range(cycles):
        lines.append(f"{cycle} A {rng.randbelow(4)}")
        lines.append(f"{cycle} R GPR {min(rng.randbelow(16), rng.randbelow(16))}")
        lines.append(f"{cycle} M R {0x10000 + (cycle % 700) * 16} I")
        span = 1 << 11 if rng.randbelow(4) else 1 << 18
        kind = "W" if rng.randbelow(2) else "R"
        lines.append(f"{cycle} M {kind} {rng.randbelow(span)} D")
    return "\n".join(lines) + "\n"


# Frozen sha256 of (report.csv, report.json): the cache model may change,
# the reports may not. The first run rotates every structure with dirty
# write-backs; the second shrinks the hierarchy so that evictions and
# rotation write-backs reach L2 and L3, pins L2 and the STLB with "never",
# and makes L1D write-no-allocate; the third rotates every level of a small
# hierarchy without charging rotation write-backs below; the fourth repeats
# the first and charges every register slot one write per rotation shift;
# the fifth runs counter-rotate on two ALU units, so that the trace's widths
# of 3 saturate, and rotates the 18-slot gpr-flags-sp ring; the sixth runs
# counter-rotate on the default three units, which do not divide
# CHUNK_RECORDS (1,024 % 3 = 1), so each replay slice after the first
# starts at a lead the allocator must carry over from the slice before; the
# seventh shrinks L1D so that L2 (1 set x 128 ways) and L3 (2 x 96) fill past
# 64 ways, where a cache's block map values are no longer CPython's shared
# small ints, and rotates them with dozens of dirty lines each.
PINNED_REPORTS = [
    (["--structure", "all", "--rotation-period", "150"], None,
     "19ce33625dcfd9bef5cb1040f87c8b4ad25f5791922cc4d6cf0f4969f4db13f8",
     "d74c79fa9acf0dedbb46f575f1cdc8d4f74e453108d7264f9ad12e2e09743e0f"),
    (["--structure", "cache"],
     {"cache": {"rotation_period": 60, "levels": {
         "L1D": {"sets": 4, "ways": 2, "write_allocate": False},
         "L1I": {"sets": 8, "ways": 2},
         "L2": {"sets": 8, "ways": 4, "rotation_period": "never"},
         "L3": {"sets": 16, "ways": 4, "rotation_period": 90},
         "DTLB": {"sets": 2, "ways": 2},
         "STLB": {"sets": 4, "ways": 2, "rotation_period": "never"}}}},
     "dc14709107b27b4f735361e530fb98ac8834de6672cb91c2d28bc6fd65b01af8",
     "2f00e5aec8c9cbd7e77ef09c96b4d8fbc4838b36eed0487a1deef4e6d9182dd8"),
    (["--structure", "cache", "--rotation-period", "40"],
     {"cache": {"count_rotation_writebacks": False, "levels": {
         "L1D": {"sets": 2, "ways": 4}, "L2": {"sets": 4, "ways": 4},
         "L3": {"sets": 8, "ways": 8}}}},
     "b305e6aa4f798ecac0c712fd98ea4f27f4b2c39f12daa75f32534cb4d8661c84",
     "5d1f6d0d3fcbf1937bf09ff1485ff799f0dde29fbeff3caaabf4a9bf97861d83"),
    (["--structure", "all", "--rotation-period", "150", "--count-rotation-shifts"], None,
     "b9e5f24c27cb87d69d96e882c9f429aeb4f05419384bfc4bc4ca79d7bf83db67",
     "9b1162e87ec06600d3f6a1588078377e6a45108a4dd7fe16df10faca29e79a95"),
    (["--policy", "counter-rotate", "--rotation-period", "150"],
     {"alu": {"units": 2}, "regfile": {"preset": "gpr-flags-sp"}},
     "6a197f90e087f00d832be68bf1b6a750c6352f21dc3672face49cf297681a1fb",
     "f9eeb1923af829aaf65718569d566247deb85c814ebb6a11cdcf76ca37ec1b80"),
    (["--structure", "alu", "--policy", "counter-rotate"], None,
     "cfa197dce85fc6f5e553bec4daf44a8c3e679e64be79fc2e7ba0e3c1f78705a2",
     "f3d9ed0142eee6310d96a78a1b8f372b5f8cfa8b1f9b51f6347012af18b914a8"),
    (["--structure", "cache", "--rotation-period", "500"],
     {"cache": {"levels": {
         "L1D": {"sets": 4, "ways": 2}, "L2": {"sets": 1, "ways": 128},
         "L3": {"sets": 2, "ways": 96, "rotation_period": 700}}}},
     "52e8a9b2596506ba4757ef3fba709be42304578b10b1e5187003e13f32c57504",
     "a16d3953860f2b29830c42e09abe28858b4ec2f3ce8613adc4f5863989344b8c"),
]


@pytest.mark.parametrize("flags,config,csv_digest,json_digest", PINNED_REPORTS)
def test_cli_simulate_pinned_report_digest(tmp_path, flags, config,
                                           csv_digest, json_digest):
    argv = ["simulate", "--trace", write(tmp_path / "t.trace", mixed_trace(5, 2000)),
            "--out", str(tmp_path / "o"), *flags]
    if config is not None:
        argv += ["--config", write(tmp_path / "cfg.json", json.dumps(config))]
    assert main(argv) == 0
    digests = tuple(hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
                    for name in ("report.csv", "report.json"))
    assert digests == (csv_digest, json_digest)


def test_cli_config_file_sets_units_and_flags_win(tmp_path):
    cfg = write(tmp_path / "cfg.json",
                '{"alu": {"units": 4}, "cache": {"rotation_period": 50}}')
    trace = write(tmp_path / "t.trace", WORKED_ALU_TRACE)

    out1 = tmp_path / "o1"
    assert main(["simulate", "--trace", trace, "--config", cfg,
                 "--out", str(out1)]) == 0
    doc = json.loads((out1 / "report.json").read_text(encoding="utf-8"))
    assert doc["summary"]["alu_units"] == 4
    assert doc["summary"]["rotation_period"] == 50
    assert doc["reports"][0]["num_entries"] == 4

    out2 = tmp_path / "o2"
    assert main(["simulate", "--trace", trace, "--config", cfg,
                 "--rotation-period", "25", "--out", str(out2)]) == 0
    doc = json.loads((out2 / "report.json").read_text(encoding="utf-8"))
    assert doc["summary"]["rotation_period"] == 25


def test_cli_policy_flag(tmp_path):
    trace = write(tmp_path / "t.trace", WORKED_ALU_TRACE)
    out = tmp_path / "o"
    rc = main(["simulate", "--trace", trace, "--structure", "alu",
               "--policy", "counter-rotate", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert doc["summary"]["alu_policy"] == "counter-rotate"
    # counter-rotate on (0, 2, 2, 3): leads 0,1,2,3 -> grants
    # (), (1,2), (2,0), (0,1,2)
    assert doc["reports"][0]["counts_aware"] == [2, 2, 3]


# --- CLI: error paths -------------------------------------------------------


def test_cli_missing_trace_exits_2(tmp_path, capsys):
    # a path that does not exist, and one that is a directory
    for trace in (tmp_path / "nope.trace", tmp_path):
        rc = main(["simulate", "--trace", str(trace), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def test_cli_non_utf8_input_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}\n")
    trace = write(tmp_path / "t.trace", WORKED_ALU_TRACE)
    out = str(tmp_path / "o")
    for argv in (["simulate", "--trace", str(bad), "--out", out],
                 ["simulate", "--trace", trace, "--config", str(bad), "--out", out],
                 ["gen-trace", "--gen", str(bad), "--out", str(tmp_path / "g")],
                 ["report-merge", str(bad), "--out", out]):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


def test_cli_malformed_trace_exits_3(tmp_path, capsys):
    # the second trace's cycle is one int() takes but the grammar does not;
    # the third's, under a record already seen, has more digits than int() takes
    for text in ("0 A 1\nbroken\n", "0 A 1\n1_000 A 1\n", "0 A 1\n" + "9" * 5000 + " A 1\n"):
        trace = write(tmp_path / "bad.trace", text)
        rc = main(["simulate", "--trace", trace, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "line 2" in capsys.readouterr().err


def test_cli_cycle_must_fit_in_64_bits(tmp_path, capsys):
    # 2**64 - 1 is the last cycle a trace may hold; 2**64 exits 3, whether its
    # record was seen before (one lookup) or is checked field by field
    top = 2 ** 64 - 1
    trace = write(tmp_path / "top.trace", f"0 R GPR 1\n{top} R GPR 1\n{top} A 1\n")
    out = tmp_path / "top"
    assert main(["simulate", "--trace", trace, "--out", str(out)]) == 0
    summary = json.loads((out / "report.json").read_text(encoding="utf-8"))["summary"]
    assert summary["cycles"] == 2 ** 64 and summary["events"] == 3
    capsys.readouterr()
    for text in (f"0 A 1\n{top + 1} A 1\n", f"0 A 1\n{top + 1} R GPR 1\n"):
        trace = write(tmp_path / "over.trace", text)
        out = tmp_path / "over"
        assert main(["simulate", "--trace", trace, "--out", str(out)]) == 3
        assert "line 2: cycle must be below 2**64" in capsys.readouterr().err
        assert not out.exists()


def test_cli_bad_last_line_leaves_no_reports(tmp_path, capsys):
    # the whole trace is read before any report is written: a malformed last
    # line exits 3 and leaves --out without either report file
    text = "".join(f"{c} A 1\n{c} R GPR {c % 16}\n" for c in range(3000)) + "3000 A\n"
    trace = write(tmp_path / "bad.trace", text)
    out = tmp_path / "o"
    out.mkdir()
    assert main(["simulate", "--trace", trace, "--out", str(out)]) == 3
    assert "line 6001: ALU record needs 3 fields" in capsys.readouterr().err
    assert not (out / "report.csv").exists() and not (out / "report.json").exists()


@pytest.mark.parametrize("config_text", [
    "not json",
    '{"frobnicate": {}}',
    '{"alu": {"width": 3}}',
    '{"cache": {"levels": {"L9": {"sets": 4}}}}',
    '{"cache": {"rotation_period": "never"}}',
    '{"alu": {"units": "3"}}',
    '{"alu": {"units": 2.5}}',
    '{"alu": {"units": true}}',
    '{"cache": {"levels": {"L1D": {"sets": "64"}}}}',
    '{"cache": {"levels": {"L1D": {"ways": 1.5}}}}',
    '{"cache": {"levels": {"L1D": {"write_allocate": "no"}}}}',
    '{"cache": {"levels": {"L2": {"line_bytes": true}}}}',
    '{"cache": {"levels": {"L3": {"rotation_period": 2.5}}}}',
    '{"cache": {"rotation_period": 0}}',
])
def test_cli_bad_config_exits_2(tmp_path, capsys, config_text):
    cfg = write(tmp_path / "cfg.json", config_text)
    trace = write(tmp_path / "t.trace", WORKED_ALU_TRACE)
    rc = main(["simulate", "--trace", trace, "--config", cfg,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("structure", ["alu", "regfile", "cache", "all"])
@pytest.mark.parametrize("config", [
    {"regfile": {"preset": "bogus"}},
    {"cache": {"levels": {"L9": {}}}},
    {"cache": {"levels": {"L1D": {"sets": 3}}}},
    {"alu": {"units": 0}},
])
def test_cli_bad_config_exits_2_before_the_trace_is_read(tmp_path, capsys, config, structure):
    # every section is checked, whichever structure runs, and a config error
    # wins over a malformed trace
    cfg = write(tmp_path / "cfg.json", json.dumps(config))
    for text in (MIXED_TRACE, "0 A 1\nbroken\n"):
        out = tmp_path / "o"
        trace = write(tmp_path / "t.trace", text)
        assert main(["simulate", "--trace", trace, "--config", cfg,
                     "--structure", structure, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


# inputs that would allocate per entry far past any memory: a cache level's
# counters, the ALU units' state and the Zipf weight table; the child's address
# space is capped so that a missing bound fails fast instead of filling memory
OVERSIZED = [
    ["--config", '{"cache": {"levels": {"L1D": {"ways": 1125899906842624}}}}'],
    ["--config", '{"alu": {"units": 1000000000}}'],
    ["--gen", '{"kind": "zipf-reg-writes", "seed": 1, "length": 10, '
              '"num_regs": 4611686018427387904, "zipf_s": 1.0}'],
]
CAPPED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from emsim.cli import main; sys.exit(main(sys.argv[1:]))")


def test_cli_oversized_inputs_exit_2_before_allocating(tmp_path):
    trace = write(tmp_path / "t.trace", MIXED_TRACE)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    for flag, value in OVERSIZED:
        if flag == "--config":
            args = ["--trace", trace, "--config", write(tmp_path / "cfg.json", value)]
        else:
            args = ["--gen", value]
        run = subprocess.run([sys.executable, "-c", CAPPED_CLI, "simulate", *args,
                              "--out", str(tmp_path / "o")],
                             env=env, capture_output=True, encoding="utf-8", timeout=60)
        assert run.returncode == 2, run.stderr
        assert run.stderr.startswith("error: ") and "Traceback" not in run.stderr
        assert not (tmp_path / "o").exists()


def test_cli_seed_with_trace_exits_2(tmp_path):
    trace = write(tmp_path / "t.trace", WORKED_ALU_TRACE)
    rc = main(["simulate", "--trace", trace, "--seed", "9",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_domain_error_exits_4(capsys):
    assert main(["em-calc", "lifetime-extension", "--", "-0.5"]) == 4
    assert main(["em-calc", "black-mtf", "--current-density", "0"]) == 4
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize("argv,code", [
    # the model's arithmetic leaves the float range: an error line, exit 4
    ("rms-mtf --width 1e-7 --height 2e-7 --capacitance 0 --vdd 1.1 --freq 3e9 "
     "--toggle 0.5", 4),
    ("black-mtf --current-density 1e-200 --exponent-n 3", 4),
    ("black-mtf --current-density 1e-300", 4),
    ("lifetime-extension 1e-200", 4),
    ("k1 --width 1e-7 --height 2e-7 --activation-ea 100 --temp-k 1", 4),
    ("black-mtf --scale-a 1e300 --current-density 1e-10", 4),
    ("improvement 1e300 1e-300", 4),
    # a number that is not finite is a usage error, exit 2
    ("black-mtf --current-density nan", 2),
    ("improvement inf 1", 2),
    ("lifetime-extension nan", 2),
    ("k1 --width 1e-7 --height 2e-7 --temp-c=-inf", 2),
])
def test_cli_em_calc_bad_numbers_exit_without_traceback(capsys, argv, code):
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(["em-calc", *argv.split()])
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err
    else:
        assert main(["em-calc", *argv.split()]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {argv.split()[0]} result out of the float range: ")
        assert err.count("\n") == 1


# Random JSON for the config and generator-spec loaders: objects over the
# field names each loader knows plus one it does not, holding small values
# of every JSON type (so any geometry or trace length stays tiny), nested
# where the loaders expect nesting.
SCALARS = (st.none() | st.booleans() | st.integers(-2, 16) | st.floats(-2, 16)
           | st.sampled_from([float("nan"), float("inf"), 1e308, "never", "16", "gpr16",
                              "toggle-balance", "zipf-reg-writes", "skewed-addrs",
                              "alu-bursts"]))
ANY_JSON = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=6)


def json_objects(keys, values):
    return st.dictionaries(st.sampled_from([*keys, "bogus"]), values | ANY_JSON,
                           max_size=4)


LEVELS = json_objects(LEVEL_ROLES, json_objects(
    ["sets", "ways", "line_bytes", "rotation_period", "write_allocate"], SCALARS))
CONFIGS = json_objects(["alu", "regfile", "cache"], json_objects(
    ["units", "policy", "preset", "rotation_period", "count_rotation_writebacks",
     "levels"], SCALARS | LEVELS))
GENSPECS = json_objects(
    ["kind", "seed", "length", "num_regs", "zipf_s", "working_set_lines",
     "hot_fraction", "hot_weight", "line_bytes", "max_width", "width_distribution"],
    SCALARS | st.lists(SCALARS, max_size=4))


@settings(max_examples=100, deadline=None)
@given(config=CONFIGS | ANY_JSON, spec=GENSPECS | ANY_JSON)
def test_cli_random_config_and_spec_exit_0_or_2(config, spec):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("cfg.json", json.dumps(config)),
                           ("spec.json", json.dumps(spec)),
                           ("t.trace", MIXED_TRACE)):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        out = os.path.join(tmp, "o")
        assert main(["simulate", "--trace", paths["t.trace"],
                     "--config", paths["cfg.json"], "--out", out]) in (0, 2)
        assert main(["gen-trace", "--gen", paths["spec.json"],
                     "--out", os.path.join(out, "g.trace")]) in (0, 2)


@settings(max_examples=100, deadline=None)
@given(config=CONFIGS | ANY_JSON,
       structure=st.sampled_from(["alu", "regfile", "cache", "all"]))
def test_cli_random_config_exits_2_exactly_when_rejected(config, structure):
    # a config that builds a SimConfig runs a good trace to the end and
    # leaves a malformed one to exit 3; any other config exits 2 on both
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("cfg.json", json.dumps(config)), ("good.trace", MIXED_TRACE),
                           ("bad.trace", MIXED_TRACE + "4 A\n")):
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        codes = []
        for trace in ("good.trace", "bad.trace"):
            argv = ["simulate", "--trace", paths[trace], "--config", paths["cfg.json"],
                    "--structure", structure, "--out", os.path.join(tmp, trace + ".out")]
            codes.append(main(argv))
        try:
            cli._sim_config(cli.build_parser().parse_args(argv))
        except ConfigError:
            assert codes == [2, 2]
        else:
            assert codes == [0, 3]


# Random trace lines from the grammar's own tokens plus the near misses:
# signs, digit separators, non-ASCII digits, unknown tags and classes, and
# comment marks anywhere in a line.
TRACE_TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "07", "-", "-1", "_", "1_0", "+", "+3", "#", "#0",
     "A", "R", "M", "GPR", "FP", "FLAGS", "SP", "VEC", "W", "D", "I", "Q", "x",
     "\u0663", "1\u0661", "\uff15", "1.0"]) | st.integers(0, 10**12).map(str)
TRACE_LINES = st.lists(st.tuples(st.sampled_from([" ", "\t", "  "]), TRACE_TOKENS),
                       max_size=6).map(lambda parts: "".join(s + t for s, t in parts))
VALID_LINES = st.builds(
    lambda c, rec, i: rec.format(c=c, i=i), st.integers(0, 3),
    st.sampled_from(["{c} A {i}", "{c} R GPR {i}", "{c} R SP {i}",
                     "{c} M R {i} D", "{c} M W {i} I"]), st.integers(0, 4096))


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(VALID_LINES | TRACE_LINES, max_size=10),
       structure=st.sampled_from(["alu", "regfile", "cache", "all"]))
def test_cli_random_trace_exit_0_or_3(lines, structure):
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "t.trace")
        with open(trace, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["simulate", "--trace", trace, "--structure", structure,
                     "--out", os.path.join(tmp, "o")]) in (0, 3)


# --- CLI: gen-trace ---------------------------------------------------------


def test_cli_gen_trace_deterministic(tmp_path):
    spec = ('{"kind": "alu-bursts", "seed": 3, "length": 64, "max_width": 3, '
            '"width_distribution": [0.1, 0.4, 0.3, 0.2]}')
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["gen-trace", "--gen", spec, "--out", str(a)]) == 0
    assert main(["gen-trace", "--gen", spec, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text(encoding="utf-8").startswith("# emsim trace v1\n")


def test_cli_gen_trace_zero_length(tmp_path):
    spec = ('{"kind": "zipf-reg-writes", "seed": 1, "length": 0, '
            '"num_regs": 4, "zipf_s": 1.0}')
    out = tmp_path / "z.trace"
    assert main(["gen-trace", "--gen", spec, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "# emsim trace v1\n"


def test_cli_gen_trace_spec_from_file(tmp_path):
    spec_path = write(tmp_path / "spec.json",
                      '{"kind": "zipf-reg-writes", "seed": 2, "length": 5, '
                      '"num_regs": 8, "zipf_s": 1.2}')
    out = tmp_path / "t.trace"
    assert main(["gen-trace", "--gen", spec_path, "--out", str(out)]) == 0
    body = [l for l in out.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert len(body) == 5


def test_cli_gen_trace_seed_override_matches_inline_seed(tmp_path):
    base = ('{"kind": "zipf-reg-writes", "seed": 42, "length": 30, '
            '"num_regs": 16, "zipf_s": 1.5}')
    override = tmp_path / "o.trace"
    direct = tmp_path / "d.trace"
    assert main(["gen-trace", "--gen", base, "--seed", "7",
                 "--out", str(override)]) == 0
    assert main(["gen-trace", "--gen", base.replace('"seed": 42', '"seed": 7'),
                 "--out", str(direct)]) == 0
    assert override.read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("spec", [
    '{"kind": "mystery", "seed": 1, "length": 4}',
    # numbers outside the float range: json reads 1e999 as inf, and keeps an
    # integer of 401 digits as an int that no float holds
    '{"kind": "zipf-reg-writes", "seed": 1, "length": 10, "num_regs": 4, "zipf_s": 1e999}',
    '{"kind": "skewed-addrs", "seed": 1, "length": 10, "working_set_lines": 4, '
    '"hot_fraction": 1.0, "hot_weight": 1' + "0" * 400 + '}',
], ids=["unknown-kind", "float-1e999", "int-10**400"])
def test_cli_gen_trace_bad_spec_exits_2(tmp_path, spec):
    out = tmp_path / "t.trace"
    assert main(["gen-trace", "--gen", spec, "--out", str(out)]) == 2
    assert not out.exists()


# finite weights whose running sum is not, and a subnormal sum: unchecked, a
# draw lands past the table, in an IndexError after the trace header or, for
# every access, at address 256, outside the 4-line working set
BAD_TOTALS = [
    '{"kind": "alu-bursts", "seed": 1, "length": 10, "max_width": 2, '
    '"width_distribution": [1e308, 1e308, 1e308]}',
    '{"kind": "skewed-addrs", "seed": 1, "length": 10, "working_set_lines": 4, '
    '"hot_fraction": 1.0, "hot_weight": 1e308}',
    '{"kind": "alu-bursts", "seed": 1, "length": 10, "max_width": 1, '
    '"width_distribution": [0, 5e-324]}',
]


@pytest.mark.parametrize("spec", BAD_TOTALS)
def test_cli_bad_weight_total_exits_2_and_leaves_no_file(tmp_path, capsys, spec):
    out = tmp_path / "out"
    for argv in (["simulate", "--gen", spec, "--out", str(out)],
                 ["gen-trace", "--gen", spec, "--out", str(out / "g.trace")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must have a finite total above 2**-1022" in err
        assert list(tmp_path.iterdir()) == []


# an integer of 5,001 digits, past the limit of digits int() converts from
# text, on which json.loads raises a plain ValueError, not a JSONDecodeError
HUGE_INT = "1" + "0" * 5000
HUGE_ZIPF_SPEC = ('{"kind": "zipf-reg-writes", "seed": 1, "length": 10, "num_regs": 4, '
                  '"zipf_s": ' + HUGE_INT + '}')


@pytest.mark.parametrize("argv,doc", [
    (["simulate", "--gen", HUGE_ZIPF_SPEC], None),
    (["simulate", "--trace", "TRACE", "--config", "DOC"],
     '{"alu": {"units": ' + HUGE_INT + '}}'),
    (["gen-trace", "--gen", "DOC"], HUGE_ZIPF_SPEC),
    (["report-merge", "DOC"],
     '{"reports": [{"structure": "alu", "mtf_improvement": ' + HUGE_INT + '}]}'),
], ids=["simulate-gen", "simulate-config", "gen-trace-gen", "report-merge"])
def test_cli_json_integer_past_the_digit_limit_exits_2(tmp_path, capsys, argv, doc):
    paths = {"TRACE": write(tmp_path / "t.trace", WORKED_ALU_TRACE),
             "DOC": write(tmp_path / "doc.json", doc or "")}
    out = tmp_path / "out"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "not valid JSON" not in err  # the text is JSON; the integer is too long
    assert not out.exists()


@pytest.mark.parametrize("argv,doc,what", [
    (["simulate", "--gen", '{"kind": '], None, "generator spec"),
    (["simulate", "--trace", "TRACE", "--config", "DOC"], '{"alu": }', "config file"),
    (["gen-trace", "--gen", "DOC"], "{not json", "generator spec"),
    (["report-merge", "DOC"], '{"reports": [', "DOC"),
], ids=["simulate-gen", "simulate-config", "gen-trace-gen", "report-merge"])
def test_cli_text_that_is_not_json_exits_2_and_says_so(tmp_path, capsys, argv, doc, what):
    paths = {"TRACE": write(tmp_path / "t.trace", WORKED_ALU_TRACE),
             "DOC": write(tmp_path / "doc.json", doc or "")}
    out = tmp_path / "out"
    assert main([paths.get(a, a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths.get(what, what)} is not valid JSON: ")
    assert err.count("\n") == 1 and not out.exists()


# --- CLI: em-calc -----------------------------------------------------------


def out_line(capsys):
    return capsys.readouterr().out.strip()


def test_cli_em_calc_lifetime_extension(capsys):
    assert main(["em-calc", "lifetime-extension", "0.32"]) == 0
    assert out_line(capsys) == "lifetime-extension = 9.765625 x"


def test_cli_em_calc_improvement(capsys):
    assert main(["em-calc", "improvement", "100", "34"]) == 0
    line = out_line(capsys)
    assert line.startswith("improvement = 1.941176470588235")
    assert "(194.12%)" in line

    assert main(["em-calc", "improvement", "100", "100"]) == 0
    assert out_line(capsys) == "improvement = 0.0 (0.00%)"


def test_cli_em_calc_reduced_irms(capsys):
    # quadrupling the target lifetime halves the allowed RMS current
    assert main(["em-calc", "reduced-irms", "--i-max", "1.0",
                 "--mtf-tech", "10", "--mtf-reduced", "40"]) == 0
    assert out_line(capsys) == "reduced-irms = 0.5 A"


def test_cli_em_calc_black_mtf(capsys):
    assert main(["em-calc", "black-mtf", "--scale-a", "8.0",
                 "--current-density", "2.0"]) == 0
    assert out_line(capsys) == "black-mtf = 2.0 time-units"


def test_cli_em_calc_rms_mtf_zero_toggle_is_unbounded(capsys):
    assert main(["em-calc", "rms-mtf", "--width", "1e-7", "--height", "2e-7",
                 "--capacitance", "1e-15", "--vdd", "1.1", "--freq", "3e9",
                 "--toggle", "0"]) == 0
    assert out_line(capsys) == "rms-mtf = unbounded (zero toggle probability)"


def test_cli_em_calc_k2(capsys):
    assert main(["em-calc", "k2", "--rise", "1e-11", "--fall", "1e-11"]) == 0
    value = float(out_line(capsys).split()[2])
    assert value == pytest.approx((2e11) ** 0.5)


# one invocation per subcommand and flag group; stdout pinned byte for byte.
# For each subcommand with defaulted flags (the tech flags, --rise, --fall,
# --mtf-tech), one invocation leaves all of them out.
EM_CALC_GOLDEN = [
    ("black-mtf --scale-a 8.0 --exponent-n 2.0 --activation-ea 0.7 "
     "--current-density 3e9 --temp-k 350",
     "black-mtf = 1.067588405228857e-08 time-units"),
    ("black-mtf --scale-a 8.0 --activation-ea 0.7 --current-density 3e9 "
     "--temp-c 105",
     "black-mtf = 1.8970027982881746e-09 time-units"),
    ("black-mtf --current-density 2e10", "black-mtf = 2.5e-21 time-units"),
    ("current-density --capacitance 1e-15 --vdd 1.1 --freq 3e9 --toggle 0.25 "
     "--rise 2e-11 --fall 3e-11 --width 1e-7 --height 2e-7",
     "current-density = 41250000.00000001 A/m^2"),
    ("current-density --capacitance 1e-15 --vdd 1.1 --freq 3e9 --toggle 0.25 "
     "--width 1e-7 --height 2e-7",
     "current-density = 41250000.00000001 A/m^2"),
    ("reduced-irms --i-max 2e-3 --mtf-tech 7 --mtf-reduced 10",
     "reduced-irms = 0.001673320053068151 A"),
    ("reduced-irms --i-max 1.0 --mtf-reduced 40", "reduced-irms = 0.5 A"),
    ("lifetime-extension 0.7", "lifetime-extension = 2.0408163265306123 x"),
    ("k1 --scale-a 2.0 --exponent-n 1.5 --activation-ea 0.5 --temp-c 85 "
     "--width 1e-7 --height 2e-7",
     "k1 = 6.143606006892293e-14 (tech composite)"),
    ("k1 --width 5e-8 --height 1e-7", "k1 = 2.499999999999999e-29 (tech composite)"),
    ("k2 --rise 1e-11 --fall 3e-11", "k2 = 365148.37167011073 s^-1/2"),
    ("rms-mtf --scale-a 2.0 --activation-ea 0.5 --temp-k 360 --width 1e-7 "
     "--height 2e-7 --capacitance 1e-15 --vdd 1.1 --freq 3e9 --toggle 0.3",
     "rms-mtf = 2.9343096842629107e-30 time-units"),
    ("rms-mtf --width 1e-7 --height 2e-7 --capacitance 1e-15 --vdd 1.1 --freq 3e9 "
     "--toggle 0.3",
     "rms-mtf = 7.346189164370975e-45 time-units"),
    ("rms-mtf --width 1e-7 --height 2e-7 --capacitance 1e-15 --vdd 1.1 "
     "--freq 3e9 --toggle 0",
     "rms-mtf = unbounded (zero toggle probability)"),
    ("improvement 100 34", "improvement = 1.9411764705882355 (194.12%)"),
]


@pytest.mark.parametrize("argv,stdout", EM_CALC_GOLDEN)
def test_cli_em_calc_golden_stdout(capsys, argv, stdout):
    assert main(["em-calc", *argv.split()]) == 0
    assert capsys.readouterr().out == stdout + "\n"


def test_cli_em_calc_temp_c_matches_kelvin(capsys):
    args = ["em-calc", "black-mtf", "--scale-a", "1.0", "--exponent-n", "2.0",
            "--activation-ea", "0.7", "--current-density", "3.0"]
    assert main(args + ["--temp-c", "105"]) == 0
    with_c = out_line(capsys)
    assert main(args + ["--temp-k", "378.15"]) == 0
    assert out_line(capsys) == with_c


# --- CLI: report-merge -------------------------------------------------------


def run_single_hot(tmp_path, name, period):
    lines = ["# emsim trace v1"] + [f"{c} R GPR 0" for c in range(100)]
    trace = write(tmp_path / f"{name}.trace", "\n".join(lines) + "\n")
    out = tmp_path / name
    assert main(["simulate", "--trace", trace, "--structure", "regfile",
                 "--rotation-period", str(period), "--out", str(out)]) == 0
    return out / "report.json"


def test_cli_report_merge_geo_means_across_runs(tmp_path, capsys):
    r1 = run_single_hot(tmp_path, "r1", 25)   # improvement 3.0
    r2 = run_single_hot(tmp_path, "r2", 50)   # improvement 1.0
    out = tmp_path / "merged"
    assert main(["report-merge", str(r1), str(r2), "--out", str(out)]) == 0
    doc = json.loads((out / "merged.json").read_text(encoding="utf-8"))
    (row,) = doc["merged"]
    assert row["structure"] == "regfile.gpr16"
    assert row["runs"] == 2
    # geo mean in ratio space: sqrt(4 * 2) - 1
    assert row["geo_mean_improvement"] == pytest.approx(8 ** 0.5 - 1)
    assert (out / "merged.csv").read_text(encoding="utf-8").splitlines()[0] == \
        "structure,runs,geo_mean_improvement,geo_mean_display"
    assert "wrote" in capsys.readouterr().out


def test_cli_report_merge_unbounded_propagates(tmp_path):
    docs = [
        {"reports": [{"structure": "alu", "mtf_improvement": 0.5}]},
        {"reports": [{"structure": "alu", "mtf_improvement": "unbounded"}]},
    ]
    paths = []
    for i, doc in enumerate(docs):
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(p))
    out = tmp_path / "m"
    assert main(["report-merge", *paths, "--out", str(out)]) == 0
    merged = json.loads((out / "merged.json").read_text(encoding="utf-8"))
    assert merged["merged"][0]["geo_mean_improvement"] == "unbounded"


def test_cli_report_merge_structure_mismatch_exits_2(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"reports": [{"structure": "alu",
                                          "mtf_improvement": 1.0}]}), encoding="utf-8")
    b.write_text(json.dumps({"reports": [{"structure": "regfile.gpr16",
                                          "mtf_improvement": 1.0}]}), encoding="utf-8")
    assert main(["report-merge", str(a), str(b), "--out",
                 str(tmp_path / "m")]) == 2
    assert "missing" in capsys.readouterr().err


def test_cli_report_merge_rejects_non_report_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["report-merge", str(p), "--out", str(tmp_path / "m")]) == 2


@pytest.mark.parametrize("doc,needle", [
    ({"reports": [1]}, "report row 0 is not an object"),
    ({"reports": 5}, "not a simulation report"),
    ({"reports": [{"structure": "alu"}]}, "mtf_improvement must be"),
    ({"reports": [{"structure": "alu", "mtf_improvement": "x"}]},
     "mtf_improvement must be"),
    ({"reports": [{"structure": ["alu"], "mtf_improvement": 1.0}]},
     "structure must be a string"),
    ({"reports": [{"structure": "alu", "mtf_improvement": float("nan")}]},
     "mtf_improvement must be"),
    # an integer that no float holds
    ({"reports": [{"structure": "alu", "mtf_improvement": 10 ** 400}]},
     "mtf_improvement must be"),
    # two rows of one structure would leave the merge to keep either value
    ({"reports": [{"structure": "x", "mtf_improvement": 0.1},
                  {"structure": "x", "mtf_improvement": 0.9}]},
     "report row 1: structure 'x' appears twice"),
])
def test_cli_report_merge_bad_shape_exits_2(tmp_path, capsys, doc, needle):
    p = tmp_path / "r.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report-merge", str(p), "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}:") and needle in err
    assert not (tmp_path / "m").exists()


def test_cli_report_merge_csv_quotes_structure_names(tmp_path):
    names = ['odd,"name', "plain", "two\nlines"]
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"reports": [{"structure": name, "mtf_improvement": 0.5}
                                         for name in names]}), encoding="utf-8")
    out = tmp_path / "m"
    assert main(["report-merge", str(p), str(p), "--out", str(out)]) == 0
    with open(out / "merged.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["structure", "runs", "geo_mean_improvement", "geo_mean_display"],
                    *([name, "2", "0.5", "50.00%"] for name in names)]


# Frozen sha256 of (merged.csv, merged.json) for two fixed report.json
# documents: a finite mean, an unbounded one, and a structure name that the
# CSV must quote. The inputs are named relative to the working directory,
# since merged.json lists them.
MERGE_INPUTS = {
    "a.json": {"reports": [{"structure": "alu", "mtf_improvement": 0.5},
                           {"structure": 'odd,"name', "mtf_improvement": 1.25},
                           {"structure": "cache.L1D.lines", "mtf_improvement": 0}]},
    "b.json": {"reports": [{"structure": "alu", "mtf_improvement": 2.0},
                           {"structure": 'odd,"name', "mtf_improvement": 0.1},
                           {"structure": "cache.L1D.lines",
                            "mtf_improvement": "unbounded"}]},
}


def test_cli_report_merge_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in MERGE_INPUTS.items():
        write(tmp_path / name, json.dumps(doc))
    assert main(["report-merge", *MERGE_INPUTS, "--out", "m"]) == 0
    digests = tuple(hashlib.sha256((tmp_path / "m" / name).read_bytes()).hexdigest()
                    for name in ("merged.csv", "merged.json"))
    assert digests == (
        "a3e5b89a43bd2a86ee913a9e8c78a8fbdfc2dfcaf8deb8580f6b2873d01fc078",
        "b2855068fc9b96e9d1dcbc24917cbcef0aa7c54bc852a967b97f70c5a4fa20b0")


def test_cli_report_merge_total_regression_is_a_domain_error(tmp_path, capsys):
    # -1 (an idle baseline against a busy aware run) has no ratio-space mean
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"reports": [{"structure": "alu", "mtf_improvement": -1.0}]}),
                 encoding="utf-8")
    assert main(["report-merge", str(p), "--out", str(tmp_path / "m")]) == 4
    assert "improvements must be > -1" in capsys.readouterr().err


# Random JSON shaped more or less like report.json. Improvements stay above
# -1, since -1 and below are a domain error (exit 4, tested above).
MERGE_SCALARS = (st.none() | st.booleans() | st.integers(0, 16)
                 | st.floats(-0.99, 16) | st.sampled_from(
                     [float("nan"), float("inf"), "unbounded", "alu", "x"]))
MERGE_JSON = st.recursive(
    MERGE_SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=6)
MERGE_ROWS = st.fixed_dictionaries(
    {"structure": st.sampled_from(["alu", "cache.L1D.lines"]),
     "mtf_improvement": st.floats(-0.99, 16) | st.just("unbounded")}) | st.dictionaries(
    st.sampled_from(["structure", "mtf_improvement", "bogus"]), MERGE_JSON, max_size=3)
MERGE_DOCS = st.dictionaries(
    st.sampled_from(["reports", "bogus"]),
    st.lists(MERGE_ROWS | MERGE_JSON, max_size=3) | MERGE_JSON, max_size=2) | MERGE_JSON


@settings(max_examples=100, deadline=None)
@given(docs=st.lists(MERGE_DOCS, min_size=1, max_size=2))
def test_cli_random_report_merge_exit_0_or_2(docs):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"r{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        assert main(["report-merge", *paths, "--out", os.path.join(tmp, "m")]) in (0, 2)
