"""Bounded-exhaustive whole-run check: every trace of up to MAX_LENGTH
records over a small alphabet runs through run_simulation and the report
writers, under every chunk size in CHUNKS, and report.csv, report.json and
the summary must equal ref_run_simulation's exactly.

Most faults show on small inputs (the small-scope hypothesis: Jackson,
Software Abstractions, 2006; Andoni et al., 2003), and on small inputs
every case can be run. The alphabet for N ALU units:

* ALU requests of every width 0 .. N + 1 (the last one saturates);
* writes to ring registers GPR 0 and GPR 1, and to FP 0, outside gpr16;
* a DATA read of address 0, a DATA write of 1 << 22 (above bit 21) and an
  INSTR read of 8: blocks that share a set in every level of 2 sets of
  4 B lines under every rotation, so the 2-way levels evict, and L2 and
  L3 see both spaces;
* the first record at cycle 0 and each later one 0 or 2 cycles after the
  one before: a gap of 2 crosses two epochs at period 1, one at period 2,
  and at period 3 one from cycle 2 on but none from cycle 0. A trace with
  two ALU records in one cycle is not valid input and is left out.

SETTINGS pairs each ALU setting (N in 1 .. 3, each aware policy) with a
rotation period, write-allocate and write-back charging, so that each
period meets both values of the other two and of count_rotation_shifts;
CHUNKS then replays each column 1, 2 and 3 records per slice, so that the
slices of a column end full and partial. MAX_LENGTH is 2: 163, 195 and
229 traces for N = 1, 2 and 3, each under two settings and three chunk
sizes, 3,522 runs in all, about 7 s under -X dev -W error (4 memory
records in the alphabet took 8.6 s).
"""

import csv
import itertools
import json
from unittest import mock

import pytest

from emsim import simulate
from emsim.simulate import SimConfig, run_simulation, write_report_files
from emsim.workload import parse_trace
from reference_models import ref_parse_trace, ref_run_simulation
from test_cache_exhaustive import WAYS

MAX_LENGTH = 2
CHUNKS = (1, 2, 3)
GAPS = (0, 2)
OTHER_RECORDS = ["R GPR 0", "R GPR 1", "R FP 0",
                 "M R 0 D", f"M W {1 << 22} D", "M R 8 I"]
# alu_units, alu_policy, rotation_period, write_allocate,
# charge_rotation_writebacks, count_rotation_shifts
SETTINGS = [(1, "counter-rotate", 1, True, True, False),
            (1, "toggle-balance", 2, True, False, True),
            (2, "counter-rotate", 3, True, True, False),
            (2, "toggle-balance", 1, False, False, True),
            (3, "counter-rotate", 2, False, True, False),
            (3, "toggle-balance", 3, False, False, True)]


def traces(units):
    """Every valid trace of up to MAX_LENGTH records, as trace lines."""
    records = [f"A {k}" for k in range(units + 2)] + OTHER_RECORDS
    for n in range(MAX_LENGTH + 1):
        for gaps in itertools.product(GAPS, repeat=max(n - 1, 0)):
            cycles = list(itertools.accumulate((0, *gaps)))
            for picked in itertools.product(records, repeat=n):
                alu_cycles = [c for c, r in zip(cycles, picked) if r[0] == "A"]
                if len(set(alu_cycles)) == len(alu_cycles):
                    yield [f"{c} {r}" for c, r in zip(cycles, picked)]


@pytest.mark.parametrize("units,policy,period,write_allocate,charge,shifts", SETTINGS)
def test_every_small_trace_matches_reference(tmp_path, units, policy, period,
                                             write_allocate, charge, shifts):
    levels = {role: dict(sets=2, ways=ways, line_bytes=4, write_allocate=write_allocate)
              for role, ways in WAYS.items()}
    config = dict(structures=simulate.STRUCTURES, alu_units=units, alu_policy=policy,
                  regfile_preset="gpr16", rotation_period=period,
                  count_rotation_shifts=shifts, cache_overrides=levels,
                  charge_rotation_writebacks=charge)
    cfg = SimConfig(**config)
    for lines in traces(units):
        doc, rows, ref_summary = ref_run_simulation(ref_parse_trace(lines), **config)
        for chunk in CHUNKS:
            with mock.patch.object(simulate, "CHUNK_RECORDS", chunk):
                reports, summary = run_simulation(parse_trace(lines), cfg)
            assert summary == ref_summary, (lines, chunk)
            csv_path, json_path = write_report_files(reports, summary, tmp_path)
            with open(csv_path, encoding="utf-8", newline="") as fh:
                assert list(csv.reader(fh)) == rows, (lines, chunk)
            with open(json_path, encoding="utf-8") as fh:
                assert json.load(fh) == doc, (lines, chunk)
