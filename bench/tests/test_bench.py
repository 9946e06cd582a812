"""Self-tests of the benchmark itself (not of emsim):

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import re
from array import array
from collections import Counter

import pytest

import run
import workloads
from emsim.workload import AluIssue, RegWrite, save_trace

SMALL = 2000  # cycles: enough to show the record mix, quick to build
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _record_kind(event) -> str:
    p = event.payload
    if isinstance(p, AluIssue):
        return "A"
    if isinstance(p, RegWrite):
        return "R"
    return f"M-{p.space}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_trace(tmp_path, name):
    paths = [tmp_path / "a.trace", tmp_path / "b.trace"]
    for path in paths:
        save_trace(path, workloads.WORKLOADS[name].build(7, SMALL))
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_trace_with_same_record_mix(name):
    a = workloads.WORKLOADS[name].build(7, SMALL)
    b = workloads.WORKLOADS[name].build(8, SMALL)
    assert a != b
    mix_a = Counter(map(_record_kind, a))
    mix_b = Counter(map(_record_kind, b))
    assert mix_a.keys() == mix_b.keys()
    for kind in mix_a:
        # only mixed-ifetch's data accesses are drawn per cycle (40%)
        assert abs(mix_a[kind] - mix_b[kind]) <= 0.05 * SMALL, kind


def test_workload_shapes_at_small_size():
    facts = {name: workloads.expectations(w, workloads.WORKLOADS[name].build(3, SMALL))
             for name, w in workloads.WORKLOADS.items()}
    assert facts["cache-miss-heavy"]["mem_accesses"] == SMALL
    assert facts["core-alu-reg"]["mem_accesses"] == 0
    assert facts["mixed-ifetch"]["instr_fetches"] == SMALL
    assert facts["mixed-ifetch"]["max_cycle_step"] == 3
    regs = facts["core-alu-reg"]
    # some Zipf writes fall outside the gpr16 ring
    assert sum(regs["regfile_counts_baseline"]) < regs["reg_writes"]


def test_benchmark_json_matches_the_metrics_run_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER


def test_metric_names_and_counts():
    names = [*run.END_TO_END, *run.PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(run.END_TO_END) <= 16
    assert 1 <= len(run.PER_LAYER) <= 128
    assert len(run.DETERMINISTIC) == 5 + 56


def test_span_totals_self_time_and_nested_same_name():
    # 0 run [0, 10] > 1 access [1, 5] > 2 rotate [2, 4] > 3 rotate [2.5, 3]
    #               > 4 access [6, 7]
    names = array("i", [0, 1, 2, 2, 1])
    parents = array("q", [-1, 0, 1, 2, 0])
    starts = array("d", [0.0, 1.0, 2.0, 2.5, 6.0])
    ends = array("d", [10.0, 5.0, 4.0, 3.0, 7.0])
    run_, access, rotate = run.span_totals(names, parents, starts, ends, 3)
    assert run_ == (1, 10.0, 5.0)
    assert access == (2, 5.0, 3.0)
    assert rotate == (2, 2.0, 2.0)
