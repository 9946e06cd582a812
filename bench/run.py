"""Benchmark for `emsim simulate`, driven from outside the package.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in bench/workloads.py. Each invocation builds the
workload's trace from --seed (in a separate prepare process), then launches
`emsim simulate --trace FILE --out DIR ...` again and again, one process at
a time, for --seconds seconds. Every run is checked: exit code 0, report
digests pinned at the default seed (at any other seed, identical across
the runs of the invocation), summary record counts equal to the trace's, and
the fixed-priority ALU and never-rotating register-file write counts equal
to closed forms computed from the trace.

--trace 0 reports the end-to-end metrics, each the median over the runs:

    wall_s        launch of the simulate process to its exit
    events_per_s  trace events / wall_s
    setup_s       launch until run_simulation() is entered (interpreter
                  start, imports, config, loading and parsing the trace)
    peak_rss_mb   the process's peak RSS from wait4() rusage, in MiB

--trace 1 alternates untraced runs with traced ones, in which every
layer's public entry points are wrapped (see bench/child.py), and reports
the per-layer metrics plus trace.overhead_s, the traced minus the untraced
median wall time. It also checks that the deterministic counters repeat
exactly between traced runs and that each workload stresses the layers it
was designed for.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}). A run whose outputs fail a check still
counts as attempted and failed, and sets correct to false. The lines before
it give the run context, each failure, and, for the end-to-end metrics,
median, max and sample count, plus failed_run_ratio (failed / attempted).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {  # name: (unit, better)
    "wall_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
LEVELS = ("L1D", "L1I", "L2", "L3", "DTLB", "ITLB", "STLB")
LEVEL_FIELDS = {  # per cache level and variant: (unit, better)
    "accesses": ("count", "lower"),
    "fills": ("count", "lower"),
    "rotation_writebacks": ("count", "lower"),
    "hit_ratio": ("ratio", "higher"),
}
PER_LAYER = {  # name: (unit, better)
    "cache.access_calls": ("count", "lower"),
    "cache.access_s": ("s", "lower"),
    "cache.rotate_calls": ("count", "lower"),
    "cache.rotate_s": ("s", "lower"),
    **{f"cache.{level}.{variant}.{field}": kind
       for level in LEVELS for variant in ("base", "aware")
       for field, kind in LEVEL_FIELDS.items()},
    "workload.parse_s": ("s", "lower"),
    "workload.parse_lines_per_s": ("1/s", "higher"),
    "workload.trace_bytes_per_event": ("B", "lower"),
    "workload.generate_s": ("s", "lower"),
    "simulate.replay_s": ("s", "lower"),
    "simulate.replay_events_per_s": ("1/s", "higher"),
    "simulate.dispatch_self_s": ("s", "lower"),
    "alu_alloc.allocate_calls": ("count", "lower"),
    "alu_alloc.allocate_s": ("s", "lower"),
    "regfile.write_calls": ("count", "lower"),
    "regfile.rotate_calls": ("count", "lower"),
    "regfile.self_s": ("s", "lower"),
    "wear_stats.report_s": ("s", "lower"),
    "wear_stats.write_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# counters that must repeat exactly between traced runs
DETERMINISTIC = ("cache.access_calls", "cache.rotate_calls",
                 "alu_alloc.allocate_calls", "regfile.write_calls",
                 "regfile.rotate_calls",
                 *(name for name in PER_LAYER if name.split(".")[1] in LEVELS))
MIN_RUNS = 5  # timed runs per invocation, however short --seconds is
RUN_TIMEOUT_S = 120  # one simulate process; the whole benchmark must end in 180 s

# The layer each workload was built to stress, checked on its traced runs.
SHAPE_CHECKS = {
    "cache-miss-heavy": (
        ("cache.access_s is most of simulate.replay_s",
         lambda m, f: m["cache.access_s"] > 0.5 * m["simulate.replay_s"]),
        ("no ALU or register-file calls",
         lambda m, f: m["alu_alloc.allocate_calls"] == m["regfile.write_calls"] == 0),
    ),
    "core-alu-reg": (
        ("the trace has no MemAccess records", lambda m, f: f["mem_accesses"] == 0),
        ("cache.access_calls == 0", lambda m, f: m["cache.access_calls"] == 0),
    ),
    "mixed-ifetch": (
        ("L1I and ITLB are accessed in both variants",
         lambda m, f: all(m[f"cache.{lv}.{v}.accesses"] > 0
                          for lv in ("L1I", "ITLB") for v in ("base", "aware"))),
        ("the trace has cycle gaps", lambda m, f: f["max_cycle_step"] > 1),
    ),
}


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Run:
    """One launched simulate process and what it left behind."""

    def __init__(self, traced: bool, exit_code: int, wall_s: float,
                 maxrss_kib: int, marks: dict, t0_ns: int):
        self.traced = traced
        self.exit_code = exit_code
        self.wall_s = wall_s
        self.peak_rss_mb = maxrss_kib / 1024
        self.marks = marks
        self.setup_s = (marks["replay_ns"] - t0_ns) / 1e9 if "replay_ns" in marks else None
        self.startup_s = (marks["main_ns"] - t0_ns) / 1e9 if "main_ns" in marks else None
        # timed to the end; its outputs may still fail the checks
        self.measured = exit_code == 0 and self.setup_s is not None
        self.spans: Path | None = None  # span log of a traced run
        self.layer: dict = {}  # per-layer metrics of a traced run


class Bench:
    def __init__(self, workload, pinned: tuple[str, str] | None, work: Path, prep: dict):
        self.workload = workload
        self.pinned = pinned
        self.work = work
        self.prep = prep
        self.facts = prep["facts"]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: tuple[str, str] | None = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def launch(self, traced: bool) -> Run:
        """Launch one simulate process, wait for it, and check its output."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        marks_path = self.work / "marks.json"
        marks_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(marks_path),
                "1" if traced else "0", "simulate", "--trace", self.prep["trace"],
                "--out", str(out), *self.workload.simulate_args()]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(self.work / "stdout.txt"), flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, str(self.work / "stderr.txt"), flags, 0o644)]
        # posix_spawn + wait4 rather than subprocess, for the child's own rusage.
        # Its ru_maxrss also covers this process's RSS at spawn time, which is
        # why trace building runs in a separate prepare process.
        t0 = _now_ns()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        signal.alarm(RUN_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
        wall_s = (_now_ns() - t0) / 1e9
        marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
        run = Run(traced, os.waitstatus_to_exitcode(status), wall_s,
                  usage.ru_maxrss, marks, t0)
        self.attempted += 1
        problems = self.check_outputs(run, out)
        if problems:
            self.failed += 1
            self.failures.extend(f"run {self.attempted}: {p}" for p in problems)
        if traced and run.measured:
            # read after the last launch, so this process stays small
            run.spans = self.work / f"spans-{self.attempted}.bin"
            (self.work / "marks.json.spans").rename(run.spans)
        return run

    def check_outputs(self, run: Run, out: Path) -> list[str]:
        if run.exit_code != 0:
            err = (self.work / "stderr.txt").read_text(errors="replace").strip()
            return [f"exit code {run.exit_code}: {err[-500:]}"]
        if "replay_ns" not in run.marks:
            return ["run_simulation was never entered"]
        try:
            csv_bytes = (out / "report.csv").read_bytes()
            json_bytes = (out / "report.json").read_bytes()
        except OSError as exc:
            return [f"missing report: {exc}"]
        problems = []
        digests = (hashlib.sha256(csv_bytes).hexdigest(),
                   hashlib.sha256(json_bytes).hexdigest())
        if self.pinned:
            expected, source = self.pinned, "pinned"
        else:
            expected, source = self.digests or digests, "first run's"
        self.digests = self.digests or digests
        for name, got, want in zip(("report.csv", "report.json"), digests, expected):
            if got != want:
                problems.append(f"{name} sha256 {got} != {source} {want}")

        try:
            problems += self.check_report(json.loads(json_bytes))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"report.json is not as expected: {exc!r}")
        return problems

    def check_report(self, doc: dict) -> list[str]:
        """Compare report.json with what the trace alone determines."""
        problems = []
        summary = doc["summary"]
        for key in ("events", "alu_issues", "reg_writes", "mem_accesses", "cycles"):
            if summary[key] != self.facts[key]:
                problems.append(f"summary {key} = {summary[key]}, trace has {self.facts[key]}")
        rows = {r["structure"]: r for r in doc["reports"]}
        for row, key in (("alu", "alu_counts_baseline"),
                         ("regfile.gpr16", "regfile_counts_baseline")):
            if key not in self.facts:
                continue
            base, aware = rows[row]["counts_baseline"], rows[row]["counts_aware"]
            if base != self.facts[key]:
                problems.append(f"{row} baseline counts {base} != {self.facts[key]} from the trace")
            if sum(aware) != sum(base):
                problems.append(f"{row} aware total {sum(aware)} != baseline total {sum(base)}")
        if (self.workload.policy == "toggle-balance" and "alu" in rows
                and max(rows["alu"]["counts_aware"]) - min(rows["alu"]["counts_aware"]) > 2):
            problems.append(f"toggle-balance spread exceeds 2: {rows['alu']['counts_aware']}")
        return problems

    def layer_metrics(self, run: Run) -> dict:
        """Per-layer metrics of one traced run, from its span log."""
        n = run.marks["spans"]
        span_names = run.marks["span_names"]
        names, parents = array("i"), array("q")
        starts, ends = array("d"), array("d")
        with open(run.spans, "rb") as fh:
            for arr in (names, parents, starts, ends):
                arr.fromfile(fh, n)

        totals = dict(zip(span_names, span_totals(names, parents, starts, ends,
                                                  len(span_names))))
        count = lambda name: totals[name][0]
        incl = lambda name: totals[name][1]
        own = lambda name: totals[name][2]
        replay_s = incl("simulate.run_simulation")
        parse_s = incl("workload.load_trace")
        m = {
            "cache.access_calls": count("cache.access"),
            "cache.access_s": incl("cache.access"),
            "cache.rotate_calls": count("cache.rotate"),
            "cache.rotate_s": incl("cache.rotate"),
            "workload.parse_s": parse_s,
            "workload.parse_lines_per_s": self.prep["trace_lines"] / parse_s,
            "simulate.replay_s": replay_s,
            "simulate.replay_events_per_s": self.facts["events"] / replay_s,
            "simulate.dispatch_self_s": own("simulate.run_simulation"),
            "alu_alloc.allocate_calls": count("alu_alloc.allocate"),
            "alu_alloc.allocate_s": incl("alu_alloc.allocate"),
            "regfile.write_calls": count("regfile.write"),
            "regfile.rotate_calls": count("regfile.rotate"),
            "regfile.self_s": own("regfile.write") + own("regfile.rotate"),
            "wear_stats.report_s": incl("wear_stats.improvement_report"),
            "wear_stats.write_s": incl("simulate.write_report_files"),
            "cli.startup_s": run.startup_s,
        }
        cache = run.marks["cache"]
        for level in LEVELS:
            for variant in ("base", "aware"):
                key = f"{level}.{variant}"
                acc, fills = cache.get(f"{key}.accesses", 0), cache.get(f"{key}.fills", 0)
                m[f"cache.{key}.accesses"] = acc
                m[f"cache.{key}.fills"] = fills
                m[f"cache.{key}.rotation_writebacks"] = cache.get(f"{key}.rotation_writebacks", 0)
                # every level write-allocates, so each miss is a fill;
                # a level never accessed reports 0
                m[f"cache.{key}.hit_ratio"] = (acc - fills) / acc if acc else 0.0
        return m


def span_totals(names, parents, starts, ends, k: int):
    """Per span name id in range(k): (calls, time, self time).

    A name's time sums only its outermost spans: a rotation's write-backs
    can rotate the level below, and that nested span is already inside the
    outer one. Self time is a span's duration minus its direct children's.
    Parents precede their children in the log.
    """
    n = len(names)
    dur = [e - s for s, e in zip(starts, ends)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    out = [[0, 0.0, 0.0] for _ in range(k)]
    for i in range(n):
        nid = names[i]
        acc = out[nid]
        acc[0] += 1
        acc[2] += dur[i] - child[i]
        p = parents[i]
        while p >= 0 and names[p] != nid:
            p = parents[p]
        if p < 0:
            acc[1] += dur[i]
    return [tuple(acc) for acc in out]


def counter_check(traced: list[Run]) -> list[str]:
    """Deterministic counters repeat exactly across traced runs and are sane."""
    problems = []
    first = traced[0].layer
    for other in traced[1:]:
        for name in DETERMINISTIC:
            if other.layer[name] != first[name]:
                problems.append(f"counter check: {name} differs between traced runs "
                                f"({first[name]} vs {other.layer[name]})")
    for level in LEVELS:
        for variant in ("base", "aware"):
            key = f"cache.{level}.{variant}"
            if first[f"{key}.accesses"] < first[f"{key}.fills"]:
                problems.append(f"counter check: {key}.accesses < {key}.fills")
            if not 0.0 <= first[f"{key}.hit_ratio"] <= 1.0:
                problems.append(f"counter check: {key}.hit_ratio outside [0, 1]")
    return problems


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def measure(bench: Bench, seconds: float, traced_mode: bool) -> list[Run]:
    bench.launch(traced=False)  # warm-up: fills the bytecode cache; checked, not timed
    runs: list[Run] = []
    deadline = time.monotonic() + seconds
    while True:
        traced = traced_mode and len(runs) % 2 == 0
        runs.append(bench.launch(traced))
        n_traced = sum(r.traced for r in runs)
        if time.monotonic() >= deadline and len(runs) >= MIN_RUNS and (
                not traced_mode or min(n_traced, len(runs) - n_traced) >= 2):
            return runs


def _run_timed_out(signum, frame):
    raise TimeoutError(f"a simulate run took longer than {RUN_TIMEOUT_S} s")


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark for emsim simulate")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "emsim" / "cli.py").is_file():
        print(f"error: no emsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    work = BENCH / ".work"  # trace, reports and span logs of this invocation
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        prepared = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), "--workload", workload.name,
             "--seed", str(seed), "--dir", str(work)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        if prepared.returncode != 0:
            print("error: building the trace failed", file=sys.stderr)
            return 1
        prep = json.loads((work / "prepare.json").read_text())
        bench = Bench(workload, workload.pinned if seed == DEFAULT_SEED else None,
                      work, prep)
        signal.signal(signal.SIGALRM, _run_timed_out)
        runs = measure(bench, args.seconds, bool(args.trace))
        for run in runs:
            if run.spans:
                run.layer = bench.layer_metrics(run)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    events = prep["facts"]["events"]
    print(f"workload {workload.name}: {workload.why}")
    print(f"  simulate {' '.join(workload.simulate_args())}; caches and register "
          f"files start empty")
    print(f"  seed {seed}, trace {events} events over {prep['facts']['cycles']} cycles")
    print(f"  python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"platform {platform.platform()}, commit {git_commit()}")
    untraced = [r for r in runs if r.measured and not r.traced]
    traced = [r for r in runs if r.measured and r.traced]
    if not untraced or (args.trace and len(traced) < 2):
        for line in bench.failures:
            print(line)
        print("error: too few runs completed to report metrics", file=sys.stderr)
        return 1

    samples = {
        "wall_s": [r.wall_s for r in untraced],
        "events_per_s": [events / r.wall_s for r in untraced],
        "setup_s": [r.setup_s for r in untraced],
        "peak_rss_mb": [r.peak_rss_mb for r in untraced],
    }
    print(f"  {'metric':<18}{'unit':<6}{'median':>14}{'max':>14}{'n':>5}")
    for name, values in samples.items():
        print(f"  {name:<18}{END_TO_END[name][0]:<6}{statistics.median(values):>14.6g}"
              f"{max(values):>14.6g}{len(values):>5}")
    print(f"  {'failed_run_ratio':<18}{'1':<6}{bench.failed / bench.attempted:>14.6g}"
          f"{'':>14}{bench.attempted:>5}")

    if args.trace:
        bench.failures += counter_check(traced)
        # counters repeat exactly (checked above); timings are medians
        values = {name: traced[0].layer[name] if name in DETERMINISTIC
                  else statistics.median(r.layer[name] for r in traced)
                  for name in traced[0].layer}
        values["workload.generate_s"] = prep["generate_s"]
        values["workload.trace_bytes_per_event"] = prep["trace_bytes_per_event"]
        values["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                      - statistics.median(samples["wall_s"]))
        for desc, holds in SHAPE_CHECKS[workload.name]:
            if not holds(values, prep["facts"]):
                bench.failures.append(f"workload-shape check failed: {desc}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
        print(f"  traced runs {len(traced)}, spans per run {traced[0].marks['spans']}, "
              f"tracing overhead {values['trace.overhead_s']:.6g} s")
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}

    for line in bench.failures:
        print(line)
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
