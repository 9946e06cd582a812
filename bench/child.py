"""One `emsim simulate` process, as launched by bench/run.py.

    PYTHONPATH=src python3 bench/child.py MARKS.json TRACED simulate ARGS...

Runs `emsim.cli.main(ARGS)` in this process and, when it returns, writes
MARKS.json with two CLOCK_MONOTONIC timestamps (nanoseconds; the clock is
system-wide, so the launching process can subtract its own launch time):

* main_ns: emsim.cli is imported and main() is about to be entered;
* replay_ns: run_simulation() was entered, i.e. the trace is loaded.

With TRACED = 1 it also wraps the public entry points of each layer and
records one span per call (name, start, end, parent) in flat arrays kept in
memory. At exit the spans go to MARKS.json.spans as raw arrays, and MARKS.json
gets the span names and the per-level cache counters read from the two
hierarchies that build_hierarchy() returned. The untraced run pays only
the one wrapper around run_simulation().
"""

import json
import sys
import time
from array import array


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """Flat span log: span i has name id names[i], parent span parents[i]
    (-1 for a root), and perf_counter start/end seconds."""

    def __init__(self):
        self.span_names: list[str] = []
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        nid = len(self.span_names)
        self.span_names.append(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "wb") as fh:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _install_tracer(cli, hierarchies: dict) -> Tracer:
    from emsim import simulate
    from emsim.alu_alloc import AluAllocator
    from emsim.cache import Hierarchy, RotatingCache
    from emsim.regfile import RotatingRegFile

    build = simulate.build_hierarchy

    def build_hierarchy(*args, **kwargs):
        hier = build(*args, **kwargs)
        # run_simulation builds the never-rotating baseline with period None
        hierarchies["base" if kwargs.get("rotation_period") is None else "aware"] = hier
        return hier

    simulate.build_hierarchy = build_hierarchy
    tracer = Tracer()
    for owner, attr, name in (
            (cli, "load_trace", "workload.load_trace"),
            (cli, "run_simulation", "simulate.run_simulation"),
            (cli, "write_report_files", "simulate.write_report_files"),
            (simulate, "build_hierarchy", "cache.build_hierarchy"),
            (simulate, "improvement_report", "wear_stats.improvement_report"),
            (Hierarchy, "access", "cache.access"),
            (RotatingCache, "rotate", "cache.rotate"),
            (AluAllocator, "allocate", "alu_alloc.allocate"),
            (RotatingRegFile, "write", "regfile.write"),
            (RotatingRegFile, "rotate", "regfile.rotate")):
        tracer.wrap(owner, attr, name)
    return tracer


def _cache_counters(hierarchies: dict) -> dict:
    from emsim.cache import LEVEL_ROLES

    out = {}
    for variant, hier in sorted(hierarchies.items()):
        for role in LEVEL_ROLES:
            c = hier.caches[role]
            for field in ("accesses", "fills", "rotation_writebacks"):
                out[f"{role}.{variant}.{field}"] = getattr(c, field)
    return out


def main() -> int:
    marks_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import emsim.cli as cli

    marks = {"main_ns": _now_ns()}
    hierarchies: dict = {}
    tracer = _install_tracer(cli, hierarchies) if traced else None
    run = cli.run_simulation

    def run_simulation(*args, **kwargs):
        marks["replay_ns"] = _now_ns()
        return run(*args, **kwargs)

    cli.run_simulation = run_simulation
    code = cli.main(argv)
    if tracer is not None:
        tracer.write(marks_path + ".spans")
        marks["span_names"] = tracer.span_names
        marks["spans"] = len(tracer.names)
        marks["cache"] = _cache_counters(hierarchies)
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
