"""Benchmark workloads for `emsim simulate`: seeded trace builders, the
simulate flags each workload runs with, and the prepare step that writes a
trace file plus the facts the benchmark checks the reports against.

Every trace is built with the public `emsim.workload` API (generate() and
the Event/payload types), so the program under test only ever sees a trace
file. Caches and register files start empty; that is the tool's semantics.

Run as a script, this module is the benchmark's prepare step:

    PYTHONPATH=src python3 bench/workloads.py --workload NAME --seed N --dir DIR

It writes DIR/trace.txt and DIR/prepare.json. It runs in its own process so
that bench/run.py, whose peak RSS is inherited by every child it spawns,
stays small.
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from emsim.rng import SplitMix64
from emsim.workload import (
    AluBursts,
    AluIssue,
    Event,
    GenSpec,
    MemAccess,
    RegWrite,
    SkewedAddrs,
    ZipfRegWrites,
    generate,
    load_trace,
    save_trace,
)

DEFAULT_SEED = 1
ALU_UNITS = 3  # emsim's default; the ALU oracle below assumes it
GPR_RING = 16  # the gpr16 preset the workloads run with

# 16 KiB looping code footprint for mixed-ifetch, away from its data lines
CODE_BASE = 0x40_0000
CODE_BYTES = 16 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    length: int  # cycles
    structure: str
    policy: str
    rotation_period: int
    build: Callable[[int, int], list[Event]]  # (seed, length) -> trace
    pinned: tuple[str, str]  # sha256 of report.csv, report.json at DEFAULT_SEED

    def simulate_args(self) -> list[str]:
        return ["--structure", self.structure, "--policy", self.policy,
                "--rotation-period", str(self.rotation_period)]

    @property
    def structures(self) -> tuple[str, ...]:
        return ("alu", "regfile", "cache") if self.structure == "all" else (self.structure,)


def _seeds(seed: int):
    """Independent 64-bit sub-seeds, one per generated stream."""
    rng = SplitMix64(seed)
    while True:
        yield rng.next_u64()


def _alu_stream(seed: int, n: int) -> list[Event]:
    # widths 0..4 over 3 units: width-4 requests saturate the allocator
    return generate(GenSpec(seed, n, AluBursts(4, (1.0, 2.0, 3.0, 2.0, 2.0))))


def _reg_stream(seed: int, n: int) -> list[Event]:
    # 20 GPR ids, so ids 16..19 fall outside the gpr16 ring
    return generate(GenSpec(seed, n, ZipfRegWrites(20, 1.0)))


def build_cache_miss_heavy(seed: int, n: int) -> list[Event]:
    s = _seeds(seed)
    # 65536 lines = 4 MiB: larger than L2 (256 KiB), smaller than L3 (8 MiB)
    return generate(GenSpec(next(s), n, SkewedAddrs(65536, 0.01, 50.0)))


def build_core_alu_reg(seed: int, n: int) -> list[Event]:
    s = _seeds(seed)
    alu = _alu_stream(next(s), n)
    reg = _reg_stream(next(s), n)
    return [ev for pair in zip(alu, reg) for ev in pair]


def build_mixed_ifetch(seed: int, n: int) -> list[Event]:
    s = _seeds(seed)
    alu = _alu_stream(next(s), n)
    reg = _reg_stream(next(s), n)
    data = iter(generate(GenSpec(next(s), n, SkewedAddrs(2048, 0.1, 10.0))))
    rng = SplitMix64(next(s))
    events: list[Event] = []
    cycle = pc = 0
    for i in range(n):
        events.append(Event(cycle, alu[i].payload))
        events.append(Event(cycle, reg[i].payload))
        events.append(Event(cycle, MemAccess("READ", CODE_BASE + pc, "INSTR")))
        if rng.random() < 0.4:
            events.append(Event(cycle, next(data).payload))
        if rng.random() < 0.1:
            pc = rng.randbelow(CODE_BYTES // 4) * 4
        else:
            pc = (pc + 4) % CODE_BYTES
        cycle += 1 + rng.randbelow(3)
    return events


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cache-miss-heavy",
        why="4 MiB skewed data stream: the L1D/L2/L3 fill and writeback chain "
            "plus DTLB/STLB and full L3 rotations dominate; ALU and regfile idle",
        length=40_000, structure="cache", policy="toggle-balance",
        rotation_period=5000, build=build_cache_miss_heavy,
        pinned=("f306a2f1d7da93a23dad956d5e310e6b991effe76628456029eacafb4b81512b",
                "3983aaa7a23d5080c9f30ca972cbca19748ad9f294fee369ce3f875f284741d5")),
    Workload(
        name="core-alu-reg",
        why="one ALU burst and one Zipf register write per cycle: parse, ALU "
            "and regfile do the work; the hierarchy is built but never accessed",
        length=150_000, structure="all", policy="toggle-balance",
        rotation_period=5000, build=build_core_alu_reg,
        pinned=("5ed3aeb209a38ddc8d67b8aaa7afd743f28e663685d038a7a6efb8b49f8acc6f",
                "9cfa146dc98f877952fe6bfc91d63d5cd41e6d5d1359017201fe61e8e5080f48")),
    Workload(
        name="mixed-ifetch",
        why="ALU, register write and looping instruction fetch every cycle plus "
            "40% data accesses, with cycle gaps: L1I/ITLB hit path and rotations",
        length=40_000, structure="all", policy="counter-rotate",
        rotation_period=1000, build=build_mixed_ifetch,
        pinned=("c20274faf8df2402443502d67518d58fc6dac98f58687484f8767f6a266d8b34",
                "e226d4dc734773b7cd94bd0d3eb793b35531d2f6e64ffa4c322f07b94e1869ee")),
)}

def expectations(workload: Workload, events: list[Event]) -> dict:
    """Report facts derived from the trace alone, independent of emsim's
    replay: record counts, and the per-entry write counts of the two
    baselines that have a closed form (fixed-priority ALU, never-rotating
    register file)."""
    alu = [ev.payload.ready_count for ev in events if isinstance(ev.payload, AluIssue)]
    regs = [ev.payload.arch_id for ev in events
            if isinstance(ev.payload, RegWrite) and ev.payload.reg_class == "GPR"]
    mem = [ev.payload for ev in events if isinstance(ev.payload, MemAccess)]
    steps = [b.cycle - a.cycle for a, b in zip(events, events[1:])]
    facts = {
        "events": len(events),
        "alu_issues": len(alu),
        "reg_writes": sum(isinstance(ev.payload, RegWrite) for ev in events),
        "mem_accesses": len(mem),
        "instr_fetches": sum(p.space == "INSTR" for p in mem),
        "cycles": events[-1].cycle + 1 if events else 0,
        "max_cycle_step": max(steps, default=0),
    }
    if "alu" in workload.structures:
        facts["alu_counts_baseline"] = [sum(min(w, ALU_UNITS) > u for w in alu)
                                        for u in range(ALU_UNITS)]
    if "regfile" in workload.structures:
        facts["regfile_counts_baseline"] = [regs.count(r) for r in range(GPR_RING)]
    return facts


def prepare(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Build the trace, write it, and measure the input-side layer metrics."""
    t0 = time.perf_counter()
    events = workload.build(seed, workload.length)
    generate_s = time.perf_counter() - t0
    trace = out_dir / "trace.txt"
    save_trace(trace, events, header=f"{workload.name} seed={seed}")
    facts = expectations(workload, events)
    del events

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    loaded = load_trace(trace)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    with open(trace, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    return {
        "trace": str(trace),
        "trace_lines": lines,
        "facts": facts,
        "generate_s": generate_s,
        "trace_bytes_per_event": held / max(1, len(loaded)),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    args = ap.parse_args()
    result = prepare(WORKLOADS[args.workload], args.seed, args.dir)
    (args.dir / "prepare.json").write_text(json.dumps(result, indent=1) + "\n",
                                           encoding="utf-8")


if __name__ == "__main__":
    main()
