"""Side-by-side replay: every trace event drives a conventional variant and
a wear-aware variant of each selected structure, and the per-entry write
counters of the two runs become one StructureReport per structure.

The trace is walked CHUNK_RECORDS events at a time, and each chunk is split
once into one column per structure, so that no column spans the whole
trace. Structure drivers:

* alu: each AluIssue asks both allocators for min(ready_count, units)
  units (a trace may request more than exist; the grant saturates); a
  chunk's requests go to each allocator in one allocate() call.
* regfile: RegWrite events whose (class, id) belongs to the configured
  ring land on both register files, a chunk in one write() call on the
  baseline, which never rotates. The aware file takes a chunk's writes
  one rotation epoch (cycle // period) at a time: one rotate() call for
  the rotations the epoch owes, then one write() call.
* cache: the memory records are collected in order, and each batch of at
  least CHUNK_RECORDS (or the trace's last) is split once and replayed
  through two full hierarchies, one access() call each; the aware one
  rotates per level every rotation_period accesses, the baseline never.

Chunks without records for a structure make no call on it.

Report rows are emitted in a fixed order (alu, regfile, then per cache
level a .lines row for per-entry counters and a .tags row for per-set
counters) so identical runs serialize identically.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass

from .alu_alloc import COUNTER_ROTATE, FIXED_PRIORITY, TOGGLE_BALANCE, AluAllocator
from .cache import CHUNK_RECORDS, LEVEL_ROLES, build_hierarchy, split_codes
from .regfile import DEFAULT_ROTATION_PERIOD, RotatingRegFile, ring_preset
from .wear_stats import (
    StructureReport,
    geo_mean,
    improvement_report,
    improvement_to_json,
    write_reports_csv,
    write_reports_json,
)
from .workload import AluIssue, ConfigError, RegWrite, Trace, TracePayload

STRUCTURES = ("alu", "regfile", "cache")
AWARE_ALU_POLICIES = (COUNTER_ROTATE, TOGGLE_BALANCE)


@dataclass(frozen=True)
class SimConfig:
    structures: tuple[str, ...] = STRUCTURES
    alu_units: int = 3
    alu_policy: str = TOGGLE_BALANCE
    regfile_preset: str = "gpr16"
    rotation_period: int = DEFAULT_ROTATION_PERIOD
    count_rotation_shifts: bool = False
    cache_overrides: dict | None = None
    charge_rotation_writebacks: bool = True

    def __post_init__(self):
        unknown = set(self.structures) - set(STRUCTURES)
        if unknown:
            raise ConfigError(f"unknown structures: {sorted(unknown)}")
        if not self.structures:
            raise ConfigError("at least one structure must be selected")
        if self.alu_policy not in AWARE_ALU_POLICIES:
            raise ConfigError(
                f"aware ALU policy must be one of {AWARE_ALU_POLICIES}, "
                f"got {self.alu_policy!r}")
        for name in ("alu_units", "rotation_period"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.alu_units < 1:
            raise ConfigError("alu_units must be >= 1")
        if self.rotation_period < 1:
            raise ConfigError("rotation_period must be >= 1")
        if type(self.charge_rotation_writebacks) is not bool:
            raise ConfigError("count_rotation_writebacks must be a boolean")


def _strip_rotation(overrides: dict | None) -> dict | None:
    """Geometry-only view of cache overrides for the never-rotating baseline."""
    if not overrides:
        return overrides
    return {role: {k: v for k, v in fields.items() if k != "rotation_period"}
            for role, fields in overrides.items()}


def run_simulation(trace: Trace, cfg: SimConfig):
    """Returns (reports, summary)."""
    do_alu = "alu" in cfg.structures
    do_reg = "regfile" in cfg.structures
    do_cache = "cache" in cfg.structures

    if do_alu:
        alu_base = AluAllocator(cfg.alu_units, FIXED_PRIORITY)
        alu_aware = AluAllocator(cfg.alu_units, cfg.alu_policy)
    if do_reg:
        ring = ring_preset(cfg.regfile_preset)
        rf_base = RotatingRegFile(ring, rotation_period=cfg.rotation_period)
        rf_aware = RotatingRegFile(ring, rotation_period=cfg.rotation_period,
                                   count_rotation_shifts=cfg.count_rotation_shifts)
    if do_cache:
        # the aware build checks the overrides that _strip_rotation walks
        hier_aware = build_hierarchy(
            rotation_period=cfg.rotation_period,
            overrides=cfg.cache_overrides,
            charge_rotation_writebacks=cfg.charge_rotation_writebacks)
        hier_base = build_hierarchy(
            rotation_period=None,
            overrides=_strip_rotation(cfg.cache_overrides),
            charge_rotation_writebacks=cfg.charge_rotation_writebacks)

    # the trace goes by in chunks, each split once into per-structure columns;
    # without a register file no write has a ring position
    ring_index = rf_base.ring_index if do_reg else {}
    cycles, payloads = trace.cycles, trace.payloads
    alu_units = cfg.alu_units
    codes: list[int] = []  # memory records not yet replayed
    n_alu = n_mem = 0
    for start in range(0, len(trace), CHUNK_RECORDS):
        stop = start + CHUNK_RECORDS
        ks, positions, reg_cycles = _split(
            cycles[start:stop], payloads[start:stop], ring_index, codes)
        n_alu += len(ks)
        if do_alu and ks:
            if max(ks) > alu_units:
                ks = [k if k <= alu_units else alu_units for k in ks]
            alu_base.allocate(ks)
            alu_aware.allocate(ks)
        if positions:
            rf_base.write(positions, reg_cycles)
            _write_by_epoch(rf_aware, positions, reg_cycles)
        if len(codes) >= CHUNK_RECORDS or codes and stop >= len(trace):
            n_mem += len(codes)
            if do_cache:
                batch = split_codes(codes)
                hier_base.access(batch)
                hier_aware.access(batch)
            codes.clear()
    n_events = len(trace)
    n_reg = n_events - n_alu - n_mem

    reports: list[StructureReport] = []
    if do_alu:
        reports.append(improvement_report(
            alu_base.usage, alu_aware.usage, "alu", include_counts=True))
    if do_reg:
        reports.append(improvement_report(
            rf_base.phys_writes, rf_aware.phys_writes,
            f"regfile.{cfg.regfile_preset}", include_counts=True))
    if do_cache:
        for role in LEVEL_ROLES:
            base, aware = hier_base.caches[role], hier_aware.caches[role]
            reports.append(improvement_report(
                base.line_writes, aware.line_writes, f"cache.{role}.lines"))
            reports.append(improvement_report(
                base.set_writes, aware.set_writes, f"cache.{role}.tags"))

    summary = {
        "structures": list(cfg.structures),
        "alu_units": cfg.alu_units,
        "alu_policy": cfg.alu_policy,
        "regfile_preset": cfg.regfile_preset,
        "rotation_period": cfg.rotation_period,
        "count_rotation_shifts": cfg.count_rotation_shifts,
        "events": n_events,
        "alu_issues": n_alu,
        "reg_writes": n_reg,
        "mem_accesses": n_mem,
        "cycles": trace.cycles[-1] + 1 if n_events else 0,
        "geo_mean_improvement": _aggregate(reports),
    }
    return reports, summary


def _split(cycles: list[int], payloads: list[TracePayload],
           ring_index: dict[tuple[str, int], int], codes: list[int]):
    """One chunk's columns: the ALU records' ready counts, and the ring
    positions and cycles of the register writes to ring members. The memory
    records' codes are appended to codes."""
    ks: list[int] = []
    positions: list[int] = []
    reg_cycles: list[int] = []
    add_k, add_position, add_cycle, add_mem = \
        ks.append, positions.append, reg_cycles.append, codes.append
    position_of = ring_index.get
    for cycle, p in zip(cycles, payloads):
        cls = type(p)
        if cls is AluIssue:
            add_k(p.ready_count)
        elif cls is RegWrite:
            position = position_of((p.reg_class, p.arch_id))
            if position is not None:
                add_position(position)
                add_cycle(cycle)
        else:
            add_mem(p)
    return ks, positions, reg_cycles


def _write_by_epoch(rf: RotatingRegFile, indices: list[int], cycles: list[int]) -> None:
    """Writes cycles[i] to ring position indices[i] at cycle cycles[i]
    (non-decreasing): the writes are cut where the rotation epoch
    (cycle // period) changes, and each epoch catches up on the rotations
    it owes in one rotate() call before one write() of its segment."""
    period = rf.rotation_period
    i, n = 0, len(cycles)
    while i < n:
        epoch = cycles[i] // period
        owed = epoch - rf.rotations_done
        if owed > 0:
            rf.rotate(owed)
        j = bisect_left(cycles, (epoch + 1) * period, i)
        rf.write(indices[i:j], cycles[i:j])
        i = j


def _aggregate(reports):
    """Geo-mean over rows whose baseline saw any writes; None if no row did."""
    vals = [r.mtf_improvement for r in reports
            if r.histogram_baseline.max_writes > 0]
    if not vals:
        return None
    return improvement_to_json(geo_mean(vals))


def write_report_files(reports, summary, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    write_reports_csv(reports, csv_path)
    write_reports_json(reports, json_path, summary=summary)
    return csv_path, json_path
