"""Side-by-side replay: every trace event drives a conventional variant and
a wear-aware variant of each selected structure, and the per-entry write
counters of the two runs become one StructureReport per structure.

Structure drivers:

* alu: each AluIssue asks both allocators for min(ready_count, units)
  units (a trace may request more than exist; the grant saturates).
* regfile: RegWrite events whose (class, id) belongs to the configured
  ring land on both register files; the aware file catches up on owed
  rotations (cycle // period) in one rotate() call before each event, the
  baseline never rotates.
* cache: the MemAccess events are collected in order and replayed through
  two full hierarchies, one call each; the aware one rotates per level
  every rotation_period accesses, the baseline never.

Report rows are emitted in a fixed order (alu, regfile, then per cache
level a .lines row for per-entry counters and a .tags row for per-set
counters) so identical runs serialize identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .alu_alloc import COUNTER_ROTATE, FIXED_PRIORITY, TOGGLE_BALANCE, AluAllocator
from .cache import LEVEL_ROLES, build_hierarchy
from .regfile import DEFAULT_ROTATION_PERIOD, RotatingRegFile, ring_preset
from .wear_stats import (
    StructureReport,
    geo_mean,
    improvement_report,
    improvement_to_json,
    write_reports_csv,
    write_reports_json,
)
from .workload import AluIssue, ConfigError, RegWrite, Trace

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

    # hot loop: dispatch on the exact payload type, methods bound once
    if do_alu:
        alu_units = cfg.alu_units
        base_allocate, aware_allocate = alu_base.allocate, alu_aware.allocate
    if do_reg:
        period = cfg.rotation_period
        member_index = rf_base.member_index
        base_write, aware_write = rf_base.write, rf_aware.write
    mem = []
    n_alu = n_reg = 0
    for cycle, p in zip(trace.cycles, trace.payloads):
        cls = type(p)
        if cls is AluIssue:
            n_alu += 1
            if do_alu:
                k = p.ready_count
                if k > alu_units:
                    k = alu_units
                base_allocate(k)
                aware_allocate(k)
        elif cls is RegWrite:
            n_reg += 1
            if do_reg:
                idx = member_index(p.reg_class, p.arch_id)
                if idx is not None:
                    owed = cycle // period - rf_aware.rotations_done
                    if owed > 0:
                        rf_aware.rotate(owed)
                    base_write(idx, cycle)
                    aware_write(idx, cycle)
        elif do_cache:
            mem.append(p)
    if mem:
        hier_base.access(mem)
        hier_aware.access(mem)
    n_events = len(trace)
    n_mem = n_events - n_alu - n_reg

    reports: list[StructureReport] = []
    if do_alu:
        reports.append(improvement_report(
            alu_base.usage_snapshot(), alu_aware.usage_snapshot(),
            "alu", include_counts=True))
    if do_reg:
        reports.append(improvement_report(
            rf_base.write_snapshot(), rf_aware.write_snapshot(),
            f"regfile.{cfg.regfile_preset}", include_counts=True))
    if do_cache:
        for role in LEVEL_ROLES:
            base, aware = hier_base.caches[role], hier_aware.caches[role]
            reports.append(improvement_report(
                base.line_writes_snapshot(), aware.line_writes_snapshot(),
                f"cache.{role}.lines"))
            reports.append(improvement_report(
                base.set_writes_snapshot(), aware.set_writes_snapshot(),
                f"cache.{role}.tags"))

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
