"""Side-by-side replay: every trace event drives a conventional variant and
a wear-aware variant of each selected structure, and the per-entry write
counters of the two runs become one StructureReport per structure.

A Trace holds one column per structure. Each selected structure is
replayed from its own column, CHUNK_RECORDS records at a time, one
structure after another, since they share no state:

* alu: each ready count asks both allocators for min(ready_count, units)
  units (a trace may request more than exist; the grant saturates); a
  slice goes to each allocator in one allocate() call.
* regfile: a slice of register keys becomes ring positions, and the writes
  to registers outside the ring are dropped. The rest land on both files,
  in one write() call on the baseline, which never rotates; the aware file
  takes them one rotation epoch (cycle // period) at a time, one rotate()
  call for the rotations the epoch owes, then one write() call. A slice
  without writes to ring members makes no call.
* cache: the memory records run through one hierarchy at a time, a split
  slice per access() call: first the baseline, which never rotates, then
  the aware copy, which rotates each level every rotation_period
  accesses. Only the histograms of each level's per-entry and per-set
  write counts outlive a replay, so at most one hierarchy, and no other
  count vector, is alive at a time; each splits the slices for itself. A
  trace without memory records builds no hierarchy: each level's rows are
  idle rows of the size its geometry gives.

Report rows are emitted in a fixed order (alu, regfile, then per cache
level a .lines row for per-entry counters and a .tags row for per-set
counters) so identical runs serialize identically.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from itertools import compress
from typing import NamedTuple

from .alu_alloc import COUNTER_ROTATE, FIXED_PRIORITY, TOGGLE_BALANCE, AluAllocator
from .cache import CHUNK_RECORDS, LEVEL_ROLES, build_hierarchy, level_configs, split_codes
from .records import Checked
from .regfile import DEFAULT_ROTATION_PERIOD, RING_PRESETS, RotatingRegFile
from .wear_stats import (
    StructureReport,
    WriteHistogram,
    geo_mean,
    histogram,
    histogram_report,
    idle_report,
    improvement_report,
    improvement_to_json,
    write_reports_csv,
    write_reports_json,
)
from .workload import ALU, MEM, REG, ConfigError, Trace

STRUCTURES = ("alu", "regfile", "cache")
AWARE_ALU_POLICIES = (COUNTER_ROTATE, TOGGLE_BALANCE)


class _SimConfig(NamedTuple):
    structures: tuple[str, ...] = STRUCTURES
    alu_units: int = 3
    alu_policy: str = TOGGLE_BALANCE
    regfile_preset: str = "gpr16"
    rotation_period: int = DEFAULT_ROTATION_PERIOD
    count_rotation_shifts: bool = False
    cache_overrides: dict | None = None
    charge_rotation_writebacks: bool = True


class SimConfig(Checked, _SimConfig):
    """A simulate run's settings. Every field is checked here, whichever
    structures are selected, so a constructed SimConfig always runs."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        unknown = set(self.structures) - set(STRUCTURES)
        if unknown:
            raise ConfigError(f"unknown structures: {sorted(unknown)}")
        if not self.structures:
            raise ConfigError("at least one structure must be selected")
        if len(set(self.structures)) != len(self.structures):
            raise ConfigError(f"structures must not repeat, got {list(self.structures)}")
        if self.alu_policy not in AWARE_ALU_POLICIES:
            raise ConfigError(
                f"aware ALU policy must be one of {AWARE_ALU_POLICIES}, "
                f"got {self.alu_policy!r}")
        if self.regfile_preset not in tuple(RING_PRESETS):  # a list is unhashable
            raise ConfigError(f"unknown ring preset {self.regfile_preset!r}; "
                              f"expected one of {tuple(RING_PRESETS)}")
        if self.rotation_period is None:
            raise ConfigError(
                'the aware run needs a finite rotation period; use a '
                'per-level "never" to pin individual cache levels')
        for name in ("alu_units", "rotation_period"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.alu_units < 1:
            raise ConfigError("alu_units must be >= 1")
        if self.rotation_period < 1:
            raise ConfigError("rotation_period must be >= 1")
        if type(self.count_rotation_shifts) is not bool:
            raise ConfigError("count_rotation_shifts must be a boolean")
        if type(self.charge_rotation_writebacks) is not bool:
            raise ConfigError("count_rotation_writebacks must be a boolean")
        level_configs(self.rotation_period, self.cache_overrides)
        return self


def run_simulation(trace: Trace, cfg: SimConfig):
    """Returns (reports, summary)."""
    reports: list[StructureReport] = []
    if "alu" in cfg.structures:
        reports.append(_replay_alu(trace.values[ALU], cfg))
    if "regfile" in cfg.structures:
        reports.append(_replay_regfile(trace.cycles[REG], trace.values[REG], cfg))
    if "cache" in cfg.structures:
        reports += _replay_caches(trace.values[MEM], cfg)

    summary = {
        "structures": list(cfg.structures),
        "alu_units": cfg.alu_units,
        "alu_policy": cfg.alu_policy,
        "regfile_preset": cfg.regfile_preset,
        "rotation_period": cfg.rotation_period,
        "count_rotation_shifts": cfg.count_rotation_shifts,
        "events": len(trace),
        "alu_issues": len(trace.values[ALU]),
        "reg_writes": len(trace.values[REG]),
        "mem_accesses": len(trace.values[MEM]),
        # the last event's cycle is the last in its kind's column
        "cycles": trace.cycles[trace.kinds[-1]][-1] + 1 if trace.kinds else 0,
        "geo_mean_improvement": _aggregate(reports),
    }
    return reports, summary


def _replay_alu(counts: list[int], cfg: SimConfig) -> StructureReport:
    base = AluAllocator(cfg.alu_units, FIXED_PRIORITY)
    aware = AluAllocator(cfg.alu_units, cfg.alu_policy)
    units = cfg.alu_units
    for start in range(0, len(counts), CHUNK_RECORDS):
        ks = counts[start:start + CHUNK_RECORDS]
        if max(ks) > units:
            ks = [k if k <= units else units for k in ks]
        base.allocate(ks)
        aware.allocate(ks)
    return improvement_report(base.usage, aware.usage, "alu", include_counts=True)


def _replay_regfile(cycles: array, keys: list, cfg: SimConfig) -> StructureReport:
    ring = RING_PRESETS[cfg.regfile_preset]
    base = RotatingRegFile(ring, rotation_period=cfg.rotation_period)
    aware = RotatingRegFile(ring, rotation_period=cfg.rotation_period,
                            count_rotation_shifts=cfg.count_rotation_shifts)
    position_of = base.ring_index.get
    for start in range(0, len(keys), CHUNK_RECORDS):
        stop = start + CHUNK_RECORDS
        positions = list(map(position_of, keys[start:stop]))
        values = cycles[start:stop]
        if None in positions:  # drop the writes to registers outside the ring
            members = [position is not None for position in positions]
            positions = list(compress(positions, members))
            values = list(compress(values, members))
        if positions:
            base.write(positions, values)
            _write_by_epoch(aware, positions, values)
    return improvement_report(base.phys_writes, aware.phys_writes,
                              f"regfile.{cfg.regfile_preset}", include_counts=True)


def _replay_caches(codes: list[int], cfg: SimConfig) -> list[StructureReport]:
    if not codes:  # every level stays idle: its rows follow from its geometry
        levels = level_configs(cfg.rotation_period, cfg.cache_overrides)
        return [idle_report(n, f"cache.{role}.{row}") for role in LEVEL_ROLES
                for row, n in (("lines", levels[role].sets * levels[role].ways),
                               ("tags", levels[role].sets))]
    # one hierarchy at a time: the never-rotating baseline, which takes the
    # overrides' geometry only, is replayed to its histograms and let go
    # before the aware copy is built
    geometry = {role: {k: v for k, v in fields.items() if k != "rotation_period"}
                for role, fields in (cfg.cache_overrides or {}).items()}
    charge = cfg.charge_rotation_writebacks
    base = _replay_hierarchy(codes, rotation_period=None, overrides=geometry,
                             charge_rotation_writebacks=charge)
    aware = _replay_hierarchy(codes, rotation_period=cfg.rotation_period,
                              overrides=cfg.cache_overrides, charge_rotation_writebacks=charge)
    reports = []
    for role in LEVEL_ROLES:
        (b_lines, b_sets), (a_lines, a_sets) = base[role], aware[role]
        reports.append(histogram_report(b_lines, a_lines, f"cache.{role}.lines"))
        reports.append(histogram_report(b_sets, a_sets, f"cache.{role}.tags"))
    return reports


def _replay_hierarchy(codes: list[int],
                      **settings) -> dict[str, tuple[WriteHistogram, WriteHistogram]]:
    """Replays every memory record through a hierarchy built with settings,
    one split batch at a time, and keeps only the histograms of each level's
    line_writes and set_writes: the rest of the hierarchy goes when this
    returns."""
    hierarchy = build_hierarchy(**settings)
    for start in range(0, len(codes), CHUNK_RECORDS):
        hierarchy.access(split_codes(codes[start:start + CHUNK_RECORDS]))
    return {role: (histogram(level.line_writes), histogram(level.set_writes))
            for role, level in hierarchy.caches.items()}


def _write_by_epoch(rf: RotatingRegFile, indices: list[int], cycles) -> None:
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
