"""Side-by-side replay: every trace event drives a conventional variant and
a wear-aware variant of each selected structure, and the per-entry write
counters of the two runs become one StructureReport per structure.

A Trace holds one column per structure: the ALU ready counts, the
register keys beside their cycles, and the memory record codes. The
selected structures are replayed one after another, since they share no
state, each through one feeder, _feed, which hands its column to the
structure's two variants in slices of CHUNK_RECORDS records:

* alu: a slice of ready counts goes to each allocator in one allocate()
  call, which grants min(ready_count, units) units per count (a trace may
  request more than exist; the grant saturates).
* regfile: a slice of register keys is cut where the rotation epoch
  (cycle // rotation_period) changes. Each segment's write count per ring
  member lands on both files in one write() call each: on the baseline,
  which never rotates, and on the aware file after one rotate() for the
  rotations the epoch owes. A segment without ring writes makes no call.
* cache: the memory records run through one hierarchy at a time, a slice
  of mem codes per access() call: first the baseline, which never rotates,
  then the aware copy, which rotates each level every rotation_period
  accesses. Only the histograms of each level's per-entry and per-set
  write counts outlive a replay, so at most one hierarchy, and no other
  count vector, is alive at a time. A trace without memory records builds
  no hierarchy: each level's histograms are idle ones of the sizes its
  geometry gives, and become rows in the same loop as replayed ones.

Report rows are emitted in a fixed order (alu, regfile, then per cache
level a .lines row for per-entry counters and a .tags row for per-set
counters) so identical runs serialize identically.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import partial
from typing import NamedTuple

from .alu_alloc import COUNTER_ROTATE, FIXED_PRIORITY, TOGGLE_BALANCE, AluAllocator
from .cache import LEVEL_ROLES, build_hierarchy, level_configs
from .records import check_integers, checked
from .regfile import RING_PRESETS, RotatingRegFile
from .wear_stats import (
    CSV_COLUMNS,
    StructureReport,
    WriteHistogram,
    geo_mean,
    histogram,
    histogram_report,
    idle_histogram,
    improvement_report,
    improvement_to_json,
    report_rows,
    reports_to_doc,
    write_outputs,
)
from .workload import ConfigError, Trace

STRUCTURES = ("alu", "regfile", "cache")
AWARE_ALU_POLICIES = (COUNTER_ROTATE, TOGGLE_BALANCE)
CHUNK_RECORDS = 1024  # records of one structure per replay slice
DEFAULT_ROTATION_PERIOD = 10_000_000
MAX_ALU_UNITS = 256  # counter-rotate counts a batch's requests at each of N leads


@checked
class SimConfig(NamedTuple):
    """A simulate run's settings. Every field is checked here, whichever
    structures are selected, so a constructed SimConfig always runs."""

    structures: tuple[str, ...] = STRUCTURES
    alu_units: int = 3
    alu_policy: str = TOGGLE_BALANCE
    regfile_preset: str = "gpr16"
    rotation_period: int = DEFAULT_ROTATION_PERIOD
    count_rotation_shifts: bool = False
    cache_overrides: dict | None = None
    charge_rotation_writebacks: bool = True

    def _check(self):
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
        check_integers(self, alu_units=(1, MAX_ALU_UNITS), rotation_period=(1, None))
        if type(self.count_rotation_shifts) is not bool:
            raise ConfigError("count_rotation_shifts must be a boolean")
        if type(self.charge_rotation_writebacks) is not bool:
            raise ConfigError("count_rotation_writebacks must be a boolean")
        level_configs(self.rotation_period, self.cache_overrides)


def run_simulation(trace: Trace, cfg: SimConfig):
    """Returns (reports, summary)."""
    reports: list[StructureReport] = []
    if "alu" in cfg.structures:
        base_alu = AluAllocator(cfg.alu_units, FIXED_PRIORITY)
        aware_alu = AluAllocator(cfg.alu_units, cfg.alu_policy)
        _feed(lambda ks: (base_alu.allocate(ks), aware_alu.allocate(ks)), trace.alu)
        reports.append(improvement_report(base_alu.usage, aware_alu.usage, "alu"))
    if "regfile" in cfg.structures:
        ring = RING_PRESETS[cfg.regfile_preset]
        base_rf = RotatingRegFile(ring)
        aware_rf = RotatingRegFile(ring, count_rotation_shifts=cfg.count_rotation_shifts)
        _feed(partial(_write_by_epoch, base_rf, aware_rf, cfg.rotation_period),
              trace.reg_keys, trace.reg_cycles)
        reports.append(improvement_report(base_rf.phys_writes, aware_rf.phys_writes,
                                          f"regfile.{cfg.regfile_preset}"))
    if "cache" in cfg.structures:
        # one hierarchy at a time: the never-rotating baseline, of the overrides'
        # geometry only, is reduced to its histograms before the aware one is built
        geometry = {role: {k: v for k, v in fields.items() if k != "rotation_period"}
                    for role, fields in (cfg.cache_overrides or {}).items()}
        charge = cfg.charge_rotation_writebacks
        base = _replay_hierarchy(trace.mem, None, geometry, charge)
        aware = _replay_hierarchy(trace.mem, cfg.rotation_period, cfg.cache_overrides, charge)
        reports += [histogram_report(b, a, f"cache.{role}.{row}") for role in LEVEL_ROLES
                    for row, b, a in zip(("lines", "tags"), base[role], aware[role])]

    summary = {
        "structures": list(cfg.structures),
        "alu_units": cfg.alu_units,
        "alu_policy": cfg.alu_policy,
        "regfile_preset": cfg.regfile_preset,
        "rotation_period": cfg.rotation_period,
        "count_rotation_shifts": cfg.count_rotation_shifts,
        "events": len(trace),
        "alu_issues": len(trace.alu),
        "reg_writes": len(trace.reg_keys),
        "mem_accesses": len(trace.mem),
        "cycles": trace.cycles,
        "geo_mean_improvement": _aggregate(reports),
    }
    return reports, summary


def _feed(feed, *columns) -> None:
    """Calls feed with aligned slices of the columns, CHUNK_RECORDS records
    each, in order: the only place a column is cut into replay slices."""
    for start in range(0, len(columns[0]), CHUNK_RECORDS):
        feed(*(column[start:start + CHUNK_RECORDS] for column in columns))


def _replay_hierarchy(codes: list[int], rotation_period: int | None, overrides: dict | None,
                      charge: bool) -> dict[str, tuple[WriteHistogram, WriteHistogram]]:
    """Each level's (line_writes, set_writes) histograms after every record
    ran, a batch at a time, through a hierarchy of these settings, of which
    nothing else outlives this call. Without records none is built: each
    level's histograms are idle ones of the sizes level_configs gives."""
    if not codes:
        return {role: (idle_histogram(level.sets * level.ways), idle_histogram(level.sets))
                for role, level in level_configs(rotation_period, overrides).items()}
    hierarchy = build_hierarchy(rotation_period=rotation_period, overrides=overrides,
                                charge_rotation_writebacks=charge)
    _feed(hierarchy.access, codes)
    return {role: (histogram(level.line_writes), histogram(level.set_writes))
            for role, level in hierarchy.caches.items()}


def _write_by_epoch(base: RotatingRegFile, aware: RotatingRegFile, period: int,
                    keys: list, cycles) -> None:
    """Writes the register keys[i] at cycle cycles[i] (non-decreasing) to
    both files, cut where the rotation epoch (cycle // period) changes: per
    segment, its write count per ring member, the others dropped, goes in
    one write() to base, which never rotates, and to aware after one
    rotate() for the rotations the epoch owes. A trace carries no register
    values, so the replay writes counts only."""
    position_of = base.ring_index.get
    i, n = 0, len(cycles)
    while i < n:
        epoch = cycles[i] // period
        j = bisect_left(cycles, (epoch + 1) * period, i)
        counts = {p: count for key, count in Counter(keys[i:j]).items()
                  if (p := position_of(key)) is not None}
        if counts:
            base.write(counts)
            owed = epoch - aware.rotations_done
            if owed > 0:
                aware.rotate(owed)
            aware.write(counts)
        i = j


def _aggregate(reports):
    """Geo-mean over rows whose baseline saw any writes; None if no row did."""
    vals = [r.mtf_improvement for r in reports
            if r.histogram_baseline.max_writes > 0]
    if not vals:
        return None
    return improvement_to_json(geo_mean(vals))


def write_report_files(reports, summary, out_dir):
    return write_outputs(out_dir, "report", CSV_COLUMNS, report_rows(reports),
                         reports_to_doc(reports, summary))
