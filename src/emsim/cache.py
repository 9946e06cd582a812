"""Set-associative caches and TLBs with a rotating set-index mapping.

A block whose index field is i lives in physical set (i + rot) mod S.
Rotating bumps rot by one and invalidates everything (dirty lines are
written back first when a lower level is attached), so each physical set
takes turns hosting the hottest index. Per-set and per-line write counters
record the wear the rotation is meant to spread.

Each cache keeps one LRU model: a dict from every resident block to its
entry index (set * ways + way), and per set a list of its resident entry
indices, most recently used first (the LRU stack of Mattson et al., IBM
Sys. J. 1970). A fill takes the lowest free way and only a rotation frees
lines, so a set's resident ways are always 0 .. len(list) - 1.

Write accounting: a write hit and a line fill each count as one write to
the touched entry (a fill rewrites the whole line). Invalidation clears
bits only and is not counted; the refill traffic it causes is.

TLBs reuse the same model with line_bytes=1 over page numbers (4 KiB
pages), so a "block address" there is just the page number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .workload import ConfigError

PAGE_BYTES = 4096
LEVEL_ROLES = ("L1D", "L1I", "L2", "L3", "DTLB", "ITLB", "STLB")


def _power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    name: str
    sets: int
    ways: int
    line_bytes: int
    rotation_period: int | None = None  # None = never rotate
    write_allocate: bool = True

    def __post_init__(self):
        for field in ("sets", "ways", "line_bytes", "rotation_period"):
            value = getattr(self, field)
            if type(value) is not int and not (field == "rotation_period" and value is None):
                raise ValueError(f"{self.name}: {field} must be an integer, got {value!r}")
        if type(self.write_allocate) is not bool:
            raise ValueError(f"{self.name}: write_allocate must be a boolean, "
                             f"got {self.write_allocate!r}")
        if not _power_of_two(self.sets):
            raise ValueError(f"{self.name}: sets must be a power of two, got {self.sets}")
        if not _power_of_two(self.line_bytes):
            raise ValueError(f"{self.name}: line_bytes must be a power of two")
        if self.ways < 1:
            raise ValueError(f"{self.name}: ways must be >= 1")
        if self.rotation_period is not None and self.rotation_period < 1:
            raise ValueError(f"{self.name}: rotation_period must be >= 1 or None")


class RotatingCache:
    __slots__ = ("config", "rot_counter", "_where", "_lru", "_tag", "_dirty",
                 "set_writes", "line_writes", "invalidations", "accesses",
                 "fills", "write_hits", "rotation_writebacks",
                 "writeback_sink", "charge_rotation_writebacks")

    def __init__(self, config: CacheConfig,
                 writeback_sink: Optional[Callable[[int], None]] = None,
                 charge_rotation_writebacks: bool = True):
        self.config = config
        self.rot_counter = 0
        n = config.sets * config.ways
        self._where: dict[int, int] = {}  # resident block -> entry index
        self._lru = [[] for _ in range(config.sets)]  # resident entries, MRU first
        self._tag = [0] * n  # block held by each resident entry
        self._dirty = bytearray(n)
        self.set_writes = [0] * config.sets
        self.line_writes = [0] * n
        self.invalidations = 0
        self.accesses = 0
        self.fills = 0
        self.write_hits = 0
        self.rotation_writebacks = 0
        self.writeback_sink = writeback_sink
        self.charge_rotation_writebacks = charge_rotation_writebacks

    def physical_set(self, address: int) -> int:
        index_field = (address // self.config.line_bytes) % self.config.sets
        return (index_field + self.rot_counter) % self.config.sets

    def access(self, address: int, kind: str) -> tuple[bool, bool, int | None]:
        """Returns (hit, fill, byte address of the evicted dirty block or None)."""
        cfg = self.config
        block = address // cfg.line_bytes
        s = (block + self.rot_counter) % cfg.sets
        lru = self._lru[s]
        e = self._where.get(block)
        if e is not None:
            lru.remove(e)
            lru.insert(0, e)
            if kind == "WRITE":
                self._dirty[e] = True
                self.set_writes[s] += 1
                self.line_writes[e] += 1
                self.write_hits += 1
            out = (True, False, None)
        elif kind == "READ" or cfg.write_allocate:
            wb = None
            if len(lru) < cfg.ways:
                e = s * cfg.ways + len(lru)
            else:
                e = lru.pop()
                del self._where[self._tag[e]]
                if self._dirty[e]:
                    wb = self._tag[e] * cfg.line_bytes
            lru.insert(0, e)
            self._where[block] = e
            self._tag[e] = block
            self._dirty[e] = kind == "WRITE"
            self.set_writes[s] += 1
            self.line_writes[e] += 1
            self.fills += 1
            out = (False, True, wb)
        else:
            # write miss on a no-allocate cache: the write passes below
            out = (False, False, None)

        self.accesses += 1
        if cfg.rotation_period is not None and self.accesses % cfg.rotation_period == 0:
            self.rotate()
        return out

    def rotate(self) -> None:
        cfg = self.config
        sink = self.writeback_sink if self.charge_rotation_writebacks else None
        # resident lines only, set-major and way-ascending (entry index order):
        # the order the write-backs reach the level below decides its LRU state
        resident = sorted(self._where.values())
        for e in resident:
            if self._dirty[e]:
                self.rotation_writebacks += 1
                if sink is not None:
                    sink(self._tag[e] * cfg.line_bytes)
        for s in {e // cfg.ways for e in resident}:
            self._lru[s].clear()
        self._where.clear()
        self.rot_counter = (self.rot_counter + 1) % cfg.sets
        self.invalidations += 1

    def set_writes_snapshot(self) -> tuple[int, ...]:
        return tuple(self.set_writes)

    def line_writes_snapshot(self) -> tuple[int, ...]:
        """Per-entry write counts, set-major (set 0 way 0, set 0 way 1, ...)."""
        return tuple(self.line_writes)


# --- hierarchy ----------------------------------------------------------------

_DEFAULT_GEOMETRY = {
    # 32 KiB / 8-way and 32 KiB / 4-way L1s, 256 KiB L2, 8 MiB L3, 64 B lines;
    # TLB geometry in entries: 64/4w, 128/4w, 512/4w over 4 KiB page numbers
    "L1D": dict(sets=64, ways=8, line_bytes=64),
    "L1I": dict(sets=128, ways=4, line_bytes=64),
    "L2": dict(sets=512, ways=8, line_bytes=64),
    "L3": dict(sets=8192, ways=16, line_bytes=64),
    "DTLB": dict(sets=16, ways=4, line_bytes=1),
    "ITLB": dict(sets=32, ways=4, line_bytes=1),
    "STLB": dict(sets=128, ways=4, line_bytes=1),
}


class Hierarchy:
    """L1D/L1I over a shared L2 and L3, with D/I TLBs over a shared STLB.

    DATA accesses look up the D-TLB (misses consult the S-TLB) and then walk
    L1D -> L2 -> L3; INSTR accesses use the I-TLB and L1I. Fills fetch from
    the level below as reads; dirty evictions and rotation write-backs land
    on the level below as writes. Memory below L3 absorbs silently.
    """

    def __init__(self, caches: dict[str, RotatingCache]):
        missing = [r for r in LEVEL_ROLES if r not in caches]
        if missing:
            raise ValueError(f"hierarchy missing levels: {missing}")
        self.caches = caches
        self._stlb = caches["STLB"]
        self._spaces = {}
        for space, tlb, first in (("DATA", "DTLB", "L1D"), ("INSTR", "ITLB", "L1I")):
            path = (caches[first], caches["L2"], caches["L3"])
            self._spaces[space] = (caches[tlb], path)
            # L1x rotation write-backs enter the path at L2, L2's at L3; L3's
            # go to memory (no sink)
            for i in (0, 1):
                path[i].writeback_sink = partial(self._walk, path, i + 1, kind="WRITE")

    def _walk(self, path, i: int, address: int, kind: str) -> None:
        """Access path[i], then the levels below it as the outcome requires."""
        while i < len(path):
            hit, fill, writeback = path[i].access(address, kind)
            i += 1
            if writeback is not None:
                self._walk(path, i, writeback, "WRITE")
            if hit:
                return
            if fill:
                kind = "READ"  # fetch the block; a no-allocate write passes on as is

    def access(self, address: int, kind: str, space: str = "DATA") -> None:
        if address < 0:
            raise ValueError("address must be non-negative")
        if space not in self._spaces:
            raise ValueError(f"unknown address space {space!r}")
        tlb, path = self._spaces[space]
        page = address // PAGE_BYTES
        if not tlb.access(page, "READ")[0]:
            self._stlb.access(page, "READ")
        self._walk(path, 0, address, kind)


def rotation_period_from_json(value) -> int | None:
    """A rotation period as a config file gives it: a positive integer, or
    "never" or null for no rotation (returned as None)."""
    if value is None or value == "never":
        return None
    if type(value) is int and value >= 1:
        return value
    raise ConfigError(f"rotation_period must be a positive integer or \"never\", "
                      f"got {value!r}")


def build_hierarchy(rotation_period: int | None = None,
                    overrides: dict | None = None,
                    charge_rotation_writebacks: bool = True) -> Hierarchy:
    """Assemble a hierarchy from defaults plus per-level overrides.

    rotation_period applies to every level (None = no rotation anywhere).
    overrides is the "levels" object of a config file,
    {role: {sets|ways|line_bytes|rotation_period|write_allocate}}; it wins
    over the global period for the levels it names, and a per-level period
    of "never" or None pins that level.
    """
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ConfigError("levels must be an object")
    unknown = set(overrides) - set(LEVEL_ROLES)
    if unknown:
        raise ConfigError(f"unknown hierarchy levels: {sorted(unknown)}")
    caches = {}
    for role, geom in _DEFAULT_GEOMETRY.items():
        fields = dict(geom, rotation_period=rotation_period, write_allocate=True)
        level = overrides.get(role, {})
        if not isinstance(level, dict):
            raise ConfigError(f"level {role} config must be an object")
        for key, value in level.items():
            if key not in fields:
                raise ConfigError(f"unknown cache config field {key!r} for {role}")
            fields[key] = rotation_period_from_json(value) if key == "rotation_period" else value
        try:
            cfg = CacheConfig(name=role, **fields)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        caches[role] = RotatingCache(
            cfg, charge_rotation_writebacks=charge_rotation_writebacks)
    return Hierarchy(caches)
