"""Set-associative caches and TLBs with a rotating set-index mapping.

A block whose index field is i lives in physical set (i + rot) mod S.
Rotating bumps rot by one and invalidates everything (dirty lines are
written back to the level below first), so each physical set
takes turns hosting the hottest index. Per-set and per-line write counters
record the wear the rotation is meant to spread.

Each cache keeps one LRU model: per set a list of its resident blocks,
most recently used first (the LRU stack of Mattson et al., IBM Sys. J.
1970), and a dict from every resident block to its way. The block's set
follows from the block and the rotation, so its entry index (set * ways +
way), where its write counters live, is computed where it is needed: on a
write hit, a fill or an eviction. A way is a small int that CPython
shares, so the dict holds no int of its own per resident line. An
eviction pops the set's LRU block and takes its way back from the dict,
so no entry records its block. A fill takes the lowest free way and only
a rotation frees lines, so a set's resident ways are always 0 ..
len(list) - 1.

Write accounting: a write hit and a line fill each count as one write to
the touched entry (a fill rewrites the whole line). Invalidation clears
bits only and is not counted; the refill traffic it causes is.

Every level reads and emits mem codes (workload.mem_code), so its block is
code >> (log2(line_bytes) + 2). TLBs reuse the same model with line_bytes=1
over page mem codes (4 KiB pages), so a "block" there is the page number.
"""

from __future__ import annotations

from typing import NamedTuple

from .records import Checked
from .workload import ConfigError

_PAGE_SHIFT = 14  # mem code >> _PAGE_SHIFT = 4 KiB page (12 offset + 2 flag bits)
MAX_SETS = 1 << 20  # a level builds one list per set
MAX_ENTRIES = 1 << 24  # and a write counter per entry (sets * ways)


def _power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class _CacheConfig(NamedTuple):
    name: str
    sets: int
    ways: int
    line_bytes: int
    rotation_period: int | None = None  # None = never rotate
    write_allocate: bool = True


class CacheConfig(Checked, _CacheConfig):
    """One level's geometry and policy; a bad field raises ConfigError."""

    __slots__ = ()

    def _check(self):
        for field in ("sets", "ways", "line_bytes", "rotation_period"):
            value = getattr(self, field)
            if type(value) is not int and not (field == "rotation_period" and value is None):
                raise ConfigError(f"{self.name}: {field} must be an integer, got {value!r}")
        if type(self.write_allocate) is not bool:
            raise ConfigError(f"{self.name}: write_allocate must be a boolean, "
                              f"got {self.write_allocate!r}")
        if not _power_of_two(self.sets):
            raise ConfigError(f"{self.name}: sets must be a power of two, got {self.sets}")
        if self.sets > MAX_SETS:
            raise ConfigError(f"{self.name}: sets must be <= {MAX_SETS}, got {self.sets}")
        if not _power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line_bytes must be a power of two")
        if self.ways < 1:
            raise ConfigError(f"{self.name}: ways must be >= 1")
        if self.sets * self.ways > MAX_ENTRIES:
            raise ConfigError(f"{self.name}: sets * ways must be <= {MAX_ENTRIES}, "
                              f"got {self.sets * self.ways}")
        if self.rotation_period is not None and self.rotation_period < 1:
            raise ConfigError(f"{self.name}: rotation_period must be >= 1 or None")


class RotatingCache:
    __slots__ = ("config", "rot_counter", "_shift", "_where", "_lru", "_dirty",
                 "line_writes", "accesses", "fills", "rotation_writebacks",
                 "charge_rotation_writebacks")

    def __init__(self, config: CacheConfig, charge_rotation_writebacks: bool = True):
        self.config = config
        self.rot_counter = 0
        self._shift = config.line_bytes.bit_length() + 1  # mem code >> _shift = block
        n = config.sets * config.ways
        self._where: dict[int, int] = {}  # resident block -> way
        self._lru = [[] for _ in range(config.sets)]  # resident blocks, MRU first
        self._dirty = bytearray(n)
        self.line_writes = [0] * n  # per entry, set-major
        self.accesses = 0
        self.fills = 0
        self.rotation_writebacks = 0
        self.charge_rotation_writebacks = charge_rotation_writebacks

    @property
    def set_writes(self) -> list[int]:
        """Per-set write counts: each write to a set lands on one of its
        entries, so a set's count is the sum of its row of line_writes."""
        rows = zip(*[iter(self.line_writes)] * self.config.ways)
        return list(map(sum, rows))

    def run(self, stream: list[int], tags: list[int] | None = None) -> list[int]:
        """The level loop: replays mem codes in order. Returns, as mem codes,
        what they send to the level below: per access its rotation write-backs
        (set-major), then its evicted dirty line, both writes of their block's
        address, then its fill fetch (its code with the flag bits cleared) or
        its passed-on no-allocate write (its code as is). With tags, also
        appends to tags the stream index of the access that sent each output.

        The rotation countdown carries over between calls through accesses.
        """
        out: list[int] = []
        period = self.config.rotation_period
        start = 0
        # the access at index last rotates the cache; its write-backs go first
        while period and (last := start + period - 1 - self.accesses % period) < len(stream):
            self._replay(stream, start, last, out, tags)
            mark = len(out)
            self._replay(stream, last, last + 1, out, tags)
            writebacks = self.rotate()
            out[mark:mark] = writebacks
            if tags is not None:
                tags[mark:mark] = [last] * len(writebacks)
            start = last + 1
        self._replay(stream, start, len(stream), out, tags)
        return out

    def _replay(self, stream, start, stop, out, tags) -> None:
        """Accesses stream[start:stop], among which the cache does not rotate."""
        cfg, shift = self.config, self._shift
        sets_mask, ways, allocate_writes = cfg.sets - 1, cfg.ways, cfg.write_allocate
        rot = self.rot_counter
        where, lrus, dirty = self._where, self._lru, self._dirty
        line_writes = self.line_writes
        emit = out.append
        sent_by = None if tags is None else tags.append
        fills = 0
        for k in range(start, stop):
            x = stream[k]
            block = x >> shift
            s = (block + rot) & sets_mask
            way = where.get(block)
            if way is not None:
                lru = lrus[s]
                if lru[0] != block:
                    lru.remove(block)
                    lru.insert(0, block)
                if x & 2:
                    e = s * ways + way
                    dirty[e] = 1
                    line_writes[e] += 1
                continue
            if x & 2 and not allocate_writes:
                emit(x)  # a write miss that does not allocate passes below
            else:
                lru = lrus[s]
                way = len(lru)
                if way < ways:
                    e = s * ways + way
                else:
                    victim = lru.pop()
                    way = where.pop(victim)
                    e = s * ways + way
                    if dirty[e]:
                        emit(victim << shift | 2)
                        if sent_by:
                            sent_by(k)
                lru.insert(0, block)
                where[block] = way
                dirty[e] = x & 2
                line_writes[e] += 1
                fills += 1
                emit(x & -4)  # fetch the block
            if sent_by:
                sent_by(k)
        self.accesses += stop - start
        self.fills += fills

    def rotate(self) -> list[int]:
        """Invalidates every line and shifts the set mapping by one. Returns
        the dirty lines' write-backs for the level below (mem codes, as in
        run()), or none if rotation write-backs are not charged (they are
        counted either way)."""
        cfg, shift = self.config, self._shift
        rot, sets_mask, ways = self.rot_counter, cfg.sets - 1, cfg.ways
        where, lrus = self._where, self._lru
        # resident lines only, by entry index (set-major, way-ascending): the
        # order the write-backs reach the level below decides its LRU state
        block_at = {((block + rot) & sets_mask) * ways + way: block
                    for block, way in where.items()}
        writebacks = [block_at[e] << shift | 2
                      for e in sorted(filter(self._dirty.__getitem__, block_at))]
        self.rotation_writebacks += len(writebacks)
        for s in {(block + rot) & sets_mask for block in where}:
            lrus[s].clear()
        where.clear()
        self.rot_counter = (self.rot_counter + 1) % cfg.sets
        return writebacks if self.charge_rotation_writebacks else []


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
LEVEL_ROLES = tuple(_DEFAULT_GEOMETRY)


class Hierarchy:
    """L1D/L1I over a shared L2 and L3, with D/I TLBs over a shared STLB.

    DATA accesses look up the D-TLB (misses consult the S-TLB) and then walk
    L1D -> L2 -> L3; INSTR accesses use the I-TLB and L1I. Fills fetch from
    the level below as reads; dirty evictions and rotation write-backs land
    on the level below as writes. Memory below L3 absorbs silently.

    No level feeds back into one above it, so each level's output stream is
    exactly the next level's input (trace stripping: Puzak 1985; Wang and
    Baer, SIGMETRICS 1990). access() therefore replays a batch of records
    one level at a time: L1D and L1I, then L2, then L3; the D- and I-TLB,
    then the STLB. The caller bounds the streams held at once by the size
    of its batches.
    """

    def __init__(self, caches: dict[str, RotatingCache]):
        self.caches = caches  # role -> level, for every role in LEVEL_ROLES

    def access(self, codes: list[int]) -> None:
        """Replays a batch of memory records, each a mem_code: address << 2 |
        is_write << 1 | is_instr. A record's L1 takes its code as is and its
        TLB a read of its page, the page mem code code >> _PAGE_SHIFT << 2.
        A batch of one space runs straight through that space's L1 and TLB;
        a batch of both is split by space and the L1 and TLB outputs are
        merged back into batch order."""
        c = self.caches
        instr = [i for i, code in enumerate(codes) if code & 1]
        if 0 < len(instr) < len(codes):
            data = [i for i, code in enumerate(codes) if not code & 1]
            l2_in = _merged((c["L1D"], [codes[i] for i in data], data),
                            (c["L1I"], [codes[i] for i in instr], instr))
            stlb_in = _merged((c["DTLB"], [codes[i] >> _PAGE_SHIFT << 2 for i in data], data),
                              (c["ITLB"], [codes[i] >> _PAGE_SHIFT << 2 for i in instr], instr))
        else:
            l1, tlb = (c["L1I"], c["ITLB"]) if instr else (c["L1D"], c["DTLB"])
            l2_in = l1.run(codes)
            stlb_in = tlb.run([code >> _PAGE_SHIFT << 2 for code in codes])
        c["L3"].run(c["L2"].run(l2_in))
        c["STLB"].run(stlb_in)


def _merged(*runs: tuple[RotatingCache, list[int], list[int]]) -> list[int]:
    """Runs each space's stream through its level and merges the outputs in
    batch order by the index of the record that sent each; the sort is
    stable, so a record's outputs keep the order its level sent them in."""
    keys: list[int] = []
    outs: list[int] = []
    for level, stream, indices in runs:
        tags: list[int] = []
        outs += level.run(stream, tags)
        keys += [indices[t] for t in tags]
    return [outs[i] for i in sorted(range(len(outs)), key=keys.__getitem__)]


def rotation_period_from_json(value) -> int | None:
    """A rotation period as a config file gives it: a positive integer, or
    "never" or null for no rotation (returned as None)."""
    if value is None or value == "never":
        return None
    if type(value) is int and value >= 1:
        return value
    raise ConfigError(f"rotation_period must be a positive integer or \"never\", "
                      f"got {value!r}")


def level_configs(rotation_period: int | None, overrides: dict | None) -> dict[str, CacheConfig]:
    """Each role's CacheConfig: the default geometry, then rotation_period
    (None = no rotation unless the level's override sets a period), then
    the role's overrides.

    overrides is the "levels" object of a config file,
    {role: {sets|ways|line_bytes|rotation_period|write_allocate}}; it wins
    over the global period for the levels it names, and a per-level period
    of "never" or None pins that level. A bad override raises ConfigError.
    """
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise ConfigError("levels must be an object")
    unknown = set(overrides) - set(LEVEL_ROLES)
    if unknown:
        raise ConfigError(f"unknown hierarchy levels: {sorted(unknown)}")
    configs = {}
    for role, geom in _DEFAULT_GEOMETRY.items():
        fields = dict(geom, rotation_period=rotation_period, write_allocate=True)
        level = overrides.get(role, {})
        if not isinstance(level, dict):
            raise ConfigError(f"level {role} config must be an object")
        for key, value in level.items():
            if key not in fields:
                raise ConfigError(f"unknown cache config field {key!r} for {role}")
            fields[key] = rotation_period_from_json(value) if key == "rotation_period" else value
        configs[role] = CacheConfig(name=role, **fields)
    return configs


def build_hierarchy(rotation_period: int | None = None,
                    overrides: dict | None = None,
                    charge_rotation_writebacks: bool = True) -> Hierarchy:
    """A hierarchy of the levels level_configs() describes."""
    return Hierarchy({role: RotatingCache(cfg, charge_rotation_writebacks)
                      for role, cfg in level_configs(rotation_period, overrides).items()})
