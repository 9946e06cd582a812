"""Deliberately independent reference models for differential tests.

These share no code or data layout with the package. Each cache set is a
recency-ordered Python list (MRU first), the LRU stack of Mattson et al.,
"Evaluation techniques for storage hierarchies" (IBM Sys. J. 1970), and
counters are kept per set rather than in flat per-entry arrays.

RefSetAssocLRU is a plain cache with no rotation. RefRotatingCache adds the
physical-way bookkeeping the wear counters need and the rotating set
mapping; RefHierarchy wires seven of them into the L1/L2/L3 + TLB/STLB
hierarchy, recursing level by level by role name.

RefAluAllocator runs the three ALU policies step by step on plain lists,
straight from their definitions. ref_parse_trace is the straightforward
line-by-line trace parser: one int conversion per integer field and one new
payload per record. It shares only the event types and the error class with
the package, so that its results can be compared directly. ref_histogram
places one entry at a time in the five wear bins, and ref_avg_to_max takes
a vector's average-to-max ratio.

ref_run_simulation is the whole-run oracle: it replays a parsed trace
through the models above plus a closed-form register-file model, and
assembles, bins and renders both report files and the summary itself.

access makes one access to a package cache and returns its outcome the way
the reference caches do. physical_set and member_index read where a package
cache or register file puts an address or a register, for tests that check
its counters by hand. clone copies a package ALU allocator, grant makes
one request of it and returns the units granted, and ex_bits and
global_bit read its toggle-balance state.
"""

import copy
import math
import re

from emsim.workload import AluIssue, Event, MemAccess, RegWrite, TraceParseError


class RefSetAssocLRU:
    def __init__(self, sets, ways, line_bytes, write_allocate=True):
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.write_allocate = write_allocate
        self._sets = [[] for _ in range(sets)]

    def access(self, address, kind):
        """Returns (hit, fill, writeback_address_or_None)."""
        block = address // self.line_bytes
        entries = self._sets[block % self.sets]
        for pos, ent in enumerate(entries):
            if ent[0] == block:
                entries.pop(pos)
                entries.insert(0, ent)
                if kind == "WRITE":
                    ent[1] = True
                return (True, False, None)
        if kind == "READ" or self.write_allocate:
            writeback = None
            if len(entries) == self.ways:
                old_block, dirty = entries.pop()
                if dirty:
                    writeback = old_block * self.line_bytes
            entries.insert(0, [block, kind == "WRITE"])
            return (False, True, writeback)
        return (False, False, None)


class RefRotatingCache:
    """LRU cache whose block-to-set mapping shifts by one set per rotation.

    A block with index field i lives in physical set (i + shift) mod sets.
    Each set is a list of [way, block, dirty] lines, MRU first. A fill takes
    the lowest-numbered way no line occupies, else evicts the LRU line.
    Every `rotation_period` accesses (None = never) the cache rotates: it
    hands each dirty line's address to `on_writeback` in physical order
    (set 0 way 0, set 0 way 1, ...), empties every set, then shifts. Only
    the sets touched since the last rotation are held (`_sets`, set index
    -> lines), so a rotation costs what those sets hold, not the set count.
    `line_writes[s][w]` counts fills and write hits landing on set s way w.
    """

    def __init__(self, sets, ways, line_bytes, rotation_period=None,
                 write_allocate=True, charge_rotation_writebacks=True):
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        self.rotation_period = rotation_period
        self.write_allocate = write_allocate
        self.charge_rotation_writebacks = charge_rotation_writebacks
        self.on_writeback = None
        self.shift = 0
        self._sets = {}
        self.line_writes = [[0] * ways for _ in range(sets)]
        self.accesses = 0
        self.fills = 0
        self.write_hits = 0
        self.rotation_writebacks = 0

    def resident_blocks(self):
        return {line[1] for lines in self._sets.values() for line in lines}

    def access(self, address, kind):
        """Returns (hit, fill, writeback_address_or_None)."""
        block = address // self.line_bytes
        s = (block % self.sets + self.shift) % self.sets
        lines = self._sets.setdefault(s, [])
        for pos, line in enumerate(lines):
            if line[1] == block:
                lines.insert(0, lines.pop(pos))
                if kind == "WRITE":
                    line[2] = True
                    self.line_writes[s][line[0]] += 1
                    self.write_hits += 1
                result = (True, False, None)
                break
        else:
            if kind == "READ" or self.write_allocate:
                taken = {line[0] for line in lines}
                free = [w for w in range(self.ways) if w not in taken]
                writeback = None
                if free:
                    way = free[0]
                else:
                    way, old_block, dirty = lines.pop()
                    if dirty:
                        writeback = old_block * self.line_bytes
                lines.insert(0, [way, block, kind == "WRITE"])
                self.line_writes[s][way] += 1
                self.fills += 1
                result = (False, True, writeback)
            else:
                result = (False, False, None)
        self.accesses += 1
        if self.rotation_period and self.accesses % self.rotation_period == 0:
            self.rotate()
        return result

    def rotate(self):
        for s in sorted(self._sets):
            for _way, block, dirty in sorted(self._sets[s]):
                if dirty:
                    self.rotation_writebacks += 1
                    if self.charge_rotation_writebacks and self.on_writeback:
                        self.on_writeback(block * self.line_bytes)
        self._sets = {}
        self.shift = (self.shift + 1) % self.sets


class RefHierarchy:
    """L1D/L1I over L2 over L3, D/I TLBs over the STLB, memory below L3.

    A miss that fills fetches the block from the level below as a READ; a
    write miss that does not allocate passes below as a WRITE. A dirty
    eviction is written to the level below before the fill is fetched, and
    rotation write-backs land below as WRITEs.
    """

    BELOW = {"L1D": "L2", "L1I": "L2", "L2": "L3", "L3": None}

    def __init__(self, levels, charge_rotation_writebacks=True):
        """levels: {role: dict(sets, ways, line_bytes, rotation_period,
        write_allocate)} for all seven roles."""
        self.levels = {
            role: RefRotatingCache(
                charge_rotation_writebacks=charge_rotation_writebacks, **geom)
            for role, geom in levels.items()}
        for role, below in self.BELOW.items():
            if below is not None:
                self.levels[role].on_writeback = (
                    lambda address, below=below: self._visit(below, address, "WRITE"))

    def _visit(self, role, address, kind):
        if role is None:
            return  # memory absorbs everything
        hit, fill, writeback = self.levels[role].access(address, kind)
        below = self.BELOW[role]
        if writeback is not None:
            self._visit(below, writeback, "WRITE")
        if not hit:
            self._visit(below, address, "READ" if fill else kind)

    def access(self, address, kind, space):
        tlb, first = ("DTLB", "L1D") if space == "DATA" else ("ITLB", "L1I")
        page = address // 4096
        if not self.levels[tlb].access(page, "READ")[0]:
            self.levels["STLB"].access(page, "READ")
        self._visit(first, address, kind)


class RefAluAllocator:
    """fixed-priority grants units 0..k-1. counter-rotate grants k units
    starting at a lead that advances by one (mod N) on every call.
    toggle-balance keeps one bit per unit and one global bit: units whose
    bit equals the global bit are eligible and are served lowest index
    first, each served unit's bit flips, and when a request uses up every
    eligible unit the global bit flips and the rest of the request is
    served, lowest index first, from the units that were not eligible."""

    def __init__(self, n, policy):
        self.n = n
        self.policy = policy
        self.usage = [0] * n
        self.lead = 0
        self.bits = [0] * n
        self.global_bit = 0

    def allocate(self, k):
        """Returns the units granted, in grant order."""
        if self.policy == "fixed-priority":
            units = list(range(k))
        elif self.policy == "counter-rotate":
            units = [(self.lead + j) % self.n for j in range(k)]
            self.lead = (self.lead + 1) % self.n
        else:
            eligible = [u for u in range(self.n) if self.bits[u] == self.global_bit]
            others = [u for u in range(self.n) if self.bits[u] != self.global_bit]
            units = eligible[:k]
            if k >= len(eligible):
                self.global_bit = 1 - self.global_bit
                units += others[:k - len(eligible)]
            for u in units:
                self.bits[u] = 1 - self.bits[u]
        for u in units:
            self.usage[u] += 1
        return tuple(units)


_REF_KIND = {"R": "READ", "W": "WRITE"}
_REF_SPACE = {"D": "DATA", "I": "INSTR"}


def access(cache, address, kind):
    """One access to a RotatingCache, as a one-element run(). Returns (hit,
    fill, byte address of the evicted dirty block or None)."""
    fills, rotation_writebacks = cache.fills, cache.rotation_writebacks
    out = cache.run([address << 2 | (kind == "WRITE") << 1])
    if cache.charge_rotation_writebacks:  # they come first; drop them
        del out[:cache.rotation_writebacks - rotation_writebacks]
    fill = cache.fills > fills
    return (not fill and not out, fill, out[0] >> 2 if len(out) == 2 else None)


def physical_set(cache, address):
    """The physical set of a byte address in a RotatingCache: its index
    field, shifted by one set per rotation so far."""
    cfg = cache.config
    return (address // cfg.line_bytes + cache.rot_counter) % cfg.sets


def member_index(rf, reg_class, arch_id):
    """Ring position of an architectural register in a RotatingRegFile,
    None if not enrolled."""
    return rf.ring_index.get((reg_class, arch_id))


def clone(alloc):
    """An AluAllocator that goes on from alloc's state with its own usage
    counters; the two share the memo table, which steps only ever extend."""
    other = copy.copy(alloc)
    other.usage = list(alloc.usage)
    return other


def grant(alloc, k):
    """One cycle's request of k units from an AluAllocator: the units it
    grants, in grant order, read from the step it ends on."""
    alloc.allocate([k])
    return alloc._last.units


def ex_bits(alloc):
    """An AluAllocator's toggle-balance excitation bits, unit 0 first: bits
    1..N of its state."""
    state = alloc._last.state
    return tuple((state >> (i + 1)) & 1 for i in range(alloc.num_units))


def global_bit(alloc):
    """An AluAllocator's toggle-balance global bit: bit 0 of its state."""
    return alloc._last.state & 1


def _ref_int(text):
    """ASCII decimal with an optional '-'. Other text int() would take
    ('_' separators, '+', non-ASCII digits) is rejected with a message of
    its own; text int() rejects anyway keeps int()'s message."""
    if re.fullmatch("-?[0-9]+", text):
        return int(text)
    int(text)
    raise ValueError(f"not an ASCII decimal integer: {text!r}")


def ref_parse_trace(lines):
    events = []
    last_cycle = -1
    alu_cycle = -1
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            cycle = _ref_int(fields[0])
            tag = fields[1]
            if tag == "A":
                if len(fields) != 3:
                    raise TraceParseError("ALU record needs 3 fields", line_no)
                payload = AluIssue(ready_count=_ref_int(fields[2]))
            elif tag == "R":
                if len(fields) != 4:
                    raise TraceParseError("register record needs 4 fields", line_no)
                if fields[2] not in ("GPR", "FP", "FLAGS", "SP"):
                    raise TraceParseError(f"unknown register class {fields[2]!r}", line_no)
                payload = RegWrite(reg_class=fields[2], arch_id=_ref_int(fields[3]))
                if payload.arch_id < 0:
                    raise TraceParseError("register id must be non-negative", line_no)
            elif tag == "M":
                if len(fields) != 5:
                    raise TraceParseError("memory record needs 5 fields", line_no)
                if fields[2] not in _REF_KIND:
                    raise TraceParseError(f"memory kind must be R or W, got {fields[2]!r}", line_no)
                if fields[4] not in _REF_SPACE:
                    raise TraceParseError(f"memory space must be D or I, got {fields[4]!r}", line_no)
                payload = MemAccess(kind=_REF_KIND[fields[2]],
                                    address=_ref_int(fields[3]),
                                    space=_REF_SPACE[fields[4]])
                if payload.address < 0:
                    raise TraceParseError("address must be non-negative", line_no)
            else:
                raise TraceParseError(f"unknown record tag {tag!r}", line_no)
        except TraceParseError:
            raise
        except (ValueError, IndexError) as exc:
            raise TraceParseError(f"malformed record: {exc}", line_no) from exc

        if cycle < 0:
            raise TraceParseError("cycle must be non-negative", line_no)
        if cycle >= 2 ** 64:
            raise TraceParseError("cycle must be below 2**64", line_no)
        if cycle < last_cycle:
            raise TraceParseError(
                f"cycle {cycle} decreases below previous cycle {last_cycle}", line_no)
        if isinstance(payload, AluIssue):
            if payload.ready_count < 0:
                raise TraceParseError("ready_count must be non-negative", line_no)
            if cycle == alu_cycle:
                raise TraceParseError(f"second ALU issue in cycle {cycle}", line_no)
            alu_cycle = cycle
        last_cycle = cycle
        events.append(Event(cycle, payload))
    return events


def ref_histogram(counts):
    """(bins, max, mean, entries) of the five-bin write histogram, placing
    one entry at a time: r = 100*c/max lands in r <= 25, 25 < r <= 50,
    50 < r <= 75, 75 < r <= 90 or r > 90, compared exactly as
    100*c <= edge*max (with max 0 every entry lands in the first bin)."""
    counts = list(counts)
    m = max(counts)
    bins = [0] * 5
    for c in counts:
        if 100 * c <= 25 * m:
            bins[0] += 1
        elif 100 * c <= 50 * m:
            bins[1] += 1
        elif 100 * c <= 75 * m:
            bins[2] += 1
        elif 100 * c <= 90 * m:
            bins[3] += 1
        else:
            bins[4] += 1
    return tuple(bins), m, sum(counts) / len(counts), len(counts)


def ref_avg_to_max(counts):
    """Average over maximum of a write-count vector, undefined (ValueError)
    for an empty vector or a maximum of 0."""
    counts = list(counts)
    if not counts:
        raise ValueError("counts must be non-empty")
    m = max(counts)
    if m <= 0:
        raise ValueError("avg/max ratio undefined when the maximum is 0")
    return sum(counts) / len(counts) / m


# --- whole run -----------------------------------------------------------------

REF_DEFAULT_LEVELS = {
    "L1D": dict(sets=64, ways=8, line_bytes=64),
    "L1I": dict(sets=128, ways=4, line_bytes=64),
    "L2": dict(sets=512, ways=8, line_bytes=64),
    "L3": dict(sets=8192, ways=16, line_bytes=64),
    "DTLB": dict(sets=16, ways=4, line_bytes=1),
    "ITLB": dict(sets=32, ways=4, line_bytes=1),
    "STLB": dict(sets=128, ways=4, line_bytes=1),
}
REF_RINGS = {
    "gpr16": [("GPR", i) for i in range(16)],
    "gpr-flags-sp": [("GPR", i) for i in range(16)] + [("FLAGS", 0), ("SP", 0)],
    "fp32": [("FP", i) for i in range(32)],
}
REF_CSV_HEADER = (
    ["structure", "num_entries", "max_baseline", "max_aware",
     "avg_to_max_baseline", "avg_to_max_aware"]
    + [f"bin_{side}_{b}" for side in ("baseline", "aware")
       for b in ("0_25", "25_50", "50_75", "75_90", "90_100")]
    + ["mtf_improvement", "mtf_improvement_display"])


def _ref_levels(period, overrides):
    """Per-role geometry: the defaults, then the global period, then the
    role's overrides, where a period of "never" or None means no rotation."""
    levels = {}
    for role, geom in REF_DEFAULT_LEVELS.items():
        level = dict(geom, rotation_period=period, write_allocate=True)
        for key, value in ((overrides or {}).get(role) or {}).items():
            level[key] = None if value == "never" else value
        levels[role] = level
    return levels


def _ref_row(name, base, aware, with_counts):
    """(report.json entry, report.csv row) for one pair of count vectors."""
    (bins_b, max_b, avg_b, n), (bins_a, max_a, avg_a, _) = \
        ref_histogram(base), ref_histogram(aware)
    ratio_b = avg_b / max_b if max_b else 0.0
    ratio_a = avg_a / max_a if max_a else 0.0
    if max_b and max_a:
        improvement = max_b / max_a - 1.0
    elif max_b:
        improvement = "unbounded"
    else:
        improvement = -1.0 if max_a else 0.0
    entry = {"structure": name, "num_entries": n, "max_baseline": max_b,
             "max_aware": max_a, "avg_to_max_baseline": ratio_b,
             "avg_to_max_aware": ratio_a, "bins_baseline": list(bins_b),
             "bins_aware": list(bins_a), "mtf_improvement": improvement}
    if with_counts:
        entry["counts_baseline"] = list(base)
        entry["counts_aware"] = list(aware)
    bounded = improvement != "unbounded"
    row = [name, str(n), str(max_b), str(max_a), repr(ratio_b), repr(ratio_a),
           *map(str, bins_b), *map(str, bins_a),
           repr(improvement) if bounded else "unbounded",
           f"{improvement * 100:.2f}%" if bounded else "unbounded"]
    return entry, row


def ref_run_simulation(events, structures, alu_units, alu_policy, regfile_preset,
                       rotation_period, count_rotation_shifts, cache_overrides,
                       charge_rotation_writebacks):
    """(report.json document, report.csv rows with header, summary) of a
    side-by-side run over events (a list of Event).

    The register file is replayed in closed form: a write to ring position a
    at cycle c lands in slot a in the baseline and in slot
    (a + c // rotation_period) mod N in the aware file. With
    count_rotation_shifts, every aware slot is also charged one write per
    rotation owed at the cycle of the last ring write."""
    rows = []
    if "alu" in structures:
        base = RefAluAllocator(alu_units, "fixed-priority")
        aware = RefAluAllocator(alu_units, alu_policy)
        for ev in events:
            if isinstance(ev.payload, AluIssue):
                k = min(ev.payload.ready_count, alu_units)
                base.allocate(k)
                aware.allocate(k)
        rows.append(_ref_row("alu", base.usage, aware.usage, True))
    if "regfile" in structures:
        ring = REF_RINGS[regfile_preset]
        n = len(ring)
        base, aware = [0] * n, [0] * n
        last = None
        for ev in events:
            p = ev.payload
            if isinstance(p, RegWrite) and (p.reg_class, p.arch_id) in ring:
                pos = ring.index((p.reg_class, p.arch_id))
                base[pos] += 1
                aware[(pos + ev.cycle // rotation_period) % n] += 1
                last = ev.cycle
        if count_rotation_shifts and last is not None:
            aware = [c + last // rotation_period for c in aware]
        rows.append(_ref_row(f"regfile.{regfile_preset}", base, aware, True))
    if "cache" in structures:
        stripped = {role: {k: v for k, v in level.items() if k != "rotation_period"}
                    for role, level in (cache_overrides or {}).items()}
        hiers = [RefHierarchy(_ref_levels(period, overrides),
                              charge_rotation_writebacks=charge_rotation_writebacks)
                 for period, overrides in ((None, stripped),
                                           (rotation_period, cache_overrides))]
        for ev in events:
            p = ev.payload
            if isinstance(p, MemAccess):
                for hier in hiers:
                    hier.access(p.address, p.kind, p.space)
        for role in ("L1D", "L1I", "L2", "L3", "DTLB", "ITLB", "STLB"):
            base, aware = (h.levels[role].line_writes for h in hiers)
            rows.append(_ref_row(f"cache.{role}.lines",
                                 [c for s in base for c in s],
                                 [c for s in aware for c in s], False))
            rows.append(_ref_row(f"cache.{role}.tags", [sum(s) for s in base],
                                 [sum(s) for s in aware], False))

    gains = [e["mtf_improvement"] for e, _ in rows if e["max_baseline"] > 0]
    if not gains:
        geo = None
    elif "unbounded" in gains:
        geo = "unbounded"
    else:
        logs = 0.0  # added in row order, as the package does on every Python
        for g in gains:
            logs += math.log1p(g)
        geo = math.exp(logs / len(gains)) - 1.0
    kinds = [type(ev.payload) for ev in events]
    summary = {
        "structures": list(structures),
        "alu_units": alu_units,
        "alu_policy": alu_policy,
        "regfile_preset": regfile_preset,
        "rotation_period": rotation_period,
        "count_rotation_shifts": count_rotation_shifts,
        "events": len(events),
        "alu_issues": kinds.count(AluIssue),
        "reg_writes": kinds.count(RegWrite),
        "mem_accesses": kinds.count(MemAccess),
        "cycles": events[-1].cycle + 1 if events else 0,
        "geo_mean_improvement": geo,
    }
    doc = {"reports": [e for e, _ in rows], "summary": summary}
    return doc, [REF_CSV_HEADER] + [r for _, r in rows], summary
