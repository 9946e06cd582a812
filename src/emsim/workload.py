"""Trace event model, text trace parsing, and seeded synthetic workloads.

Trace file format (UTF-8, one event per line, a line whose first field
starts with `#` is a comment, integers are ASCII decimal):

    <cycle> A <ready_count>                 ALU issue burst
    <cycle> R <GPR|FP|FLAGS|SP> <arch_id>   architectural register write
    <cycle> M <R|W> <address> <D|I>         memory access (data/instruction)

Cycles must be non-decreasing and below 2**64, and a cycle may carry at
most one ALU issue record. Synthetic traces come from generate() (or
iter_events(), one event at a time), a pure function of its GenSpec (seed
included): identical specs give byte-identical traces on any platform,
courtesy of the fixed SplitMix64 generator.
"""

from __future__ import annotations

import bisect
import json
import math
from array import array
from typing import Iterable, Iterator, NamedTuple, Union

from .records import Checked
from .rng import SplitMix64

REG_CLASSES = ("GPR", "FP", "FLAGS", "SP")
MEM_KINDS = ("READ", "WRITE")
MEM_SPACES = ("DATA", "INSTR")


class TraceParseError(ValueError):
    """Malformed or inconsistent trace input."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ConfigError(ValueError):
    """Invalid generator spec or run configuration."""


class AluIssue(NamedTuple):
    ready_count: int


class RegWrite(NamedTuple):
    reg_class: str
    arch_id: int


class MemAccess(NamedTuple):
    kind: str  # READ | WRITE
    address: int  # byte address
    space: str  # DATA | INSTR


Payload = Union[AluIssue, RegWrite, MemAccess]


class Event(NamedTuple):
    cycle: int
    payload: Payload


def mem_code(p: MemAccess) -> int:
    """A memory record as a Trace holds it and the cache levels consume it
    as is: one int, address << 2 | is_write << 1 | is_instr."""
    if p.kind not in MEM_KINDS:
        raise ValueError("memory kind must be READ or WRITE")
    if p.space not in MEM_SPACES:
        raise ValueError("address space must be DATA or INSTR")
    if p.address < 0:
        raise ValueError("address must be non-negative")
    return p.address << 2 | (p.kind == "WRITE") << 1 | (p.space == "INSTR")


ALU, REG, MEM = range(3)  # a record's kind in parse_trace and _records
_CYCLE_BOUND = 1 << 64  # cycles are held as 8-byte unsigned ints


class Trace:
    """A trace as the replay reads it, one column per structure: alu holds
    the ALU records' ready counts, reg_keys the register writes' (class, id)
    keys beside their cycles in reg_cycles (an array of 8-byte unsigned
    ints), mem the memory records' mem_codes, and cycles the last record's
    cycle + 1, or 0 for a trace without records. An ALU or memory record's
    cycle and the file order across kinds are checked on the way in, not
    kept. Trace() is the empty trace."""

    __slots__ = ("alu", "reg_keys", "reg_cycles", "mem", "cycles")

    def __init__(self, alu=None, reg_keys=None, reg_cycles=None, mem=None, cycles=0):
        self.alu = [] if alu is None else alu
        self.reg_keys = [] if reg_keys is None else reg_keys
        self.reg_cycles = array("Q") if reg_cycles is None else reg_cycles
        self.mem = [] if mem is None else mem
        self.cycles = cycles

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> Trace:
        """The trace of events, checked as serialize_trace checks them: an
        event that parse_trace would reject raises ValueError."""
        trace = cls()
        add_value = (trace.alu.append, trace.reg_keys.append, trace.mem.append)
        add_reg_cycle = trace.reg_cycles.append
        cycle = -1
        for cycle, kind, value in _records(events):
            add_value[kind](value)
            if kind == REG:
                add_reg_cycle(cycle)
        trace.cycles = cycle + 1
        return trace

    def __len__(self) -> int:
        return len(self.alu) + len(self.reg_keys) + len(self.mem)


# --- parsing / serialization -------------------------------------------------

_KIND_BIT = {"R": 0, "W": 2}  # a memory record's letters as mem_code bits
_SPACE_BIT = {"D": 0, "I": 1}
PARSE_MEMO_TEXTS = 1 << 13  # the most record texts parse_trace keeps at once


def _strict_int(text: str) -> int:
    """int() restricted to an optional '-' and ASCII decimal digits."""
    value = int(text)
    if not text.isascii() or "_" in text or "+" in text:
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return value


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse a trace from an iterable of text lines (an open file works).

    Integers are ASCII decimal with an optional leading '-' (negative values
    are then rejected by the per-field range checks); a cycle must also be
    below 2**64. Raises TraceParseError with the offending line number on
    malformed input, decreasing cycles, or two ALU issues in one cycle.

    Valid records are also kept, as kind and column value, by their text
    after "<cycle> " (at most PARSE_MEMO_TEXTS texts: a full memo is emptied
    first): a later line with that text and a plain ASCII-digit cycle field
    costs one lookup plus the cycle checks and shares the value, so register
    keys are shared within a memo generation. Other lines are checked field
    by field.
    """
    alu, reg_keys, reg_cycles, mem = [], [], array("Q"), []
    add_alu, add_reg_key, add_reg_cycle, add_mem = (
        alu.append, reg_keys.append, reg_cycles.append, mem.append)
    # valid records' (kind, value) by the line text after "<cycle> "
    records: dict[str, tuple[int, object]] = {}
    # the cycle checks run where the cycle changes: a first cycle of 0 needs none
    last_cycle, last_cycle_text = 0, "0"
    alu_cycle = -1
    for line_no, raw in enumerate(lines, start=1):
        cycle_text, _, rest = raw.partition(" ")
        record = records.get(rest)
        if record is not None:
            # a record seen before: only the cycle field is new
            if cycle_text == last_cycle_text:
                cycle = last_cycle
            elif cycle_text.isascii() and cycle_text.isdigit():
                try:
                    cycle = int(cycle_text)
                except ValueError:  # too many digits: the checked path says so
                    record = None
            else:
                record = None
        if record is None:
            fields = raw.split()
            if not fields or fields[0][0] == "#":
                continue
            # int() also takes '_', '+' and non-ASCII digits; one scan of the
            # line decides whether its integer fields need the strict check
            to_int = int if raw.isascii() and "_" not in raw and "+" not in raw else _strict_int
            try:
                # the records of one cycle parse its field once
                cycle = last_cycle if fields[0] == last_cycle_text else to_int(fields[0])
                tag = fields[1]
                if tag == "A":
                    if len(fields) != 3:
                        raise TraceParseError("ALU record needs 3 fields", line_no)
                    record = ALU, to_int(fields[2])
                elif tag == "R":
                    if len(fields) != 4:
                        raise TraceParseError("register record needs 4 fields", line_no)
                    if fields[2] not in REG_CLASSES:
                        raise TraceParseError(f"unknown register class {fields[2]!r}", line_no)
                    arch_id = to_int(fields[3])
                    if arch_id < 0:
                        raise TraceParseError("register id must be non-negative", line_no)
                    record = REG, (fields[2], arch_id)
                elif tag == "M":
                    if len(fields) != 5:
                        raise TraceParseError("memory record needs 5 fields", line_no)
                    write_bit = _KIND_BIT.get(fields[2])
                    if write_bit is None:
                        raise TraceParseError(f"memory kind must be R or W, got {fields[2]!r}", line_no)
                    instr_bit = _SPACE_BIT.get(fields[4])
                    if instr_bit is None:
                        raise TraceParseError(f"memory space must be D or I, got {fields[4]!r}", line_no)
                    address = to_int(fields[3])
                    if address < 0:
                        raise TraceParseError("address must be non-negative", line_no)
                    record = MEM, address << 2 | write_bit | instr_bit
                else:
                    raise TraceParseError(f"unknown record tag {tag!r}", line_no)
            except TraceParseError:
                raise
            except (ValueError, IndexError) as exc:
                raise TraceParseError(f"malformed record: {exc}", line_no) from exc
            # the rest of the line stands for this valid record, if the
            # cycle field is all of the text before it
            if (tag != "A" or record[1] >= 0) and cycle_text.isascii() and cycle_text.isdigit():
                if len(records) >= PARSE_MEMO_TEXTS:
                    records.clear()
                records[rest] = record
            cycle_text = fields[0]

        kind, value = record
        if cycle != last_cycle:
            if not last_cycle < cycle < _CYCLE_BOUND:
                raise TraceParseError(
                    "cycle must be non-negative" if cycle < 0 else
                    "cycle must be below 2**64" if cycle >= _CYCLE_BOUND else
                    f"cycle {cycle} decreases below previous cycle {last_cycle}", line_no)
            last_cycle, last_cycle_text = cycle, cycle_text
        if kind == ALU:
            if value < 0 or cycle == alu_cycle:
                raise TraceParseError("ready_count must be non-negative" if value < 0
                                      else f"second ALU issue in cycle {cycle}", line_no)
            alu_cycle = cycle
            add_alu(value)
        elif kind == REG:
            add_reg_key(value)
            add_reg_cycle(cycle)
        else:
            add_mem(value)
    return Trace(alu, reg_keys, reg_cycles, mem,
                 last_cycle + 1 if alu or reg_keys or mem else 0)


def _count(value, what: str) -> int:
    """value, if it is a non-negative int (a bool is not one)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _records(events: Iterable[Event]) -> Iterator[tuple[int, int, object]]:
    """Each event as (cycle, kind, column value), checked as parse_trace
    checks its line: an event it would reject raises ValueError. Register
    writes to one register share one key."""
    last_cycle, alu_cycle = 0, -1
    keys: dict[RegWrite, tuple[str, int]] = {}
    for event in events:
        cycle, p = _count(event.cycle, "cycle"), event.payload
        if not last_cycle <= cycle < _CYCLE_BOUND:
            raise ValueError(f"cycle {cycle} outside [{last_cycle}, 2**64)")
        last_cycle = cycle
        if type(p) is AluIssue:
            if cycle == alu_cycle:
                raise ValueError(f"second ALU issue in cycle {cycle}")
            alu_cycle = cycle
            yield cycle, ALU, _count(p.ready_count, "ready_count")
        elif type(p) is RegWrite:
            if p.reg_class not in REG_CLASSES:
                raise ValueError(f"unknown register class {p.reg_class!r}")
            _count(p.arch_id, "register id")
            yield cycle, REG, keys.get(p) or keys.setdefault(p, (p.reg_class, p.arch_id))
        else:
            yield cycle, MEM, mem_code(p)


def serialize_trace(events: Iterable[Event]) -> Iterator[str]:
    """Inverse of parse_trace: yields one line per event, no newline. An
    event that parse_trace would reject there raises ValueError before its
    line is yielded. A memory record's kind and space letters are their
    names' first letters."""
    for cycle, kind, value in _records(events):
        if kind == ALU:
            yield f"{cycle} A {value}"
        elif kind == REG:
            yield f"{cycle} R {value[0]} {value[1]}"
        else:
            yield f"{cycle} M {'RW'[value >> 1 & 1]} {value >> 2} {'DI'[value & 1]}"


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


def save_trace(path, events: Iterable[Event], header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# emsim trace v1\n")
        if header:
            fh.write(f"# {header}\n")
        for line in serialize_trace(events):
            fh.write(line + "\n")


# --- synthetic workload generation -------------------------------------------


class ZipfRegWrites(NamedTuple):
    """Register writes with rank-frequency weight (rank+1)^-s over num_regs."""

    num_regs: int
    zipf_s: float
    KIND = "zipf-reg-writes"


class SkewedAddrs(NamedTuple):
    """Data accesses over working_set_lines cache lines, a hot_fraction of
    which receives hot_weight times the base access weight."""

    working_set_lines: int
    hot_fraction: float
    hot_weight: float
    line_bytes: int = 64
    KIND = "skewed-addrs"


class AluBursts(NamedTuple):
    """One ALU issue per cycle, width drawn from width_distribution, which
    lists one relative weight per width 0..max_width."""

    max_width: int
    width_distribution: tuple[float, ...]
    KIND = "alu-bursts"


Kind = Union[ZipfRegWrites, SkewedAddrs, AluBursts]
MAX_TABLE = 1 << 20  # num_regs and working_set_lines: one float each in a table


class _GenSpec(NamedTuple):
    seed: int
    length: int
    kind: Kind


class GenSpec(Checked, _GenSpec):
    __slots__ = ()

    def _check(self):
        if not 0 <= self.seed < (1 << 64):
            raise ConfigError("seed must fit in 64 bits")
        if self.length < 0:
            raise ConfigError("length must be >= 0")
        k = self.kind
        if isinstance(k, ZipfRegWrites):
            if k.num_regs < 1:
                raise ConfigError("num_regs must be >= 1")
            if k.num_regs > MAX_TABLE:
                raise ConfigError(f"num_regs must be <= {MAX_TABLE}")
            if k.zipf_s <= 0:
                raise ConfigError("zipf_s must be > 0")
        elif isinstance(k, SkewedAddrs):
            if k.working_set_lines < 1:
                raise ConfigError("working_set_lines must be >= 1")
            if k.working_set_lines > MAX_TABLE:
                raise ConfigError(f"working_set_lines must be <= {MAX_TABLE}")
            if not 0.0 < k.hot_fraction <= 1.0:
                raise ConfigError("hot_fraction must be in (0, 1]")
            if k.hot_weight < 1.0:
                raise ConfigError("hot_weight must be >= 1")
            if k.line_bytes < 1:
                raise ConfigError("line_bytes must be >= 1")
        elif isinstance(k, AluBursts):
            if k.max_width < 1:
                raise ConfigError("max_width must be >= 1")
            if len(k.width_distribution) != k.max_width + 1:
                raise ConfigError("width_distribution needs max_width + 1 weights")
            if any(w < 0 for w in k.width_distribution):
                raise ConfigError("width weights must be non-negative")
            if sum(k.width_distribution) <= 0:
                raise ConfigError("width weights must not all be zero")
        else:
            raise ConfigError(f"unknown generator kind {k!r}")


def _cumulative(weights) -> list[float]:
    cum = []
    total = 0.0
    for w in weights:
        total += w
        cum.append(total)
    return cum


def _pick(cum: list[float], rng: SplitMix64) -> int:
    # Inverse CDF over the cumulative weights; exact and O(log n).
    return bisect.bisect_right(cum, rng.random() * cum[-1])


def generate(spec: GenSpec) -> list[Event]:
    """Produce spec.length events, one per cycle, deterministically."""
    return list(iter_events(spec))


def iter_events(spec: GenSpec) -> Iterator[Event]:
    """generate()'s events, one at a time. Register writes to one register
    share one payload, and so do ALU issues of one width."""
    rng = SplitMix64(spec.seed)
    k = spec.kind
    if isinstance(k, ZipfRegWrites):
        cum = _cumulative((r + 1) ** -k.zipf_s for r in range(k.num_regs))
        regs = [RegWrite("GPR", reg) for reg in range(k.num_regs)]
        for cycle in range(spec.length):
            yield Event(cycle, regs[_pick(cum, rng)])
    elif isinstance(k, SkewedAddrs):
        hot_lines = max(1, int(k.working_set_lines * k.hot_fraction + 0.5))
        cum = _cumulative(k.hot_weight if i < hot_lines else 1.0
                          for i in range(k.working_set_lines))
        for cycle in range(spec.length):
            line = _pick(cum, rng)
            kind = "WRITE" if rng.random() < 0.5 else "READ"
            yield Event(cycle, MemAccess(kind, line * k.line_bytes, "DATA"))
    else:  # AluBursts
        cum = _cumulative(k.width_distribution)
        widths = [AluIssue(width) for width in range(len(cum))]
        for cycle in range(spec.length):
            yield Event(cycle, widths[_pick(cum, rng)])


# --- GenSpec JSON form --------------------------------------------------------

_KIND_FIELDS = {
    ZipfRegWrites.KIND: (ZipfRegWrites, {"num_regs": int, "zipf_s": float}),
    SkewedAddrs.KIND: (SkewedAddrs, {"working_set_lines": int, "hot_fraction": float,
                                     "hot_weight": float, "line_bytes": int}),
    AluBursts.KIND: (AluBursts, {"max_width": int, "width_distribution": tuple}),
}
_EXPECTED = {int: "an integer", float: "a finite number", tuple: "a list of finite numbers"}


def _json_number(value, integer: bool) -> bool:
    """A JSON integer, or unless integer is set any finite JSON number; a
    bool is neither."""
    return type(value) is int or (not integer and type(value) is float
                                  and math.isfinite(value))


def _typed(doc: dict, field: str, want: type):
    """doc[field] as a spec field of type want (int, float or tuple)."""
    value = doc[field]
    if want is tuple:
        ok = isinstance(value, list) and all(_json_number(v, False) for v in value)
    else:
        ok = _json_number(value, want is int)
    if not ok:
        raise ConfigError(f"{field} must be {_EXPECTED[want]}, got {value!r}")
    return tuple(value) if want is tuple else value


def genspec_from_json(doc: Union[str, dict]) -> GenSpec:
    """Build a GenSpec from a JSON document (text or already-parsed dict).

    Expected shape: {"seed": int, "length": int, "kind": str, ...kind fields}.
    Integer fields must be JSON integers, other numeric fields finite JSON
    numbers; a field of the wrong type raises ConfigError.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"generator spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("generator spec must be a JSON object")
    try:
        kind_name = doc["kind"]
        seed = _typed(doc, "seed", int)
        length = _typed(doc, "length", int)
    except KeyError as exc:
        raise ConfigError(f"generator spec missing field {exc}") from exc
    if not isinstance(kind_name, str) or kind_name not in _KIND_FIELDS:
        raise ConfigError(f"unknown generator kind {kind_name!r}; "
                          f"expected one of {sorted(_KIND_FIELDS)}")
    cls, fields = _KIND_FIELDS[kind_name]
    kwargs = {}
    for field, want in fields.items():
        if field in doc:
            kwargs[field] = _typed(doc, field, want)
        elif field not in cls._field_defaults:
            raise ConfigError(f"generator kind {kind_name!r} requires field {field!r}")
    extra = set(doc) - {"kind", "seed", "length", *fields}
    if extra:
        raise ConfigError(f"unknown generator spec fields: {sorted(extra)}")
    return GenSpec(seed=seed, length=length, kind=cls(**kwargs))
