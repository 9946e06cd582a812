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

import math
import os
import sys
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .records import ConfigError, check_integers, checked
from .rng import SplitMix64

REG_CLASSES = ("GPR", "FP", "FLAGS", "SP")
MEM_KINDS = ("READ", "WRITE")
MEM_SPACES = ("DATA", "INSTR")
# mem_code bits by trace letter (a name's first), from the name's position
_KIND_BIT = {kind[0]: i << 1 for i, kind in enumerate(MEM_KINDS)}
_SPACE_BIT = {space[0]: i for i, space in enumerate(MEM_SPACES)}


class TraceParseError(ValueError):
    """Malformed or inconsistent trace input."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


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
        raise ValueError(f"memory kind must be {' or '.join(MEM_KINDS)}")
    if p.space not in MEM_SPACES:
        raise ValueError(f"address space must be {' or '.join(MEM_SPACES)}")
    return _count(p.address, "address") << 2 | _KIND_BIT[p.kind[0]] | _SPACE_BIT[p.space[0]]


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
                    if record[1] < 0:
                        raise TraceParseError("ready_count must be non-negative", line_no)
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
                    write_bit, instr_bit = _KIND_BIT.get(fields[2]), _SPACE_BIT.get(fields[4])
                    if write_bit is None or instr_bit is None:
                        what, bits, got = (("kind", _KIND_BIT, fields[2]) if write_bit is None
                                           else ("space", _SPACE_BIT, fields[4]))
                        raise TraceParseError(f"memory {what} must be {' or '.join(bits)}, "
                                              f"got {got!r}", line_no)
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
            if cycle_text.isascii() and cycle_text.isdigit():
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
            if cycle == alu_cycle:
                raise TraceParseError(f"second ALU issue in cycle {cycle}", line_no)
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
        elif type(p) is MemAccess:
            yield cycle, MEM, mem_code(p)
        else:
            raise ValueError(f"not an AluIssue, RegWrite or MemAccess: {p!r}")


def serialize_trace(events: Iterable[Event]) -> Iterator[str]:
    """Inverse of parse_trace: yields one line per event, no newline. An
    event that parse_trace would reject there raises ValueError before its
    line is yielded."""
    for cycle, kind, value in _records(events):
        if kind == ALU:
            yield f"{cycle} A {value}"
        elif kind == REG:
            yield f"{cycle} R {value[0]} {value[1]}"
        else:
            yield f"{cycle} M {MEM_KINDS[value >> 1 & 1][0]} {value >> 2} {MEM_SPACES[value & 1][0]}"


def load_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


def save_trace(path, events: Iterable[Event], header: str | None = None) -> None:
    """Write events as a trace file under a one-line header comment, if given.
    A header with a line break, or that UTF-8 cannot encode, raises ValueError
    before the open; a later error removes path if it is a regular file."""
    if header and ("\n" in header or "\r" in header):
        raise ValueError(f"header must be one line, got {header!r}")
    (header or "").encode("utf-8")  # UnicodeEncodeError, a ValueError, before the open
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write("# emsim trace v1\n" + (f"# {header}\n" if header else ""))
            for line in serialize_trace(events):
                fh.write(line + "\n")
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            os.remove(path)
        raise


# --- synthetic workload generation -------------------------------------------


class ZipfRegWrites(NamedTuple):
    """Register writes with rank-frequency weight (rank+1)^-s over num_regs."""

    num_regs: int
    zipf_s: float
    KIND = "zipf-reg-writes"

    def weights(self) -> Iterable[float]:
        return ((r + 1) ** -self.zipf_s for r in range(self.num_regs))

    def payloads(self, rng: SplitMix64) -> Callable[[int], Payload]:
        return [RegWrite("GPR", reg) for reg in range(self.num_regs)].__getitem__

    def _check(self):
        check_integers(self, num_regs=(1, MAX_TABLE))
        _finite_numbers(self, "zipf_s")
        if self.zipf_s <= 0:
            raise ConfigError("zipf_s must be > 0")


class SkewedAddrs(NamedTuple):
    """Data accesses over working_set_lines cache lines, a hot_fraction of
    which receives hot_weight times the base access weight."""

    working_set_lines: int
    hot_fraction: float
    hot_weight: float
    line_bytes: int = 64
    KIND = "skewed-addrs"

    def weights(self) -> Iterable[float]:
        hot_lines = max(1, int(self.working_set_lines * self.hot_fraction + 0.5))
        return (self.hot_weight if i < hot_lines else 1.0
                for i in range(self.working_set_lines))

    def payloads(self, rng: SplitMix64) -> Callable[[int], Payload]:
        # a fresh access, whose kind is drawn after its line
        return lambda line: MemAccess(MEM_KINDS[rng.random() < 0.5], line * self.line_bytes, "DATA")

    def _check(self):
        check_integers(self, working_set_lines=(1, MAX_TABLE), line_bytes=(1, None))
        _finite_numbers(self, "hot_fraction", "hot_weight")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigError("hot_fraction must be in (0, 1]")
        if self.hot_weight < 1.0:
            raise ConfigError("hot_weight must be >= 1")


class AluBursts(NamedTuple):
    """One ALU issue per cycle, width drawn from width_distribution, which
    lists one relative weight per width 0..max_width."""

    max_width: int
    width_distribution: tuple[float, ...]
    KIND = "alu-bursts"

    def weights(self) -> Iterable[float]:
        return self.width_distribution

    def payloads(self, rng: SplitMix64) -> Callable[[int], Payload]:
        return [AluIssue(width) for width in range(self.max_width + 1)].__getitem__

    def _check(self):
        check_integers(self, max_width=(1, None))
        w = self.width_distribution
        if not isinstance(w, (list, tuple)) or not all(map(_finite, w)):
            raise ConfigError(f"width_distribution must be a list of finite numbers, got {w!r}")
        if len(self.width_distribution) != self.max_width + 1:
            raise ConfigError("width_distribution needs max_width + 1 weights")
        if any(w < 0 for w in self.width_distribution):
            raise ConfigError("width weights must be non-negative")
        if not any(self.width_distribution):
            raise ConfigError("width weights must not all be zero")


Kind = Union[ZipfRegWrites, SkewedAddrs, AluBursts]
GENERATOR_KINDS = {cls.KIND: cls for cls in (ZipfRegWrites, SkewedAddrs, AluBursts)}
MAX_TABLE = 1 << 20  # num_regs and working_set_lines: one float each in a table


def _finite(value) -> bool:
    """An int or a float inside the float range: not a bool, an inf, a nan,
    or an int too large to become a float."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _finite_numbers(record: tuple, *fields: str) -> None:
    """Raise ConfigError unless each field of record is _finite."""
    for field in fields:
        value = getattr(record, field)
        if not _finite(value):
            raise ConfigError(f"{field} must be a finite number, got {value!r}")


@checked
class GenSpec(NamedTuple):
    """A generator run; its kind's fields are checked by the kind's _check."""

    seed: int
    length: int
    kind: Kind

    def _check(self):
        check_integers(self, seed=(None, None), length=(0, None))
        if not 0 <= self.seed < (1 << 64):
            raise ConfigError("seed must fit in 64 bits")
        k = self.kind
        if type(k) not in GENERATOR_KINDS.values():
            raise ConfigError(f"unknown generator kind {k!r}")
        k._check()
        for total in accumulate(k.weights(), initial=0.0):
            pass  # iter_events' running sum, not sum(): see wear_stats.geo_mean
        if not 2.0 ** -1022 < total < math.inf:  # else rng.random() * total can round to total
            raise ConfigError(f"{k.KIND} weights must have a finite total above 2**-1022, got {total}")


def generate(spec: GenSpec) -> list[Event]:
    """Produce spec.length events, one per cycle, deterministically."""
    return list(iter_events(spec))


def iter_events(spec: GenSpec) -> Iterator[Event]:
    """generate()'s events, one at a time: each cycle draws an index of
    spec.kind.weights() by inverse transform over their running sums (exact,
    O(log n)) and yields spec.kind.payloads(rng) of it. Register writes to
    one register share one payload, and so do ALU issues of one width."""
    rng = SplitMix64(spec.seed)
    cum = list(accumulate(spec.kind.weights(), initial=0.0))
    payload = spec.kind.payloads(rng)
    for cycle in range(spec.length):
        yield Event(cycle, payload(bisect_right(cum, rng.random() * cum[-1]) - 1))


# --- GenSpec JSON form --------------------------------------------------------


def genspec_from_json(doc) -> GenSpec:
    """Build a GenSpec from a parsed JSON document.

    Expected shape: {"seed": int, "length": int, "kind": str, ...kind fields}.
    This only maps names: "kind" picks a GENERATOR_KINDS record, whose
    field names and defaults say which other fields the document needs and
    may hold, and a JSON list becomes a tuple. GenSpec and the kind's _check
    check the values, as they do for a spec built in Python.
    """
    if not isinstance(doc, dict):
        raise ConfigError("generator spec must be a JSON object")
    try:
        kind_name, seed, length = doc["kind"], doc["seed"], doc["length"]
    except KeyError as exc:
        raise ConfigError(f"generator spec missing field {exc}") from exc
    if not isinstance(kind_name, str) or kind_name not in GENERATOR_KINDS:
        raise ConfigError(f"unknown generator kind {kind_name!r}; "
                          f"expected one of {sorted(GENERATOR_KINDS)}")
    cls = GENERATOR_KINDS[kind_name]
    for field in cls._fields:
        if field not in doc and field not in cls._field_defaults:
            raise ConfigError(f"generator kind {kind_name!r} requires field {field!r}")
    extra = set(doc) - {"kind", "seed", "length", *cls._fields}
    if extra:
        raise ConfigError(f"unknown generator spec fields: {sorted(extra)}")
    fields = {field: tuple(value) if isinstance(value, list) else value
              for field, value in doc.items() if field in cls._fields}
    return GenSpec(seed, length, cls(**fields))
