import contextlib
import hashlib
import json
import math
import os
import re
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emsim.rng import SplitMix64
from emsim.workload import (
    PARSE_MEMO_TEXTS,
    AluBursts,
    AluIssue,
    ConfigError,
    Event,
    GenSpec,
    MemAccess,
    RegWrite,
    SkewedAddrs,
    Trace,
    TraceParseError,
    ZipfRegWrites,
    generate,
    genspec_from_json,
    iter_events,
    load_trace,
    mem_code,
    parse_trace,
    save_trace,
    serialize_trace,
)
from reference_models import ref_iter_events, ref_parse_trace

MIXED = """\
# sample trace
0 A 2
0 R GPR 5
1 M W 4096 D

2 M R 64 I
2 R FLAGS 0
7 A 0
7 R SP 0
"""
MIXED_EVENTS = [
    Event(0, AluIssue(2)),
    Event(0, RegWrite("GPR", 5)),
    Event(1, MemAccess("WRITE", 4096, "DATA")),
    Event(2, MemAccess("READ", 64, "INSTR")),
    Event(2, RegWrite("FLAGS", 0)),
    Event(7, AluIssue(0)),
    Event(7, RegWrite("SP", 0)),
]


def test_parse_mixed_trace():
    trace = parse_trace(MIXED.splitlines())
    assert trace == Trace.from_events(MIXED_EVENTS)
    assert trace.alu == [2, 0]
    assert trace.reg_keys == [("GPR", 5), ("FLAGS", 0), ("SP", 0)]
    assert trace.reg_cycles == array("Q", [0, 2, 7])
    assert trace.mem == [4096 << 2 | 2, 64 << 2 | 1]
    assert trace.cycles == 8 and len(trace) == 7


def test_serialize_parse_round_trip():
    again = parse_trace(serialize_trace(MIXED_EVENTS))
    assert again == parse_trace(MIXED.splitlines())


@pytest.mark.parametrize("event, needle", [
    (Event(5, MemAccess("X", 8, "DATA")), "memory kind must be READ or WRITE"),
    (Event(6, MemAccess("WRITE", -8, "I")), "address space must be DATA or INSTR"),
    (Event(6, MemAccess("WRITE", -8, "INSTR")), "address must be a non-negative integer, got -8"),
    (Event(6, MemAccess("READ", True, "DATA")), "address must be a non-negative integer, got True"),
    (Event(6, MemAccess("READ", 1.5, "DATA")), "address must be a non-negative integer, got 1.5"),
    (Event(6, MemAccess("READ", "8", "DATA")), "address must be a non-negative integer, got '8'"),
    (Event(6, (2,)), r"not an AluIssue, RegWrite or MemAccess: \(2,\)"),
    (Event(7, AluIssue(-3)), "ready_count must be a non-negative integer"),
    (Event(8, RegWrite("VEC", 1)), "unknown register class 'VEC'"),
    (Event(8, RegWrite("GPR", True)), "register id must be a non-negative integer"),
    (Event(2 ** 64, AluIssue(1)), r"cycle 18446744073709551616 outside \[5, 2\*\*64\)"),
    (Event(-1, AluIssue(1)), "cycle must be a non-negative integer"),
    (Event(4, RegWrite("GPR", 0)), r"cycle 4 outside \[5, 2\*\*64\)"),
    (Event(5, AluIssue(2)), "second ALU issue in cycle 5"),
])
def test_serialize_rejects_what_parse_rejects(event, needle):
    # the good event's line is yielded; the bad event's never is
    lines = serialize_trace([Event(5, AluIssue(1)), event])
    assert next(lines) == "5 A 1"
    with pytest.raises(ValueError, match=needle):
        next(lines)
    # a Trace holds only what a trace file can
    with pytest.raises(ValueError, match=needle):
        Trace.from_events([Event(5, AluIssue(1)), event])


def test_parse_empty():
    assert parse_trace([]) == Trace()
    assert parse_trace(["# only a comment", "   "]) == Trace()
    assert len(Trace()) == 0 and Trace().cycles == 0


@pytest.mark.parametrize("text,needle", [
    ("0 X 1", "unknown record tag"),
    ("0 A", "needs 3 fields"),
    ("0 A 1 2", "needs 3 fields"),
    ("0 A -1", "ready_count"),
    ("0 R VEC 3", "unknown register class"),
    ("0 R GPR -2", "non-negative"),
    ("0 M W 64", "needs 5 fields"),
    ("0 M X 64 D", "kind must be R or W"),
    ("0 M W 64 Q", "space must be D or I"),
    ("0 M W -8 D", "address must be non-negative"),
    ("-1 A 1", "non-negative"),
    ("zero A 1", "malformed record"),
    # integers are ASCII decimal only, though int() takes all of these
    ("1_000 A 1", "malformed record: not an ASCII decimal integer"),
    ("+5 A 1", "malformed record: not an ASCII decimal integer"),
    ("\u0663 A 1", "malformed record: not an ASCII decimal integer"),
    ("0 R GPR +3", "malformed record: not an ASCII decimal integer"),
    ("0 A \uff12", "malformed record: not an ASCII decimal integer"),
    ("0 M W 6_4 D", "malformed record: not an ASCII decimal integer"),
])
def test_parse_rejects(text, needle):
    with pytest.raises(TraceParseError, match=needle):
        parse_trace([text])


def test_parse_shares_identical_payloads():
    trace = parse_trace(["0 A 2", "0 R GPR 5", "1 A 2", "1 R GPR 5", "2 R GPR 05",
                         "2 M W 64 D", "3 M W 64 D"])
    assert trace.alu == [2, 2]
    keys = trace.reg_keys
    assert keys[0] is keys[1]
    assert keys[2] == keys[1]
    assert trace.mem[0] is trace.mem[1]
    # a memory record is one int code: equal records give equal codes,
    # whatever their text, and the codes mem_code gives their events
    trace = parse_trace(["0 M W 64 D", "1 M W 064 D", "2 M R 64 D", "3 M W 64 I",
                         "4 M R 64 I", "5 M R 64 D", "6 M W 65 D"])
    mem = trace.mem
    assert mem == [64 << 2 | 2, 64 << 2 | 2, 64 << 2, 64 << 2 | 3, 64 << 2 | 1,
                   64 << 2, 65 << 2 | 2]
    assert mem == [mem_code(p) for p in (
        MemAccess("WRITE", 64, "DATA"), MemAccess("WRITE", 64, "DATA"),
        MemAccess("READ", 64, "DATA"), MemAccess("WRITE", 64, "INSTR"),
        MemAccess("READ", 64, "INSTR"), MemAccess("READ", 64, "DATA"),
        MemAccess("WRITE", 65, "DATA"))]


def test_trace_columns():
    events = [Event(0, AluIssue(1)), Event(4000, RegWrite("FP", 2)),
              Event(4000, MemAccess("READ", 64, "INSTR")), Event(4001, RegWrite("FP", 2))]
    trace = Trace.from_events(events)
    assert len(trace) == 4 and trace.cycles == 4002
    assert (trace.alu, trace.reg_keys, trace.mem) == ([1], [("FP", 2), ("FP", 2)], [64 << 2 | 1])
    assert trace.reg_cycles == array("Q", [4000, 4001])
    assert trace.reg_keys[0] is trace.reg_keys[1]
    assert parse_trace(serialize_trace(events)) == trace


def _held_bytes_per_event(lines):
    """Traced memory the parsed trace of lines holds, per record."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = parse_trace(lines)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == len(lines)
    return held / len(trace)


def test_parsed_trace_holds_few_bytes_per_event():
    # one ALU burst and one register write per cycle: each event costs one
    # shared value in its column, and a register write its 8-byte cycle
    lines = [line for c in range(100_000)
             for line in (f"{c} A {c % 4}\n", f"{c} R GPR {c * 7 % 16}\n")]
    assert _held_bytes_per_event(lines) < 22


@pytest.mark.parametrize("record, bound", [
    (lambda c: f"A {c % 4}", 9),
    (lambda c: f"M {'RW'[c % 2]} {c % 64 * 64} {'DI'[c % 3 == 0]}", 9),
    (lambda c: f"R GPR {c * 7 % 16}", 17),
], ids=["alu", "mem", "reg"])
def test_parsed_trace_keeps_a_cycle_for_register_writes_only(record, bound):
    # an ALU or memory record costs one pointer to a shared value in its
    # column; a register write adds its 8-byte cycle
    lines = [f"{c} {record(c)}\n" for c in range(100_000)]
    assert _held_bytes_per_event(lines) <= bound


def _parse_margin(n):
    """Peak traced memory of parsing n memory records with distinct texts,
    less what the parsed trace holds."""
    lines = [f"{c} M {'RW'[c % 2]} {c * 64} D\n" for c in range(n)]
    tracemalloc.start()
    try:
        trace = parse_trace(lines)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == n
    return peak - held


def test_parse_memo_memory_stays_flat_in_the_distinct_records():
    # the memo keeps at most PARSE_MEMO_TEXTS texts, about 150 B each, so
    # past that many distinct records its memory no longer grows
    assert _parse_margin(50_000) <= 1.5 * 2 ** 20
    assert _parse_margin(100_000) <= _parse_margin(25_000) + 64 * 1024


def test_readme_trace_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Trace format", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    trace = parse_trace(block.splitlines())
    assert (trace.alu, trace.reg_keys, trace.mem) == ([2], [("GPR", 3)], [8192 << 2 | 2])


# --- differential test against the reference parser --------------------------

LAX_INTS = ["1_0", "+5", "+0", "\u0663", "1\u0661", "\uff15", "-0", "007",
            "1__0", "_1", "+", "-", "--1", "+-1", "x", "1.0",
            str(2 ** 64 - 1), str(2 ** 64)]  # the last two: cycles at the 64-bit bound
RECORDS = [  # {c}: cycle text, {i}: integer text
    "{c} A {i}", "{c} R GPR {i}", "{c} R FP {i}", "{c} R FLAGS {i}", "{c} R SP {i}",
    "{c} M R {i} D", "{c} M W {i} I",
]
BAD_RECORDS = [
    "{c} A", "{c} A {i} 1", "{c} R GPR", "{c} R GPR {i} 1", "{c} R VEC {i}",
    "{c} M W {i}", "{c} M X {i} D", "{c} M R {i} Q", "{c} Z {i}", "{c} # {i}", "{c}",
]
NOISE = ["", "   ", "\t", "# comment", "  # x 1 2", "#0 A 1"]


@st.composite
def trace_lines(draw):
    """Mostly well-formed traces with cycles that creep upward, salted with
    comments, blank and padded lines, bad records, lax and negative
    integers, decreasing cycles and repeated ALU records in one cycle.
    Some lines repeat an earlier line's text after its cycle field (records
    the parser has seen), under a new, equal or decreasing cycle, and some
    use leading zeros, a tab after the cycle or a CRLF ending."""
    steps = draw(st.lists(st.tuples(
        st.integers(0, 39),                         # line shape, see below
        st.sampled_from([0, 0, 0, 1, 1, 2, 1000]),  # cycle step
        st.integers(0, 255),                        # picks a template
        st.integers(0, 300)), max_size=40))
    lines = []
    rests = []  # the text after "<cycle> " of the lines so far
    cycle = 0
    for shape, step, pick, value in steps:
        if shape == 0:
            lines.append(NOISE[pick % len(NOISE)])
            continue
        cycle += step
        if shape >= 30 and rests:  # an earlier record's text, new cycle field
            c = str(cycle - 1) if shape == 30 else str(cycle)
            if shape == 31:
                c = "00" + c
            rest = rests[pick % len(rests)]
            lines.append(c + ("\t" if shape == 32 else " ") + rest)
            continue
        c, i = str(cycle), str(value % 4 if shape >= 20 else value)
        template = RECORDS[0] if pick < 64 else RECORDS[pick % len(RECORDS)]
        if shape == 1:
            c = str(cycle - 1)
        elif shape == 2:
            c = str(-cycle)
        elif shape == 3:
            c = LAX_INTS[pick % len(LAX_INTS)]
        elif shape == 4:
            i = LAX_INTS[pick % len(LAX_INTS)]
        elif shape == 5:
            i = f"-{value}"
        elif shape == 6:
            template = BAD_RECORDS[pick % len(BAD_RECORDS)]
        line = template.format(c=c, i=i)
        if shape == 7:
            line = "  " + line.replace(" ", " \t ") + "  \n"
        elif shape == 8:
            line += "\r\n"
        lines.append(line)
        rests.append(line.partition(" ")[2])
    return lines


def assert_parse_matches_reference(lines):
    try:
        want = ref_parse_trace(lines)
    except TraceParseError as exc:
        with pytest.raises(TraceParseError) as got:
            parse_trace(lines)
        assert (str(got.value), got.value.line_no) == (str(exc), exc.line_no)
    else:
        assert parse_trace(lines) == Trace.from_events(want)


SOME_INTS = st.integers(-2, 2 ** 64 + 1) | st.sampled_from([-1, 0, 2 ** 64 - 1, 2 ** 64]) \
    | st.booleans()
PAYLOADS = st.one_of(
    st.builds(AluIssue, SOME_INTS),
    st.builds(RegWrite, st.sampled_from(["GPR", "FP", "FLAGS", "SP", "VEC", "gpr"]), SOME_INTS),
    st.builds(MemAccess, st.sampled_from(["READ", "WRITE", "R"]),
              SOME_INTS | st.sampled_from([1.5, 8.0, "8"]),
              st.sampled_from(["DATA", "INSTR", "D"])),
    st.just((2,)))  # equal to AluIssue(2), but no payload
EVENTS = st.lists(st.builds(Event, SOME_INTS, PAYLOADS), max_size=12)


@settings(max_examples=300, deadline=None)
@given(events=EVENTS | EVENTS.map(lambda events: sorted(events, key=lambda e: e.cycle)))
def test_every_serialized_line_parses_back_to_its_event(events):
    # serialize_trace yields lines until the first event parse_trace would
    # reject, and each line it yields parses back to its own event
    lines = []
    with contextlib.suppress(ValueError):
        for line in serialize_trace(events):
            lines.append(line)
    assert parse_trace(lines) == Trace.from_events(events[:len(lines)])


@settings(max_examples=600, deadline=None)
@given(lines=trace_lines())
def test_parse_matches_reference(lines):
    assert_parse_matches_reference(lines)


@pytest.mark.parametrize("lines", [
    ["5 A 1\n", "4 A 1\n"],                   # seen record, decreasing cycle
    ["5 R GPR 1\n", "6 R GPR 1\n", "5 R GPR 1\n"],
    ["3 A 2\n", "3 R GPR 0\n", "3 A 2\n"],     # seen record, second ALU issue
    ["3 A 2\n", "4 A 2\n", "4 A 2\n"],
    ["1 A 2\n", "007 A 2\n", "0007 A 2\n"],    # leading zeros
    ["1 A 2\n", "2\tA 2\n", "3 A\t2\n", "4 A\t2\n"],  # tabs
    ["1 A 2\r\n", "2 A 2\r\n", "2 R GPR 3\r\n", "1 R GPR 3\r\n"],  # CRLF
    ["1 A 2\n", " 2 A 2\n", "#3 A 2\n", "x A 2\n"],
    ["1 A 2\n", "A 2\n"],
    ["1 A -1\n", "2 A -1\n"],                  # never a seen record
    # a negative count is reported before its line's cycle
    ["5 A 1\n", "4 A -1\n"], ["-1 A -1\n"], ["3 A 1\n", "3 A -1\n"],
    ["1 R GPR 2\n", "2 R GPR 2\n", "\u0663 R GPR 2\n"],
    ["1 R GPR 2\n", "1_0 R GPR 2\n"],
    ["1 R GPR 2\n", "-1 R GPR 2\n"],
    ["5 M W 64 D\n", "6 M W 64 D\n", "6 M W 64 D\n", "4 M W 64 D\n"],  # memory
    ["1 M R 64 D\n", "2 M R 064 D\n", "3 M R 64 D\n", "4 M R 064 D\n"],
    ["1 M R 8 D\n", "1 M W 8 D\n", "1 M R 8 I\n", "1 M W 8 I\n",
     "2 M W 8 I\n", "2 M R 8 I\n", "2 M W 8 D\n", "2 M R 8 D\n"],
    ["1 M R 0 I\r\n", "2 M R 0 I\r\n", "2 A 1\r\n", "1 M R 0 I\r\n"],  # CRLF
    ["1 M W -64 D\n"],                        # never a seen record
    ["1 A 1\n", "2 M W -64 D\n", "3 M W -64 D\n"],
    ["1 A 1\n", "9" * 5000 + " A 1\n"],       # more digits than int() takes
    # cycles at the 64-bit bound, seen records and new ones
    ["1 A 1\n", f"{2 ** 64 - 1} A 1\n", f"{2 ** 64} A 1\n"],
    ["1 R GPR 2\n", f"{2 ** 64 - 1} R GPR 2\n", f"{2 ** 64 - 1} M R 8 D\n",
     f"{2 ** 64 - 1} M R 8 D\n"],
    [f"{2 ** 64} A 1\n"],
    ["1 M R 8 D\n", f"{2 ** 64} M R 8 D\n"],
    ["1 M R 8 D\n", f"{2 ** 65} M R 9 D\n"],
])
def test_parse_of_seen_records_matches_reference(lines):
    assert_parse_matches_reference(lines)


MEMO_TEXTS = [(f"M {'RW'[i % 2]} {i * 64} {'DI'[i % 5 == 0]}", f"A {i}", f"R GPR {i}")[i % 3]
              for i in range(PARSE_MEMO_TEXTS * 3 // 2)]


def memo_clearing_lines(tail=()):
    """A line for each of MEMO_TEXTS, which are distinct, so the parse memo
    clears once; then its first 300 texts, cleared by then, its last 300,
    still kept, and its first 300 again; then tail, (cycle, text) pairs
    whose cycle None means the cycle after the last one."""
    texts = MEMO_TEXTS + MEMO_TEXTS[:300] + MEMO_TEXTS[-300:] + MEMO_TEXTS[:300]
    lines = [f"{c} {text}\n" for c, text in enumerate(texts)]
    return lines + [f"{len(texts) if c is None else c} {text}\n" for c, text in tail]


# MEMO_TEXTS[1] and [4] are ALU texts seen again after the clear, [301] and
# [304] ALU texts not seen again, [402] a memory text not seen again
@pytest.mark.parametrize("tail", [
    [],
    [(None, "M X 64 D")],
    [(None, "R GPR -1")],
    [(None, MEMO_TEXTS[402]), (3, MEMO_TEXTS[402])],
    [(None, MEMO_TEXTS[4]), (3, MEMO_TEXTS[4])],
    [(None, MEMO_TEXTS[301]), (None, MEMO_TEXTS[304])],
    [(None, MEMO_TEXTS[1]), (None, MEMO_TEXTS[4])],
], ids=["valid", "bad-kind", "bad-id", "decreasing-cleared", "decreasing-kept",
        "second-alu-cleared", "second-alu-kept"])
def test_parse_across_a_memo_clear_matches_reference(tail):
    assert_parse_matches_reference(memo_clearing_lines(tail))


def test_register_keys_are_shared_within_one_memo_generation():
    first, *seen_again = [key for key in parse_trace(memo_clearing_lines()).reg_keys
                          if key == ("GPR", 2)]
    assert len(seen_again) == 2
    # the first generation's key went with the clear; the two later lines
    # share the one key their generation made
    assert first is not seen_again[0] and seen_again[0] is seen_again[1]


def test_parse_error_carries_line_number():
    lines = ["0 A 1", "1 R GPR 2", "1 R BAD 2"]
    with pytest.raises(TraceParseError, match="line 3"):
        parse_trace(lines)


def test_parse_rejects_decreasing_cycles():
    with pytest.raises(TraceParseError, match="line 2.*decreases"):
        parse_trace(["5 A 1", "4 A 1"])


def test_parse_rejects_double_alu_issue():
    with pytest.raises(TraceParseError, match="second ALU issue in cycle 3"):
        parse_trace(["3 A 1", "3 R GPR 0", "3 A 2"])
    # distinct cycles are fine
    assert len(parse_trace(["3 A 1", "4 A 2"])) == 2


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "t.trace"
    save_trace(path, MIXED_EVENTS, header="unit test")
    assert load_trace(path) == parse_trace(MIXED.splitlines())
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("#")


@pytest.mark.parametrize("header", ["a\nb", "a\rb", "a\r\nb", "\n", "\ud800"])
def test_save_trace_rejects_a_header_with_a_line_break(tmp_path, header):
    # the header is one comment line of UTF-8 text: a line break in it would
    # turn the rest into a line that load_trace rejects, and a lone surrogate
    # has no UTF-8 form, so no file is written
    path = tmp_path / "t.trace"
    error = "surrogates not allowed" if header == "\ud800" else "header must be one line"
    with pytest.raises(ValueError, match=error):
        save_trace(path, MIXED_EVENTS, header=header)
    assert not path.exists()


BAD_EVENTS = [Event(0, AluIssue(1)), Event(0, AluIssue(2))]  # the second is rejected


@pytest.mark.parametrize("existing", [False, True])
def test_save_trace_removes_its_partial_file(tmp_path, existing):
    # "0 A 1" is written before serialize_trace rejects the second event
    path = tmp_path / "t.trace"
    if existing:
        path.write_text("# an older trace\n", encoding="utf-8")
    with pytest.raises(ValueError, match="second ALU issue in cycle 0"):
        save_trace(path, BAD_EVENTS)
    assert not path.exists()


def test_save_trace_leaves_special_files_and_symlinks(tmp_path):
    # a failed save to a device or through a symlink raises, but only a
    # regular file at the path itself is removed
    with pytest.raises(ValueError, match="second ALU issue in cycle 0"):
        save_trace(os.devnull, BAD_EVENTS)
    assert os.path.exists(os.devnull)
    target, link = tmp_path / "target.trace", tmp_path / "link.trace"
    link.symlink_to(target)
    with pytest.raises(ValueError, match="second ALU issue in cycle 0"):
        save_trace(link, BAD_EVENTS)
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "# emsim trace v1\n0 A 1\n"


# a memory record's kind and space, its letters, and its mem code's flag
# bits, written out rather than read from MEM_KINDS/MEM_SPACES: a round trip
# through serialize_trace and parse_trace cannot see two letters or bits
# swapped on both sides, this table can
MEM_CODEC = [
    ("READ", "DATA", "R", "D", 0b00),
    ("READ", "INSTR", "R", "I", 0b01),
    ("WRITE", "DATA", "W", "D", 0b10),
    ("WRITE", "INSTR", "W", "I", 0b11),
]


@pytest.mark.parametrize("kind,space,kind_letter,space_letter,flags", MEM_CODEC)
@pytest.mark.parametrize("address", [0, 8, 2 ** 62, 2 ** 64 + 4])
def test_memory_record_codec_matches_its_table(kind, space, kind_letter, space_letter, flags,
                                                address):
    event = Event(5, MemAccess(kind, address, space))
    line = f"5 M {kind_letter} {address} {space_letter}"
    assert list(serialize_trace([event])) == [line]
    assert mem_code(event.payload) == address << 2 | flags
    assert parse_trace([line]).mem == Trace.from_events([event]).mem == [address << 2 | flags]


# Frozen digests: regenerating any of these traces must stay byte-identical
# across runs and platforms. If an intentional generator change breaks them,
# refreeze deliberately.
PINNED = [
    (GenSpec(seed=42, length=64, kind=ZipfRegWrites(num_regs=16, zipf_s=1.5)),
     "e0ab121571f91eed2e1ac5b22d998541c93e35a5a07f0dd6570d1c8ee2a6b4aa"),
    (GenSpec(seed=7, length=64,
             kind=SkewedAddrs(working_set_lines=512, hot_fraction=0.1, hot_weight=20.0)),
     "ba10ada3d6c4a742d2093c6a24dd8117edb2044819fa54248f1103611f2be7c1"),
    (GenSpec(seed=123, length=64,
             kind=AluBursts(max_width=3, width_distribution=(0.1, 0.4, 0.3, 0.2))),
     "5718e0a71830b284e62832746c2e0e5804b7cafd106ed30d3c6a3e8f84ba6e06"),
]


@pytest.mark.parametrize("spec,digest", PINNED)
def test_generate_pinned_digest(spec, digest):
    text = "\n".join(serialize_trace(generate(spec))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generate_repeatable():
    spec = GenSpec(seed=99, length=500,
                   kind=SkewedAddrs(working_set_lines=64, hot_fraction=0.25, hot_weight=8.0))
    assert generate(spec) == generate(spec)


def test_generate_zero_length():
    spec = GenSpec(seed=1, length=0, kind=ZipfRegWrites(num_regs=4, zipf_s=1.0))
    assert generate(spec) == []


def test_randbelow_rejects_an_empty_range():
    with pytest.raises(ValueError, match="n must be > 0"):
        SplitMix64(1).randbelow(0)


def test_zipf_rank_zero_share():
    n, s, length = 16, 1.5, 200_000
    spec = GenSpec(seed=2024, length=length, kind=ZipfRegWrites(num_regs=n, zipf_s=s))
    counts = Counter(e.payload.arch_id for e in generate(spec))
    weights = [(r + 1) ** -s for r in range(n)]
    expected = weights[0] / sum(weights)
    # ~0.0011 std error at this length; 0.01 is a very loose band
    assert abs(counts[0] / length - expected) < 0.01
    # heavier ranks really are heavier
    assert counts[0] > counts[1] > counts[4]


def test_skewed_addrs_shape():
    k = SkewedAddrs(working_set_lines=32, hot_fraction=0.125, hot_weight=10.0,
                    line_bytes=64)
    events = generate(GenSpec(seed=5, length=5000, kind=k))
    kinds = Counter()
    for e in events:
        p = e.payload
        assert p.space == "DATA"
        assert p.address % 64 == 0
        assert 0 <= p.address < 32 * 64
        kinds[p.kind] += 1
    assert kinds["READ"] > 1000 and kinds["WRITE"] > 1000
    # 4 hot lines at weight 10 carry 40/68 of the mass
    hot = sum(1 for e in events if e.payload.address < 4 * 64)
    assert abs(hot / 5000 - 40 / 68) < 0.05


def test_skewed_addrs_uniform_degenerate():
    k = SkewedAddrs(working_set_lines=4, hot_fraction=1.0, hot_weight=1.0)
    counts = Counter(e.payload.address for e in generate(GenSpec(seed=3, length=4000, kind=k)))
    assert set(counts) == {0, 64, 128, 192}
    assert all(c > 800 for c in counts.values())


def test_alu_bursts_width_support():
    k = AluBursts(max_width=3, width_distribution=(0.5, 0.0, 0.3, 0.2))
    widths = Counter(e.payload.ready_count
                     for e in generate(GenSpec(seed=11, length=3000, kind=k)))
    assert set(widths) <= {0, 2, 3}
    assert 1 not in widths  # zero weight never drawn
    assert widths[0] > widths[3]


def legal_total(weights):
    """Whether weights add up, left to right, to a total GenSpec accepts."""
    total = 0.0
    for w in weights:
        total += w
    return 2.0 ** -1022 < total < math.inf


# specs of every kind, with zero and subnormal weights, lines of other sizes
# than 64 bytes and hot weights up to 1e300, whose totals stay finite at
# these table sizes
WEIGHTS = st.just(0.0) | st.floats(0.0, 1e300)
KINDS = st.one_of(
    st.builds(ZipfRegWrites, st.integers(1, 40), st.floats(0.0, 1e300, exclude_min=True)),
    st.builds(SkewedAddrs, st.integers(1, 300), st.floats(0.0, 1.0, exclude_min=True),
              st.sampled_from([1.0, 1e300]) | st.floats(1.0, 1e300), st.integers(1, 4096)),
    st.integers(1, 8).flatmap(lambda w: st.builds(
        AluBursts, st.just(w),
        st.lists(WEIGHTS, min_size=w + 1, max_size=w + 1).map(tuple).filter(legal_total))))
SPECS = st.builds(GenSpec, st.integers(0, 2 ** 64 - 1), st.integers(0, 300), KINDS)


@settings(max_examples=300, deadline=None)
@given(spec=SPECS)
def test_generator_matches_reference(spec):
    events = list(iter_events(spec))
    assert events == list(ref_iter_events(spec))
    payloads = [e.payload for e in events]
    if isinstance(spec.kind, SkewedAddrs):  # a fresh access per event
        assert len(set(map(id, payloads))) == len(payloads)
    else:  # one shared payload per register or width
        shared = {}
        assert all(shared.setdefault(p, p) is p for p in payloads)


def test_smallest_legal_total_draws_inside_the_table():
    # above 2**-1022, rng.random() * total rounds below total, never to it
    k = AluBursts(1, (0.0, math.nextafter(2.0 ** -1022, 1.0)))
    assert {e.payload.ready_count for e in generate(GenSpec(1, 2000, k))} == {1}


# each PINNED spec as a parsed document and as JSON text, which the CLI
# parses before genspec_from_json sees it; the skewed-addrs dict leaves
# line_bytes to its default, and its text spells it out
PINNED_DOCS = [
    ({"kind": "zipf-reg-writes", "seed": 42, "length": 64, "num_regs": 16, "zipf_s": 1.5},
     '{"kind": "zipf-reg-writes", "seed": 42, "length": 64, "num_regs": 16, "zipf_s": 1.5}'),
    ({"kind": "skewed-addrs", "seed": 7, "length": 64, "working_set_lines": 512,
      "hot_fraction": 0.1, "hot_weight": 20.0},
     '{"kind": "skewed-addrs", "seed": 7, "length": 64, "working_set_lines": 512, '
     '"hot_fraction": 0.1, "hot_weight": 20.0, "line_bytes": 64}'),
    ({"kind": "alu-bursts", "seed": 123, "length": 64, "max_width": 3,
      "width_distribution": [0.1, 0.4, 0.3, 0.2]},
     '{"kind": "alu-bursts", "seed": 123, "length": 64, "max_width": 3, '
     '"width_distribution": [0.1, 0.4, 0.3, 0.2]}'),
]


def test_genspec_from_json_reads_the_pinned_specs():
    assert len(PINNED_DOCS) == len(PINNED)
    for (spec, _), (doc, text) in zip(PINNED, PINNED_DOCS):
        assert genspec_from_json(doc) == spec
        assert genspec_from_json(json.loads(text)) == spec


ZIPF_DOC = {"kind": "zipf-reg-writes", "seed": 1, "length": 1,
            "num_regs": 4, "zipf_s": 1.0}
SKEWED_DOC = {"kind": "skewed-addrs", "seed": 1, "length": 1,
              "working_set_lines": 8, "hot_fraction": 0.5, "hot_weight": 2.0}
ALU_DOC = {"kind": "alu-bursts", "seed": 1, "length": 1, "max_width": 2,
           "width_distribution": [1, 1, 1]}


# documents whose names are wrong: genspec_from_json itself rejects them; a
# str is a parsed JSON string, not text to parse
NAME_ERROR_DOCS = [
    ("{not json", "must be a JSON object"),
    ([1, 2], "must be a JSON object"),
    ({"kind": "nope", "seed": 1, "length": 1}, "unknown generator kind"),
    ({"kind": "zipf-reg-writes", "seed": 1, "length": 1}, "requires field"),
    ({"kind": "zipf-reg-writes", "seed": 1, "length": 1,
      "num_regs": 4, "zipf_s": 1.0, "bogus": 9}, "unknown generator spec fields"),
    ({"seed": 1, "length": 1}, "missing field"),
    ({**ZIPF_DOC, "kind": ["zipf-reg-writes"]}, "unknown generator kind"),
]
# documents with every name right and one value wrong: the records reject them
VALUE_ERROR_DOCS = [
    ({**ZIPF_DOC, "num_regs": "16"}, "num_regs must be an integer"),
    ({**ZIPF_DOC, "num_regs": True}, "num_regs must be an integer"),
    ({**ZIPF_DOC, "zipf_s": "a"}, "zipf_s must be a finite number"),
    ({**ZIPF_DOC, "zipf_s": float("nan")}, "zipf_s must be a finite number"),
    ({**ZIPF_DOC, "zipf_s": 10 ** 400}, "zipf_s must be a finite number"),
    ({**ZIPF_DOC, "seed": "x"}, "seed must be an integer"),
    ({**ZIPF_DOC, "seed": 1.9}, "seed must be an integer"),
    ({**ZIPF_DOC, "length": 3.7}, "length must be an integer"),
    ({**SKEWED_DOC, "working_set_lines": 2.5}, "working_set_lines must be an integer"),
    ({**SKEWED_DOC, "line_bytes": 1.5}, "line_bytes must be an integer"),
    ({**SKEWED_DOC, "hot_weight": float("inf")}, "hot_weight must be a finite number"),
    ({**ALU_DOC, "width_distribution": 5}, "width_distribution must be a list"),
    ({**ALU_DOC, "width_distribution": ["a", "b", "c"]},
     "width_distribution must be a list"),
    ({**ALU_DOC, "width_distribution": [1, False, 1]},
     "width_distribution must be a list"),
    # finite weights whose running sum is not, and a sum too small to draw from
    ({**ALU_DOC, "width_distribution": [1e308, 1e308, 1e308]},
     r"alu-bursts weights must have a finite total above 2\*\*-1022, got inf"),
    ({**SKEWED_DOC, "working_set_lines": 4, "hot_fraction": 1.0, "hot_weight": 1e308},
     r"skewed-addrs weights must have a finite total above 2\*\*-1022, got inf"),
    ({**ALU_DOC, "max_width": 1, "width_distribution": [0, 5e-324]},
     r"alu-bursts weights must have a finite total above 2\*\*-1022, got 5e-324"),
]


@pytest.mark.parametrize("doc,needle", NAME_ERROR_DOCS + VALUE_ERROR_DOCS)
def test_genspec_json_errors(doc, needle):
    with pytest.raises(ConfigError, match=needle):
        genspec_from_json(doc)


@pytest.mark.parametrize("doc,needle", VALUE_ERROR_DOCS)
def test_python_and_json_specs_raise_the_same_config_error(doc, needle):
    # the spec built by the constructors themselves, JSON lists as tuples
    cls = {"zipf-reg-writes": ZipfRegWrites, "skewed-addrs": SkewedAddrs,
           "alu-bursts": AluBursts}[doc["kind"]]
    fields = {name: tuple(value) if isinstance(value, list) else value
              for name, value in doc.items() if name not in ("kind", "seed", "length")}
    with pytest.raises(ConfigError, match=needle) as from_json:
        genspec_from_json(doc)
    with pytest.raises(ConfigError) as from_python:
        GenSpec(doc["seed"], doc["length"], cls(**fields))
    assert str(from_python.value) == str(from_json.value)


@pytest.mark.parametrize("make", [
    lambda: GenSpec(seed=-1, length=1, kind=ZipfRegWrites(4, 1.0)),
    lambda: GenSpec(seed=1, length=-1, kind=ZipfRegWrites(4, 1.0)),
    lambda: GenSpec(seed=1, length=1, kind=ZipfRegWrites(0, 1.0)),
    lambda: GenSpec(seed=1, length=1, kind=ZipfRegWrites(4, 0.0)),
    lambda: GenSpec(seed=1, length=1, kind=SkewedAddrs(8, 0.0, 2.0)),
    lambda: GenSpec(seed=1, length=1, kind=SkewedAddrs(8, 0.5, 0.5)),
    lambda: GenSpec(seed=1, length=1, kind=SkewedAddrs(0, 0.5, 2.0)),
    lambda: GenSpec(seed=1, length=1, kind=AluBursts(2, (0.5, 0.5))),
    lambda: GenSpec(seed=1, length=1, kind=AluBursts(1, (0.0, 0.0))),
    lambda: GenSpec(seed=1, length=1, kind=AluBursts(1, (-0.1, 1.0))),
])
def test_genspec_validation(make):
    with pytest.raises(ConfigError):
        make()
