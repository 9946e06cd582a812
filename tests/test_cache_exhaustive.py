"""Bounded-exhaustive check of the cache hierarchy: every memory trace up to
MAX_LENGTH records over a small alphabet, under every rotation period in
PERIODS, with write-allocate and rotation write-back charging both ways,
against RefHierarchy.

Most faults show on small inputs (the small-scope hypothesis: Jackson,
Software Abstractions, 2006; Andoni et al., 2003), and on small inputs
every case can be run. Each level has 2 sets of 4 B lines and 1 or 2 ways.
The DATA records read and write address 0, read address 8 and write
address 1 << 22, above bit 21 and in a page of its own: three blocks that
share a set under every rotation, so the 2-way levels evict. The INSTR
records fetch address 4, in the other set, and 1 << 22, whose block L2 and
L3 share with DATA.
Each trace runs as one batch through the package and record by record
through the reference, and every level's output stream, counters, and
resident lines with their ways and dirty bits must match. MAX_LENGTH is 4:
1,554 traces under 16 configs, about 6 s under -X dev -W error.
"""

import itertools

import pytest

from emsim.cache import LEVEL_ROLES, Hierarchy, RotatingCache, level_configs
from emsim.workload import MemAccess, mem_code
from reference_models import RefHierarchy
from test_cache_oracle import assert_lru_state, assert_same_counters, encode

MAX_LENGTH = 4
PERIODS = [None, 1, 2, 3]
WAYS = {"L1D": 2, "L1I": 1, "L2": 1, "L3": 2, "DTLB": 2, "ITLB": 1, "STLB": 2}
ALPHABET = [MemAccess("READ", 0, "DATA"), MemAccess("WRITE", 0, "DATA"),
            MemAccess("READ", 8, "DATA"), MemAccess("WRITE", 1 << 22, "DATA"),
            MemAccess("READ", 4, "INSTR"), MemAccess("READ", 1 << 22, "INSTR")]
TRACES = [trace for n in range(1, MAX_LENGTH + 1)
          for trace in itertools.product(ALPHABET, repeat=n)]


class Recorded(RotatingCache):
    """A level that keeps everything it sends below."""

    __slots__ = ("sent",)

    def __init__(self, config, charge_rotation_writebacks):
        super().__init__(config, charge_rotation_writebacks)
        self.sent = []

    def run(self, stream, tags=None):
        out = super().run(stream, tags)
        self.sent += out
        return out


def record_sent(level):
    """Makes a reference level keep what it sends below, in the package's
    order and encoding (its rotation write-backs, its evicted dirty line,
    then its fill fetch or passed-on write), and returns that list."""
    sent, access, forward = [], level.access, level.on_writeback

    def on_writeback(address):
        sent.append(address << 2 | 2)
        if forward is not None:
            forward(address)

    def recorded_access(address, kind):
        hit, fill, writeback = access(address, kind)
        if writeback is not None:
            sent.append(writeback << 2 | 2)
        if not hit:
            sent.append(encode(address, "READ" if fill else kind))
        return hit, fill, writeback

    level.on_writeback = on_writeback
    level.access = recorded_access
    return sent


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("write_allocate", [True, False])
@pytest.mark.parametrize("charge", [True, False])
def test_every_small_trace_matches_reference(period, write_allocate, charge):
    levels = {role: dict(sets=2, ways=ways, line_bytes=4, rotation_period=period,
                         write_allocate=write_allocate) for role, ways in WAYS.items()}
    configs = level_configs(None, levels)
    for trace in TRACES:
        mine = Hierarchy({role: Recorded(cfg, charge) for role, cfg in configs.items()})
        ref = RefHierarchy(levels, charge_rotation_writebacks=charge)
        sent = {role: record_sent(ref.levels[role]) for role in LEVEL_ROLES}
        mine.access([mem_code(record) for record in trace])
        for record in trace:
            ref.access(record.address, record.kind, record.space)
        for role in LEVEL_ROLES:
            m, r = mine.caches[role], ref.levels[role]
            assert m.sent == sent[role], (role, trace)
            assert_same_counters(m, r)
            assert_lru_state(m, r)
