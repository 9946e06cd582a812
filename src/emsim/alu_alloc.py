"""Execution-unit allocation policies with per-unit usage accounting.

Three policies over N identical units:

* fixed-priority: always grab the lowest-indexed units. This is the
  conventional scheduler and the wear baseline; unit 0 ages fastest.
* counter-rotate: a per-cycle counter picks the leading unit, so the
  selection window walks around the units. The counter is kept modulo N
  (wrap bias from a fixed-width counter would unbalance units whenever
  N does not divide the counter period).
* toggle-balance: each unit holds a single excitation bit and the
  allocator holds a single global bit. Units whose bit matches the
  global bit form the eligible set M; requests are served from M
  lowest-index-first, toggling served bits, and when a request drains M
  the global bit flips and the shortfall comes from the remaining units.
  This equalizes usage without any wide counters.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

FIXED_PRIORITY = "fixed-priority"
COUNTER_ROTATE = "counter-rotate"
TOGGLE_BALANCE = "toggle-balance"

POLICIES = (FIXED_PRIORITY, COUNTER_ROTATE, TOGGLE_BALANCE)


class _Step:
    """One memoised transition: the units it grants, the state it leads to,
    and that state's row of outgoing steps by request size (None until a
    request of that size is first made from it)."""

    __slots__ = ("units", "state", "row")

    def __init__(self, units: tuple[int, ...], state: int, row: list):
        self.units = units
        self.state = state
        self.row = row


class AluAllocator:
    """N units under one policy, with per-unit grant counts in `usage`.

    Everything a policy remembers between cycles is packed into one int,
    the state: bit 0 is toggle-balance's global bit, bit i+1 is unit i's
    excitation bit, and the bits above N+1 hold counter-rotate's lead
    counter. A policy's grant and next state depend only on (state, k), so
    each (state, k) pair runs the policy code once and is memoised as a
    _Step in `_table` (state -> its steps by k). allocate() then walks a
    batch of requests from step to step and adds the usage of the whole
    batch at once; it returns nothing, and `usage` is all it leaves to
    read. Toggle-balance reaches just 2N states, counter-rotate N and
    fixed-priority one, so the table stays small.
    """

    __slots__ = ("num_units", "policy", "usage", "_last", "_table")

    def __init__(self, num_units: int, policy: str = FIXED_PRIORITY):
        if num_units < 1:
            raise ValueError("num_units must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.num_units = num_units
        self.policy = policy
        self.usage = [0] * num_units
        # steps are never changed once made, so copies may share the table
        self._table: dict[int, list[_Step | None]] = {}
        self._last = _Step((), 0, self._row(0))  # the step into the current state

    def allocate(self, ks: Sequence[int]) -> None:
        """Grant ks[i] of the N units in cycle i, cycle after cycle, and bump
        the granted units' usage. A request outside [0, N] raises ValueError
        before any cycle is granted."""
        if ks and not (0 <= min(ks) and max(ks) <= self.num_units):
            bad = min(ks) if min(ks) < 0 else max(ks)
            raise ValueError(f"k must be in [0, {self.num_units}], got {bad}")
        take = self._take
        step = self._last
        # a step's row holds the steps out of the state it leads to
        steps = [(step := step.row[k] or take(step, k)) for k in ks]
        self._last = step
        usage = self.usage
        for taken, cycles in Counter(steps).items():
            for i in taken.units:
                usage[i] += cycles

    def _take(self, step: _Step, k: int) -> _Step:
        """Run the policy for k from step's state and memoise the result."""
        state = step.state
        n = self.num_units
        if self.policy == FIXED_PRIORITY:
            units = tuple(range(k))
            nxt = state
        elif self.policy == COUNTER_ROTATE:
            lead = state >> (n + 1)
            units = tuple((lead + j) % n for j in range(k))
            nxt = ((lead + 1) % n) << (n + 1)
        else:
            units, nxt = self._toggle_balance(state, k)
        new = step.row[k] = _Step(units, nxt, self._row(nxt))
        return new

    def _row(self, state: int) -> list[_Step | None]:
        row = self._table.get(state)
        if row is None:
            row = self._table[state] = [None] * (self.num_units + 1)
        return row

    def _toggle_balance(self, state: int, k: int) -> tuple[tuple[int, ...], int]:
        g = state & 1
        ex = [(state >> (i + 1)) & 1 for i in range(self.num_units)]
        members = [i for i in range(self.num_units) if ex[i] == g]
        if k < len(members):
            selected = members[:k]
        else:
            rest = [i for i in range(self.num_units) if ex[i] != g]
            selected = members + rest[: k - len(members)]
            state ^= 1
        for i in selected:
            state ^= 1 << (i + 1)
        return tuple(selected), state
