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

FIXED_PRIORITY = "fixed-priority"
COUNTER_ROTATE = "counter-rotate"
TOGGLE_BALANCE = "toggle-balance"

POLICIES = (FIXED_PRIORITY, COUNTER_ROTATE, TOGGLE_BALANCE)


class AluAllocator:
    """N units under one policy, with per-unit grant counts in `usage`.

    Everything a policy remembers between cycles is packed into one int,
    `_state`: bit 0 is toggle-balance's global bit, bit i+1 is unit i's
    excitation bit, and the bits above N+1 hold counter-rotate's lead
    counter. A policy's grant and next state depend only on (state, k), so
    allocate() memoises both in `_table` and runs the policy code only the
    first time a (state, k) pair comes up. Toggle-balance reaches just 2N
    states, counter-rotate N and fixed-priority one, so the table stays
    small.
    """

    __slots__ = ("num_units", "policy", "usage", "_state", "_table")

    def __init__(self, num_units: int, policy: str = FIXED_PRIORITY):
        if num_units < 1:
            raise ValueError("num_units must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.num_units = num_units
        self.policy = policy
        self.usage = [0] * num_units
        self._state = 0
        # (state, k) -> (granted units, next state); entries are immutable,
        # so the table can be shared, clones included
        self._table: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}

    def allocate(self, k: int) -> tuple[int, ...]:
        """Grant k of the N units for this cycle, bump their usage and
        return them in grant order."""
        entry = self._table.get((self._state, k))
        if entry is None:
            entry = self._transition(k)
        units, self._state = entry
        usage = self.usage
        for i in units:
            usage[i] += 1
        return units

    def _transition(self, k: int) -> tuple[tuple[int, ...], int]:
        """Run the policy for k from the current state and memoise it."""
        if not 0 <= k <= self.num_units:
            raise ValueError(f"k must be in [0, {self.num_units}], got {k}")
        state = self._state
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
        entry = (units, nxt)
        self._table[state, k] = entry
        return entry

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

    def usage_snapshot(self) -> tuple[int, ...]:
        return tuple(self.usage)

    def clone(self) -> "AluAllocator":
        other = AluAllocator(self.num_units, self.policy)
        other.usage = list(self.usage)
        other._state = self._state
        other._table = self._table
        return other

    # read-only views for tests and debugging
    @property
    def ex_bits(self) -> tuple[int, ...]:
        return tuple((self._state >> (i + 1)) & 1 for i in range(self.num_units))

    @property
    def global_bit(self) -> int:
        return self._state & 1
