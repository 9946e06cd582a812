"""Execution-unit allocation policies with per-unit usage accounting.

Three policies over N identical units:

* fixed-priority: always grab the lowest-indexed units. This is the
  conventional scheduler and the wear baseline; unit 0 ages fastest.
* counter-rotate: a per-cycle counter picks the leading unit, so the
  selection window walks around the units. The counter is kept modulo N
  (a fixed-width counter's wrap would unbalance units whenever N does not
  divide its period).
* toggle-balance: each unit holds a single excitation bit and the
  allocator holds a single global bit. Units whose bit matches the
  global bit form the eligible set M; requests are served from M
  lowest-index-first, toggling served bits, and when a request drains M
  the global bit flips and the shortfall comes from the remaining units.

Toggle-balance grants units in strict round-robin order. Claim: after T
grants in all, with r = T % N, the global bit is g = (T // N) & 1 and unit
u's bit is g ^ (u < r), so M is units r..N-1. It holds at reset (T = 0,
every bit 0). A request for k <= N units then takes units r, r+1, ... mod
N: if k < N - r, units r..r+k-1 flip from g to g ^ 1 and g stays, as T + k
stays in its lap; otherwise all of M flips to g ^ 1, T + k enters the next
lap as g flips to g' = g ^ 1, and the shortfall s = k - (N - r) <= r comes
from units 0..s-1, which flip from g' to g' ^ 1, with s = (T + k) % N.
Either way the claim holds at T + k. So units 0..r-1 hold T // N + 1
grants and the rest T // N: no two counts differ by more than one.

An allocator therefore keeps a position in place of the bits: for
toggle-balance T % N (T is the sum of usage, which gives the global bit
too), for counter-rotate the lead, the requests so far mod N. allocate()
counts a batch's requests by size (for counter-rotate, once per lead) and
turns the counts into per-unit grants in O(N + distinct sizes) steps.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import add
from typing import Sequence

FIXED_PRIORITY = "fixed-priority"
COUNTER_ROTATE = "counter-rotate"
TOGGLE_BALANCE = "toggle-balance"

POLICIES = (FIXED_PRIORITY, COUNTER_ROTATE, TOGGLE_BALANCE)


class AluAllocator:
    """N units under one policy, with per-unit grant counts in `usage`, all
    that allocate() leaves to read. `position` is all a policy remembers
    between cycles, as above; fixed-priority keeps it at 0."""

    __slots__ = ("num_units", "policy", "usage", "position")

    def __init__(self, num_units: int, policy: str = FIXED_PRIORITY):
        if num_units < 1:
            raise ValueError("num_units must be >= 1")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.num_units = num_units
        self.policy = policy
        self.usage = [0] * num_units
        self.position = 0

    def allocate(self, ks: Sequence[int]) -> None:
        """Grant min(ks[i], N) of the N units in cycle i, cycle after cycle
        (a trace may request more units than exist; the grant saturates),
        and bump the granted units' usage. A request that is not an int
        raises TypeError, and a negative one ValueError, before any cycle
        is granted."""
        n, start = self.num_units, self.position
        if self.policy == COUNTER_ROTATE:  # request i leads at unit (start + i) % N
            tallies = [((start + r) % n, Counter(ks[r::n])) for r in range(min(n, len(ks)))]
        else:
            tallies = [(0, Counter(ks))]
        _check(ks, tallies)
        if self.policy == TOGGLE_BALANCE:
            # the grants take units start, start + 1, ... mod N: unit u gets
            # one per visit to it in [0, start + total), less one if u < start
            total = sum(min(k, n) * c for k, c in tallies[0][1].items())
            laps, self.position = divmod(start + total, n)
            grants = [laps + (u < self.position) - (u < start) for u in range(n)]
        else:
            # units s..s+k-1 mod N are +1 at s and -1 at s + k, over two laps
            marks = [0] * (2 * n)
            for lead, tally in tallies:
                for k, c in tally.items():
                    marks[lead] += c
                    marks[lead + min(k, n)] -= c
            cover = list(accumulate(marks))
            grants = map(add, cover[:n], cover[n:])
            if self.policy == COUNTER_ROTATE:
                self.position = (start + len(ks)) % n
        self.usage[:] = map(add, self.usage, grants)


def _check(ks: Sequence[int], tallies: list[tuple[int, Counter]]) -> None:
    """Raise on a request that is not an int >= 0. A float equal to an int of
    the batch is counted under the int's key, but it makes the sum a float."""
    for _, tally in tallies:
        for k in tally:
            if not isinstance(k, int):
                raise TypeError(f"k must be an integer, got {k!r}")
            if k < 0:
                raise ValueError(f"k must be >= 0, got {k}")
    if type(sum(ks)) is not int:
        bad = next(k for k in ks if not isinstance(k, int))
        raise TypeError(f"k must be an integer, got {bad!r}")
