"""Rotating architectural-to-physical register mapping with wear counters.

Architectural register a lives at physical slot (a + rotations_done) mod
N. rotate() counts one more rotation and shifts every stored value one
slot up so program-visible contents never change; only the physical
location of each value (and therefore which slot future writes wear out)
moves. Per-slot write counters feed the wear statistics.

The value shift itself is not charged to the write counters by default:
rotation fires orders of magnitude less often than ordinary writes, so
charging it would drown the workload signal. Pass count_rotation_shifts
to charge every slot one write per rotation for pessimistic accounting.

The caller owns the schedule: write() takes a batch of writes as each
register's write count and, if the caller has them, its last value (a
trace carries none, so a replay passes counts only), and a caller that
owes rotations between writes cuts the batch there and calls rotate().
"""

from __future__ import annotations

from typing import Mapping

# the named ring compositions a config may select, in ring order
RING_PRESETS = {
    "gpr16": tuple(("GPR", i) for i in range(16)),
    "gpr-flags-sp": tuple(("GPR", i) for i in range(16)) + (("FLAGS", 0), ("SP", 0)),
    "fp32": tuple(("FP", i) for i in range(32)),
}


class RotatingRegFile:
    __slots__ = ("num_slots", "count_rotation_shifts", "rotations_done", "values",
                 "phys_writes", "ring_index")

    def __init__(self, ring_members, count_rotation_shifts: bool = False):
        members = tuple((str(c), int(i)) for c, i in ring_members)
        if not members:
            raise ValueError("ring needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError("ring members must be distinct")
        self.num_slots = len(members)
        self.count_rotation_shifts = count_rotation_shifts
        self.rotations_done = 0
        self.values = [0] * self.num_slots
        self.phys_writes = [0] * self.num_slots
        self.ring_index = {m: i for i, m in enumerate(members)}  # (class, id) -> position

    def map(self, arch_index: int) -> int:
        if not 0 <= arch_index < self.num_slots:
            raise IndexError(f"arch index {arch_index} outside [0, {self.num_slots})")
        return (arch_index + self.rotations_done) % self.num_slots

    def write(self, counts: Mapping[int, int], values: Mapping[int, int] | None = None) -> None:
        """Apply a batch of writes under the current mapping: counts maps an
        architectural index to its writes in the batch, values (if given) to
        the value of its last write. An index outside the ring, or other keys
        in values than in counts, raises before any write."""
        if values is not None and counts.keys() != values.keys():
            raise ValueError("write needs one last value per written index")
        if not counts:
            return
        n = self.num_slots
        lo, hi = min(counts), max(counts)
        if lo < 0 or hi >= n:
            bad = lo if lo < 0 else hi
            raise IndexError(f"arch index {bad} outside [0, {n})")
        shift, phys_writes, slot_values = self.rotations_done, self.phys_writes, self.values
        for a, count in counts.items():
            phys_writes[(a + shift) % n] += count
        for a, value in (values or {}).items():
            slot_values[(a + shift) % n] = value

    def read(self, arch_index: int) -> int:
        return self.values[self.map(arch_index)]

    def rotate(self, times: int = 1) -> None:
        """Apply `times` rotations at once, exactly as that many calls with
        times=1 would: the cost is O(ring size) however many are owed."""
        if times < 0:
            raise ValueError("times must be >= 0")
        shift = times % self.num_slots
        self.values[:] = self.values[-shift:] + self.values[:-shift]
        self.rotations_done += times
        if self.count_rotation_shifts:
            self.phys_writes[:] = [w + times for w in self.phys_writes]
