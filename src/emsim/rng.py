"""Deterministic 64-bit PRNG for reproducible trace generation.

SplitMix64 (Steele, Lea & Flood's counter-based generator, the same stream
used to seed xoshiro/xorshift family generators). Implemented here rather
than using the platform RNG so that a given seed produces bit-identical
traces on every interpreter and OS: the algorithm is pure 64-bit integer
arithmetic and is pinned by the constants below.
"""

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Counter-based generator: state advances by a fixed odd constant."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n). Rejection-free modulo is biased for
        astronomically large n only. The package draws with random() alone;
        this is kept for the benchmark's mixed-ifetch trace and the tests."""
        if n <= 0:
            raise ValueError("n must be > 0")
        return self.next_u64() % n
