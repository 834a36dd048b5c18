"""Deterministic pseudorandom generator for reproducible runs.

The step selection shuffle is the only source of randomness in the engine,
so the generator must produce the same stream on every platform and every
version of this package.  We use splitmix64 (Steele/Lea/Flood's SplittableRandom
mixer, as published by Vigna), which is tiny enough to carry here verbatim,
plus rejection-sampled bounded integers and a Fisher-Yates shuffle.

The algorithm name is written into every trace header so replays can detect
a generator mismatch instead of silently diverging.
"""

from __future__ import annotations

from .core import _require_int

__all__ = ["RNG_ALGORITHM", "MASK64", "SplitMix64"]

RNG_ALGORITHM = "splitmix64/fisher-yates"

MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit unsigned integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        _require_int("seed", seed)
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling (no modulo bias)."""
        _require_int("bound", bound, 1)
        threshold = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index down.

        Draws exactly what ``below(i + 1)`` would for each ``i``, with the
        generator inlined.  ``2**64 % bound < bound``, so a draw below
        ``2**64 - bound`` is below the rejection threshold and is accepted
        without computing it.
        """
        state = self._state
        for i in range(len(items) - 1, 0, -1):
            bound = i + 1
            while True:
                state = (state + _GOLDEN) & MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & MASK64
                z ^= z >> 31
                if z < _TWO64 - bound or z < _TWO64 - _TWO64 % bound:
                    break
            j = z % bound
            items[i], items[j] = items[j], items[i]
        self._state = state
