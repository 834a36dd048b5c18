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

import struct

from .core import _require_int

__all__ = ["RNG_ALGORITHM", "MASK64", "SplitMix64"]

RNG_ALGORITHM = "splitmix64/fisher-yates"

MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The shuffle mixes _BLOCK draws at once, each in its own 128-bit lane of
# one int: a lane's low 64 bits hold the draw, and its high 64 bits hold
# the product of a multiply before the lane is masked back to 64 bits.
# Lane k starts from the state plus (k + 1) golden steps.  The unmasked
# last shift leaves bits of the next lane in each high word, so the block's
# little-endian decode reads each lane's low word and skips its high word.
_BLOCK = 32
_ONES = sum(1 << (128 * k) for k in range(_BLOCK))
_STEPS = sum((((k + 1) * _GOLDEN) & MASK64) << (128 * k) for k in range(_BLOCK))
_LANES = MASK64 * _ONES
_ADVANCE = (_BLOCK * _GOLDEN) & MASK64
_DRAWS = struct.Struct("<" + "Q8x" * _BLOCK)


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
        _require_int("bound", bound, 1, _TWO64)
        threshold = (MASK64 + 1) - ((MASK64 + 1) % bound)
        while True:
            v = self.next_u64()
            if v < threshold:
                return v % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, high index down.

        Draws exactly what ``below(n)`` would for each bound ``n`` from
        ``len(items)`` down to 2, with the generator inlined.  ``2**64 %
        n < n``, so a draw below ``2**64 - n`` is below the rejection
        threshold and is accepted without computing it.  The draws are
        mixed ``_BLOCK`` at a time, in the lanes of one int, and read out
        by one ``struct`` decode; a block whose largest draw is not below
        ``2**64 - n`` for its largest bound, and the last bounds that fill
        no block, go through the one-draw loop from that block's state, so
        the stream and its rejections are the ones ``below`` makes.
        """
        state = self._state
        n = len(items)
        while n > _BLOCK:
            z = (state * _ONES + _STEPS) & _LANES
            z = (((z ^ (z >> 30)) & _LANES) * _MIX1) & _LANES
            z = (((z ^ (z >> 27)) & _LANES) * _MIX2) & _LANES
            draws = _DRAWS.unpack((z ^ (z >> 31)).to_bytes(16 * _BLOCK, "little"))
            if max(draws) >= _TWO64 - n:
                break
            for z in draws:
                j = z % n
                n -= 1
                items[n], items[j] = items[j], items[n]
            state = (state + _ADVANCE) & MASK64
        while n > 1:
            while True:
                state = (state + _GOLDEN) & MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & MASK64
                z ^= z >> 31
                if z < _TWO64 - n or z < _TWO64 - _TWO64 % n:
                    break
            j = z % n
            n -= 1
            items[n], items[j] = items[j], items[n]
        self._state = state
