"""The generator must match the published splitmix64 stream exactly."""

from __future__ import annotations

import pytest

from mmsim.rng import _BLOCK, _GOLDEN, _MIX1, _MIX2, MASK64, SplitMix64

# Reference outputs of splitmix64 (Vigna's public-domain C implementation).
VECTORS = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E, 0x71C18690EE42C90B],
    1234567: [0x599ED017FB08FC85, 0x2C73F08458540FA5, 0x883EBCE5A3F27C77, 0x3FBEF740E9177B3F],
}


@pytest.mark.parametrize("seed,expected", sorted(VECTORS.items()))
def test_known_answer_stream(seed, expected):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(4)] == expected


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == VECTORS[0][0]


def test_below_range_and_determinism():
    rng = SplitMix64(42)
    draws = [rng.below(7) for _ in range(500)]
    assert all(0 <= d < 7 for d in draws)
    replay = SplitMix64(42)
    assert draws == [replay.below(7) for _ in range(500)]
    assert len(set(draws)) == 7


def test_below_rejects_nonpositive():
    for bound in (0, -1, 2.5, True, "3", (1 << 64) + 1):
        with pytest.raises(ValueError):
            SplitMix64(0).below(bound)
    # The largest bound rejects no draw: it returns the draw itself.
    assert SplitMix64(0).below(1 << 64) == VECTORS[0][0]


def test_shuffle_reproducible_and_permutes():
    items = list(range(20))
    a, b = list(items), list(items)
    SplitMix64(9).shuffle(a)
    SplitMix64(9).shuffle(b)
    assert a == b
    assert sorted(a) == items
    c = list(items)
    SplitMix64(10).shuffle(c)
    assert c != a  # overwhelmingly likely under any healthy generator


def test_outputs_fit_in_64_bits():
    rng = SplitMix64(777)
    assert all(0 <= rng.next_u64() <= MASK64 for _ in range(100))


def below_shuffle(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates through ``below``: the reference ``shuffle`` must equal."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def assert_shuffle_matches_reference(seed: int, length: int) -> None:
    fast, reference = SplitMix64(seed), SplitMix64(seed)
    a, b = list(range(length)), list(range(length))
    fast.shuffle(a)
    below_shuffle(reference, b)
    assert a == b
    assert fast.next_u64() == reference.next_u64()  # same number of draws


def test_shuffle_equals_below_fisher_yates():
    for seed in range(50):
        for length in range(201):
            assert_shuffle_matches_reference(seed, length)


@pytest.mark.parametrize("length", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1])
def test_shuffle_equals_below_fisher_yates_at_block_edges(length):
    for seed in range(1000):
        assert_shuffle_matches_reference(seed, length)


def unshift(y: int, shift: int) -> int:
    """Inverse of ``x ^ (x >> shift)`` on 64 bits."""
    x = y
    for _ in range(64 // shift):
        x = y ^ (x >> shift)
    return x


def seed_with_first_output(z: int) -> int:
    """The seed whose first ``next_u64`` is *z*: the finaliser run backwards."""
    z = unshift(z, 31)
    z = unshift((z * pow(_MIX2, -1, 1 << 64)) & MASK64, 27)
    state = unshift((z * pow(_MIX1, -1, 1 << 64)) & MASK64, 30)
    return (state - _GOLDEN) & MASK64


# 2**64 % 3 == 1, so for bound 3 the largest output is the one rejected draw
# and the next below it is accepted only by the exact threshold.
@pytest.mark.parametrize("first,draws", [(MASK64, 2), (MASK64 - 1, 1)],
                         ids=["rejected", "accepted-at-threshold"])
def test_shuffle_equals_below_fisher_yates_at_the_threshold(first, draws):
    seed = seed_with_first_output(first)
    assert SplitMix64(seed).next_u64() == first
    rng, skipped = SplitMix64(seed), SplitMix64(seed)
    rng.below(3)
    for _ in range(draws):
        skipped.next_u64()
    assert rng.next_u64() == skipped.next_u64()
    assert_shuffle_matches_reference(seed, 3)


# In a 100-item shuffle, draw k is made for bound 100 - k: in a block of
# draws for k < 96, and in the one-draw tail after it.  MASK64 is rejected
# for a bound that is not a power of two, and the largest draw below the
# threshold is accepted; either sends its block through the one-draw loop.
@pytest.mark.parametrize("k", [0, 1, 17, 31, 32, 63, 64, 95, 97])
@pytest.mark.parametrize("rejected", [True, False], ids=["rejected", "accepted-at-threshold"])
def test_shuffle_equals_below_fisher_yates_at_the_threshold_in_a_block(k, rejected):
    assert _BLOCK == 32  # k covers each block's first and last draw, and the tail
    bound = 100 - k
    assert (1 << 64) % bound  # not a power of two: MASK64 is rejected
    threshold = (1 << 64) - (1 << 64) % bound
    z = MASK64 if rejected else threshold - 1
    seed = (seed_with_first_output(z) - k * _GOLDEN) & MASK64
    rng = SplitMix64(seed)
    for _ in range(k):
        assert rng.next_u64() < (1 << 64) - 100  # no earlier draw is near the threshold
    assert rng.next_u64() == z
    assert_shuffle_matches_reference(seed, 100)
