"""The block-computed splitmix64 stream against a scalar oracle.

``ScalarSplitMix64`` is the draw-at-a-time implementation the package
used before it computed the stream in blocks: one mix per ``next_u64``,
with ``below`` and ``shuffle`` built on it.  Every draw, bounded draw
and shuffle of the package's generator must match it exactly, across
block boundaries, since seeded instances and every result pinned on
them depend on the stream.
"""

import random

import pytest

from seqalloc import rng
from seqalloc.rng import SplitMix64, stream

MASK64 = (1 << 64) - 1

# Steele, Lea and Flood's splitmix64 from seed 1234567, as published.
REFERENCE_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]

# No block holds more than rng._LANES draws, so this many cross at least
# four block boundaries.
DRAWS = 4 * rng._LANES + 100


class ScalarSplitMix64:
    def __init__(self, seed):
        self._state = seed & MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound):
        if bound <= 0:
            raise ValueError("bound must be positive")
        mask = (1 << (bound - 1).bit_length()) - 1 if bound > 1 else 0
        while True:
            value = self.next_u64() & mask
            if value < bound:
                return value

    def shuffle(self, values):
        for i in range(len(values) - 1, 0, -1):
            j = self.below(i + 1)
            values[i], values[j] = values[j], values[i]
        return values


def scalar_stream(seed, tag):
    value = 0xCBF29CE484222325
    for byte in tag.encode("utf-8"):
        value = ((value ^ byte) * 0x100000001B3) & MASK64
    root = ScalarSplitMix64((seed & MASK64) ^ value)
    return ScalarSplitMix64(root.next_u64())


def test_known_answer_vector():
    generator = SplitMix64(1234567)
    assert [generator.next_u64() for _ in range(5)] == REFERENCE_1234567
    oracle = ScalarSplitMix64(1234567)
    assert [oracle.next_u64() for _ in range(5)] == REFERENCE_1234567


@pytest.mark.parametrize("seed", [0, 1, 1234567, MASK64, 1 << 64, -1, -(1 << 70) + 5])
def test_draws_match_the_scalar_oracle_across_blocks(seed):
    generator, oracle = SplitMix64(seed), ScalarSplitMix64(seed)
    assert [generator.next_u64() for _ in range(DRAWS)] == [oracle.next_u64() for _ in range(DRAWS)]


BOUNDS = [1, 2, 3] + [b for k in (2, 3, 5, 8, 31, 32, 63, 64) for b in (1 << k, (1 << k) + 1)]


@pytest.mark.parametrize("bound", BOUNDS)
def test_below_matches_the_scalar_oracle(bound):
    generator, oracle = SplitMix64(99), ScalarSplitMix64(99)
    # Enough draws to cross several blocks even when most are accepted.
    values = [generator.below(bound) for _ in range(DRAWS)]
    assert values == [oracle.below(bound) for _ in range(DRAWS)]
    assert all(0 <= value < bound for value in values)
    # Rejections consumed the same draws: the streams are still in step.
    assert generator.next_u64() == oracle.next_u64()


def test_below_one_consumes_one_draw():
    generator, oracle = SplitMix64(7), ScalarSplitMix64(7)
    assert generator.below(1) == 0
    oracle.next_u64()
    assert generator.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("bound", [0, -1])
def test_below_rejects_empty_ranges(bound):
    with pytest.raises(ValueError):
        SplitMix64(1).below(bound)


@pytest.mark.parametrize("length", [0, 1, 2, 3, rng._LANES + 1, 1000])
def test_shuffle_matches_the_scalar_oracle(length):
    generator, oracle = SplitMix64(length + 11), ScalarSplitMix64(length + 11)
    for _ in range(3):
        values = list(range(length))
        shuffled = generator.shuffle(values)
        assert shuffled is values
        assert values == oracle.shuffle(list(range(length)))
    assert generator.next_u64() == oracle.next_u64()


def test_mixed_calls_match_the_scalar_oracle():
    chooser = random.Random(5)
    generator, oracle = SplitMix64(2024), ScalarSplitMix64(2024)
    for _ in range(600):
        kind = chooser.randrange(3)
        if kind == 0:
            assert generator.next_u64() == oracle.next_u64()
        elif kind == 1:
            bound = chooser.choice([1, 2, 3, 5, 17, 1 << 20, (1 << 40) + 1])
            assert generator.below(bound) == oracle.below(bound)
        else:
            values = list(range(chooser.randrange(12)))
            assert generator.shuffle(values[:]) == oracle.shuffle(values[:])


@pytest.mark.parametrize("tag", ["", "gen-random", "gen-correlated", "x", "ünïcode tag", "a" * 100])
@pytest.mark.parametrize("seed", [0, 3, 1 << 63, -5])
def test_stream_matches_the_scalar_oracle(seed, tag):
    generator, oracle = stream(seed, tag), scalar_stream(seed, tag)
    assert [generator.next_u64() for _ in range(40)] == [oracle.next_u64() for _ in range(40)]
    assert generator.shuffle(list(range(50))) == oracle.shuffle(list(range(50)))


def test_stream_tags_give_different_streams():
    firsts = {stream(3, tag).next_u64() for tag in ["gen-random", "gen-correlated", "", "x"]}
    assert len(firsts) == 4
