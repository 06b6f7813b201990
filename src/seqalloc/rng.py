"""Deterministic pseudo-random streams built on splitmix64.

Instance generators derive independent streams from a user seed plus a
short purpose tag, so generated artifacts are reproducible byte for byte
across runs and platforms, independent of Python's hash randomization.

The stream is computed a block at a time, with whole-int arithmetic in
place of one Python-level mix per draw.  A block of B draws is one int
holding B lanes of 128 bits each: lane i, at bits 128*i and up, starts
as counter state ``state + (i + 1) * golden`` in its low 64 bits, and
each mix step (xor-shift, then multiply by a 64-bit constant) runs on
all lanes at once.  A lane is 128 bits wide because the product of two
64-bit numbers needs 128 bits, so no multiply carries into the next
lane; every lane is masked back to 64 bits before each multiply, which
also clears the bits a right shift brings in from the lane above.  The
block's bytes are then read as native 64-bit words, two per lane, and
the low word of each lane is one draw.  The draws equal the scalar
recurrence's, in order; the tests check this on little-endian hosts,
and the big-endian word order is derived but untested.  A stream's
first block has ``_FIRST_LANES`` lanes and each later one twice the
lanes of the one before, up to ``_LANES``, so a stream that needs few
draws computes few.
"""

from __future__ import annotations

import functools
import itertools
import sys

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_LANES = 256
_FIRST_LANES = 16


@functools.cache
def _block_constants(lanes: int) -> tuple[int, int, int]:
    """1 in every lane, (i + 1) * golden in lane i, and the low 64 bits of every lane.

    Made on first use, so a process that imports the module and draws
    nothing pays nothing.
    """
    ones = int.from_bytes((1).to_bytes(16, "little") * lanes, "little")
    steps = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(1, lanes + 1)), "little")
    return ones, _GOLDEN * steps, _MASK64 * ones


# The low word of lane i is native word 2i of the block's bytes on a
# little-endian host and word 2B - 1 - 2i on a big-endian one.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def _mix_block(state: int, lanes: int) -> list[int]:
    """The ``lanes`` draws that follow counter state ``state``, in order."""
    ones, golden_steps, mask = _block_constants(lanes)
    z = (state * ones + golden_steps) & mask
    z = (((z ^ (z >> 30)) & mask) * _MIX1) & mask
    z = (((z ^ (z >> 27)) & mask) * _MIX2) & mask
    # Left unmasked: what spills into a lane's high half is never read,
    # and the top lane has no lane above it, so z fits in 16 * lanes bytes.
    z ^= z >> 31
    return memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[_LOW_WORDS].tolist()


def _blocks(state: int):
    """Successive blocks of the draws after counter state ``state``."""
    lanes = _FIRST_LANES
    while True:
        yield _mix_block(state, lanes)
        state = (state + lanes * _GOLDEN) & _MASK64
        lanes = min(2 * lanes, _LANES)


class SplitMix64:
    """The splitmix64 sequence (Steele, Lea and Flood) over 64-bit state."""

    def __init__(self, seed: int):
        self._draw = itertools.chain.from_iterable(_blocks(seed & _MASK64)).__next__

    def next_u64(self) -> int:
        return self._draw()

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection sampled to avoid modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        mask = (1 << (bound - 1).bit_length()) - 1
        draw = self._draw
        value = draw() & mask
        while value >= bound:
            value = draw() & mask
        return value

    def shuffle(self, values: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list for chaining."""
        draw = self._draw
        for i in range(len(values) - 1, 0, -1):
            # below(i + 1), inlined: i + 1 > 1, so the mask covers i.
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            values[i], values[j] = values[j], values[i]
        return values


def stream(seed: int, tag: str) -> SplitMix64:
    """Independent generator for (seed, tag); equal inputs give equal streams."""
    root = SplitMix64((seed & _MASK64) ^ _fnv1a(tag.encode("utf-8")))
    return SplitMix64(root.next_u64())
