"""Deterministic 64-bit PRNG for reproducible simulations.

The generator is splitmix64: state advances by the 64-bit golden-gamma
constant and each output is the finalizer scramble of the new state.
Constants (Vigna's reference implementation):

    GOLDEN = 0x9E3779B97F4A7C15
    MIX1   = 0xBF58476D1CE4E5B9   (xor-shift 30, multiply)
    MIX2   = 0x94D049BB133111EB   (xor-shift 27, multiply; final shift 31)

Every stream is a pure function of its 64-bit seed, so any implementation
of splitmix64 in any language reproduces the same values. Derived seeds
(`derive_seed`) are simply positions in the parent seed's output stream,
which keeps trial substreams independent and order-insensitive.

Bounded integers use rejection sampling (reject draws at or above
``2**64 - 2**64 % n``) so the result is unbiased and reproducible.
Floats take the top 53 bits of an output, scaled by 2**-53.

Output k after a state depends only on ``state + (k+1) * GOLDEN``, so
`stream` computes many outputs in one pass of Python int arithmetic. Each
output owns a 128-bit lane of one int: its 64-bit value plus a 64-bit pad
on the more significant side. A lane's value times a 64-bit constant
fits in the lane, ``& mask`` (2**64 - 1 in every value word, 0 in every
pad) reduces each value mod 2**64 and clears the bits a right shift moves
in from the next lane, so one scramble over the whole int scrambles every
lane at once. Lanes are packed from and unpacked to ``array('Q')`` words
(value, pad, value, pad, ...) in the machine's byte order, which puts
each pad above its value on either byte order. The values are exactly
those of successive `next_u64` calls.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import chain
from math import ceil
from typing import Iterator

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
# Largest lane count of one kernel pass; lane counts are powers of two so
# their constants are built once each.
BLOCK = 4096


def _scramble(z: int) -> int:
    z = ((z ^ (z >> 30)) * MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Seed for substream `index`: the index-th output of the parent stream."""
    if index < 0:
        raise ValueError("substream index must be non-negative")
    state = (seed + (index + 1) * GOLDEN) & _MASK64
    return _scramble(state)


def _pack(values: array) -> int:
    """One int with ``values[k]`` in the value word of lane k."""
    words = array("Q", bytes(16 * len(values)))
    words[0::2] = values
    return int.from_bytes(words, sys.byteorder)


@cache
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """1 in every lane, the value-word mask, and (k+1) * GOLDEN in lane k."""
    ones = _pack(array("Q", [1]) * lanes)
    return ones, ones * _MASK64, _pack(array("Q", range(1, lanes + 1))) * GOLDEN


def _scramble_lanes(state: int, lanes: int) -> array:
    """The ``lanes`` outputs after ``state``, ``lanes`` a power of two."""
    ones, mask, steps = _lane_constants(lanes)
    z = (steps + ones * state) & mask
    z = ((z ^ (z >> 30)) & mask) * MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * MIX2 & mask
    z ^= z >> 31  # the bits shifted into pads are never read
    return array("Q", z.to_bytes(16 * lanes, sys.byteorder))[0::2]


def stream(seed: int) -> Iterator[int]:
    """The endless output stream of ``seed``, as `next_u64` returns it,
    computed in blocks that double from 64 outputs up to BLOCK, so a short
    read computes few outputs it does not use."""

    def blocks(state: int, lanes: int) -> Iterator[array]:
        while True:
            yield _scramble_lanes(state, lanes)
            state = (state + lanes * GOLDEN) & _MASK64
            lanes = min(2 * lanes, BLOCK)

    return chain.from_iterable(blocks(seed & _MASK64, 64))


def threshold(p: float) -> int:
    """The bound t with ``u < t`` exactly when output u gives a `random()`
    value below ``p``: ``(u >> 11) * 2**-53 < p`` is exact, so it holds iff
    ``u >> 11 < ceil(p * 2**53)``, iff ``u < ceil(p * 2**53) << 11``."""
    return ceil(p * 2.0**53) << 11


def bounded(draws: Iterator[int], n: int) -> int:
    """Unbiased uniform integer in [0, n) from the next outputs of
    ``draws``, via rejection sampling; one 64-bit draw covers at most
    2**64 values."""
    if not 0 < n <= _MASK64 + 1:
        raise ValueError("bound must be in [1, 2**64]")
    limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
    while True:
        value = next(draws)
        if value < limit:
            return value % n


class SplitMix64:
    """splitmix64 stream over a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK64
        return _scramble(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits of one output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) via rejection sampling (see
        `bounded`)."""
        return bounded(iter(self.next_u64, None), n)
