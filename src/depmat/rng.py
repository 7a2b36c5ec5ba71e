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
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


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
        """Unbiased uniform integer in [0, n) via rejection sampling; one
        64-bit draw covers at most 2**64 values."""
        if not 0 < n <= _MASK64 + 1:
            raise ValueError("bound must be in [1, 2**64]")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n
