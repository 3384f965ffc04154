"""SplitMix64 draws: each inlines the output mix, and must stay bit-identical
to advancing the state and applying ``mix64``, the composition written out
here as the reference."""

from __future__ import annotations

import random

from fuseforge.rng import (
    MASK64,
    SplitMix64,
    _GOLDEN,
    mix64,
    next_below,
    next_float,
    next_u64,
)


def reference_u64(state: int) -> tuple[int, int]:
    state = (state + _GOLDEN) & MASK64
    return state, mix64(state)


def reference_float(state: int) -> tuple[int, float]:
    state, out = reference_u64(state)
    return state, (out >> 11) * (1.0 / (1 << 53))


def reference_below(state: int, bound: int) -> tuple[int, int]:
    state, out = reference_u64(state)
    return state, out % bound


def states() -> list[int]:
    rng = random.Random(20)
    edges = [0, 1, MASK64, MASK64 - _GOLDEN + 1, (1 << 63) - 1]  # the fourth wraps to 0
    return edges + [rng.getrandbits(64) for _ in range(10_000)]


def test_draws_equal_the_mix64_composition():
    bounds = (1, 2, 3, 10, 1_000_003, 1 << 40, MASK64)
    for k, state in enumerate(states()):
        assert next_u64(state) == reference_u64(state)
        got, want = next_float(state), reference_float(state)
        assert got[0] == want[0] and got[1].hex() == want[1].hex()
        bound = bounds[k % len(bounds)]
        assert next_below(state, bound) == reference_below(state, bound)


def test_state_wraps_at_64_bits():
    state = MASK64 - _GOLDEN + 1
    assert next_u64(state) == (0, 0)
    assert next_u64(MASK64)[0] == _GOLDEN - 1


def test_first_outputs_pinned():
    rng = SplitMix64(0)
    assert [rng.random() for _ in range(5)] == [
        0.8833108082136426, 0.43152799704850997, 0.026433771592597743,
        0.9708819781538285, 0.10634669156721244]

