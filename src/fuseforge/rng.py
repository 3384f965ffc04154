"""SplitMix64 generator used everywhere randomness must be platform-stable.

Python's ``random`` module is stable across versions in practice, but graph
adjacency and per-agent streams are part of the reproducibility contract, so
we pin the exact algorithm here.  Per-agent streams are derived from
``(global_seed, agent_id)`` only; partition and thread identity never enter
the derivation.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """The SplitMix64 output mix."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_stream(seed: int, stream_id: int) -> int:
    """Initial SplitMix64 state for a numbered sub-stream of ``seed``."""
    return mix64((seed * 0x2545F4914F6CDD1D + stream_id * _GOLDEN) & MASK64)


def next_u64(state: int) -> tuple[int, int]:
    """Advance the state; returns (new_state, output)."""
    state = (state + _GOLDEN) & MASK64
    return state, mix64(state)


def next_float(state: int) -> tuple[int, float]:
    """Advance the state; returns (new_state, uniform float in [0, 1))."""
    state, out = next_u64(state)
    return state, (out >> 11) * (1.0 / (1 << 53))


def next_below(state: int, bound: int) -> tuple[int, int]:
    """Advance the state; returns (new_state, integer in [0, bound))."""
    state, out = next_u64(state)
    return state, out % bound


class SplitMix64:
    """Stateful convenience wrapper around the pure functions above."""

    __slots__ = ("state",)

    def __init__(self, seed: int, stream_id: int = 0):
        self.state = derive_stream(seed, stream_id)

    def random(self) -> float:
        self.state, out = next_float(self.state)
        return out

    def below(self, bound: int) -> int:
        self.state, out = next_below(self.state, bound)
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
