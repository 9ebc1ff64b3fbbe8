"""Seedable 64-bit generator with a portable update rule.

State update (all mod 2^64), per splitmix64:
    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Derived draws are defined exactly so any language reproduces streams:
``below(n)`` is ``next_u64() % n``; ``unit()`` is ``(next_u64() >> 11) *
2**-53``; ``chance(p)`` is ``unit() < p``.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        return self.next_u64() % n

    def unit(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def chance(self, p: float) -> bool:
        return self.unit() < p

    def chances(self, p: float, count: int) -> list[bool]:
        """``[self.chance(p) for _ in range(count)]``, drawn in one loop on
        local state. ``unit() < p`` holds exactly when ``(x >> 11) < p *
        2**53``: both sides are scaled by a power of two, which no float
        rounds."""
        state, limit, out = self.state, p * 2.0**53, []
        for _ in range(count):
            state = (state + GAMMA) & MASK64
            z = ((state ^ (state >> 30)) * MIX1) & MASK64
            z = ((z ^ (z >> 27)) * MIX2) & MASK64
            out.append((z ^ (z >> 31)) >> 11 < limit)
        self.state = state
        return out
