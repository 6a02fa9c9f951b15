"""Seed plumbing: splitmix64 stream derivation and a seeded Fisher-Yates shuffle.

Per-replication streams are derived with splitmix64 jumps from a master seed so
that results are reproducible independently of execution order.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return state, z


def derive_stream(master_seed: int, index: int) -> int:
    """Derive the seed of substream `index` from a master seed."""
    state = (int(master_seed) & _MASK) ^ 0xA076_1D64_78BD_642F
    state, _ = splitmix64(state)
    # jump `index` gamma-steps; gamma is odd, so distinct indices cannot collide
    state = (state + (int(index) & _MASK) * 0x9E3779B97F4A7C15) & _MASK
    _, out = splitmix64(state)
    return out


class SplitMix64:
    """Minimal 64-bit generator used where a stdlib-independent shuffle is needed."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_uint64(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

    def next_below(self, bound: int) -> int:
        # Rejection sampling keeps the draw exactly uniform on [0, bound).
        limit = (_MASK + 1) - ((_MASK + 1) % bound)
        while True:
            v = self.next_uint64()
            if v < limit:
                return v % bound


def fisher_yates_permutation(n: int, seed: int) -> np.ndarray:
    """Seeded Fisher-Yates permutation of range(n)."""
    gen = SplitMix64(seed)
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = gen.next_below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def rng_for(seed: int) -> np.random.Generator:
    """numpy Generator for substream 0 of `seed`."""
    return np.random.default_rng(derive_stream(seed, 0))
