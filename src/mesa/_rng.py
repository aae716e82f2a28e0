"""Deterministic random streams.

Every randomized operation takes an explicit integer seed and derives
Philox (counter-based) streams from it. Sub-streams are keyed by index, so
an ensemble member draws the same numbers whatever the other members do.
"""
from __future__ import annotations

import numpy as np


def make_rng(seed: int, *indices: int) -> np.random.Generator:
    """Philox generator for stream ``indices`` of root ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *indices: int) -> int:
    """Stable 64-bit child seed for stream ``indices`` of root ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in indices))
    lo, hi = ss.generate_state(2, dtype=np.uint32)
    return int(hi) << 32 | int(lo)
