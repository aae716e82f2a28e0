"""Deterministic random streams.

Every randomized operation takes an explicit non-negative integer seed and
derives Philox (counter-based) streams from it. Sub-streams are keyed by
index, so an ensemble member draws the same numbers whatever the other
members do.
"""
from __future__ import annotations

import numpy as np

from mesa.core import ValidationError


def _seed_sequence(seed: int, indices) -> np.random.SeedSequence:
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(i) for i in indices))


def make_rng(seed: int, *indices: int) -> np.random.Generator:
    """Philox generator for stream ``indices`` of root ``seed``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, indices)))


def derive_seed(seed: int, *indices: int) -> int:
    """Stable 64-bit child seed for stream ``indices`` of root ``seed``."""
    lo, hi = _seed_sequence(seed, indices).generate_state(2, dtype=np.uint32)
    return int(hi) << 32 | int(lo)
