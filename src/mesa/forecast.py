"""Conditional forecasting from a fitted AR model.

Future samples follow x_t = sum_i b_i x_{t-i} + eps_t with
eps_t ~ Normal(0, noise_scale^2 * p_m), conditioned on the tail of the
seed series. Each ensemble member draws from its own counter-based stream
keyed by (rng_seed, member index).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mesa._rng import make_rng
from mesa.core import ArModel, ForecastEnsemble, TimeSeries, ValidationError


def forecast(
    model: ArModel,
    seed: TimeSeries,
    horizon: int,
    n_realizations: int,
    rng_seed: int,
    noise_scale: float = 1.0,
) -> ForecastEnsemble:
    """Generate an ensemble of conditional continuations of ``seed``."""
    m = model.order
    if len(seed) < m:
        raise ValidationError(f"seed has {len(seed)} samples, model order is {m}")
    if abs(seed.dt - model.dt) > 1e-9 * model.dt:
        raise ValidationError("seed and model sampling intervals disagree")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if n_realizations < 1:
        raise ValidationError("need at least one realization")
    if noise_scale < 0:
        raise ValidationError("noise_scale must be >= 0")

    # One row per member, in reverse time: the first H columns hold the scaled
    # noise of steps H-1..0 and the last m the seed tail x_{-1}..x_{-m}, so the
    # state of the step written into column j is the view y[:, j+1:j+1+m].
    y = np.empty((n_realizations, horizon + m))
    for i in range(n_realizations):
        y[i, horizon - 1 :: -1] = make_rng(rng_seed, i).standard_normal(horizon)
    y[:, :horizon] *= noise_scale * np.sqrt(model.p_m)
    y[:, horizon:] = seed.samples[len(seed) - m :][::-1]
    if m:  # at order 0 there is nothing to add, and adding 0.0 would turn -0.0 into 0.0
        b = model.b
        for j in range(horizon - 1, -1, -1):
            y[:, j] += y[:, j + 1 : j + 1 + m] @ b
    return ForecastEnsemble(realizations=y[:, horizon - 1 :: -1], seed_length=m, model=model)


@dataclass(frozen=True)
class ForecastSummary:
    """Per-step quantile table of a forecast ensemble."""

    steps: np.ndarray
    median: np.ndarray
    quantile_levels: tuple
    quantiles: np.ndarray  # shape (len(levels), horizon)

    def column_names(self) -> list[str]:
        return ["step", "median"] + [quantile_label(q) for q in self.quantile_levels]


def quantile_label(q: float) -> str:
    """Column name of a level ``q`` in (0, 1): ``q05`` for 5 %, ``q99.9`` for 99.9 %.

    The percent is read off the shortest decimal form of ``q``, so distinct
    levels get distinct names and a whole percent keeps two digits.
    """
    digits = np.format_float_positional(q, trim="-").partition(".")[2].ljust(2, "0")
    return f"q{digits[:2]}" + (f".{digits[2:]}" if digits[2:] else "")


def forecast_summary(ens: ForecastEnsemble, quantiles=(0.05, 0.95)) -> ForecastSummary:
    """Empirical per-step median and quantile band edges (linear interpolation)."""
    if ens.n_realizations < 2:
        raise ValidationError("need at least two realizations to summarize")
    levels = tuple(float(q) for q in quantiles)
    if any(not 0.0 < q < 1.0 for q in levels):
        raise ValidationError("quantiles must lie strictly inside (0, 1)")
    if len(set(levels)) != len(levels):
        raise ValidationError(f"quantile levels must be distinct, got {levels}")
    r = ens.realizations
    return ForecastSummary(
        steps=np.arange(1, ens.horizon + 1),
        median=np.quantile(r, 0.5, axis=0),
        quantile_levels=levels,
        quantiles=np.quantile(r, levels, axis=0) if levels else np.empty((0, ens.horizon)),
    )
