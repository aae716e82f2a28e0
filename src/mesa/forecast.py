"""Conditional forecasting from a fitted AR model.

Future samples follow x_t = sum_i b_i x_{t-i} + eps_t with
eps_t ~ Normal(0, p_m), conditioned on the tail of the
seed series. Each ensemble member draws from its own counter-based stream
keyed by (rng_seed, member index), and the rest of its path depends on
nothing else, so member i is the same array whatever ``n_realizations`` is.

The recursion is linear, so a member is built by superposition rather than
stepped: x_t = z_t + sum_{k<=t} h_k eps_{t-k}, where z is the noiseless
continuation of the seed tail and h the impulse response of 1/A(z)
(h_0 = 1). One recursion gives z and h for every member, and each member's
noise is convolved with h by FFT. That convolution rounds differently from
the step-by-step recursion: on step t its error stays below
``rounding_bound(h)`` times that step's spread
sigma_t = sqrt(p_m sum_{k<=t} h_k^2). A model whose bound
exceeds ``TOLERANCE`` -- an explosive one, whose h grows without limit, or
one so close to the unit circle that h stays large over the horizon -- is
rejected with ``ValidationError``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mesa._rng import make_rng
from mesa.core import ArModel, ForecastEnsemble, TimeSeries, ValidationError

TOLERANCE = 1e-6
"""Largest rounding error allowed on a forecast step, in units of its spread sigma_t."""

# Members are convolved, and steps summarized, a block at a time, each block
# at most this many samples (512 kB of float64), so the temporaries stay
# small whatever R is.
_BLOCK_SAMPLES = 1 << 16


def rounding_bound(h: np.ndarray) -> float:
    """Bound on the FFT convolution's error on any step, in units of sigma_t.

    Against the step-by-step recursion the error measured at most
    2.9 * eps * ||h||_2 * sigma_t, on single, double and triple unit roots,
    near-unit roots and horizons up to 50000; the bound allows 16 times
    eps * ||h||_2.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing h gives no finite bound
        return 16 * np.finfo(np.float64).eps * float(np.sqrt(h @ h))


def forecast(
    model: ArModel,
    seed: TimeSeries,
    horizon: int,
    n_realizations: int,
    rng_seed: int,
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

    if m:
        z, h = _continuation_and_response(model, seed, horizon)
        if not rounding_bound(h) <= TOLERANCE:
            raise ValidationError(
                f"the model's impulse response reaches max|h| = {np.max(np.abs(h)):.3g} within "
                f"{horizon} steps, so forecast rounding would exceed {TOLERANCE:g} of the "
                "spread; shorten the horizon or use a stable model"
            )
    scale = np.sqrt(model.p_m)
    out = np.empty((n_realizations, horizon))
    for i in range(n_realizations):
        make_rng(rng_seed, i).standard_normal(horizon, out=out[i])
    if not m:  # order 0: a member is its scaled noise
        out *= scale
    else:
        nfft = 1 << (2 * horizon - 2).bit_length()  # >= 2H-1: no circular wrap into steps 0..H-1
        kernel = np.fft.rfft(h, nfft) * scale
        block = max(1, _BLOCK_SAMPLES // nfft)
        for i in range(0, n_realizations, block):
            rows = out[i : i + block]
            spectrum = np.fft.rfft(rows, nfft)
            spectrum *= kernel
            np.add(np.fft.irfft(spectrum, nfft)[:, :horizon], z, out=rows)
    out.flags.writeable = False  # sealed, so the ensemble keeps it without a copy
    return ForecastEnsemble(realizations=out)


def _continuation_and_response(model: ArModel, seed: TimeSeries, horizon: int):
    """Noiseless continuation z of the seed tail and impulse response h, steps 0..H-1."""
    m = model.order
    # Rows z and h in reverse time: the first H columns hold steps H-1..0 and
    # the last m the state before step 0 (the seed tail for z, zeros for h),
    # so the state of the step written into column j is the view zh[:, j+1:j+1+m].
    zh = np.zeros((2, horizon + m))
    zh[0, horizon:] = seed.samples[len(seed) - m :][::-1]
    zh[1, horizon - 1] = 1.0
    b = model.b
    with np.errstate(over="ignore", invalid="ignore"):  # the caller rejects an overflowing h
        for j in range(horizon - 1, -1, -1):
            zh[:, j] += zh[:, j + 1 : j + 1 + m] @ b
    return zh[:, horizon - 1 :: -1]


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


def summary_levels(quantiles, n_realizations: int) -> tuple:
    """The quantile levels as floats, checked for a summary of ``n_realizations`` members.

    Raises ``ValidationError`` for fewer than two members, or for levels
    that are repeated or lie outside (0, 1).
    """
    if n_realizations < 2:
        raise ValidationError("need at least two realizations to summarize")
    levels = tuple(float(q) for q in quantiles)
    if any(not 0.0 < q < 1.0 for q in levels):
        raise ValidationError("quantiles must lie strictly inside (0, 1)")
    if len(set(levels)) != len(levels):
        raise ValidationError(f"quantile levels must be distinct, got {levels}")
    return levels


def forecast_summary(ens: ForecastEnsemble, quantiles=(0.05, 0.95)) -> ForecastSummary:
    """Empirical per-step median and quantile band edges (linear interpolation).

    Steps are summarized a block at a time, each block at most
    ``_BLOCK_SAMPLES`` values, copied into one buffer, so only a block of
    the ensemble is ever copied. The copy is sorted by column and its
    quantiles are read in place, which on sorted columns costs little.
    Every step's column is summarized on its own, so the table is the same
    as one ``np.quantile`` over the whole matrix.
    """
    levels = summary_levels(quantiles, ens.n_realizations)
    r = ens.realizations
    probs = (0.5, *levels)
    table = np.empty((len(probs), ens.horizon))
    width = max(1, _BLOCK_SAMPLES // ens.n_realizations)
    block = np.empty((ens.n_realizations, min(width, ens.horizon)))
    for j in range(0, ens.horizon, width):
        cols = block[:, : min(width, ens.horizon - j)]
        cols[...] = r[:, j : j + width]
        cols.sort(axis=0)
        table[:, j : j + width] = np.quantile(cols, probs, axis=0, overwrite_input=True)
    return ForecastSummary(
        steps=np.arange(1, ens.horizon + 1),
        median=table[0],
        quantile_levels=levels,
        quantiles=table[1:],
    )
