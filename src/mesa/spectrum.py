"""MESA spectral density evaluation.

The density of an :class:`~mesa.core.ArModel` is

    S(f) = p_m * dt / |sum_s a_s exp(i 2 pi f s dt)|^2,

a two-sided density over [-Nyquist, Nyquist], even in f for real models.
It stays two-sided on the default grid, which covers [0, Nyquist] only; a
symmetric grid is ``np.linspace(-ny, ny, n)``, evaluated by Horner's rule.
"""
from __future__ import annotations

import numpy as np

from mesa.core import ArModel, DegenerateModelError, SpectralDensity, ValidationError


def frequency_grid(n_freqs: int, dt: float) -> np.ndarray:
    """Equally spaced frequencies spanning [0, Nyquist], endpoints included."""
    if n_freqs < 2:
        raise ValidationError(f"need n_freqs >= 2, got {n_freqs}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be finite and > 0")
    return np.linspace(0.0, 1.0 / (2.0 * dt), n_freqs)


def default_grid_size(order: int) -> int:
    """Default resolution of the grid on [0, Nyquist]: 4*max(order, 256) + 1 points."""
    return 4 * max(order, 256) + 1


def _denominator_fft(a: np.ndarray, n_pos: int) -> np.ndarray:
    """|A|^2 on the canonical positive grid via a zero-padded DFT."""
    nfft = 2 * (n_pos - 1)
    if a.size > nfft:
        # rfft would drop the terms past nfft: at these frequencies the DFT
        # of ``a`` is that of ``a`` folded modulo nfft
        a = np.pad(a, (0, -a.size % nfft)).reshape(-1, nfft).sum(axis=0)
    den = np.abs(np.fft.rfft(a, nfft))
    den *= den
    return den


def _denominator_direct(a: np.ndarray, freqs: np.ndarray, dt: float) -> np.ndarray:
    """|A|^2 at any frequencies, by Horner's rule in z = exp(i 2 pi f dt)."""
    return np.abs(np.polyval(a[::-1], np.exp(2j * np.pi * dt * freqs))) ** 2


def _is_canonical_positive(freqs: np.ndarray, ny: float) -> bool:
    if freqs.size < 2 or freqs[0] != 0.0 or freqs[-1] != ny:
        return False
    ref = np.linspace(0.0, ny, freqs.size)
    ref -= freqs
    return bool(np.abs(ref, out=ref).max() <= 1e-12 * ny)


def psd(model: ArModel, freqs: np.ndarray | None = None) -> SpectralDensity:
    """Evaluate the model's two-sided spectral density on ``freqs``.

    ``freqs=None`` uses the default grid on [0, Nyquist]. On the canonical
    equally-spaced grid the denominator comes from a zero-padded DFT of the
    coefficient vector, of any length against the order; elsewhere the
    polynomial in exp(i 2 pi f dt) is evaluated by Horner's rule, one pass
    over the grid per coefficient. Both routes agree to 1e-12 of
    (sum_s |a_s|)^2, the scale on which |A|^2 is resolved. A model fitted
    to a series that is perfectly predictable to working precision (zero
    power, or a zero of the filter on the unit circle) has no finite
    positive density and raises ``DegenerateModelError``.
    """
    ny = model.nyquist
    if freqs is None:
        freqs = frequency_grid(default_grid_size(model.order), model.dt)
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.ndim != 1:
        raise ValidationError("frequencies must be a vector")
    bound = ny * (1 + 1e-12)
    if freqs.size and not (freqs.min() >= -bound and freqs.max() <= bound):
        raise ValidationError("frequencies must be finite and inside the Nyquist band")

    if _is_canonical_positive(freqs, ny):
        den = _denominator_fft(model.a, freqs.size)
    else:
        den = _denominator_direct(model.a, freqs, model.dt)
    # the density is formed in the denominator's buffer and sealed, so
    # SpectralDensity keeps it without a copy
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.divide(model.p_m * model.dt, den, out=den)
    values.flags.writeable = False
    if not (np.isfinite(values).all() and (values > 0.0).all()):
        raise DegenerateModelError(
            "the model's density is not finite and positive: the series is perfectly "
            "predictable to working precision"
        )
    return SpectralDensity(freqs=freqs, values=values)
