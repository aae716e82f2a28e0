"""Synthetic data: colored noise from a target PSD, exact AR series,
and random AR models for order-recovery studies."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from mesa._rng import make_rng
from mesa.core import (
    ArModel,
    GenerationError,
    TimeSeries,
    ValidationError,
    _finite,
    _readonly,
    _require,
)
from mesa.estimator import reflection_coefficients

_STABILITY_MARGIN = 1e-9
_REJECTION_BUDGET = 10_000


class Interpolation(enum.Enum):
    LINEAR = "linear"
    LOGLOG = "loglog"


@dataclass(frozen=True, eq=False)
class TabulatedPsd:
    """Two-sided spectral density tabulated at |f| on [0, Nyquist].

    Evaluation interpolates linearly (or log-log for strictly positive
    curves) and clamps outside the tabulated range.
    """

    freqs: np.ndarray
    values: np.ndarray
    interpolation: Interpolation = Interpolation.LINEAR

    def __post_init__(self):
        object.__setattr__(self, "freqs", _readonly(self.freqs))
        object.__setattr__(self, "values", _readonly(self.values))
        object.__setattr__(self, "interpolation", Interpolation(self.interpolation))
        freqs, values = self.freqs, self.values
        _require(freqs.ndim == 1 and freqs.size >= 2, "need at least two tabulation points")
        _require(values.shape == freqs.shape, "freqs and values must have equal length")
        _require(bool((np.diff(freqs) > 0).all()), "frequencies must be strictly increasing")
        _require(freqs[0] >= 0, "tabulation must start at or near 0")
        _require(_finite(values) and bool((values >= 0).all()),
                 "PSD values must be finite and non-negative")
        if self.interpolation is Interpolation.LOGLOG:
            _require(bool((values > 0).all()) and freqs[0] > 0,
                     "log-log interpolation needs strictly positive freqs and values")

    def __call__(self, f: np.ndarray) -> np.ndarray:
        f = np.abs(np.asarray(f, dtype=np.float64))
        if self.interpolation is Interpolation.LOGLOG:
            safe = np.maximum(f, self.freqs[0])
            return np.exp(np.interp(np.log(safe), np.log(self.freqs), np.log(self.values)))
        return np.interp(f, self.freqs, self.values)


def generate_from_psd(target, n: int, dt: float, rng_seed: int) -> TimeSeries:
    """Draw a real series whose ensemble-mean periodogram is the target density.

    ``target`` is a :class:`TabulatedPsd` or any callable mapping frequency
    (Hz) to the two-sided PSD. Frequency coefficients are sampled complex
    Gaussian with variance proportional to the target, Hermitian symmetry
    is imposed (real DC and Nyquist bins) and the result inverse-transformed.
    """
    if n < 2 or n % 2:
        raise ValidationError(f"n must be even and >= 2, got {n}")
    if not dt > 0:
        raise ValidationError("dt must be > 0")
    freqs = np.fft.rfftfreq(n, dt)
    s = np.asarray(target(freqs), dtype=np.float64)
    if s.shape != freqs.shape:
        raise ValidationError("target must return one value per frequency")
    if not np.isfinite(s).all() or (s < 0).any():
        raise ValidationError("target PSD values must be finite and non-negative")

    rng = make_rng(rng_seed)
    re = rng.standard_normal(freqs.size)
    im = rng.standard_normal(freqs.size)
    amp = np.sqrt(s * n / (2.0 * dt))
    coeff = amp * (re + 1j * im)
    # real bins carry the full variance in their real part
    coeff[0] = np.sqrt(s[0] * n / dt) * re[0]
    coeff[-1] = np.sqrt(s[-1] * n / dt) * re[-1]
    return TimeSeries(samples=np.fft.irfft(coeff, n), dt=dt)


def generate_ar(model: ArModel, n: int, burn_in: int | None = None, *, rng_seed: int) -> TimeSeries:
    """Simulate the AR process of ``model`` from a zero initial state.

    ``burn_in`` samples (default 10x the order) are discarded so the
    returned stretch is approximately stationary.
    """
    if n < 2:
        raise ValidationError("need n >= 2")
    if burn_in is None:
        burn_in = 10 * model.order
    if burn_in < 0:
        raise ValidationError("burn_in must be >= 0")
    if model.order and np.max(np.abs(reflection_coefficients(model.a))) >= 1.0:
        raise ValidationError("model is not stable: prediction filter has roots on/inside the unit circle")
    from scipy.signal import lfilter  # here, so that importing mesa does not load scipy

    rng = make_rng(rng_seed)
    noise = rng.standard_normal(burn_in + n) * np.sqrt(model.p_m)
    x = lfilter([1.0], model.a, noise)
    return TimeSeries(samples=x[burn_in:], dt=model.dt)


def random_ar_model(rng_seed: int, p_min: int = 2, p_max: int = 5000) -> ArModel:
    """Random stable AR model for order-recovery studies.

    The order is log-uniform on [p_min, p_max]; coefficient magnitudes come
    from a flat Dirichlet over the simplex with independent fair-coin signs.
    Coefficient draws are rejected until the model is stable -- sign
    patterns summing the magnitudes to 1 at z = +/-1 put roots exactly on
    the unit circle, so a small margin on |c| rejects those too. The model
    has unit noise power and dt = 1.
    """
    if not 2 <= p_min <= p_max:
        raise ValidationError(f"need 2 <= p_min <= p_max, got ({p_min}, {p_max})")
    rng = make_rng(rng_seed)
    p = int(round(np.exp(rng.uniform(np.log(p_min), np.log(p_max)))))
    p = min(max(p, p_min), p_max)
    for _ in range(_REJECTION_BUDGET):
        magnitudes = rng.dirichlet(np.ones(p))
        signs = rng.integers(0, 2, size=p) * 2 - 1
        a = np.concatenate([[1.0], signs * magnitudes])
        if np.max(np.abs(reflection_coefficients(a))) < 1.0 - _STABILITY_MARGIN:
            return ArModel(a=a, p_m=1.0, dt=1.0)
    raise GenerationError(f"no stable AR({p}) model found in {_REJECTION_BUDGET} attempts")
