"""The Yule-Walker route, the PSD -> autocorrelation integrator and the
stacked ensemble error.

``mesa`` estimates by Burg's recursion alone. The literal Levinson-Durbin
solve of the Yule-Walker (Toeplitz normal) equations on an autocorrelation
sequence, and the quadrature that recovers an autocorrelation from a
density, serve the tests as cross-check oracles for that route. The
per-frequency relative error of a list of estimates is the reference for
the Gaussian harness's running sums.
"""
import numpy as np

from mesa.core import (
    DegenerateModelError,
    RecursionTrace,
    SpectralDensity,
    SpectralError,
    TimeSeries,
    ValidationError,
    _levinson_update,
)
from mesa.estimator import _autocovariance


class AccuracyError(SpectralError):
    """A numerical result cannot be trusted at the requested accuracy."""


def sample_autocorrelation(ts: TimeSeries, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation r_k = (1/N) sum_t x_t x_{t+k}, k = 0..max_lag.

    The 1/N normalization keeps the Toeplitz autocorrelation matrix
    positive semi-definite, which in turn bounds every Levinson reflection
    coefficient by 1.
    """
    x = np.asarray(ts.samples, dtype=np.float64)
    n = x.shape[0]
    if not 0 <= max_lag < n:
        raise ValidationError(f"max_lag must be in [0, {n - 1}], got {max_lag}")
    return _autocovariance(x, max_lag) / n


def levinson_step(prev_a: np.ndarray, prev_p: float, c: float) -> tuple[np.ndarray, float]:
    """One order-raising step of the Levinson recursion.

    Returns the order-N coefficient vector and prediction-error power built
    from the order-(N-1) quantities and the reflection coefficient ``c``.
    """
    prev_a = np.asarray(prev_a, dtype=np.float64)
    if prev_a.ndim != 1 or prev_a.size < 1 or prev_a[0] != 1.0:
        raise ValidationError("prev_a must be a coefficient vector with prev_a[0] == 1")
    if not (np.isfinite(prev_p) and prev_p >= 0):
        raise ValidationError("prev_p must be finite and >= 0")
    if not (np.isfinite(c) and abs(c) <= 1.0):
        raise ValidationError("reflection coefficient must satisfy |c| <= 1")
    return _levinson_update(prev_a, c), prev_p * (1.0 - c * c)


def reflection_yule_walker(a: np.ndarray, r: np.ndarray, p: float) -> float:
    """Reflection coefficient c = -Delta/p from the autocorrelation sequence.

    ``a`` is the order-k coefficient vector and Delta = sum_n a_n r_{k+1-n}.
    """
    a = np.asarray(a, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    k = a.size - 1
    if r.size < k + 2:
        raise ValidationError(f"need autocorrelation up to lag {k + 1}, got {r.size - 1}")
    if p == 0:
        raise DegenerateModelError("zero prediction-error power: signal is perfectly predictable")
    delta = float(a @ r[k + 1 : 0 : -1])
    return -delta / p


def _levinson_steps(r: np.ndarray, p, max_order: int):
    """Yield ``(p_{k+1}, c_k)`` of the Levinson recursion on ``r``."""
    a = np.ones(1)
    for _ in range(max_order):
        ck = float(np.clip(reflection_yule_walker(a, r, p), -1.0, 1.0))
        a, p = levinson_step(a, p, ck)
        yield p, ck


def fit_from_autocorr(
    r: np.ndarray,
    max_order: int,
    dt: float = 1.0,
    n_samples: int | None = None,
) -> RecursionTrace:
    """Levinson recursion from a given autocorrelation sequence.

    The Burg counterpart is ``mesa.fit`` on the series ``r`` came from.
    ``n_samples`` is only metadata (order-selection losses need it); pass
    it when the sequence came from data of known length.
    """
    r = np.asarray(r, dtype=np.float64)
    if not 1 <= max_order <= r.size - 1:
        raise ValidationError(f"max_order must be in [1, {r.size - 1}], got {max_order}")
    if r[0] == 0.0:
        raise DegenerateModelError("zero-variance autocorrelation")
    p, c = [r[0]], []
    for pk, ck in _levinson_steps(r, r[0], max_order):
        p.append(pk)
        c.append(ck)
    return RecursionTrace(p=np.array(p, dtype=np.float64), c=np.array(c, dtype=np.float64),
                          dt=dt, n_samples=n_samples)


def autocorr_from_psd(sd: SpectralDensity, lags) -> np.ndarray:
    """Trapezoid quadrature of int S(f) exp(i 2 pi f k dt) df at each lag.

    Requires a density on a dense uniform grid symmetric about 0; the
    grid must carry at least 8 points per requested lag for the oscillatory
    integrand to be resolved.
    """
    lags = np.asarray(lags, dtype=np.int64)
    freqs = sd.freqs
    if freqs.size < 2:
        raise ValidationError("grid too small")
    df = np.diff(freqs)
    if np.max(np.abs(df - df[0])) > 1e-9 * abs(df[0]):
        raise ValidationError("frequency grid must be uniform")
    if abs(freqs[0] + freqs[-1]) > 1e-9 * freqs[-1]:
        raise ValidationError("frequency grid must be symmetric about 0")
    max_lag = int(np.max(np.abs(lags))) if lags.size else 0
    if freqs.size < 8 * max_lag:
        raise AccuracyError(
            f"grid of {freqs.size} points is too coarse for lag {max_lag} (need >= {8 * max_lag})"
        )
    dt = 1.0 / (2.0 * freqs[-1])
    weights = np.full(freqs.size, df[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    weighted = weights * sd.values
    phases = np.exp(2j * np.pi * dt * np.outer(lags, freqs))
    r = phases @ weighted
    bad = np.abs(r.imag) >= 1e-8 * np.abs(r.real) + 1e-12
    if np.any(bad):
        raise AccuracyError("imaginary residue of the constraint integral is too large")
    return np.ascontiguousarray(r.real)


def relative_error_ensemble(estimates, truth: SpectralDensity) -> SpectralDensity:
    """Per-frequency mean relative deviation over an ensemble of estimates."""
    if not estimates:
        raise ValidationError("need at least one estimate")
    if (truth.values <= 0).any():
        raise ValidationError("truth PSD must be strictly positive")
    acc = np.zeros(truth.freqs.size)
    for est in estimates:
        if not np.array_equal(est.freqs, truth.freqs):
            raise ValidationError("all estimates must share the truth's frequency grid")
        acc += np.abs(est.values - truth.values) / truth.values
    return SpectralDensity(freqs=truth.freqs, values=acc / len(estimates))
