"""The test references, each defined once here.

- Burg's recursion: ``plain_lattice``, the textbook lattice that allocates
  fresh error arrays at every order; ``drain``, which runs it or any
  stepper of ``mesa.estimator`` to its end; and ``FAST_TOL`` and
  ``FAST_MIN_P_RATIO``, within which fast Burg must match the lattice.
- The Yule-Walker route: the literal Levinson-Durbin recursion on an
  autocorrelation sequence, the dense solve of the same (Toeplitz normal)
  equations, and the quadrature that recovers an autocorrelation from a
  density.
- Order selection: the closed forms of the FPE, CAT, CAT (inverse sum) and
  OBD losses at one order, which ``mesa.selection`` computes only inside
  its scan, the sums as running sums; and ``scan``, which drives that scan
  over a given trace.
- The per-frequency relative error of a list of estimates, the reference
  for the Gaussian harness's running sums.
- Densities: the three-peak curve the comparison with Welch is drawn from,
  and the aLIGO design curve, the detector-like density the paper
  compares Burg's method with Welch's on.
"""
import math

import numpy as np

from mesa.core import (
    Criterion,
    DegenerateModelError,
    RecursionTrace,
    SpectralDensity,
    SpectralError,
    TimeSeries,
    UndefinedLossError,
    ValidationError,
)
from mesa.estimator import _autocovariance
from mesa.selection import scan_orders


class AccuracyError(SpectralError):
    """A numerical result cannot be trusted at the requested accuracy."""


# --- Burg's recursion --------------------------------------------------------

# fast Burg matches the lattice to this, in c and in relative p, at every
# order whose lattice power is at least FAST_MIN_P_RATIO * p0
FAST_TOL = 1e-8
FAST_MIN_P_RATIO = 1e-12


def plain_lattice(x, max_order):
    """The textbook Burg lattice on ``x``, allocating fresh error arrays at every order.

    Yields c_k for k = 0..max_order-1 and raises ``DegenerateModelError``
    at an order whose errors vanish, as the lattice stepper of
    ``mesa.estimator`` does.
    """
    f = b = np.asarray(x, dtype=np.float64)
    for k in range(max_order):
        fa, ba = f[1:], b[:-1]
        den = fa @ fa + ba @ ba
        if den == 0.0:
            raise DegenerateModelError(f"prediction errors vanished at order {k}")
        ck = float(np.clip(-2.0 * (fa @ ba) / den, -1.0, 1.0))
        yield ck
        f, b = fa + ck * ba, ba + ck * fa


def drain(steps, p0):
    """The powers p_1.. and reflections of a stepper before it ends or finds a degenerate order.

    The powers are chained from ``p0`` as ``fit`` chains them.
    """
    p, c = [p0], []
    try:
        for ck in steps:
            p.append(p[-1] * (1.0 - ck * ck))
            c.append(ck)
    except DegenerateModelError:
        pass
    return np.array(p[1:]), np.array(c)


# --- the Yule-Walker route ---------------------------------------------------

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
    """One order-raising step of the Levinson recursion, into a new array.

    Returns the order-N coefficient vector and prediction-error power built
    from the order-(N-1) quantities and the reflection coefficient ``c``:
    the textbook step-up, which appends a zero and adds ``c`` times the
    reversed filter shifted by one. ``mesa`` steps its filters up in place;
    this is the reference it is held to, bit for bit.
    """
    prev_a = np.asarray(prev_a, dtype=np.float64)
    if prev_a.ndim != 1 or prev_a.size < 1 or prev_a[0] != 1.0:
        raise ValidationError("prev_a must be a coefficient vector with prev_a[0] == 1")
    if not (np.isfinite(prev_p) and prev_p >= 0):
        raise ValidationError("prev_p must be finite and >= 0")
    if not (np.isfinite(c) and abs(c) <= 1.0):
        raise ValidationError("reflection coefficient must satisfy |c| <= 1")
    a = np.append(prev_a, 0.0)
    a[1:] += c * prev_a[::-1]
    return a, prev_p * (1.0 - c * c)


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


def toeplitz_solve(r, m):
    """Dense solve of the order-m normal equations; returns (a, p)."""
    idx = np.abs(np.subtract.outer(np.arange(1, m + 1), np.arange(1, m + 1)))
    tail = np.linalg.solve(r[idx], -r[1 : m + 1])
    a = np.concatenate([[1.0], tail])
    p = float(a @ r[: m + 1])
    return a, p


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


# --- order selection ---------------------------------------------------------

def scan(p, criterion, n, c=None, patience=math.inf):
    """Scan of the powers ``p`` (indexed by order) and reflections ``c``, in full by default."""
    c = np.zeros(len(p) - 1) if c is None else c
    return scan_orders(zip(range(len(p)), p, [None, *c]), Criterion(criterion), n, patience)


def loss_fpe(p_m: float, n: int, m: int) -> float:
    """Final Prediction Error loss P_m (N+m+1)/(N-m-1)."""
    if m >= n - 1:
        raise UndefinedLossError(f"FPE undefined for m={m} with n={n}")
    return p_m * (n + m + 1) / (n - m - 1)


def loss_cat(p, n: int, m: int) -> float:
    """Parzen's CAT loss at order m >= 1.

    ``p`` is indexed by order (p[0] present but unused): the loss is
    (1/N) sum_{k=1..m} (N-k)/(N P_k) - (N-m)/(N P_m).

    Once the residuals whiten, this loss decreases under nearly the same
    condition as FPE, so its minimum tracks FPE's order. The reading that
    takes the reciprocal of the whole sum, which picks much larger and more
    widely spread orders, is ``loss_cat_inverse_sum``.
    """
    if m < 1:
        raise UndefinedLossError("CAT is undefined at order 0")
    p = np.asarray(p, dtype=np.float64)
    if np.any(p[1 : m + 1] == 0.0):
        raise UndefinedLossError("CAT undefined: zero prediction-error power")
    k = np.arange(1, m + 1)
    return float(np.sum((n - k) / (n * p[1 : m + 1])) / n - (n - m) / (n * p[m]))


def loss_cat_inverse_sum(p, n: int, m: int) -> float:
    """CAT read with the reciprocal of the whole sum, at order m >= 1.

    ``p`` is indexed by order (p[0] present but unused). With the unbiased
    powers Pbar_k = N P_k / (N-k), the loss is
    1 / (N sum_{k=1..m} Pbar_k) - 1 / Pbar_m.
    """
    if m < 1:
        raise UndefinedLossError("CAT (inverse sum) is undefined at order 0")
    p = np.asarray(p, dtype=np.float64)
    if np.any(p[1 : m + 1] == 0.0):
        raise UndefinedLossError("CAT (inverse sum) undefined: zero prediction-error power")
    k = np.arange(1, m + 1)
    return float(1.0 / (n * np.sum(n * p[1 : m + 1] / (n - k))) - (n - m) / (n * p[m]))


def loss_obd(p, a, n: int, m: int) -> float:
    """Rao's Optimum Bayes Decision loss at order m.

    ``p`` is indexed by order; ``a`` is the order-m coefficient vector
    (a[0] == 1). Natural logarithms throughout.
    """
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if np.any(p[: m + 1] == 0.0):
        raise UndefinedLossError("OBD undefined: zero prediction-error power")
    value = (n - m - 2) * math.log(p[m]) + m * math.log(n)
    if m >= 1:
        value += float(np.sum(np.log(p[:m]))) + float(a[1 : m + 1] @ a[1 : m + 1])
    return value


# --- ensembles and densities -------------------------------------------------

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


def three_peak_curve(f):
    """A flat floor with a low-pass shoulder and Lorentzian peaks at 60, 350 and 1100 Hz."""
    f = np.asarray(f, dtype=float)
    return (1.0 + 30.0 / (1.0 + (f / 40.0) ** 2) + 40.0 / (1.0 + ((f - 60.0) / 6.0) ** 2)
            + 25.0 / (1.0 + ((f - 350.0) / 12.0) ** 2) + 12.0 / (1.0 + ((f - 1100.0) / 25.0) ** 2))


def aligo_psd(f, floor: float) -> np.ndarray:
    """The aLIGO zero-detuned high-power fit, held constant below ``floor`` Hz.

    S = x^-4.14 - 5 x^-2 + 111 (1 - x^2 + x^4/2) / (1 + x^2/2), with
    x = |f| / 215 Hz, in units of the fit's scale (about 1e-49 /Hz). From a
    0.1 Hz floor to 2048 Hz it spans about 12 decades.
    """
    x = np.maximum(np.abs(np.asarray(f, dtype=np.float64)), floor) / 215.0
    x2 = x * x
    return x ** -4.14 - 5.0 / x2 + 111.0 * (1.0 - x2 + 0.5 * x2 * x2) / (1.0 + 0.5 * x2)
