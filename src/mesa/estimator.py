"""AR model fitting via the Levinson/Burg recursion.

:func:`fit` runs Burg's recursion: the reflection coefficients come from
the forward/backward prediction errors of the samples themselves, streamed
one order at a time by :func:`burg_lattice`. :func:`fit_from_autocorr` is
the literal Levinson-Durbin solve of the Yule-Walker (Toeplitz normal)
equations on a given autocorrelation sequence, kept as the cross-check
oracle for the Burg route. Both produce a :class:`~mesa.core.RecursionTrace`.
"""
from __future__ import annotations

import numpy as np

from mesa.core import (
    Criterion,
    DegenerateModelError,
    RecursionTrace,
    TimeSeries,
    ValidationError,
    _levinson_update,
)
from mesa.selection import EarlyStopConfig, scan_orders


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
    nfft = 1 << int(2 * n - 1).bit_length()
    spec = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[: max_lag + 1]
    return acov / n


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
    """Yield ``(p_{k+1}, c_k)`` of the Levinson recursion on ``r``, as ``burg_lattice``."""
    a = np.ones(1)
    for _ in range(max_order):
        ck = float(np.clip(reflection_yule_walker(a, r, p), -1.0, 1.0))
        a, p = levinson_step(a, p, ck)
        yield p, ck


def burg_lattice(x: np.ndarray, max_order: int):
    """Start the Burg lattice recursion on ``x``, up to ``max_order``.

    Returns ``(p0, steps)``: the order-0 prediction-error power and a
    generator that yields ``(p_{k+1}, c_k)`` for k = 0..max_order-1, the
    power after each order and the reflection coefficient that reached it.
    An order is computed only when the generator is advanced, so a consumer
    that stops reading stops the recursion. Forward/backward error sequences
    start as the signal itself and lose one usable sample per order.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    p0 = x @ x / x.shape[0]
    if p0 == 0.0:
        raise DegenerateModelError("zero-variance input")
    return p0, _steps(x, p0, max_order)


def _steps(x: np.ndarray, p, max_order: int):
    # errors live in preallocated buffers: b is updated in place, f
    # alternates between two buffers, so no order allocates
    n = x.shape[0]
    f, f_next, b = x.copy(), np.empty(n), x.copy()
    scratch = np.empty(n)
    for k in range(max_order):
        size = n - k - 1
        fa = f[1 : size + 1]
        ba = b[:size]
        den = fa @ fa + ba @ ba
        if den == 0.0:
            raise DegenerateModelError(f"prediction errors vanished at order {k}")
        ck = -2.0 * (fa @ ba) / den
        # |c| <= 1 analytically; clamp the last-ulp excess
        if ck > 1.0:
            ck = 1.0
        elif ck < -1.0:
            ck = -1.0
        p = p * (1.0 - ck * ck)
        yield p, ck
        tmp = scratch[:size]
        np.multiply(ba, ck, out=tmp)
        np.add(fa, tmp, out=f_next[:size])
        np.multiply(fa, ck, out=tmp)
        np.add(ba, tmp, out=ba)
        f, f_next = f_next, f


def _run(p0, steps, dt, n_samples, criterion=None, early_stop=None):
    """Draw orders from ``steps`` into a trace, as far as the scan of ``criterion`` reads."""
    p, c = [p0], []

    def recorded():
        for pk, ck in steps:
            p.append(pk)
            c.append(ck)
            yield pk, ck

    selection = None
    if criterion is None:
        for _ in recorded():
            pass
    else:
        selection = scan_orders(p0, recorded(), criterion, n_samples, early_stop)
    return RecursionTrace(p=np.array(p, dtype=np.float64), c=np.array(c, dtype=np.float64),
                          dt=dt, n_samples=n_samples, selection=selection, early_stop=early_stop)


def fit(
    ts: TimeSeries,
    max_order: int,
    *,
    criterion: Criterion | str | None = None,
    early_stop: EarlyStopConfig | None = None,
) -> RecursionTrace:
    """Run Burg's recursion on ``ts`` up to ``max_order``.

    The Yule-Walker counterpart is ``fit_from_autocorr`` on
    ``sample_autocorrelation(ts, max_order)``.

    The trace holds the powers and reflection coefficients only; each
    order's coefficient vector is rebuilt from them on demand.

    With a ``criterion``, its order-selection scan runs as the orders are
    computed, and the recursion stops where the scan stops: the trace ends
    at the last order the scan read and holds the scan's result, which
    ``select_order(trace, criterion)`` returns. It equals what
    ``select_order`` gives on the full trace with the same ``early_stop``;
    ``early_stop=None`` is ``EarlyStopConfig.default(max_order, criterion)``.
    A ``DegenerateModelError`` is raised only for orders the recursion
    computes, and a loss undefined at every order raises
    ``UndefinedLossError`` here rather than in ``select_order``.
    """
    n = len(ts)
    if not 1 <= max_order <= n - 1:
        raise ValidationError(f"max_order must be in [1, {n - 1}], got {max_order}")
    if criterion is not None:
        criterion = Criterion(criterion)
        if early_stop is None:
            early_stop = EarlyStopConfig.default(max_order, criterion)
    p0, steps = burg_lattice(ts.samples, max_order)
    return _run(p0, steps, ts.dt, n, criterion, early_stop)


def fit_from_autocorr(
    r: np.ndarray,
    max_order: int,
    dt: float = 1.0,
    n_samples: int | None = None,
) -> RecursionTrace:
    """Levinson recursion from a given autocorrelation sequence.

    ``n_samples`` is only metadata (order-selection losses need it); pass
    it when the sequence came from data of known length.
    """
    r = np.asarray(r, dtype=np.float64)
    if not 1 <= max_order <= r.size - 1:
        raise ValidationError(f"max_order must be in [1, {r.size - 1}], got {max_order}")
    if r[0] == 0.0:
        raise DegenerateModelError("zero-variance autocorrelation")
    return _run(r[0], _levinson_steps(r, r[0], max_order), dt, n_samples)


def reflection_coefficients(a: np.ndarray) -> np.ndarray:
    """Recover the reflection coefficients of a coefficient vector (step-down).

    Inverts the Levinson order-update; the model is stable (all roots of
    the prediction error filter outside the unit circle) iff every returned
    value has magnitude strictly below 1.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1 or a.size < 1 or a[0] != 1.0:
        raise ValidationError("a must be a coefficient vector with a[0] == 1")
    m = a.size - 1
    out = np.empty(m)
    cur = a.copy()
    for k in range(m, 0, -1):
        ck = cur[k]
        out[k - 1] = ck
        denom = 1.0 - ck * ck
        if denom == 0.0:
            # |c| == 1: stage is singular; lower orders are unreachable
            out[: k - 1] = 1.0
            break
        cur = (cur[: k] - ck * cur[k:0:-1]) / denom
        cur[0] = 1.0
    return out
