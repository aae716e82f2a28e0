"""AR model fitting via Burg's recursion.

:func:`fit` runs Burg's recursion: the reflection coefficients come from
the forward/backward prediction errors of the samples themselves, one order
at a time (the lattice on short series, Vos's fast Burg on long ones), into
a :class:`~mesa.core.RecursionTrace`.
:func:`reflection_coefficients` inverts the order-update (step-down).
"""
from __future__ import annotations

import math

import numpy as np

from mesa.core import (
    Criterion,
    DegenerateModelError,
    RecursionTrace,
    TimeSeries,
    ValidationError,
    _step_up,
)
from mesa.selection import default_patience, max_order as order_bound, scan_orders


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c that is at least ``n``: numpy's FFT is fast there."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _autocovariance(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Unnormalized sums R_k = sum_t x_t x_{t+k}, k = 0..max_lag, by one FFT.

    The FFT has ``_fft_length(N + max_lag)`` points, the fewest fast lengths
    whose circular correlation leaves lags 0..max_lag free of wrap. R_k
    therefore depends on N and ``max_lag``: calls with equal ``max_lag``
    agree bitwise, calls with different ``max_lag`` only to rounding. The
    power spectrum is formed in place and the lags are copied out, so no
    FFT buffer outlives the call.
    """
    n = x.shape[0]
    nfft = _fft_length(n + max_lag)
    spec = np.fft.rfft(x, nfft)
    np.multiply(spec, spec.conj(), out=spec)
    return np.fft.irfft(spec, nfft)[: max_lag + 1].copy()


# Inputs at least this long run Vos's fast Burg, shorter ones the lattice
# (the per-order cost crosses between N = 8192 and N = 16384). The choice
# depends on N alone and the autocovariance on N and max_order, so a stopped
# fit is a prefix of the full one with the same max_order.
FAST_BURG_MIN_N = 16384
# The fast recursion loses accuracy as its error energy shrinks against its
# order-0 value: an order whose energy would fall below this ratio of it, and
# every later order, runs on the lattice. The energy falls no slower than the
# power (den_k / den_0 <= p_k / p_0), so no order whose power is below this
# ratio of p_0 runs on fast Burg.
FAST_BURG_GUARD_RATIO = 1e-6
# Burg's c_k does not depend on the data's scale. Samples whose largest
# magnitude lies outside this window are fitted as x 2^-e, with max|x| 2^-e
# in [0.5, 1), which a power of two makes exact; inside it no sum of squares
# over- or underflows, and the samples are fitted as given.
_UNSCALED_MAX_ABS = (2.0 ** -300, 2.0 ** 300)


def _steps(x: np.ndarray, a: np.ndarray, max_order: int):
    """The lattice on ``x`` from the order of the prediction error filter ``a``.

    The errors start as ``x`` filtered by ``a`` (forward) and by ``a``
    reversed (backward), so ``a = [1]`` starts at order 0. Yields c_k for
    k = a.size-1..max_order-1, computing an order only when advanced.
    """
    # f[i] and b[i] are the errors at sample k + i, in three buffers no order
    # reallocates: b is updated in place, f and f_next alternate
    f, b = np.convolve(x, a, "valid"), np.convolve(x, a[::-1], "valid")
    f_next = np.empty_like(f)
    for k in range(a.size - 1, max_order):
        size = x.size - k - 1
        fa = f[1 : size + 1]
        ba = b[:size]
        den = fa.dot(fa) + ba.dot(ba)
        if den == 0.0:
            raise DegenerateModelError(f"prediction errors vanished at order {k}")
        ck = float(-2.0 * fa.dot(ba) / den)
        # |c| <= 1 analytically; clamp the last-ulp excess
        if ck > 1.0:
            ck = 1.0
        elif ck < -1.0:
            ck = -1.0
        yield ck
        # f is dead once f_next holds the next order: its head stages c*f
        fn = f_next[:size]
        np.multiply(ba, ck, out=fn)
        np.add(fa, fn, out=fn)
        np.multiply(fa, ck, out=fa)
        np.add(ba, fa, out=ba)
        f, f_next = f_next, f


def _fast_steps(x: np.ndarray, max_order: int):
    """Vos's fast Burg: the lattice's c_k without its error sequences.

    K. Vos, "A Fast Implementation of Burg's Method" (2013). With a = the
    order-k filter, a' = [a, 0] and J the reversal, Burg's c_k is
    -a'.Jg / a'.g for g = Psi a', where Psi is the sum of the forward and
    backward data covariance matrices over the samples order k uses. Psi
    loses two samples per order, so g and Psi's first row r follow from one
    order to the next by O(k) updates, and the row's new last lag is twice
    the autocovariance.

    At the first order k the guard refuses, the generator returns the
    order-k filter it reached; it returns None once it has yielded every order.
    """
    n = x.shape[0]
    acov = _autocovariance(x, max_order)
    xr = x[::-1].copy()  # xr[n-1-t] = x[t]: reversed runs of x as contiguous slices
    buf = np.empty(max_order + 1)  # a, the order-k filter, is the view buf[:k + 1]
    buf[0] = 1.0
    a = buf[:1]
    scratch = np.empty(max_order)
    g = np.array([2.0 * acov[0] - x[0] * x[0] - x[-1] * x[-1], 2.0 * acov[1]])
    r = np.empty(max_order + 1)  # r[m-1] is lag m of Psi's first row
    r[0] = 2.0 * acov[1]
    scale = float(2.0 * acov[0])  # the size of Psi's entries
    for k in range(max_order):
        den = a.dot(g[:-1])  # the forward plus backward error energy of order k
        # a reversed operand stays with ``@``, which sums it in index order:
        # ``.dot`` would copy it and sum by BLAS, and the bits would change
        if den > 0.0:
            ck = min(max(float(-(a @ g[:0:-1]) / den), -1.0), 1.0)
        # den and c come from sums of size ``scale`` by cancellation: the
        # guard refuses an order whose error energy would fall below the
        # guard ratio of that size
        if not (den > 0.0 and den * (1.0 - ck * ck) >= FAST_BURG_GUARD_RATIO * scale):
            return a
        yield ck
        if k + 1 == max_order:
            return None
        # order k+1 drops x_{k+1} from the forward sums and x_{n-k-2} from
        # the backward ones: u and v are the rows of x those samples start
        g = g + ck * g[::-1]
        _step_up(buf, k, ck, scratch)
        a = buf[: k + 2]
        u = xr[n - k - 2 :]
        v = x[n - k - 2 :]
        g -= u * u.dot(a) + v * v.dot(a)
        r[: k + 1] -= x[k + 1] * xr[n - k - 1 :] + x[n - k - 2] * x[n - k - 1 :]
        r[k + 1] = 2.0 * acov[k + 2]
        g = np.append(g, a @ r[k + 1 :: -1])


def _fast_then_lattice(x: np.ndarray, max_order: int):
    """c_k by fast Burg, then by the lattice from the filter it reached when its guard refused."""
    a = yield from _fast_steps(x, max_order)
    if a is not None:
        yield from _steps(x, a, max_order)


def fit(
    ts: TimeSeries,
    max_order: int | None = None,
    *,
    criterion: Criterion | str | None = None,
    patience: float | None = None,
) -> RecursionTrace:
    """Run Burg's recursion on ``ts`` up to ``max_order`` (default 2N/ln(2N)).

    The trace holds the powers and reflection coefficients only; each
    order's coefficient vector is rebuilt from them on demand. The power
    follows p_{k+1} = p_k (1 - c_k^2) on both paths.

    With a ``criterion``, its order-selection scan reads the orders as they
    are computed, and the recursion stops where the scan stops: the trace
    ends at the last order the scan read and holds the scan's result, which
    ``select_order(trace, criterion)`` returns. It equals the scan of the
    full trace with the same ``patience`` (``scan_orders``);
    ``patience=None`` is ``default_patience(max_order, criterion)``. A
    ``patience`` without a ``criterion`` is refused.

    The coefficients do not depend on the data's units: a series scaled by
    2^k has the same ``c`` bit for bit, and its powers are 4^k times as
    large while they stay normal floats. A ``max_order`` that is not an
    integer, or a series whose power x.x/N is not a finite normal float,
    raises ``ValidationError``. A ``DegenerateModelError`` is raised for a
    zero-variance series and, once the recursion is asked for it, for an
    order whose prediction errors vanish: on both paths the order after one
    of exactly zero power, which predicts the series exactly. A loss
    undefined at every order raises ``UndefinedLossError`` here rather than
    in ``select_order``.
    """
    n = len(ts)
    if max_order is None:
        max_order = order_bound(n)
    if not isinstance(max_order, (int, np.integer)):
        raise ValidationError(f"max_order must be an integer, got {max_order!r}")
    max_order = int(max_order)
    if not 1 <= max_order <= n - 1:
        raise ValidationError(f"max_order must be in [1, {n - 1}], got {max_order}")
    if criterion is not None:
        criterion = Criterion(criterion)
        if patience is None:
            patience = default_patience(max_order, criterion)
    elif patience is not None:
        raise ValidationError("patience applies only with a criterion")
    x = ts.samples
    top = max(x.max(), -x.min())
    if top == 0.0:
        raise DegenerateModelError("zero-variance input")
    if _UNSCALED_MAX_ABS[0] <= top <= _UNSCALED_MAX_ABS[1]:
        p0 = x.dot(x) / n
    else:
        e = math.frexp(top)[1]
        x = np.ldexp(x, -e)
        unit_p0 = x.dot(x) / n
        with np.errstate(over="ignore", under="ignore"):
            p0 = np.ldexp(unit_p0, 2 * e)
        if not np.finfo(np.float64).tiny <= p0 < np.inf:
            decades = math.log10(unit_p0) + 2 * e * math.log10(2.0)
            raise ValidationError(f"the series' power x.x/N, about 1e{decades:+.0f}, "
                                  f"is not a finite normal float: rescale the input")
    if n >= FAST_BURG_MIN_N:
        steps = _fast_then_lattice(x, max_order)
    else:
        steps = _steps(x, np.ones(1), max_order)
    p, c = [float(p0)], []

    def orders():
        """``(m, p_m, c_{m-1})`` from order 0, each order recorded as it is computed."""
        yield 0, p[0], None
        for ck in steps:
            p.append(p[-1] * (1.0 - ck * ck))
            c.append(ck)
            yield len(c), p[-1], ck
            if p[-1] == 0.0 and len(c) < max_order:
                raise DegenerateModelError(f"prediction errors vanished at order {len(c)}")

    selection = None
    if criterion is None:
        for _ in orders():
            pass
    else:
        selection = scan_orders(orders(), criterion, n, patience)
    return RecursionTrace(p=p, c=c, dt=ts.dt, n_samples=n, selection=selection)


def reflection_coefficients(a: np.ndarray) -> np.ndarray:
    """Recover the reflection coefficients of a coefficient vector (step-down).

    Inverts the Levinson order-update; the model is stable (all roots of
    the prediction error filter outside the unit circle) iff every returned
    value has magnitude strictly below 1.

    Each stage divides by 1 - c_k^2, so rounding can grow from one order
    to the next. On the models the package builds that growth stays at
    rounding level: on 44 ``random_ar_model`` draws of order <= 300 the
    result matches a 60-digit step-down to 1.8e-16, and on Burg fits of a
    1e5-sample three-peak series it matches the trace's ``c`` to 1.5e-15
    up to order 1000. On constructed sequences the loss is exponential in
    the order: c = -0.5 repeated over 40 orders comes back 0.53 off.
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
