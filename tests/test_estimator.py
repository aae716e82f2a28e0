"""Estimator operations against independent oracles.

The oracles stay dumb: autocorrelation as the literal defining sum (here),
Yule-Walker coefficients as a dense Toeplitz solve (``oracles.toeplitz_solve``).
"""
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from mesa.core import DegenerateModelError, TimeSeries, ValidationError
from mesa.estimator import _autocovariance, _fft_length, fit, reflection_coefficients
from mesa.selection import max_order
from oracles import (
    fit_from_autocorr,
    levinson_step,
    reflection_yule_walker,
    sample_autocorrelation,
    toeplitz_solve,
)


def autocorr_oracle(x, max_lag):
    """Defining sum r_k = (1/N) sum_{t=0}^{N-1-k} x_t x_{t+k}."""
    n = len(x)
    return np.array([sum(x[t] * x[t + k] for t in range(n - k)) / n
                     for k in range(max_lag + 1)])


def ar_series(a, n, seed, p_m=1.0):
    noise = np.random.default_rng(seed).standard_normal(n) * np.sqrt(p_m)
    return lfilter([1.0], np.asarray(a), noise)


# --- sample_autocorrelation -------------------------------------------------

def test_autocorr_alternating():
    ts = TimeSeries([1.0, -1.0, 1.0, -1.0], dt=1.0)
    np.testing.assert_allclose(sample_autocorrelation(ts, 1), [1.0, -0.75], atol=1e-12)


def test_autocorr_zero_signal():
    ts = TimeSeries([0.0, 0.0, 0.0, 0.0], dt=1.0)
    np.testing.assert_allclose(sample_autocorrelation(ts, 2), [0.0, 0.0, 0.0], atol=1e-15)


def test_autocorr_constant_closed_form():
    n, c = 37, 1.7
    ts = TimeSeries(np.full(n, c), dt=1.0)
    r = sample_autocorrelation(ts, 5)
    for k in range(6):
        assert r[k] == pytest.approx(c * c * (n - k) / n, rel=1e-12)


def test_autocorr_matches_defining_sum():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(257)
    ts = TimeSeries(x, dt=0.01)
    r = sample_autocorrelation(ts, 40)
    np.testing.assert_allclose(r, autocorr_oracle(x, 40), rtol=1e-11, atol=1e-13)
    assert r[0] >= 0
    assert np.all(np.abs(r[1:]) <= r[0] + 1e-12)


def test_autocorr_lag_out_of_range():
    ts = TimeSeries([1.0, 2.0, 3.0], dt=1.0)
    with pytest.raises(ValidationError):
        sample_autocorrelation(ts, 3)
    with pytest.raises(ValidationError):
        sample_autocorrelation(ts, -1)


# --- fast Burg's FFT autocovariance ------------------------------------------

def five_smooth_at_least(n):
    """Brute force: count up from n to the first 2^a 3^b 5^c."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def test_fft_length_is_the_smallest_five_smooth_length():
    assert [_fft_length(n) for n in range(1, 5001)] == [five_smooth_at_least(n)
                                                       for n in range(1, 5001)]
    # N + max_order at the 1e5 and 1e6 inputs
    assert _fft_length(116_385) == 116_640
    assert _fft_length(1_137_848) == 1_152_000


@pytest.mark.parametrize("n, max_lag", [
    (1, 0), (2, 1), (1000, 999), (1001, 1000),  # max_lag = n - 1
    (600, 75), (600, 76),   # n + max_lag = 675, a fast length, and one past it
    (3000, 456), (3000, 457),  # 3456 = 2^7 3^3, and one past it
])
def test_autocovariance_equals_direct_sums_without_wrap(n, max_lag):
    x = np.random.default_rng(n + max_lag).standard_normal(n) + 0.5
    direct = np.array([x[: n - k] @ x[k:] for k in range(max_lag + 1)])
    r = _autocovariance(x, max_lag)
    assert r.shape == (max_lag + 1,)
    np.testing.assert_allclose(r, direct, rtol=0, atol=1e-12 * direct[0])


def test_autocovariance_owns_only_its_lags():
    # the lags are copied out, so no FFT buffer stays alive behind them
    r = _autocovariance(np.random.default_rng(1).standard_normal(4096), 10)
    assert r.base is None and r.size == 11


# --- levinson_step ----------------------------------------------------------

def test_levinson_step_hand_example():
    a, p = levinson_step(np.ones(1), 1.0, -0.5)
    np.testing.assert_allclose(a, [1.0, -0.5], atol=1e-15)
    assert p == pytest.approx(0.75, abs=1e-15)
    # cross-check against the 1x1 Toeplitz solve with r = (1, 0.5)
    a_ref, p_ref = toeplitz_solve(np.array([1.0, 0.5]), 1)
    np.testing.assert_allclose(a, a_ref, atol=1e-15)
    assert p == pytest.approx(p_ref, abs=1e-15)


def test_levinson_step_zero_reflection():
    a, p = levinson_step(np.ones(1), 1.0, 0.0)
    np.testing.assert_allclose(a, [1.0, 0.0])
    assert p == 1.0


def test_levinson_step_power_never_grows():
    prev = np.array([1.0, -0.5])
    for c in np.linspace(-1, 1, 21):
        _, p = levinson_step(prev, 0.75, c)
        assert p <= 0.75 + 1e-15


def test_levinson_step_validates():
    with pytest.raises(ValidationError):
        levinson_step(np.array([2.0]), 1.0, 0.5)
    with pytest.raises(ValidationError):
        levinson_step(np.ones(1), 1.0, 1.5)
    with pytest.raises(ValidationError):
        levinson_step(np.ones(1), -1.0, 0.5)


# --- reflection coefficients ------------------------------------------------

def test_reflection_yule_walker_order0():
    assert reflection_yule_walker(np.ones(1), np.array([1.0, 0.5]), 1.0) == pytest.approx(-0.5)
    assert reflection_yule_walker(np.ones(1), np.array([2.0, 0.0]), 2.0) == 0.0


def test_reflection_yule_walker_exact_ar1_gains_nothing():
    r = 0.5 ** np.arange(4)  # exact AR(1), b = 0.5
    a = np.array([1.0, -0.5])
    p = float(a @ r[:2])
    assert reflection_yule_walker(a, r, p) == pytest.approx(0.0, abs=1e-15)


def test_reflection_yule_walker_degenerate():
    with pytest.raises(DegenerateModelError):
        reflection_yule_walker(np.ones(1), np.array([1.0, 0.5]), 0.0)


# --- fit --------------------------------------------------------------------

def test_fit_validates_order():
    ts = TimeSeries(np.arange(10.0), dt=1.0)
    with pytest.raises(ValidationError):
        fit(ts, 0)
    with pytest.raises(ValidationError):
        fit(ts, 10)


@pytest.mark.parametrize("n", [3000, 20000], ids=["lattice", "fast-burg"])
@pytest.mark.parametrize("bad", [5.0, np.float64(5.0), "5"], ids=["float", "np.float64", "str"])
def test_fit_refuses_a_non_integer_order(n, bad):
    ts = TimeSeries(np.random.default_rng(6).standard_normal(n), dt=1.0)
    with pytest.raises(ValidationError, match="max_order must be an integer"):
        fit(ts, bad)
    np.testing.assert_array_equal(fit(ts, np.int64(5)).c, fit(ts, 5).c)


@pytest.mark.parametrize("n", [3000, 20000], ids=["lattice", "fast-burg"])
@pytest.mark.parametrize("criterion", [None, "fpe", "obd"])
def test_fit_defaults_to_the_order_bound(n, criterion):
    # max_order=None is selection.max_order(N), and so is the default patience's M
    ts = TimeSeries(ar_series([1.0, -0.9, 0.5], n, seed=11), dt=1.0)
    default = fit(ts, criterion=criterion)
    bounded = fit(ts, max_order(n), criterion=criterion)
    np.testing.assert_array_equal(default.p, bounded.p)
    np.testing.assert_array_equal(default.c, bounded.c)
    if criterion is None:
        assert default.max_order == max_order(n) and default.selection is None
    else:
        assert default.selection.early_stopped and bounded.selection.early_stopped
        np.testing.assert_array_equal(default.selection.losses, bounded.selection.losses)


def test_fit_zero_signal_degenerate():
    ts = TimeSeries(np.zeros(64), dt=1.0)
    with pytest.raises(DegenerateModelError):
        fit(ts, 4)
    with pytest.raises(DegenerateModelError):
        fit_from_autocorr(sample_autocorrelation(ts, 4), 4, ts.dt, len(ts))


def test_fit_white_noise_has_no_structure():
    x = np.random.default_rng(42).standard_normal(100_000)
    trace = fit(TimeSeries(x, dt=1.0), 5)
    assert np.all(np.abs(trace.c) < 0.02)
    assert trace.p[5] == pytest.approx(trace.p[0], rel=0.02)
    assert trace.p[0] == pytest.approx(x @ x / x.size, rel=1e-12)


def test_fit_recovers_ar1():
    x = ar_series([1.0, -0.9], 100_000, seed=3)
    ts = TimeSeries(x, dt=1.0)
    a_burg = fit(ts, 1).coefficients(1)
    a_yw = fit_from_autocorr(sample_autocorrelation(ts, 1), 1, ts.dt, len(ts)).coefficients(1)
    assert a_burg[1] == pytest.approx(-0.9, abs=0.01)
    assert a_yw[1] == pytest.approx(-0.9, abs=0.01)


def test_yule_walker_satisfies_normal_equations():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4096)
    ts = TimeSeries(x, dt=1.0)
    m = 12
    r = sample_autocorrelation(ts, m)
    trace = fit_from_autocorr(r, m, ts.dt, len(ts))
    a = trace.coefficients(m)
    full = np.concatenate([r[m:0:-1], r])  # r_{-m}..r_{m}
    for lag in range(m + 1):
        residual = sum(a[s] * full[m + lag - s] for s in range(m + 1))
        target = trace.p[m] if lag == 0 else 0.0
        assert residual == pytest.approx(target, abs=1e-9 * r[0])


def test_yule_walker_equals_dense_toeplitz_solve():
    rng = np.random.default_rng(17)
    x = rng.standard_normal(2048)
    r = sample_autocorrelation(TimeSeries(x, dt=1.0), 30)
    trace = fit_from_autocorr(r, 30)
    for m in (1, 5, 17, 30):
        a_ref, p_ref = toeplitz_solve(r, m)
        np.testing.assert_allclose(trace.coefficients(m), a_ref, rtol=1e-10, atol=1e-12)
        assert trace.p[m] == pytest.approx(p_ref, rel=1e-10)


def test_burg_agrees_with_yule_walker_on_long_ar_data():
    a_true = np.array([1.0, -0.6, 0.3, -0.1])
    x = ar_series(a_true, 200_000, seed=8)
    ts = TimeSeries(x, dt=1.0)
    a_b = fit(ts, 3).coefficients(3)
    a_y = fit_from_autocorr(sample_autocorrelation(ts, 3), 3, ts.dt, len(ts)).coefficients(3)
    np.testing.assert_allclose(a_b[1:], a_y[1:], rtol=0.02)
    np.testing.assert_allclose(a_b[1:], a_true[1:], rtol=0.05)


def test_fit_scale_equivariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1000)
    alpha = 7.3
    t1 = fit(TimeSeries(x, dt=1.0), 8)
    t2 = fit(TimeSeries(alpha * x, dt=1.0), 8)
    np.testing.assert_allclose(t2.c, t1.c, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(t2.p, alpha**2 * t1.p, rtol=1e-10)
    np.testing.assert_allclose(t2.coefficients(8), t1.coefficients(8), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("n", [3000, 20000], ids=["lattice", "fast-burg"])
def test_fit_does_not_depend_on_the_data_units(n):
    # a power of two rescales exactly: c is the unit-scale fit's bit for bit and
    # p is 4^k times it, also where x.x over- or underflows at that scale
    ts = TimeSeries(ar_series([1.0, -0.9, 0.5], n, seed=11), dt=1.0)
    unit = fit(ts, 40)
    for k in (-510, -400, 400, 505):
        scaled = fit(TimeSeries(np.ldexp(ts.samples, k), dt=1.0), 40)
        np.testing.assert_array_equal(scaled.c, unit.c)
        np.testing.assert_array_equal(scaled.p, np.ldexp(unit.p, 2 * k))


@pytest.mark.parametrize("scale", [2.0 ** -520, 1e-170, 1e160], ids=["2^-520", "1e-170", "1e160"])
def test_fit_refuses_a_power_outside_the_float_range(scale):
    ts = TimeSeries(scale * ar_series([1.0, -0.9, 0.5], 3000, seed=11), dt=1.0)
    with pytest.raises(ValidationError, match=r"power x\.x/N, about 1e[+-]\d+, is not a finite normal float"):
        fit(ts, 10)


def test_fit_refuses_a_patience_without_a_criterion():
    # without a scan there is nothing to stop, so the patience would be ignored
    ts = TimeSeries(np.random.default_rng(5).standard_normal(200), dt=1.0)
    with pytest.raises(ValidationError, match="patience applies only with a criterion"):
        fit(ts, 20, patience=10)


def test_fit_coefficients_replay_levinson_chain():
    x = np.random.default_rng(6).standard_normal(500)
    trace = fit(TimeSeries(x, dt=1.0), 10)
    a = np.ones(1)
    for k in range(11):
        np.testing.assert_array_equal(trace.coefficients(k), a)
        if k < 10:
            a, _ = levinson_step(a, 1.0, trace.c[k])


def test_fit_state_is_linear_in_order():
    # the trace keeps p and c only: no O(M^2) store of every order's vector
    n = 8000
    ts = TimeSeries(np.random.default_rng(8).standard_normal(n), dt=1.0)
    m = max_order(n)
    tracemalloc.start()
    try:
        trace = fit(ts, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.max_order == m
    assert peak < 2_000_000, f"fit peak {peak / 1e6:.1f} MB at M={m}"


def test_fast_burg_peak_is_sized_to_the_lags_it_reads():
    # the autocovariance FFT has _fft_length(N + M) = 116,640 points: this
    # fit's traced peak is about 2.1 MB, against 6.3 MB with 2^18 points
    n = 100_000
    ts = TimeSeries(np.random.default_rng(10).standard_normal(n), dt=1.0)
    tracemalloc.start()
    try:
        fit(ts, max_order(n), criterion="fpe")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, f"fit peak {peak / 1e6:.1f} MB at N={n}"


def test_reflection_coefficients_inverts_replay():
    rng = np.random.default_rng(13)
    c_true = rng.uniform(-0.9, 0.9, size=7)
    a = np.ones(1)
    for ck in c_true:
        a, _ = levinson_step(a, 1.0, ck)
    np.testing.assert_allclose(reflection_coefficients(a), c_true, rtol=1e-9, atol=1e-12)
