"""Conditional forecasting: recursion, determinism, calibration."""
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from mesa._rng import make_rng
from mesa.cli import main
from mesa.core import ArModel, ForecastEnsemble, TimeSeries, ValidationError
from mesa.forecast import TOLERANCE, forecast, forecast_summary, rounding_bound
from mesa.synth import generate_ar, random_ar_model


def shift_loop_forecast(model, seed, horizon, n_realizations, rng_seed, noise_scale):
    """Oracle: a state matrix holding x_{t-1}..x_{t-m}, shifted right after every step."""
    m = model.order
    noise = np.empty((n_realizations, horizon))
    for i in range(n_realizations):
        noise[i] = make_rng(rng_seed, i).standard_normal(horizon)
    noise *= noise_scale * np.sqrt(model.p_m)
    out = np.empty((n_realizations, horizon))
    state = np.tile(seed.samples[len(seed) - m :][::-1], (n_realizations, 1))
    for t in range(horizon):
        nxt = state @ model.b + noise[:, t] if m else noise[:, t]
        out[:, t] = nxt
        if m:
            state[:, 1:] = state[:, :-1]
            state[:, 0] = nxt
    return out


def test_noiseless_ar1_recursion():
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
    seed = TimeSeries([0.0, 1.0], dt=1.0)
    ens = forecast(model, seed, horizon=3, n_realizations=4, rng_seed=0, noise_scale=0.0)
    for row in ens.realizations:
        np.testing.assert_allclose(row, [0.5, 0.25, 0.125], atol=1e-15)


def test_order_zero_noiseless_is_zero():
    model = ArModel(a=[1.0], p_m=2.0, dt=1.0)
    seed = TimeSeries([3.0, 4.0], dt=1.0)
    ens = forecast(model, seed, horizon=5, n_realizations=3, rng_seed=1, noise_scale=0.0)
    np.testing.assert_array_equal(ens.realizations, 0.0)


def test_one_step_moments():
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
    x_last = 2.0
    seed = TimeSeries([0.0, x_last], dt=1.0)
    ens = forecast(model, seed, horizon=1, n_realizations=100_000, rng_seed=7)
    draws = ens.realizations[:, 0]
    assert draws.mean() == pytest.approx(0.5 * x_last, abs=3.0 / np.sqrt(100_000) + 1e-3)
    assert draws.var() == pytest.approx(1.0, rel=0.02)


def test_determinism_bit_identical():
    model = ArModel(a=[1.0, -0.8, 0.2], p_m=0.5, dt=0.5)
    seed = TimeSeries(np.arange(10.0), dt=0.5)
    a = forecast(model, seed, 20, 50, rng_seed=123)
    b = forecast(model, seed, 20, 50, rng_seed=123)
    np.testing.assert_array_equal(a.realizations, b.realizations)
    c = forecast(model, seed, 20, 50, rng_seed=124)
    assert not np.array_equal(a.realizations, c.realizations)


@pytest.mark.parametrize("order", [0, 1, 2, 64])
@pytest.mark.parametrize("horizon", [1, 70])
@pytest.mark.parametrize("noise_scale", [0.0, 1.0])
def test_forecast_bitwise_equal_to_shift_loop(order, horizon, noise_scale):
    if order < 2:
        model = ArModel(a=[1.0, -0.6][: order + 1], p_m=1.7, dt=0.5)
    else:
        model = ArModel(a=random_ar_model(order, p_min=order, p_max=order).a, p_m=1.0, dt=0.5)
    seed = TimeSeries(np.random.default_rng(order).standard_normal(order + 30), dt=0.5)
    ens = forecast(model, seed, horizon, 9, rng_seed=17, noise_scale=noise_scale)
    expected = shift_loop_forecast(model, seed, horizon, 9, 17, noise_scale)
    if order == 0:
        assert ens.realizations.tobytes() == expected.tobytes()
    else:  # superposition rounds differently from the recursion (measured <= 7.1e-16 of max|y|)
        np.testing.assert_allclose(ens.realizations, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())


def impulse_response(b, horizon):
    """h_0 = 1, h_t = sum_i b_i h_{t-i}: the response of 1/A(z), by direct recursion."""
    h = np.zeros(horizon)
    h[0] = 1.0
    for t in range(1, horizon):
        k = min(t, b.size)
        h[t] = b[:k] @ h[t - 1 :: -1][:k]
    return h


def ar_from_roots(*roots):
    return np.real(np.poly(roots))


def conjugate_pair(r, theta=0.3):
    return ar_from_roots(r * np.exp(1j * theta), r * np.exp(-1j * theta))


@pytest.mark.parametrize("a,horizon", [
    ([1.0, -0.9999], 3000),
    (conjugate_pair(0.9995), 1000),
    (conjugate_pair(0.9995), 5000),
    (conjugate_pair(0.99999), 1000),
    (conjugate_pair(0.99999), 5000),
    (ar_from_roots(0.9999, 0.9999), 8000),
    ([1.0, -1.0], 1000),
    ([1.0, -2.0, 1.0], 1000),
    (random_ar_model(3, p_min=512, p_max=512).a, 1000),
], ids=["ar1-0.9999", "r0.9995-H1000", "r0.9995-H5000", "r0.99999-H1000", "r0.99999-H5000",
        "double-0.9999", "unit-root", "double-unit-root", "random-ar512"])
def test_forecast_matches_recursion_on_hard_models(a, horizon):
    # on every step the error stays within the stated bound times that step's
    # spread sigma_t, plus rounding of the noiseless continuation z
    model = ArModel(a=a, p_m=1.3, dt=1.0)
    seed = TimeSeries(3 * np.random.default_rng(5).standard_normal(model.order + 40), dt=1.0)
    got = forecast(model, seed, horizon, 8, rng_seed=3).realizations
    expected = shift_loop_forecast(model, seed, horizon, 8, 3, 1.0)
    h = impulse_response(model.b, horizon)
    bound = rounding_bound(h)
    assert bound <= TOLERANCE
    sigma = np.sqrt(model.p_m * np.cumsum(h * h))
    z_rounding = 16 * np.finfo(np.float64).eps * np.abs(expected).max()
    assert np.all(np.abs(got - expected) <= bound * sigma + z_rounding)


@pytest.mark.parametrize("b", [1.05, 1.5])
def test_forecast_rejects_explosive_models(b, tmp_path):
    # h grows as b^t, so the convolution's rounding would swamp the spread
    model = ArModel(a=[1.0, -b], p_m=1.0, dt=1.0)
    seed = TimeSeries([0.5, 1.0], dt=1.0)
    with pytest.raises(ValidationError, match=r"max\|h\|"):
        forecast(model, seed, 1000, 4, rng_seed=0)
    mpath, data = tmp_path / "model.json", tmp_path / "seed.csv"
    mpath.write_text(json.dumps(model.to_dict()))
    data.write_text("0.5\n1.0\n")
    assert main(["forecast", "--model", str(mpath), "--in", str(data), "--dt", "1.0",
                 "--horizon", "1000", "--n-realizations", "4", "--seed", "0",
                 "--out", str(tmp_path / "fc.csv")]) == 2
    assert not (tmp_path / "fc.csv").exists()


@pytest.mark.parametrize("noise_scale", [-1.0, math.nan, math.inf])
def test_forecast_refuses_a_noise_scale_before_drawing(monkeypatch, noise_scale):
    def no_draw(*args):
        raise AssertionError("noise was drawn before noise_scale was checked")

    # the package exports the function under the module's name
    monkeypatch.setattr(importlib.import_module("mesa.forecast"), "make_rng", no_draw)
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
    with pytest.raises(ValidationError, match=f"noise_scale must be finite and >= 0, got {noise_scale}"):
        forecast(model, TimeSeries([0.5, 1.0], dt=1.0), 10, 4, rng_seed=0, noise_scale=noise_scale)


def test_members_independent_of_ensemble_size():
    model = random_ar_model(32, p_min=32, p_max=32)
    seed = TimeSeries(np.random.default_rng(32).standard_normal(100), dt=1.0)
    full = forecast(model, seed, 200, 130, rng_seed=8).realizations
    for n_realizations in (1, 3, 64, 65, 100):
        part = forecast(model, seed, 200, n_realizations, rng_seed=8).realizations
        assert part.tobytes() == full[:n_realizations].tobytes(), n_realizations


def test_seed_shorter_than_order_rejected():
    model = ArModel(a=[1.0, -0.1, -0.1, -0.1], p_m=1.0, dt=1.0)
    with pytest.raises(ValidationError):
        forecast(model, TimeSeries([1.0, 2.0], dt=1.0), 1, 1, 0)


def test_predictive_std_non_decreasing():
    model = ArModel(a=[1.0, -0.9], p_m=1.0, dt=1.0)
    data = generate_ar(model, 50, burn_in=500, rng_seed=11)
    ens = forecast(model, data, horizon=30, n_realizations=10_000, rng_seed=12)
    stds = ens.realizations.std(axis=0)
    assert np.all(np.diff(stds) > -0.02 * stds[:-1])
    # long-horizon spread approaches the stationary std 1/sqrt(1-b^2)
    assert stds[-1] == pytest.approx(1.0 / np.sqrt(1 - 0.81), rel=0.05)


def test_one_step_residual_variance_matches_power():
    model = ArModel(a=[1.0, -0.6, 0.25], p_m=1.0, dt=1.0)
    data = generate_ar(model, 100_000, burn_in=1000, rng_seed=21)
    x = data.samples
    pred = 0.6 * x[1:-1] - 0.25 * x[:-2]
    resid = x[2:] - pred
    assert resid.var() == pytest.approx(1.0, rel=0.03)


# --- forecast_summary -------------------------------------------------------

def test_summary_identical_realizations():
    ens_matrix = np.tile([1.5, 2.5, 3.5], (4, 1))
    ens = ForecastEnsemble(realizations=ens_matrix)
    s = forecast_summary(ens, (0.05, 0.95))
    np.testing.assert_array_equal(s.median, [1.5, 2.5, 3.5])
    np.testing.assert_array_equal(s.quantiles[0], [1.5, 2.5, 3.5])
    np.testing.assert_array_equal(s.quantiles[1], [1.5, 2.5, 3.5])


def test_summary_two_realizations_interpolates():
    ens = ForecastEnsemble(realizations=np.array([[0.0, 0.0], [1.0, 1.0]]))
    s = forecast_summary(ens, (0.25,))
    np.testing.assert_allclose(s.median, [0.5, 0.5])
    np.testing.assert_allclose(s.quantiles[0], [0.25, 0.25])


def test_summary_validation():
    single = ForecastEnsemble(realizations=np.zeros((1, 3)))
    with pytest.raises(ValidationError):
        forecast_summary(single)
    pair = ForecastEnsemble(realizations=np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        forecast_summary(pair, (0.0, 0.95))


def test_summary_column_names_are_distinct():
    ens = ForecastEnsemble(realizations=np.zeros((2, 3)))
    assert forecast_summary(ens).column_names() == ["step", "median", "q05", "q95"]
    s = forecast_summary(ens, (0.001, 0.05, 0.051, 0.07, 0.5, 0.999))
    assert s.column_names() == ["step", "median", "q00.1", "q05", "q05.1", "q07", "q50", "q99.9"]
    with pytest.raises(ValidationError):
        forecast_summary(ens, (0.05, 0.95, 0.05))


def test_band_coverage_quick():
    # 90% band from the true model covers ~90% of fresh continuations
    model = ArModel(a=[1.0, -0.7, 0.1], p_m=1.0, dt=1.0)
    data = generate_ar(model, 200, burn_in=500, rng_seed=31)
    band = forecast_summary(forecast(model, data, 10, 500, rng_seed=32), (0.05, 0.95))
    fresh = forecast(model, data, 10, 2000, rng_seed=33).realizations
    inside = (fresh >= band.quantiles[0]) & (fresh <= band.quantiles[1])
    assert 0.85 <= inside.mean() <= 0.95


def test_band_coverage_calibrated_at_scale():
    # with a large band ensemble the q-span coverage lands within q +/- 0.02
    model = ArModel(a=[1.0, -0.7, 0.1], p_m=1.0, dt=1.0)
    data = generate_ar(model, 200, burn_in=500, rng_seed=41)
    band = forecast_summary(forecast(model, data, 20, 1000, rng_seed=42), (0.05, 0.95))
    fresh = forecast(model, data, 20, 10_000, rng_seed=43).realizations
    inside = (fresh >= band.quantiles[0]) & (fresh <= band.quantiles[1])
    assert inside.mean() == pytest.approx(0.90, abs=0.02)


# --- one R x H matrix from the draw to the summary --------------------------

def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, after one warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_realizations, horizon", [
    (2, 1),
    (1000, 200),    # a block is 65 steps, so the last block is short
    (70_000, 3),    # more members than a block holds: one step per block
])
@pytest.mark.parametrize("levels", [(), (0.05, 0.95), (0.001, 0.25, 0.5, 0.999)])
def test_summary_blocks_equal_one_quantile_call(n_realizations, horizon, levels):
    rng = np.random.default_rng(n_realizations + horizon)
    r = rng.standard_normal((n_realizations, horizon)).cumsum(axis=1)
    s = forecast_summary(ForecastEnsemble(realizations=r), levels)
    table = np.quantile(r, (0.5, *levels), axis=0)
    assert s.median.tobytes() == table[0].tobytes()
    assert s.quantiles.shape == (len(levels), horizon)
    assert s.quantiles.tobytes() == table[1:].tobytes()


MEMBERS = STEPS = 1000
MATRIX_BYTES = MEMBERS * STEPS * 8


def test_forecast_peak_is_one_matrix():
    model = ArModel(a=[1.0, -0.6, 0.25], p_m=1.0, dt=1.0)
    seed = TimeSeries(np.random.default_rng(3).standard_normal(50), dt=1.0)
    peak = traced_peak(lambda: forecast(model, seed, STEPS, MEMBERS, rng_seed=4))
    assert peak < 1.25 * MATRIX_BYTES


def test_summary_copies_a_block_not_the_matrix():
    ens = ForecastEnsemble(realizations=np.random.default_rng(5).standard_normal((MEMBERS, STEPS)))
    peak = traced_peak(lambda: forecast_summary(ens, (0.05, 0.95)))
    assert peak < 2_000_000  # 1/4 of the matrix


def test_forecast_hands_over_a_sealed_matrix():
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
    r = forecast(model, TimeSeries([0.0, 1.0], dt=1.0), 4, 3, rng_seed=0).realizations
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0, 0] = 1.0
