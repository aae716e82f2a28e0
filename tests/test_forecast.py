"""Conditional forecasting: recursion, determinism, calibration."""
import numpy as np
import pytest

from mesa._rng import make_rng
from mesa.core import ArModel, TimeSeries, ValidationError
from mesa.forecast import forecast, forecast_summary
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
        model = random_ar_model(order, p_min=order, p_max=order, dt=0.5)
    seed = TimeSeries(np.random.default_rng(order).standard_normal(order + 30), dt=0.5)
    ens = forecast(model, seed, horizon, 9, rng_seed=17, noise_scale=noise_scale)
    expected = shift_loop_forecast(model, seed, horizon, 9, 17, noise_scale)
    assert ens.realizations.tobytes() == expected.tobytes()


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
    model = ArModel(a=[1.0], p_m=1.0, dt=1.0)
    ens_matrix = np.tile([1.5, 2.5, 3.5], (4, 1))
    from mesa.core import ForecastEnsemble

    ens = ForecastEnsemble(realizations=ens_matrix, seed_length=0, model=model)
    s = forecast_summary(ens, (0.05, 0.95))
    np.testing.assert_array_equal(s.median, [1.5, 2.5, 3.5])
    np.testing.assert_array_equal(s.quantiles[0], [1.5, 2.5, 3.5])
    np.testing.assert_array_equal(s.quantiles[1], [1.5, 2.5, 3.5])


def test_summary_two_realizations_interpolates():
    from mesa.core import ForecastEnsemble

    model = ArModel(a=[1.0], p_m=1.0, dt=1.0)
    ens = ForecastEnsemble(realizations=np.array([[0.0, 0.0], [1.0, 1.0]]),
                           seed_length=0, model=model)
    s = forecast_summary(ens, (0.25,))
    np.testing.assert_allclose(s.median, [0.5, 0.5])
    np.testing.assert_allclose(s.quantiles[0], [0.25, 0.25])


def test_summary_validation():
    from mesa.core import ForecastEnsemble

    model = ArModel(a=[1.0], p_m=1.0, dt=1.0)
    single = ForecastEnsemble(realizations=np.zeros((1, 3)), seed_length=0, model=model)
    with pytest.raises(ValidationError):
        forecast_summary(single)
    pair = ForecastEnsemble(realizations=np.zeros((2, 3)), seed_length=0, model=model)
    with pytest.raises(ValidationError):
        forecast_summary(pair, (0.0, 0.95))


def test_summary_column_names_are_distinct():
    from mesa.core import ForecastEnsemble

    model = ArModel(a=[1.0], p_m=1.0, dt=1.0)
    ens = ForecastEnsemble(realizations=np.zeros((2, 3)), seed_length=0, model=model)
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
