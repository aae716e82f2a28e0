"""Synthetic data generation: colored noise, AR simulation, random models."""
import numpy as np
import pytest

from mesa._io import read_psd_csv
from mesa.core import ArModel, SpectralDensity, ValidationError
from mesa.estimator import reflection_coefficients
from mesa.synth import generate_ar, generate_from_psd, random_ar_model, tabulated_curve
from oracles import aligo_psd


def periodogram(samples, dt):
    """Two-sided periodogram |X_k|^2 dt / n on the rfft grid."""
    n = samples.size
    return np.abs(np.fft.rfft(samples)) ** 2 * dt / n


# --- generate_from_psd -------------------------------------------------------

def test_flat_target_variance():
    sigma2, dt, n = 2.0, 0.5, 4096
    target = lambda f: np.full(np.shape(f), sigma2 * dt)
    acc = 0.0
    reps = 1000
    for i in range(reps):
        ts = generate_from_psd(target, n, dt, rng_seed=1000 + i)
        acc += ts.samples.var()
    assert acc / reps == pytest.approx(sigma2, rel=0.02)


def test_zero_target_gives_zero_series():
    ts = generate_from_psd(lambda f: np.zeros(np.shape(f)), 64, 1.0, rng_seed=0)
    np.testing.assert_array_equal(ts.samples, 0.0)


def test_gaussian_bump_ensemble_periodogram():
    mu, sigma, dt, n = 2.5, 0.5, 0.1, 3000
    curve = lambda f: np.exp(-0.5 * ((np.asarray(f) - mu) / sigma) ** 2)
    freqs = np.fft.rfftfreq(n, dt)
    acc = np.zeros(freqs.size)
    reps = 500
    for i in range(reps):
        ts = generate_from_psd(curve, n, dt, rng_seed=i)
        acc += periodogram(ts.samples, dt)
    mean_pg = acc / reps
    band = (freqs >= 1.5) & (freqs <= 3.5)
    ratio = mean_pg[band] / curve(freqs[band])
    # band-averaged agreement within 5%; the bias term catches normalization bugs
    assert np.mean(np.abs(ratio - 1.0)) < 0.05
    assert np.mean(ratio) == pytest.approx(1.0, abs=0.01)


def test_ensemble_periodogram_converges_like_sqrt_k():
    dt, n = 1.0, 1024
    target = lambda f: np.full(np.shape(f), dt)
    freqs = np.fft.rfftfreq(n, dt)
    errs = {}
    for k in (10, 100, 1000):
        acc = np.zeros(freqs.size)
        for i in range(k):
            acc += periodogram(generate_from_psd(target, n, dt, rng_seed=7000 + i).samples, dt)
        errs[k] = np.mean(np.abs(acc / k - dt) / dt)
    assert errs[100] < errs[10]
    assert errs[1000] < errs[100]
    # rate roughly 1/sqrt(K): two decades of K shrink the error ~10x
    assert errs[1000] < errs[10] / 4


def test_generate_from_psd_validation():
    flat = lambda f: np.ones(np.shape(f))
    with pytest.raises(ValidationError):
        generate_from_psd(flat, 63, 1.0, 0)  # odd n
    with pytest.raises(ValidationError):
        generate_from_psd(lambda f: -np.ones(np.shape(f)), 64, 1.0, 0)


def test_generate_from_psd_deterministic():
    flat = lambda f: np.ones(np.shape(f))
    a = generate_from_psd(flat, 256, 1.0, 99).samples
    b = generate_from_psd(flat, 256, 1.0, 99).samples
    np.testing.assert_array_equal(a, b)


def test_tabulated_psd_interpolation():
    tab = tabulated_curve(SpectralDensity(freqs=[0.0, 1.0, 2.0], values=[0.0, 2.0, 4.0]))
    np.testing.assert_allclose(tab(np.array([0.5, 1.5, 3.0])), [1.0, 3.0, 4.0])
    # negative frequencies evaluate at |f|
    np.testing.assert_allclose(tab(np.array([-1.0])), [2.0])
    log = tabulated_curve(SpectralDensity(freqs=[1.0, 10.0, 100.0], values=[1.0, 10.0, 100.0]),
                          "loglog")
    assert log(np.array([31.622776601683793]))[0] == pytest.approx(31.6227766, rel=1e-6)
    with pytest.raises(ValidationError):
        tabulated_curve(SpectralDensity(freqs=[0.0, 1.0], values=[1.0, 1.0]), "loglog")


@pytest.mark.parametrize("freqs, values, interpolation, message", [
    ([1.0], [1.0], "linear", "need at least two tabulation points"),
    ([-1.0, 1.0], [1.0, 1.0], "linear", "tabulation must start at or near 0"),
    ([0.0, 1.0], [1.0, 1.0], "loglog", "table starts at 0 Hz; linear interpolation"),
    ([1.0, 2.0, 3.0], [1.0, 0.0, 1.0], "loglog", "PSD values > 0, but the table holds 0 at 2 Hz"),
])
def test_tabulated_curve_names_what_it_refuses(freqs, values, interpolation, message):
    with pytest.raises(ValidationError, match=message):
        tabulated_curve(SpectralDensity(freqs=freqs, values=values), interpolation)


def test_loglog_curve_is_the_log_interpolation_bit_for_bit():
    # a detector-like table spanning more than 10 decades
    freqs = np.geomspace(0.1, 2048.0, 300)
    values = aligo_psd(freqs, 0.1)
    assert values.max() / values.min() > 1e10
    curve = tabulated_curve(SpectralDensity(freqs=freqs, values=values), "loglog")
    f = np.concatenate([[0.0, 0.05], np.linspace(-3000.0, 3000.0, 4001)])
    want = np.exp(np.interp(np.log(np.maximum(np.abs(f), freqs[0])), np.log(freqs), np.log(values)))
    np.testing.assert_array_equal(curve(f), want)


def test_tabulated_psd_keeps_its_own_copy():
    freqs, values = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    tab = tabulated_curve(SpectralDensity(freqs=freqs, values=values))
    freqs[:] = [0.0, 5.0, 10.0]
    values[:] = -5.0
    np.testing.assert_array_equal(tab(np.array([0.5, 1.5])), [1.5, 2.5])


def test_tabulated_psd_is_read_only(tmp_path):
    path = tmp_path / "psd.csv"
    path.write_text("frequency_hz,psd\n0,1\n1,2\n2,3\n")
    tab = read_psd_csv(path, None)
    with pytest.raises(ValueError):
        tab.freqs[0] = 10.0
    with pytest.raises(ValueError):
        tab.values[0] = -1.0


# --- generate_ar --------------------------------------------------------------

def test_generate_ar_white_noise():
    model = ArModel(a=[1.0], p_m=1.0, dt=1.0)
    ts = generate_ar(model, 100_000, rng_seed=1)
    assert ts.samples.var() == pytest.approx(1.0, rel=0.02)


def test_generate_ar_ar1_autocorrelation():
    model = ArModel(a=[1.0, -0.9], p_m=1.0, dt=1.0)
    ts = generate_ar(model, 100_000, burn_in=1000, rng_seed=2)
    x = ts.samples
    r0 = x @ x / x.size
    r1 = x[:-1] @ x[1:] / x.size
    assert r1 / r0 == pytest.approx(0.9, abs=0.01)


def test_generate_ar_zero_power_is_zero():
    model = ArModel(a=[1.0, -0.5], p_m=0.0, dt=1.0)
    ts = generate_ar(model, 100, rng_seed=3)
    np.testing.assert_array_equal(ts.samples, 0.0)


def test_generate_ar_rejects_unstable_model():
    model = ArModel(a=[1.0, -1.1], p_m=1.0, dt=1.0)  # root inside the unit circle
    with pytest.raises(ValidationError):
        generate_ar(model, 100, rng_seed=4)


def test_generate_ar_burn_in_reaches_stationarity():
    model = ArModel(a=[1.0, -0.9], p_m=1.0, dt=1.0)
    burn = int(50 / (1 - 0.9))
    acc_first = acc_second = 0.0
    reps = 40
    for i in range(reps):
        x = generate_ar(model, 20_000, burn_in=burn, rng_seed=100 + i).samples
        acc_first += x[:10_000].var()
        acc_second += x[10_000:].var()
    assert acc_first / acc_second == pytest.approx(1.0, abs=0.05)


# --- random_ar_model -----------------------------------------------------------

def test_random_model_simplex_property():
    model = random_ar_model(5, p_min=2, p_max=2)
    assert model.order == 2
    assert np.sum(np.abs(model.a[1:])) == pytest.approx(1.0, abs=1e-12)
    assert model.p_m == 1.0


def test_random_model_stability_against_root_oracle():
    for seed in range(30):
        model = random_ar_model(seed, p_min=2, p_max=64)
        roots = np.roots(model.a[::-1])
        assert np.max(1.0 / np.abs(roots)) < 1.0
        assert np.max(np.abs(reflection_coefficients(model.a))) < 1.0


def test_random_model_order_distribution():
    orders = [random_ar_model(seed, 2, 500).order for seed in range(60)]
    assert min(orders) >= 2 and max(orders) <= 500
    # log-uniform: roughly half the draws land below sqrt(2*500) ~ 32
    below = sum(o <= 32 for o in orders)
    assert 15 <= below <= 45


def test_random_model_default_range_smoke():
    model = random_ar_model(123)  # default range [2, 5000]
    assert 2 <= model.order <= 5000


def test_random_model_validation():
    with pytest.raises(ValidationError):
        random_ar_model(0, p_min=1, p_max=10)
    with pytest.raises(ValidationError):
        random_ar_model(0, p_min=10, p_max=5)
