"""Tukey window and Welch PSD; scipy serves as the independent oracle."""
import numpy as np
import pytest
from scipy.signal import welch as scipy_welch
from scipy.signal.windows import tukey as scipy_tukey

from mesa.baseline import tukey_window, welch_psd
from mesa.core import TimeSeries, ValidationError


# --- tukey_window ----------------------------------------------------------

def test_tukey_alpha_zero_is_rectangular():
    np.testing.assert_array_equal(tukey_window(16, 0.0), np.ones(16))


def test_tukey_alpha_one_is_hann():
    n = 15
    w = tukey_window(n, 1.0)
    i = np.arange(n)
    hann = 0.5 * (1 - np.cos(2 * np.pi * i / (n - 1)))
    np.testing.assert_allclose(w, hann, atol=1e-12)
    assert w[0] == 0.0 and w[-1] == pytest.approx(0.0, abs=1e-15)
    assert w[n // 2] == pytest.approx(1.0)


def test_tukey_n8_alpha_half():
    w = tukey_window(8, 0.5)
    assert w[0] == 0.0
    assert w.max() == 1.0
    np.testing.assert_allclose(w, w[::-1], atol=1e-15)
    assert np.all((0.0 <= w) & (w <= 1.0))


@pytest.mark.parametrize("n,alpha", [(8, 0.5), (64, 0.4), (65, 0.25), (7, 1.0), (100, 0.9),
                                     (1, 0.0), (1, 0.5), (1, 1.0)])
def test_tukey_matches_scipy(n, alpha):
    np.testing.assert_allclose(tukey_window(n, alpha), scipy_tukey(n, alpha, sym=True),
                               atol=1e-12)


def test_tukey_validation():
    with pytest.raises(ValidationError):
        tukey_window(0, 0.5)
    with pytest.raises(ValidationError):
        tukey_window(8, -0.1)
    with pytest.raises(ValidationError):
        tukey_window(8, 1.1)


# --- welch_psd --------------------------------------------------------------
# welch_psd is two-sided: unit white noise has density dt at every frequency

def test_welch_white_noise_level():
    dt = 1.0 / 256.0
    x = np.random.default_rng(0).standard_normal(2**17)
    ts = TimeSeries(x, dt=dt)
    sd = welch_psd(ts, tukey_window(1024, 0.4), 0.5)
    interior = sd.values[1:-1]
    assert np.mean(interior) == pytest.approx(dt, rel=0.03)


def test_welch_parseval():
    # the density is even in f: the variance is twice its integral over [0, Nyquist]
    dt = 0.01
    x = np.random.default_rng(1).standard_normal(2**15)
    ts = TimeSeries(x, dt=dt)
    sd = welch_psd(ts, tukey_window(512, 0.4), 0.5)
    total = 2.0 * np.trapezoid(sd.values, sd.freqs)
    assert total == pytest.approx(np.var(x), rel=0.05)


def test_welch_sine_peak_location():
    fs = 1024.0
    t = np.arange(2**14) / fs
    ts = TimeSeries(np.sin(2 * np.pi * 50.0 * t), dt=1.0 / fs)
    sd = welch_psd(ts, tukey_window(256, 0.4), 0.5)
    peak = sd.freqs[np.argmax(sd.values)]
    assert abs(peak - 50.0) <= fs / 256


def test_welch_zero_signal():
    ts = TimeSeries(np.zeros(4096), dt=1.0)
    sd = welch_psd(ts, tukey_window(256, 0.4), 0.5)
    np.testing.assert_array_equal(sd.values, 0.0)


def test_welch_window_scaling_invariance():
    x = np.random.default_rng(2).standard_normal(8192)
    ts = TimeSeries(x, dt=0.5)
    w = tukey_window(512, 0.4)
    a = welch_psd(ts, w, 0.5)
    b = welch_psd(ts, 3.7 * w, 0.5)
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12)


def test_welch_single_rect_segment_is_periodogram():
    x = np.random.default_rng(3).standard_normal(1024)
    dt = 0.125
    ts = TimeSeries(x, dt=dt)
    sd = welch_psd(ts, np.ones(1024), 0.0)
    spec = np.fft.rfft(x)
    raw = np.abs(spec) ** 2 * dt / 1024
    np.testing.assert_allclose(sd.values, raw, rtol=1e-12)


def assert_matches_scipy(segment):
    # scipy's two-sided estimate lists the non-negative DFT frequencies first
    x = np.random.default_rng(4).standard_normal(2**14)
    dt = 1.0 / 512
    ts = TimeSeries(x, dt=dt)
    w = tukey_window(segment, 0.4)
    sd = welch_psd(ts, w, 0.5)
    f_ref, p_ref = scipy_welch(x, fs=1.0 / dt, window=w, nperseg=segment,
                               noverlap=segment - segment // 2, detrend=False,
                               return_onesided=False)
    k = sd.freqs.size
    np.testing.assert_allclose(sd.freqs, np.abs(f_ref[:k]))
    np.testing.assert_allclose(sd.values, p_ref[:k], rtol=1e-10)


def test_welch_matches_scipy():
    assert_matches_scipy(1024)


def test_welch_matches_scipy_on_an_odd_segment():
    # the last bin of an odd segment lies below Nyquist
    assert_matches_scipy(63)


@pytest.mark.parametrize("window", [tukey_window(2, 0.4), np.zeros(2), np.array([1.0, np.nan])],
                         ids=["tukey-2", "zeros", "nan"])
def test_welch_rejects_a_window_without_energy(window):
    ts = TimeSeries(np.random.default_rng(6).standard_normal(64), dt=1.0)
    with pytest.raises(ValidationError, match="window's energy"):
        welch_psd(ts, window, 0.5)


def test_welch_hop_and_errors():
    ts = TimeSeries(np.ones(100), dt=1.0)
    with pytest.raises(ValidationError):
        welch_psd(ts, np.ones(128), 0.5)  # fewer than one full segment
    with pytest.raises(ValidationError):
        welch_psd(ts, np.ones(64), 1.0)  # overlap must stay below 1
    with pytest.raises(ValidationError, match="window must be a 1-D array"):
        welch_psd(ts, np.ones((2, 32)), 0.5)  # the segment length is the window's


def test_welch_detrend_removes_mean_power():
    x = np.random.default_rng(5).standard_normal(8192) + 100.0
    ts = TimeSeries(x, dt=1.0)
    plain = welch_psd(ts, tukey_window(512, 0.4), 0.5)
    detr = welch_psd(ts, tukey_window(512, 0.4), 0.5, detrend=True)
    assert plain.values[0] > 100 * detr.values[0]
