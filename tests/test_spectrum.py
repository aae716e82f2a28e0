"""MESA PSD evaluation and the autocorrelation constraint."""
import tracemalloc

import numpy as np
import pytest

from mesa import _io
from mesa.core import (
    ArModel,
    DegenerateModelError,
    SpectralDensity,
    TimeSeries,
    ValidationError,
)
from mesa.estimator import fit
from mesa.spectrum import default_grid_size, frequency_grid, psd
from oracles import AccuracyError, autocorr_from_psd, fit_from_autocorr, sample_autocorrelation


def direct_psd_oracle(model, freqs):
    """Literal evaluation of p_m dt / |sum a_s z^s|^2, one frequency at a time."""
    out = np.empty(len(freqs))
    for j, f in enumerate(freqs):
        z = np.exp(2j * np.pi * f * model.dt)
        acc = sum(model.a[s] * z**s for s in range(model.a.size))
        out[j] = model.p_m * model.dt / abs(acc) ** 2
    return out


# --- frequency_grid -----------------------------------------------------------

def test_grid_examples():
    np.testing.assert_allclose(frequency_grid(3, 0.5), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(frequency_grid(2, 1.0), [0.0, 0.5])
    with pytest.raises(ValidationError):
        frequency_grid(1, 0.5)
    with pytest.raises(ValidationError):
        frequency_grid(4, 0.0)


def test_default_grid_size():
    assert default_grid_size(10) == 1025
    assert default_grid_size(1000) == 4001


# --- psd ------------------------------------------------------------------------

def test_psd_order_zero_is_flat():
    model = ArModel(a=[1.0], p_m=2.0, dt=0.5)
    grid = np.linspace(-1.0, 1.0, 129)  # Ny = 1
    sd = psd(model, grid)
    np.testing.assert_allclose(sd.values, 1.0, rtol=1e-12)
    # flat-spectrum integral over [-Ny, Ny] recovers r_0 = p_0
    assert np.trapezoid(sd.values, grid) == pytest.approx(2.0, rel=1e-12)


def test_psd_hand_values_ar1():
    model = ArModel(a=[1.0, -0.5], p_m=0.75, dt=1.0)
    sd = psd(model, np.array([0.0, 0.5]))
    assert sd.values[0] == pytest.approx(3.0, abs=1e-9)
    assert sd.values[1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_psd_of_perfectly_predictable_model_raises():
    # a constant series: order 1 predicts it exactly, and FPE chooses it
    trace = fit(TimeSeries(np.ones(4), dt=1.0), 1, criterion="fpe")
    model = trace.model(trace.selection.chosen_order)
    assert model.p_m == 0.0
    with pytest.raises(DegenerateModelError):
        psd(model)


def test_psd_even_in_frequency():
    model = ArModel(a=[1.0, -0.4, 0.2], p_m=1.3, dt=0.25)
    f = np.array([-1.7, -0.3, 0.3, 1.7])
    sd = psd(model, f)
    np.testing.assert_array_equal(sd.values[:2], sd.values[:1:-1])


def test_psd_fast_path_matches_direct_summation():
    rng = np.random.default_rng(21)
    x = rng.standard_normal(2000)
    trace = fit(TimeSeries(x, dt=0.1), 24)
    model = trace.model(24)
    grid = frequency_grid(257, 0.1)
    fast = psd(model, grid).values
    # unaligned grid falls back to direct summation
    jitter = grid.copy()
    jitter[1] *= 1.0 + 1e-6
    direct = psd(model, jitter).values
    assert np.max(np.abs(fast[2:] - direct[2:]) / fast[2:]) < 1e-10
    np.testing.assert_allclose(fast, direct_psd_oracle(model, grid), rtol=1e-12)
    # a symmetric grid over [-Ny, Ny] takes the direct sum
    grid2 = np.linspace(-5.0, 5.0, 513)
    np.testing.assert_allclose(psd(model, grid2).values,
                               direct_psd_oracle(model, grid2), rtol=1e-11)


@pytest.mark.parametrize("n_freqs", [2, 9])
def test_psd_fast_path_on_grid_coarser_than_order(n_freqs):
    # the FFT has fewer points than the order-24 filter has coefficients
    x = np.random.default_rng(21).standard_normal(2000)
    model = fit(TimeSeries(x, dt=0.1), 24).model(24)
    grid = frequency_grid(n_freqs, 0.1)
    np.testing.assert_allclose(psd(model, grid).values, direct_psd_oracle(model, grid), rtol=1e-11)


def test_direct_route_memory_is_bounded_at_high_order():
    rng = np.random.default_rng(4)
    model = ArModel(a=np.r_[1.0, 1e-3 * rng.standard_normal(1024)], p_m=1.0, dt=1.0)
    freqs = np.linspace(0.0, 0.49, 4096)  # stops short of Nyquist: the direct sum
    tracemalloc.start()
    try:
        values = psd(model, freqs).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of 4096 frequencies at this order takes 134 MB of complex phases
    assert peak < 10e6
    np.testing.assert_allclose(values[::512], direct_psd_oracle(model, freqs[::512]), rtol=1e-12)


def test_fft_route_memory_is_a_few_results():
    model = ArModel(a=[1.0, -0.9, 0.5], p_m=1.0, dt=1.0)
    freqs = frequency_grid(2**20 + 1, 1.0)
    tracemalloc.start()
    try:
        sd = psd(model, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result is 8.4 MB and the FFT's complex output 16.8 MB; the density
    # is formed in the magnitude buffer and kept by SpectralDensity uncopied
    assert peak < 32e6
    np.testing.assert_allclose(sd.values[::65536], direct_psd_oracle(model, freqs[::65536]),
                               rtol=1e-12)


def test_psd_default_grid():
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
    sd = psd(model)
    assert len(sd) == default_grid_size(1)
    assert sd.freqs[0] == 0.0 and sd.freqs[-1] == 0.5


def test_psd_rejects_frequencies_beyond_nyquist():
    model = ArModel(a=[1.0], p_m=1.0, dt=1.0)
    with pytest.raises(ValidationError):
        psd(model, np.array([0.0, 0.6]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_psd_rejects_a_non_finite_frequency(bad):
    # every comparison with NaN is false, so the band test must hold, not fail
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=0.1)
    with pytest.raises(ValidationError, match="finite"):
        psd(model, np.array([0.0, 1.0, bad]))


def test_psd_positive_when_reflections_inside_circle():
    rng = np.random.default_rng(31)
    x = rng.standard_normal(4000)
    trace = fit(TimeSeries(x, dt=1.0), 32)
    assert np.all(np.abs(trace.c) < 1)
    sd = psd(trace.model(32))
    assert np.all(sd.values > 0)


# --- autocorr_from_psd ------------------------------------------------------------

def test_flat_spectrum_autocorrelation():
    grid = np.linspace(-1.0, 1.0, 4097)  # Ny = 1
    sd = SpectralDensity(freqs=grid, values=np.full(grid.size, 3.0))
    r = autocorr_from_psd(sd, [0, 1, 2])
    assert r[0] == pytest.approx(2.0 * 1.0 * 3.0, rel=1e-12)
    assert abs(r[1]) < 1e-6 * r[0]
    assert abs(r[2]) < 1e-6 * r[0]


def test_model_psd_reproduces_sample_autocorrelation():
    # the Yule-Walker fit satisfies the normal equations exactly, so quadrature
    # of its PSD must give back the sample autocorrelation at lags 0..m
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4096)
    ts = TimeSeries(x, dt=1.0)
    m = 8
    r = sample_autocorrelation(ts, m)
    trace = fit_from_autocorr(r, m, ts.dt, len(ts))
    sd = psd(trace.model(m), np.linspace(-0.5, 0.5, 2**14 + 1))
    rho = autocorr_from_psd(sd, np.arange(m + 1))
    np.testing.assert_allclose(rho, r, rtol=1e-3, atol=1e-3 * r[0])


def test_yule_walker_residuals_from_model_psd():
    # both fits: sum_s a_s rho_{r-s} = p_m delta_{r0} with rho from quadrature
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4096)
    ts = TimeSeries(x, dt=0.5)
    m = 6
    yule_walker = fit_from_autocorr(sample_autocorrelation(ts, m), m, ts.dt, len(ts))
    for trace in (fit(ts, m), yule_walker):
        model = trace.model(m)
        sd = psd(model, np.linspace(-1.0, 1.0, 2**14 + 1))
        rho = autocorr_from_psd(sd, np.arange(-m, m + 1))
        a = model.a
        for lag in range(m + 1):
            acc = sum(a[s] * rho[m + lag - s] for s in range(m + 1))
            target = model.p_m if lag == 0 else 0.0
            assert acc == pytest.approx(target, abs=1e-3 * model.p_m)


def test_parseval():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(4096)
    trace = fit(TimeSeries(x, dt=2.0), 16)
    sd = psd(trace.model(16), np.linspace(-0.25, 0.25, 2**13 + 1))
    total = np.trapezoid(sd.values, sd.freqs)
    rho0 = autocorr_from_psd(sd, [0])[0]
    assert total == pytest.approx(rho0, rel=1e-12)
    assert total == pytest.approx(trace.p[0], rel=1e-2)


def test_autocorr_grid_validation():
    grid = np.linspace(-0.5, 0.5, 64)
    sd = SpectralDensity(freqs=grid, values=np.ones(64))
    with pytest.raises(AccuracyError):
        autocorr_from_psd(sd, [20])  # 64 < 8 * 20
    half = SpectralDensity(freqs=[0.0, 0.25, 0.5], values=[1.0, 1.0, 1.0])
    with pytest.raises(ValidationError, match="symmetric about 0"):
        autocorr_from_psd(half, [0])


# --- the one-sided fold of the PSD file -----------------------------------------------

def emitted(tmp_path, sd, dt):
    path = tmp_path / "psd.csv"
    _io.write_psd_csv(path, sd, dt)
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_emitted_fold_doubles_inside_the_band_and_conserves_power(tmp_path):
    model = ArModel(a=[1.0, -0.7], p_m=1.0, dt=1.0)
    two = psd(model, frequency_grid(513, 1.0))
    one = emitted(tmp_path, two, 1.0)
    np.testing.assert_array_equal(one[:, 0], two.freqs)
    assert one[0, 1] == two.values[0]
    assert one[-1, 1] == two.values[-1]
    np.testing.assert_array_equal(one[1:-1, 1], 2 * two.values[1:-1])
    # the table writer under it writes the values as they are
    _io.write_table(tmp_path / "table.csv", ("frequency_hz", "psd"), (two.freqs, two.values))
    np.testing.assert_array_equal(np.loadtxt(tmp_path / "table.csv", delimiter=",", skiprows=1),
                                  np.column_stack([two.freqs, two.values]))
    # total power matches the symmetric integral up to the undoubled-endpoint
    # discretization (shrinks with the grid)
    sym = psd(model, np.linspace(-0.5, 0.5, 1025))
    assert np.trapezoid(one[:, 1], one[:, 0]) == pytest.approx(
        np.trapezoid(sym.values, sym.freqs), rel=5e-3)


@pytest.mark.parametrize("n, dt, last_doubled", [(64, 1.0, False), (63, 1.0, True),
                                                 (100, 0.003, False), (100, 0.007, False),
                                                 (101, 0.007, True)])
def test_emitted_fold_reads_nyquist_from_dt(tmp_path, n, dt, last_doubled):
    # an odd-length DFT grid ends below Nyquist, and an even one can miss it by
    # an ulp either way: rfftfreq(100, dt)[-1] is 166.66666666666669 at dt 0.003
    # and 71.42857142857142 at dt 0.007, against 166.66666666666666 and
    # 71.42857142857143
    freqs = np.fft.rfftfreq(n, dt)
    one = emitted(tmp_path, SpectralDensity(freqs=freqs, values=np.ones(freqs.size)), dt)
    assert one[0, 1] == 1.0
    np.testing.assert_array_equal(one[1:-1, 1], 2.0)
    assert one[-1, 1] == (2.0 if last_doubled else 1.0)
