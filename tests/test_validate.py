"""Error metrics and experiment harness plumbing."""
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from mesa import spectrum
from mesa._rng import derive_seed
from mesa.core import SpectralDensity, ValidationError
from mesa.estimator import fit
from mesa.selection import max_order, select_order
from mesa.synth import generate_from_psd
from mesa.validate import (
    gaussian_bump,
    relative_error_freq_avg,
    run_gaussian_experiment,
    run_order_recovery,
)
from oracles import relative_error_ensemble


def sd(values, freqs=None):
    values = np.asarray(values, dtype=float)
    if freqs is None:
        freqs = np.arange(values.size, dtype=float)
    return SpectralDensity(freqs=freqs, values=values)


# --- metrics -----------------------------------------------------------------

def test_freq_avg_error_examples():
    truth = sd([1.0, 2.0])
    assert relative_error_freq_avg(truth, truth) == 0.0
    assert relative_error_freq_avg(sd([2.0, 4.0]), truth) == pytest.approx(1.0)
    assert relative_error_freq_avg(sd([2.0, 1.0]), truth) == pytest.approx(0.75)


def test_freq_avg_error_validation():
    truth = sd([1.0, 2.0])
    with pytest.raises(ValidationError):
        relative_error_freq_avg(sd([1.0, 2.0], freqs=np.array([0.0, 2.0])), truth)
    with pytest.raises(ValidationError):
        relative_error_freq_avg(truth, sd([0.0, 1.0]))


def test_ensemble_error_examples():
    truth = sd([1.0, 2.0, 4.0])
    zero = relative_error_ensemble([truth, truth], truth)
    np.testing.assert_array_equal(zero.values, 0.0)
    single = relative_error_ensemble([sd([1.5, 2.0, 4.0])], truth)
    np.testing.assert_allclose(single.values, [0.5, 0.0, 0.0])
    eps = 0.1
    pair = relative_error_ensemble(
        [sd(truth.values * (1 + eps)), sd(truth.values * (1 - eps))], truth)
    np.testing.assert_allclose(pair.values, eps, rtol=1e-12)


def test_curve_mean_equals_record_mean():
    # both statistics average the same |S_i - S|/S deviations
    res = run_gaussian_experiment(4, 600, "fpe", rng_seed=5)
    assert np.mean(res.error_curve.values) == pytest.approx(np.mean(res.errors), rel=1e-12)


# --- harnesses -----------------------------------------------------------------

def test_gaussian_experiment_single_realization():
    res = run_gaussian_experiment(1, 600, "fpe", rng_seed=1)
    assert len(res.records) == 1
    est_error = res.records[0].error
    np.testing.assert_allclose(np.mean(res.error_curve.values), est_error, rtol=1e-12)
    # ensemble mean of one estimate equals that estimate
    truth = gaussian_bump(2.5, 0.5)(res.mean_psd.freqs)
    np.testing.assert_allclose(np.abs(res.mean_psd.values - truth) / truth,
                               res.error_curve.values, rtol=1e-12)


def test_gaussian_experiment_reproducible():
    a = run_gaussian_experiment(3, 600, "fpe", rng_seed=7)
    b = run_gaussian_experiment(3, 600, "fpe", rng_seed=7)
    assert [r.order for r in a.records] == [r.order for r in b.records]
    np.testing.assert_array_equal(a.errors, b.errors)
    c = run_gaussian_experiment(3, 600, "fpe", rng_seed=8)
    assert not np.array_equal(a.errors, c.errors)


def test_gaussian_running_sums_equal_the_stacked_statistics():
    # the harness keeps running sums; they match np.mean over the stacked
    # PSDs and relative_error_ensemble byte for byte
    n_real, n_samples, n_freqs, seed = 9, 600, 257, 11
    res = run_gaussian_experiment(n_real, n_samples, "obd", rng_seed=seed, n_freqs=n_freqs)
    curve = gaussian_bump(2.5, 0.5)
    truth = SpectralDensity(freqs=res.mean_psd.freqs, values=curve(res.mean_psd.freqs))
    estimates = []
    for i in range(n_real):
        trace = fit(generate_from_psd(curve, n_samples, 0.125, derive_seed(seed, i)),
                    max_order(n_samples), criterion="obd")
        estimates.append(spectrum.psd(trace.model(select_order(trace, "obd").chosen_order),
                                      truth.freqs))
    stacked = np.mean([est.values for est in estimates], axis=0)
    assert res.mean_psd.values.tobytes() == stacked.tobytes()
    assert (res.error_curve.values.tobytes()
            == relative_error_ensemble(estimates, truth).values.tobytes())
    assert list(res.errors) == [relative_error_freq_avg(est, truth) for est in estimates]


def test_gaussian_experiment_memory_does_not_grow_with_realizations():
    def peak(n_realizations):
        tracemalloc.start()
        try:
            run_gaussian_experiment(n_realizations, 600, "fpe", rng_seed=3, n_freqs=4097)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_gaussian_experiment(2, 600, "fpe", rng_seed=3, n_freqs=4097)  # warm-up
    small, large = peak(10), peak(100)
    assert large < 1.5 * small, f"peak {small / 1e6:.2f} MB at R=10, {large / 1e6:.2f} MB at R=100"


def test_order_recovery_records():
    records = run_order_recovery(3, 2, 20, 4000, rng_seed=3)
    assert len(records) == 3
    for j, rec in enumerate(records):
        assert rec.index == j
        assert 2 <= rec.p_true <= 20
        # the criteria of the acceptance study, whose CAT reading is cat-invsum
        assert list(rec.p_hat) == ["fpe", "cat-invsum", "obd"]
    again = run_order_recovery(3, 2, 20, 4000, rng_seed=3)
    assert [asdict(r) for r in again] == [asdict(r) for r in records]


def test_order_recovery_empty():
    assert run_order_recovery(0, 2, 20, 4000, rng_seed=3) == ()


@pytest.mark.parametrize("mu, sigma", [(2.5, 0.0), (2.5, -0.5), (2.5, np.inf), (2.5, np.nan),
                                       (np.inf, 0.5), (np.nan, 0.5)])
def test_gaussian_bump_needs_finite_mu_and_positive_finite_sigma(mu, sigma):
    with pytest.raises(ValidationError, match="finite mu and a finite sigma > 0"):
        gaussian_bump(mu, sigma)
    with pytest.raises(ValidationError, match="finite mu and a finite sigma > 0"):
        run_gaussian_experiment(1, 200, "fpe", rng_seed=0, mu=mu, sigma=sigma)


def test_gaussian_bump_curve():
    curve = gaussian_bump(2.5, 0.5)
    assert curve(np.array([2.5]))[0] == 1.0
    assert curve(np.array([-2.5]))[0] == 1.0  # even in f
    assert curve(np.array([0.0]))[0] == pytest.approx(np.exp(-12.5))
