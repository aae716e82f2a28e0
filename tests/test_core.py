"""Domain type invariants and JSON round-trips."""
import json
import re
import tracemalloc

import numpy as np
import pytest

from mesa.core import (
    ArModel,
    ForecastEnsemble,
    OrderSelection,
    RecursionTrace,
    SpectralDensity,
    TimeSeries,
    ValidationError,
)
from mesa.estimator import reflection_coefficients
from mesa.forecast import forecast
from mesa.selection import select_order
from mesa.synth import generate_from_psd


def test_timeseries_valid():
    ts = TimeSeries(samples=[0.0, 1.0, 2.0], dt=0.5)
    assert len(ts) == 3


@pytest.mark.parametrize(
    "samples,dt",
    [
        ([1.0], 1.0),            # too short
        ([1.0, 2.0], 0.0),       # dt not positive
        ([1.0, 2.0], -1.0),
        ([1.0, 2.0], np.inf),
        ([1.0, np.nan], 1.0),    # non-finite sample
        ([1.0, np.inf], 1.0),
    ],
)
def test_timeseries_invalid(samples, dt):
    with pytest.raises(ValidationError):
        TimeSeries(samples=samples, dt=dt)


def test_timeseries_immutable():
    ts = TimeSeries(samples=[0.0, 1.0], dt=1.0)
    with pytest.raises(ValueError):
        ts.samples[0] = 5.0
    with pytest.raises(AttributeError):
        ts.dt = 2.0


def test_armodel_valid():
    m = ArModel(a=[1.0, -0.5, 0.25], p_m=0.75, dt=1.0)
    assert m.order == 2
    np.testing.assert_allclose(m.b, [0.5, -0.25])


@pytest.mark.parametrize(
    "a,p_m,dt",
    [
        ([0.5, 1.0], 1.0, 1.0),   # a[0] != 1
        ([1.0, 0.1], -1.0, 1.0),  # negative power
        ([1.0, 0.1], 1.0, 0.0),
        ([1.0, np.nan], 1.0, 1.0),
        ([], 1.0, 1.0),
    ],
)
def test_armodel_invalid(a, p_m, dt):
    with pytest.raises(ValidationError):
        ArModel(a=a, p_m=p_m, dt=dt)


def test_complex_values_are_refused():
    # a cast to float64 would drop the imaginary part and keep another model
    with pytest.raises(ValidationError, match="complex"):
        ArModel(a=np.array([1.0, 0.5j]), p_m=1.0, dt=1.0)
    with pytest.raises(ValidationError, match="complex"):
        TimeSeries(samples=[1.0 + 1.0j, 2.0], dt=1.0)
    with pytest.raises(ValidationError, match="complex"):
        SpectralDensity(freqs=[0.0, 1.0], values=np.array([1.0, 1.0], dtype=complex))


def test_trace_invariants():
    tr = RecursionTrace(p=[2.0, 1.5, 1.5], c=[-0.5, 0.0], dt=1.0, n_samples=100)
    assert tr.max_order == 2
    for k, vec in enumerate(([1.0], [1.0, -0.5], [1.0, -0.5, 0.0])):
        np.testing.assert_array_equal(tr.coefficients(k), vec)
    m = tr.model(1)
    assert m.order == 1 and m.p_m == 1.5

    with pytest.raises(ValidationError):
        RecursionTrace(p=[1.0, 2.0], c=[0.5], dt=1.0, n_samples=100)  # increasing p
    with pytest.raises(ValidationError):
        RecursionTrace(p=[1.0, 0.5], c=[1.5], dt=1.0, n_samples=100)  # |c| > 1
    with pytest.raises(ValidationError):
        RecursionTrace(p=[1.0, -0.5], c=[0.5], dt=1.0, n_samples=100)  # negative power


def test_trace_replay_matches_hand_built_vectors():
    rng = np.random.default_rng(7)
    c = rng.uniform(-0.8, 0.8, size=6)
    p = np.empty(7)
    p[0] = 1.0
    for k, ck in enumerate(c):
        p[k + 1] = p[k] * (1 - ck * ck)
    coeffs = [np.ones(1)]
    for ck in c:
        prev = coeffs[-1]
        coeffs.append(np.concatenate([prev, [0.0]]) + ck * np.concatenate([[0.0], prev[::-1]]))
    trace = RecursionTrace(p=p, c=c, dt=1.0, n_samples=100)
    for k in range(7):
        np.testing.assert_array_equal(trace.coefficients(k), coeffs[k])


def test_spectral_density_invariants():
    sd = SpectralDensity(freqs=[0.0, 0.5, 1.0], values=[1.0, 2.0, 0.5])
    assert len(sd) == 3 and not hasattr(sd, "sided")
    with pytest.raises(ValidationError):
        SpectralDensity(freqs=[0.0, 0.0, 1.0], values=[1.0, 1.0, 1.0])
    with pytest.raises(ValidationError):
        SpectralDensity(freqs=[0.0, 1.0], values=[1.0, -0.1])
    # every density is two-sided, so a grid may cover negative frequencies
    both = SpectralDensity(freqs=[-1.0, 0.0, 1.0], values=[1.0, 2.0, 1.0])
    assert both.freqs[0] == -1.0


def test_order_selection_argmin_checked():
    # the chosen order is derived, so a selection cannot disagree with its losses
    assert OrderSelection(criterion="fpe", losses=[3.0, 1.0, 2.0]).chosen_order == 1
    with pytest.raises(TypeError):
        OrderSelection(criterion="fpe", losses=[3.0, 1.0, 2.0], chosen_order=2)
    # first minimum wins ties
    assert OrderSelection(criterion="fpe", losses=[2.0, 1.0, 1.0]).chosen_order == 1
    # NaN marks undefined orders (CAT at 0)
    assert OrderSelection(criterion="cat", losses=[np.nan, -1.0, 0.0]).chosen_order == 1
    with pytest.raises(ValidationError):
        OrderSelection(criterion="cat", losses=[np.nan, np.nan])


def test_forecast_ensemble_invariants():
    ens = ForecastEnsemble(realizations=np.zeros((3, 4)))
    assert ens.n_realizations == 3 and ens.horizon == 4
    with pytest.raises(ValidationError):
        ForecastEnsemble(realizations=np.zeros((0, 4)))
    with pytest.raises(ValidationError):
        ForecastEnsemble(realizations=np.full((2, 2), np.nan))


def test_forecast_ensemble_owns_its_matrix():
    # a writable array, or a read-only view of one, is copied
    writable = np.zeros((2, 3))
    view = writable[:, :]
    view.flags.writeable = False
    ensembles = [ForecastEnsemble(realizations=writable), ForecastEnsemble(realizations=view)]
    writable[0, 0] = 5.0
    for ens in ensembles:
        assert ens.realizations[0, 0] == 0.0
        assert not ens.realizations.flags.writeable
    # a read-only array that owns its memory is kept as it is
    sealed = np.ones((2, 3))
    sealed.flags.writeable = False
    assert ForecastEnsemble(realizations=sealed).realizations is sealed


# a valid array for each checked field, and the message its non-finite values raise
FINITE_CHECKS = {
    "samples": (np.arange(5.0), lambda v: TimeSeries(samples=v, dt=1.0),
                "samples must be finite (no NaN/Inf)"),
    "a": (np.array([1.0, 0.5, 0.25]), lambda v: ArModel(a=v, p_m=1.0, dt=1.0),
          "coefficients must be finite"),
    "p": (np.array([1.0, 0.5, 0.25]),
          lambda v: RecursionTrace(p=v, c=[0.5, 0.5], dt=1.0, n_samples=100), "p must be finite"),
    "freqs": (np.arange(5.0), lambda v: SpectralDensity(freqs=v, values=np.ones(5)),
              "frequencies must be finite"),
    "values": (np.ones(5), lambda v: SpectralDensity(freqs=np.arange(5.0), values=v),
               "PSD values must be finite"),
    "realizations": (np.zeros((3, 5)), lambda v: ForecastEnsemble(realizations=v),
                     "realizations must be finite"),
}


@pytest.mark.parametrize("field", FINITE_CHECKS)
@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_values_rejected_anywhere(field, position, bad):
    valid, build, message = FINITE_CHECKS[field]
    build(valid)
    values = valid.copy()
    values.flat[{"first": 0, "middle": values.size // 2, "last": -1}[position]] = bad
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(values)


AR1 = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
SEED = TimeSeries([0.5, 1.0], dt=1.0)


# requests the library refuses but the CLI's parser never passes on
@pytest.mark.parametrize("call, message", [
    (lambda: forecast(AR1, SEED, 0, 4, rng_seed=0), "horizon must be >= 1"),
    (lambda: forecast(AR1, SEED, 3, 0, rng_seed=0), "need at least one realization"),
    (lambda: RecursionTrace(p=[1.0, 0.5], c=[0.5], dt=1.0, n_samples=100).coefficients(2),
     "outside trace range"),
    (lambda: select_order(RecursionTrace(p=[1.0], c=[], dt=1.0, n_samples=100), "fpe"),
     "trace must hold at least order 1"),
    (lambda: reflection_coefficients([2.0, 0.1]), "a[0] == 1"),
    (lambda: generate_from_psd(lambda f: np.ones(3), 64, 1.0, 0), "one value per frequency"),
], ids=["horizon", "realizations", "trace-order", "empty-trace", "leading-coefficient",
        "target-length"])
def test_library_refusals(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


def test_forecast_ensemble_checks_finiteness_without_a_mask():
    sealed = np.zeros((1000, 1000))
    sealed.flags.writeable = False
    tracemalloc.start()
    try:
        ForecastEnsemble(realizations=sealed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a boolean mask of the matrix alone would take 1 MB
    assert peak < 100_000


def test_json_roundtrips_are_exact():
    # ArModel round-trips (the CLI writes and reads it); OrderSelection is written only
    m = ArModel(a=[1.0, -np.pi / 7], p_m=np.e / 11, dt=0.001)
    back = ArModel.from_dict(json.loads(json.dumps(m.to_dict())))
    np.testing.assert_array_equal(back.a, m.a)
    assert back.p_m == m.p_m and back.dt == m.dt

    sel = OrderSelection(criterion="cat", losses=[np.nan, -0.5, 0.1], early_stopped=True)
    assert json.loads(json.dumps(sel.to_dict())) == {
        "criterion": "cat", "losses": [None, -0.5, 0.1], "chosen_order": 1,
        "early_stopped": True}
