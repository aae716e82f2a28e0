"""Invariants on arbitrary inputs: the Burg fit on both sides of the size at
which it switches from the lattice to Vos's fast Burg, the FFT route of the
PSD against its direct sum, and the CSV round trip of a series."""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from mesa._io import read_timeseries, write_timeseries_csv
from mesa.core import ArModel, Criterion, DegenerateModelError, TimeSeries, UndefinedLossError
from mesa.estimator import (
    FAST_BURG_GUARD_RATIO,
    FAST_BURG_MIN_N,
    _fast_then_lattice,
    fit,
    reflection_coefficients,
)
from mesa.selection import default_patience, max_order, select_order
from mesa.spectrum import _denominator_direct, frequency_grid, psd
from oracles import FAST_MIN_P_RATIO, FAST_TOL, drain, levinson_step, plain_lattice, scan

# a chosen model whose power is below this fraction of p0 fits a series that is
# perfectly predictable to working precision, and may have no finite positive density
PREDICTABLE_P_RATIO = 1e-12

# magnitudes below 1e-100 are taken as zero: their squares leave the normal
# double range, where no power is resolved
values = st.floats(min_value=-1e6, max_value=1e6).map(lambda v: v if abs(v) >= 1e-100 else 0.0)


@st.composite
def long_series(draw):
    """A series past the fast-Burg threshold: a drawn pattern repeated, plus seeded noise."""
    n = draw(st.integers(FAST_BURG_MIN_N, FAST_BURG_MIN_N + 3000))
    pattern = draw(hnp.arrays(np.float64, st.integers(1, 40), elements=values))
    level = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0, 1e3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.resize(pattern, n) + level * np.random.default_rng(seed).standard_normal(n)


series = st.one_of(hnp.arrays(np.float64, st.integers(4, 400), elements=values), long_series())


@given(series, st.integers(1, 500), st.sampled_from(list(Criterion)))
def test_fit_invariants(x, m, criterion):
    ts = TimeSeries(x, dt=1.0)
    m = min(m, len(x) - 1)
    try:
        full = fit(ts, m)
    except DegenerateModelError:
        return
    assert np.all(np.abs(full.c) <= 1.0)
    assert np.all(np.diff(full.p) <= 0.0) and full.p[-1] >= 0.0

    # the scan stops the recursion on a bitwise prefix of the full one
    try:
        stopped = fit(ts, m, criterion=criterion)
    except UndefinedLossError:
        return
    k = stopped.max_order
    assert stopped.p.tobytes() == full.p[: k + 1].tobytes()
    assert stopped.c.tobytes() == full.c[:k].tobytes()
    sel = select_order(stopped, criterion)
    expected = scan(full.p, criterion, len(x), full.c, default_patience(m, criterion))
    assert sel.to_dict() == expected.to_dict()

    model = stopped.model(sel.chosen_order)
    try:
        spectrum = psd(model).values
    except DegenerateModelError:
        # only a series predictable to working precision has no finite positive density
        assert model.p_m / full.p[0] < PREDICTABLE_P_RATIO
        return
    assert np.all(np.isfinite(spectrum)) and np.all(spectrum > 0.0)


@given(series, st.integers(1, 500))
def test_fast_burg_matches_lattice(x, m):
    m = min(m, max_order(len(x)))
    p0 = x @ x / len(x)
    if p0 == 0.0:
        return
    p_ref, c_ref = drain(plain_lattice(x, m), p0)
    p, c = drain(_fast_then_lattice(x, m), p0)
    k = min(len(p), len(p_ref))
    p, c, p_ref, c_ref = p[:k], c[:k], p_ref[:k], c_ref[:k]
    held = p_ref >= FAST_MIN_P_RATIO * p0
    # rounding relative to p0 is amplified by p0 / p_k: the agreement is FAST_TOL
    # down to ten times the guard ratio and degrades in proportion below it,
    # where both sides run the lattice, from differently rounded errors
    tol = FAST_TOL * np.maximum(1.0, 10.0 * FAST_BURG_GUARD_RATIO * p0 / p_ref[held])
    assert np.all(np.abs(c - c_ref)[held] <= tol)
    assert np.all(np.abs(p - p_ref)[held] / p_ref[held] <= tol)


# the step-down's sensitivity to rounding in the filter grows exponentially
# with the order (c = -0.5 at 40 orders comes back off by 0.5); on this domain
# it stays below 1e-10
@given(hnp.arrays(np.float64, st.integers(1, 16), elements=st.floats(-0.5, 0.5)))
def test_step_down_inverts_step_up(c):
    a, p = np.ones(1), 1.0
    for ck in c:
        a, p = levinson_step(a, p, ck)
    np.testing.assert_allclose(reflection_coefficients(a), c, rtol=0.0, atol=1e-9)


@given(hnp.arrays(np.float64, st.integers(1, 120), elements=st.floats(-0.99, 0.99)),
       st.integers(2, 400), st.sampled_from([1.0, 0.125, 1.0 / 4096]))
def test_psd_fft_route_matches_direct_sum(c, n_pos, dt):
    a = np.ones(1)
    for ck in c:
        a, _ = levinson_step(a, 1.0, ck)
    # the canonical grid on [0, Ny] of any size takes the FFT route, however
    # coarse against the order
    freqs = frequency_grid(n_pos, dt)
    direct = _denominator_direct(a, freqs, dt)
    # |A|^2 is ill-conditioned once sum |a_s| is large: bound the error on that scale
    tol = 1e-12 * np.sum(np.abs(a)) ** 2
    try:
        den = dt / psd(ArModel(a=a, p_m=1.0, dt=dt), freqs).values
    except DegenerateModelError:
        # the FFT rounded |A|^2 to zero somewhere: the direct sum is as small there
        assert direct.min() <= tol
        return
    assert np.all(np.abs(den - direct) <= tol)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(hnp.arrays(np.float64, st.integers(2, 200), elements=finite))
@example(np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.7976931348623157e308]))
def test_csv_round_trip_is_bitwise(x):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        write_timeseries_csv(path, TimeSeries(x, dt=1.0))
        back = read_timeseries(path, dt=1.0).samples
    assert back.tobytes() == x.tobytes()
