"""The Burg steppers: the lattice bit for bit against the plain-lattice oracle,
degenerate inputs, invariants, and Vos's fast Burg against the oracle."""
import numpy as np
import pytest

from mesa.core import ArModel, DegenerateModelError, TimeSeries
from mesa.estimator import (
    FAST_BURG_GUARD_RATIO,
    FAST_BURG_MIN_N,
    _fast_steps,
    _fast_then_lattice,
    _steps,
    fit,
)
from mesa.selection import max_order
from mesa.spectrum import psd
from mesa.synth import generate_ar, generate_from_psd, random_ar_model

from oracles import (
    FAST_MIN_P_RATIO,
    FAST_TOL,
    aligo_psd,
    drain,
    levinson_step,
    plain_lattice,
    three_peak_curve,
)


def lattice(x, max_order):
    """The lattice's generator on ``x`` from order 0, as ``fit`` starts it."""
    return _steps(np.asarray(x, dtype=np.float64), np.ones(1), max_order)


@pytest.mark.parametrize("n,order", [(64, 8), (65, 64), (512, 64), (4096, 512)])
def test_matches_plain_lattice_bitwise(n, order):
    x = np.random.default_rng(n).standard_normal(n).cumsum()
    trace = fit(TimeSeries(x, 1.0), order)
    p0 = x @ x / n
    p_ref, c_ref = drain(plain_lattice(x, order), p0)
    np.testing.assert_array_equal(trace.p, np.r_[p0, p_ref])
    np.testing.assert_array_equal(trace.c, c_ref)


def test_zero_variance_raises():
    with pytest.raises(DegenerateModelError, match="zero-variance"):
        fit(TimeSeries(np.zeros(32), 1.0), 4)


def test_perfectly_predictable_raises():
    # alternating signal: errors vanish after the first stage, and the
    # error surfaces only when the next order is asked for
    steps = lattice([1.0, -1.0] * 8, 4)
    assert next(steps) == 1.0
    with pytest.raises(DegenerateModelError):
        next(steps)
    assert fit(TimeSeries(np.array([1.0, -1.0] * 8), 1.0), 1).p[1] == 0.0


def test_constant_series_reflects_fully():
    # equal forward and backward errors give c = -1 and zero power; both
    # errors then vanish, so the next order is degenerate
    steps = lattice(np.full(8, 0.7), 4)
    assert next(steps) == -1.0
    with pytest.raises(DegenerateModelError):
        next(steps)
    assert fit(TimeSeries(np.full(8, 0.7), 1.0), 1).p[1] == 0.0


def test_errors_vanish_at_positive_power():
    # order 1 keeps the power of order 0, but its errors at the one sample
    # order 2 would use are both zero: the lattice itself finds them vanish
    ts = TimeSeries(np.array([0.0, 1.0, 0.0]), 1.0)
    assert fit(ts, 1).p[1] == pytest.approx(1.0 / 3.0)
    with pytest.raises(DegenerateModelError, match="vanished at order 1"):
        fit(ts, 2)


def test_orthogonal_errors_reflect_nothing():
    # the first forward errors (1, -1) and backward errors (1, 1) are orthogonal
    x = np.array([1.0, 1.0, -1.0])
    assert next(lattice(x, 1)) == 0.0


def test_powers_non_increasing_and_reflections_bounded():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(200)
        trace = fit(TimeSeries(x, 1.0), 50)
        p, c = trace.p, trace.c
        assert np.all(np.abs(c) <= 1.0)
        assert np.all(np.diff(p) <= 1e-12 * p[0])
        assert p[0] == pytest.approx(x @ x / x.size)


def test_readonly_input_left_untouched():
    x = np.random.default_rng(1).standard_normal(256)
    x.flags.writeable = False
    before = x.copy()
    trace = fit(TimeSeries(x, 1.0), 16)
    assert trace.p.shape == (17,) and trace.c.shape == (16,)
    np.testing.assert_array_equal(x, before)


# --- Vos's fast Burg against the lattice ------------------------------------------

FAST_N = 20_000


def aligo_noise(n):
    """LIGO-like noise: the aLIGO curve with a 0.1 Hz floor, 4096 Hz, seed 1."""
    return generate_from_psd(lambda f: aligo_psd(f, 0.1), n, 1.0 / 4096, rng_seed=1).samples


def fast_input(name):
    rng = np.random.default_rng(31)
    sine = np.sin(2.0 * np.pi * 0.0123 * np.arange(FAST_N))
    if name == "white":
        return rng.standard_normal(FAST_N)
    if name == "three-peak":
        return generate_from_psd(three_peak_curve, FAST_N, 1.0 / 4096, rng_seed=12).samples
    if name.startswith("random-ar-"):
        seed = int(name.rsplit("-", 1)[1])
        return generate_ar(random_ar_model(seed, 2, 200), FAST_N, rng_seed=seed).samples
    if name == "ar2-r0.9995":
        r, theta = 0.9995, 0.3
        model = ArModel(a=[1.0, -2.0 * r * np.cos(theta), r * r], p_m=1.0, dt=1.0)
        return generate_ar(model, FAST_N, rng_seed=32).samples
    if name == "sine-noise-1e-3":
        return sine + 1e-3 * rng.standard_normal(FAST_N)
    if name == "aligo-0.1hz":
        return aligo_noise(FAST_N)
    # the offset and the sine leave p_1 / p_0 near 1e-12: the drift guard must fire
    return 1e6 + sine + 1e-6 * rng.standard_normal(FAST_N)


def fast_run(x, max_order):
    """The reflections fast Burg yields and the filter it hands over, or None."""
    steps, c = _fast_steps(x, max_order), []
    while True:
        try:
            c.append(next(steps))
        except StopIteration as stop:
            return np.array(c), stop.value


@pytest.mark.parametrize("name", ["white", "three-peak", "random-ar-3", "random-ar-8",
                                  "ar2-r0.9995", "sine-noise-1e-3", "sine-noise-1e-6-offset",
                                  "aligo-0.1hz"])
def test_fast_burg_matches_lattice(name):
    x = fast_input(name)
    m = 600
    p0 = x @ x / x.size
    p_ref, c_ref = drain(plain_lattice(x, m), p0)
    p, c = drain(_fast_then_lattice(x, m), p0)
    assert c_ref.size == c.size == m  # no order is degenerate
    held = p_ref >= FAST_MIN_P_RATIO * p0
    assert np.max(np.abs(c - c_ref)[held], initial=0.0) <= FAST_TOL
    assert np.max((np.abs(p - p_ref) / p_ref)[held], initial=0.0) <= FAST_TOL
    assert np.all(np.abs(c) <= 1.0) and np.all(np.diff(p) <= 0.0)

    # fast Burg refuses an order no later than the first whose power is below
    # the guard; the lattice computes that order and the rest, from the errors
    # of the filter the fast recursion reached
    c_fast, a = fast_run(x, m)
    k = m if a is None else a.size - 1
    assert k == c_fast.size and c_fast.tobytes() == c[:k].tobytes()
    low = np.flatnonzero(p < FAST_BURG_GUARD_RATIO * p0)
    assert not low.size or k <= low[0]
    assert k == (0 if name == "sine-noise-1e-6-offset" else m)
    if k < m:
        a_ref = np.ones(1)
        for ck in c[:k]:
            a_ref, _ = levinson_step(a_ref, 1.0, ck)
        assert a.tobytes() == a_ref.tobytes()
        p_tail, c_tail = drain(_steps(x, a_ref, m), p[k - 1] if k else p0)
        assert p[k:].tobytes() == p_tail.tobytes()
        assert c[k:].tobytes() == c_tail.tobytes()


def test_fast_burg_on_detector_noise_hands_over_at_order_one():
    # twelve decades of dynamic range: the power falls below the guard's
    # 1e-6 of p_0 at order 2, so fast Burg computes order 1 alone and the
    # lattice the rest
    n = 100_000
    x = aligo_noise(n)
    trace = fit(TimeSeries(x, 1.0 / 4096), criterion="fpe")
    c_fast, a = fast_run(x, max_order(n))
    assert c_fast.size == 1 and a.size == 2
    p, c = trace.p, trace.c
    assert np.all(np.abs(c) <= 1.0) and np.all(np.diff(p) <= 0.0)
    model = trace.model(trace.selection.chosen_order)
    values = psd(model).values
    assert np.isfinite(values).all() and (values > 0.0).all()
    p0 = x @ x / n
    p_ref, c_ref = drain(plain_lattice(x, c.size), p0)
    held = p_ref >= FAST_MIN_P_RATIO * p0
    assert np.max(np.abs(c - c_ref)[held], initial=0.0) <= FAST_TOL
    assert np.max((np.abs(p[1:] - p_ref) / p_ref)[held], initial=0.0) <= FAST_TOL


def test_fast_burg_hands_over_where_few_samples_remain():
    # near order N the error energy sums over a few samples, far below its
    # order-0 value while p_k is not: the energy guard hands those orders over
    n = 8192
    x = np.random.default_rng(1).standard_normal(n)
    p0 = x @ x / n
    p_ref, c_ref = drain(plain_lattice(x, n - 1), p0)
    p, c = drain(_fast_then_lattice(x, n - 1), p0)
    assert np.max(np.abs(c - c_ref)) <= 1e-4
    assert np.max(np.abs(p - p_ref) / p_ref) <= 1e-4
    # the lattice computes the last 19 orders, where 20 or fewer samples remain
    _, a = fast_run(x, n - 1)
    assert a.size - 1 == 8172


def test_dispatch_depends_on_length_alone():
    # at order 50 the two routes differ in the last bits, so a bitwise match names the route
    x = np.random.default_rng(4).standard_normal(FAST_BURG_MIN_N)
    for n, fast in ((FAST_BURG_MIN_N - 1, False), (FAST_BURG_MIN_N, True)):
        xn = x[:n]
        p0 = xn @ xn / n
        for m in (1, 50):
            by_lattice = drain(lattice(xn, m), p0)
            by_fast = drain(_fast_then_lattice(xn, m), p0)
            p, c = by_fast if fast else by_lattice
            trace = fit(TimeSeries(xn, 1.0), m)
            assert trace.p.tobytes() == np.r_[p0, p].tobytes()
            assert trace.c.tobytes() == c.tobytes()
        assert by_lattice[1].tobytes() != by_fast[1].tobytes()


@pytest.mark.parametrize("n", [FAST_BURG_MIN_N - 1, FAST_BURG_MIN_N + 40],
                         ids=["lattice", "fast-burg"])
@pytest.mark.parametrize("period", [2, 3, 7, 40, 97])
def test_exactly_periodic_series_ends_at_its_period(n, period):
    # an impulse train is predicted exactly at order ``period``: p is 0 there
    # on both paths, and the next order is degenerate
    x = np.zeros(n)
    x[::period] = 714660.0
    with pytest.raises(DegenerateModelError, match=f"vanished at order {period}$"):
        fit(TimeSeries(x, 1.0), 300)
