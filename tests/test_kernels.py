"""The numpy Burg lattice stepper: plain-lattice oracle, degenerate inputs, invariants."""
import numpy as np
import pytest

from mesa.core import DegenerateModelError
from mesa.estimator import burg_lattice


def drain(x, max_order):
    p0, steps = burg_lattice(x, max_order)
    pairs = list(steps)
    return np.array([p0] + [p for p, _ in pairs]), np.array([c for _, c in pairs])


def plain_lattice(x, max_order):
    """The textbook lattice, allocating fresh error arrays at every order."""
    n = x.shape[0]
    p = np.empty(max_order + 1)
    c = np.empty(max_order)
    p[0] = x @ x / n
    f = b = x
    for k in range(max_order):
        fa, ba = f[1:], b[:-1]
        ck = float(np.clip(-2.0 * (fa @ ba) / (fa @ fa + ba @ ba), -1.0, 1.0))
        c[k] = ck
        p[k + 1] = p[k] * (1.0 - ck * ck)
        f, b = fa + ck * ba, ba + ck * fa
    return p, c


@pytest.mark.parametrize("n,order", [(64, 8), (65, 64), (512, 64), (4096, 512)])
def test_matches_plain_lattice_bitwise(n, order):
    x = np.random.default_rng(n).standard_normal(n).cumsum()
    p, c = drain(x, order)
    p_ref, c_ref = plain_lattice(x, order)
    np.testing.assert_array_equal(p, p_ref)
    np.testing.assert_array_equal(c, c_ref)


def test_zero_variance_raises():
    # raised when the recursion starts, before any order is read
    with pytest.raises(DegenerateModelError):
        burg_lattice(np.zeros(32), 4)


def test_perfectly_predictable_raises():
    # alternating signal: errors vanish after the first stage, and the
    # error surfaces only when the next order is asked for
    x = np.array([1.0, -1.0] * 8)
    _, steps = burg_lattice(x, 4)
    assert next(steps) == (0.0, 1.0)
    with pytest.raises(DegenerateModelError):
        next(steps)


def test_constant_series_reflects_fully():
    # equal forward and backward errors give c = -1 and zero power; both
    # errors then vanish, so the next order is degenerate
    _, steps = burg_lattice(np.full(8, 0.7), 4)
    assert next(steps) == (0.0, -1.0)
    with pytest.raises(DegenerateModelError):
        next(steps)


def test_orthogonal_errors_reflect_nothing():
    # the first forward errors (1, -1) and backward errors (1, 1) are orthogonal
    x = np.array([1.0, 1.0, -1.0])
    p0, steps = burg_lattice(x, 1)
    assert next(steps) == (p0, 0.0)


def test_powers_non_increasing_and_reflections_bounded():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.standard_normal(200)
        p, c = drain(x, 50)
        assert np.all(np.abs(c) <= 1.0)
        assert np.all(np.diff(p) <= 1e-12 * p[0])
        assert p[0] == pytest.approx(x @ x / x.size)


def test_readonly_input_left_untouched():
    x = np.random.default_rng(1).standard_normal(256)
    x.flags.writeable = False
    before = x.copy()
    p, c = drain(x, 16)
    assert p.shape == (17,) and c.shape == (16,)
    np.testing.assert_array_equal(x, before)
