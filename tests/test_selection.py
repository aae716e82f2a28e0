"""Order-selection losses, the order bound, and the early-stop scan."""
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from mesa._rng import derive_seed
from mesa.core import (
    Criterion,
    DegenerateModelError,
    RecursionTrace,
    TimeSeries,
    UndefinedLossError,
    ValidationError,
)
from mesa.estimator import FAST_BURG_MIN_N, fit
from mesa.selection import default_patience, max_order, select_order
from mesa.synth import generate_ar, generate_from_psd, random_ar_model

from oracles import (
    levinson_step,
    loss_cat,
    loss_cat_inverse_sum,
    loss_fpe,
    loss_obd,
    scan,
    three_peak_curve,
)


def make_trace(p, c, n):
    return RecursionTrace(p=p, c=c, dt=1.0, n_samples=n)


# --- max_order ---------------------------------------------------------------

def test_max_order_values():
    assert max_order(3000) == 689
    # floor(81920 / ln 81920) recomputed from the defining formula
    assert max_order(40960) == 7240
    assert max_order(2) == 1  # clamped to n - 1
    with pytest.raises(ValidationError):
        max_order(1)


def test_max_order_never_exceeds_n_minus_1():
    for n in (2, 3, 5, 10, 100, 10_000):
        assert 1 <= max_order(n) <= n - 1


# --- losses -------------------------------------------------------------------

def test_fpe_hand_values():
    losses = scan([1.0, 1.0], "fpe", 100).losses
    assert losses[0] == pytest.approx(101 / 99, abs=1e-12)
    assert losses[1] == pytest.approx(102 / 98, abs=1e-12)
    assert scan(np.r_[np.ones(7), 0.0], "fpe", 100).losses[7] == 0.0
    # the loss is undefined from order N-1 on, where the scan ends
    assert scan(np.ones(100), "fpe", 100).losses.size == 99
    with pytest.raises(UndefinedLossError):
        scan([1.0], "fpe", 1)


def test_cat_hand_values():
    p = [np.nan, 1.0, 1.0]  # indexed by order, p[0] unused
    losses = scan(p, "cat", 100).losses
    assert losses[1] == pytest.approx(-0.9801, abs=1e-12)
    assert losses[2] == pytest.approx(-0.9603, abs=1e-12)
    assert np.isnan(losses[0])
    with pytest.raises(UndefinedLossError):
        scan([1.0], "cat", 100)  # order 0 only
    with pytest.raises(UndefinedLossError):
        scan([np.nan, 0.0], "cat", 100)


def test_cat_inverse_sum_hand_values():
    p = [np.nan, 1.0, 1.0]  # indexed by order, p[0] unused
    losses = scan(p, "cat-invsum", 100).losses
    # Pbar_k = 100 / (100 - k): m=1 -> 99/10000 - 0.99
    assert losses[1] == pytest.approx(-0.9801, abs=1e-12)
    # m=2 -> 1 / (100 (100/99 + 100/98)) - 0.98, about -0.97507512690
    assert losses[2] == pytest.approx(9702 / 1970000 - 0.98, abs=1e-12)
    assert np.isnan(losses[0])
    with pytest.raises(UndefinedLossError):
        scan([1.0], "cat-invsum", 100)  # order 0 only
    with pytest.raises(UndefinedLossError):
        scan([np.nan, 0.0], "cat-invsum", 100)
    # the scan ends before the first order with zero power
    assert scan([np.nan, 1.0, 0.0], "cat-invsum", 100).losses.size == 2


@pytest.mark.parametrize("criterion", ["cat", "cat-invsum"])
def test_cat_scans_end_before_a_subnormal_power(criterion):
    # 1/Pbar_m overflows on a positive subnormal power, so the scan ends
    # before that order, as it does before a zero power
    p = np.array([1.0, 0.5, 0.25, 5e-324, 5e-324])
    sel = scan(p, criterion, 100)
    assert sel.losses.size == 3  # order 0's NaN, then orders 1 and 2
    assert np.isfinite(sel.losses[1:]).all()
    assert sel.chosen_order in (1, 2)


@pytest.mark.parametrize("criterion,oracle", [
    ("fpe", lambda trace, n, m: loss_fpe(trace.p[m], n, m)),
    ("cat", lambda trace, n, m: loss_cat(trace.p, n, m)),
    ("cat-invsum", lambda trace, n, m: loss_cat_inverse_sum(trace.p, n, m)),
    ("obd", lambda trace, n, m: loss_obd(trace.p, trace.coefficients(m), n, m)),
], ids=["fpe", "cat", "cat-invsum", "obd"])
def test_scan_matches_direct_loss(criterion, oracle):
    # the scan's running sums (and OBD's replayed coefficient vectors) must
    # match the closed form at every order
    x = np.random.default_rng(8).standard_normal(1000)
    trace = fit(TimeSeries(x, dt=1.0), 40)
    sel = select_order(trace, criterion)
    assert sel.losses.size == 41
    first = 1 if criterion.startswith("cat") else 0
    assert np.isnan(sel.losses[:first]).all()
    for m in range(first, 41):
        assert sel.losses[m] == pytest.approx(oracle(trace, 1000, m), rel=1e-12)
    assert sel.chosen_order >= first


def test_cat_scaling_leaves_argmin_unchanged():
    rng = np.random.default_rng(0)
    p = np.concatenate([[np.nan], np.cumprod(rng.uniform(0.7, 1.0, 10))])
    losses = scan(p, "cat", 200).losses[1:]
    scaled = scan(2 * p, "cat", 200).losses[1:]
    np.testing.assert_allclose(scaled, losses / 2, rtol=1e-12)
    assert int(np.argmin(losses)) == int(np.argmin(scaled))


def test_obd_hand_values():
    assert scan([2.0], "obd", 10).losses[0] == pytest.approx(8 * math.log(2), abs=1e-9)
    assert scan([1.0], "obd", 10).losses[0] == 0.0
    # the order-1 filter is (1, c_0) = (1, 0.5)
    assert scan([1.0, 1.0], "obd", 10, c=[0.5]).losses[1] == \
        pytest.approx(math.log(10) + 0.25, abs=1e-9)
    with pytest.raises(UndefinedLossError):
        scan([0.0], "obd", 10)


def test_obd_scan_peak_is_sized_to_the_orders_it_reads():
    # the scan steps one filter buffer, which grows with the orders read and
    # never with N: 300 orders at N = 1e8 trace about 29 kB, the buffer's
    # growths included
    n, m = 10**8, 300
    c = np.random.default_rng(12).uniform(-0.3, 0.3, m)
    p = np.cumprod(np.concatenate(([1.0], 1.0 - c * c)))
    tracemalloc.start()
    try:
        sel = scan(p, "obd", n, c=c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, f"OBD scan peak {peak / 1e3:.0f} kB over {m} orders"
    a = np.ones(1)
    for k in range(m + 1):
        if k:
            a, _ = levinson_step(a, 1.0, c[k - 1])
        assert sel.losses[k] == pytest.approx(loss_obd(p, a, n, k), rel=1e-12)


# --- select_order ---------------------------------------------------------------

def test_select_picks_first_minimum():
    # power drops hard at order 1 then barely improves: FPE must pick 1
    trace = make_trace(p=[4.0, 1.0, 0.999], c=[np.sqrt(0.75), np.sqrt(1 - 0.999)], n=1000)
    sel = select_order(trace, "fpe")
    assert sel.chosen_order == 1
    assert sel.chosen_order == int(np.nanargmin(sel.losses))


def test_select_white_noise_picks_small_orders():
    # sampling noise can push the first minimum slightly past 0, but the
    # chosen model must stay trivial and its loss indistinguishable from m=0
    orders = []
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal(20_000)
        trace = fit(TimeSeries(x, dt=1.0), 64)
        sel = select_order(trace, Criterion.FPE)
        orders.append(sel.chosen_order)
        assert sel.losses[sel.chosen_order] == pytest.approx(sel.losses[0], rel=5e-3)
    assert np.median(orders) == 0
    assert max(orders) < 16


def test_fpe_constant_power_is_increasing_in_order():
    n = 500
    p = np.full(21, 2.0)
    trace = make_trace(p, np.zeros(20), n)
    sel = select_order(trace, "fpe")
    assert sel.chosen_order == 0
    assert np.all(np.diff(sel.losses) > 0)


def test_cat_scan_starts_at_order_one():
    x = np.random.default_rng(2).standard_normal(5000)
    trace = fit(TimeSeries(x, dt=1.0), 32)
    sel = select_order(trace, "cat")
    assert np.isnan(sel.losses[0])
    assert sel.chosen_order >= 1


def test_scaling_data_leaves_fpe_argmin_unchanged():
    x = np.random.default_rng(3).standard_normal(4000)
    t1 = fit(TimeSeries(x, dt=1.0), 40)
    t2 = fit(TimeSeries(5.0 * x, dt=1.0), 40)
    for crit in ("fpe", "cat", "cat-invsum"):
        assert select_order(t1, crit).chosen_order == select_order(t2, crit).chosen_order


def test_early_stop_with_large_patience_matches_full_scan():
    x = np.random.default_rng(4).standard_normal(3000)
    trace = fit(TimeSeries(x, dt=1.0), 100)
    for crit in Criterion:
        full = select_order(trace, crit)
        patient = scan(trace.p, crit, 3000, trace.c, patience=100)
        assert full.chosen_order == patient.chosen_order
        assert not patient.early_stopped or patient.chosen_order == full.chosen_order


def test_early_stop_truncates_scan():
    x = np.random.default_rng(5).standard_normal(3000)
    trace = fit(TimeSeries(x, dt=1.0), 200)
    sel = scan(trace.p, "fpe", 3000, trace.c, patience=10)
    assert sel.early_stopped
    assert sel.losses.size < 201


def test_selection_is_deterministic():
    x = np.random.default_rng(6).standard_normal(2000)
    trace = fit(TimeSeries(x, dt=1.0), 50)
    a = select_order(trace, "obd")
    b = select_order(trace, "obd")
    assert a.chosen_order == b.chosen_order
    np.testing.assert_array_equal(a.losses, b.losses)


def test_trace_without_sample_count_rejected():
    with pytest.raises(TypeError):
        RecursionTrace(p=[1.0, 0.5], c=[np.sqrt(0.5)], dt=1.0)


@pytest.mark.parametrize("criterion", ["cat", "cat-invsum"])
def test_cat_patience_counts_from_order_one(criterion):
    # order 0 has no CAT reading, so patience 1 must not stop the scan there
    sel = scan([np.nan, 1.0, 0.5, 0.5], criterion, 100, patience=1)
    assert sel.early_stopped and sel.chosen_order == 2 and sel.losses.size == 4


@pytest.mark.parametrize("patience", [0, 0.5, -1, math.nan])
def test_scan_rejects_patience_below_one(patience):
    with pytest.raises(ValidationError):
        scan([1.0, 0.5], "fpe", 100, c=[np.sqrt(0.5)], patience=patience)


def test_default_patience():
    # max(100, ceil(3 sqrt(M)))
    assert default_patience(5000, "fpe") == 213
    assert default_patience(5001, "cat") == 213
    assert default_patience(5453, "obd") == 222
    assert default_patience(16385, "fpe") == 385
    assert default_patience(137848, Criterion.OBD) == 1114
    assert default_patience(100, "obd") == 100
    # a perfect square: 3 sqrt(M) is an integer and is not rounded up
    assert default_patience(40000, "fpe") == 600
    # at N = 3000 (M = 689, the Gaussian study) the patience is the floor
    for crit in ("fpe", "cat", "obd"):
        assert default_patience(689, crit) == 100


# Order-recovery models j = 5 and j = 41 of the acceptance study (seed 99,
# N = 30000, true orders 2..500) and the largest FPE gap of each: the most
# orders from one new minimum to the next, up to the full-scan minimum. They
# are the two largest among the study's 50 models; a scan reaches the next
# minimum only with a patience at least the gap.
RECOVERY_GAPS = {5: 161, 41: 87}


def largest_gap(losses):
    """The most orders from one new minimum of ``losses`` to the next, up to the global one."""
    best, gap = 0, 0
    for m in range(1, int(np.nanargmin(losses)) + 1):
        if losses[m] < losses[best]:
            gap, best = max(gap, m - best), m
    return gap


@pytest.mark.parametrize("j", sorted(RECOVERY_GAPS))
def test_default_patience_reaches_the_full_scan_minimum_on_recovery_models(j):
    model = random_ar_model(derive_seed(99, j, 0), 2, 500)
    ts = generate_ar(model, 30_000, rng_seed=derive_seed(99, j, 1))
    m_max = max_order(30_000)
    full = select_order(fit(ts, m_max), "fpe")
    assert largest_gap(full.losses) == RECOVERY_GAPS[j]
    stopped = fit(ts, m_max, criterion="fpe").selection
    assert stopped.early_stopped and stopped.chosen_order == full.chosen_order
    if j == 5:
        # one order less of patience stops at the local minimum before the gap
        short = fit(ts, m_max, criterion="fpe", patience=RECOVERY_GAPS[j] - 1).selection
        assert short.chosen_order == 13 < full.chosen_order == 196


def test_cat_inverse_sum_defaults_to_full_scan():
    # its loss has deep local minima far below the global one
    assert default_patience(5000, "cat-invsum") == math.inf
    assert default_patience(5000, Criterion.CAT_INVSUM) == math.inf
    x = np.random.default_rng(9).standard_normal(2000)
    sel = fit(TimeSeries(x, dt=1.0), 300, criterion="cat-invsum").selection
    assert not sel.early_stopped and sel.losses.size == 301


@pytest.mark.parametrize("crit", [c.value for c in Criterion])
def test_select_order_scans_every_order_of_an_unstopped_trace(crit):
    ts = TimeSeries(np.random.default_rng(10).standard_normal(3000), dt=1.0)
    bare = fit(ts, 300)
    expected = scan(bare.p, crit, 3000, bare.c)
    # on white noise a default patience of 100 would stop well before order 300
    assert not expected.early_stopped and expected.losses.size == 301
    assert select_order(bare, crit).to_dict() == expected.to_dict()
    # a trace holding another criterion's scan, read to the end, is scanned in full too
    other = next(c for c in Criterion if c.value != crit)
    held = fit(ts, 300, criterion=other, patience=math.inf)
    assert held.selection.criterion is other and not held.selection.early_stopped
    assert select_order(held, crit).to_dict() == expected.to_dict()


# --- scan inside the recursion ----------------------------------------------------

# max_order 2379 and 3770, so the default patience (147, 185) is not the floor
# of 100; the first runs the lattice, the second Vos's fast Burg
PARITY_NS = (12_000, 20_000)


def test_parity_sizes_cover_both_recursions():
    assert PARITY_NS[0] < FAST_BURG_MIN_N <= PARITY_NS[1]


@functools.lru_cache(maxsize=None)
def parity_input(name, n=PARITY_NS[0]):
    """A series and its full Burg trace to the default order bound."""
    if name == "white":
        ts = TimeSeries(np.random.default_rng(11).standard_normal(n), dt=1.0)
    elif name == "three-peak":
        ts = generate_from_psd(three_peak_curve, n, 1.0 / 4096, rng_seed=12)
    else:
        # AR(2) with a reflection coefficient of 0.977: a pole close to the unit circle
        ts = generate_ar(random_ar_model(142, 2, 200), n, rng_seed=13)
    return ts, fit(ts, max_order(n))


@pytest.mark.parametrize("stop", ["default", "full"])
@pytest.mark.parametrize("crit", [c.value for c in Criterion])
@pytest.mark.parametrize("name,n", [
    pytest.param(name, n, id=name if n == PARITY_NS[0] else f"{name}-n{n}")
    for n in PARITY_NS for name in ("white", "three-peak", "near-unit-circle")
])
def test_stopped_fit_matches_full_fit(name, n, crit, stop):
    ts, full = parity_input(name, n)
    m_max = full.max_order
    patience = default_patience(m_max, crit) if stop == "default" else math.inf
    expected = scan(full.p, crit, n, full.c, patience)
    stopped = fit(ts, m_max, criterion=crit, patience=None if stop == "default" else patience)
    got = select_order(stopped, crit)
    assert got.to_dict() == expected.to_dict()
    # the scan that stopped the recursion is the one select_order returns
    assert got is stopped.selection
    assert json.dumps(stopped.model(got.chosen_order).to_dict()) == \
        json.dumps(full.model(expected.chosen_order).to_dict())
    # the recursion ran exactly as far as the scan read, and bit for bit as the full one
    assert stopped.max_order == len(got.losses) - 1
    assert stopped.p.tobytes() == full.p[: stopped.max_order + 1].tobytes()
    assert stopped.c.tobytes() == full.c[: stopped.max_order].tobytes()
    if got.early_stopped:
        assert stopped.max_order < m_max


def test_stopped_trace_rejects_another_scan():
    ts, full = parity_input("white")
    stopped = fit(ts, full.max_order, criterion="fpe")
    assert stopped.selection.early_stopped
    with pytest.raises(ValidationError):
        select_order(stopped, "obd")
    # a recursion its scan read to the end can be scanned again
    whole = fit(ts, 300, criterion="fpe", patience=math.inf)
    expected = select_order(fit(ts, 300), "obd")
    assert select_order(whole, "obd").to_dict() == expected.to_dict()


def test_stopped_fit_skips_degenerate_orders_it_never_reads():
    # alternating signal: order 1 predicts it exactly, and order 2 is degenerate
    ts = TimeSeries(np.array([1.0, -1.0] * 8), dt=1.0)
    with pytest.raises(DegenerateModelError):
        fit(ts, 4)
    # OBD is undefined at order 1 (zero power), so its scan ends there
    trace = fit(ts, 4, criterion="obd")
    assert trace.max_order == 1 and trace.p[1] == 0.0
    assert select_order(trace, "obd").chosen_order == 0

    # the same on fast Burg: an impulse every 40 samples has zero power at
    # order 40, where OBD's scan ends and FPE's reads on into order 41
    x = np.zeros(FAST_BURG_MIN_N + 40)
    x[::40] = 714660.0
    ts = TimeSeries(x, dt=1.0)
    trace = fit(ts, 300, criterion="obd")
    assert trace.max_order == 40 and trace.p[40] == 0.0
    assert select_order(trace, "obd").chosen_order == 0
    with pytest.raises(DegenerateModelError, match="vanished at order 40$"):
        fit(ts, 300, criterion="fpe")
