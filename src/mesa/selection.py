"""AR order selection: FPE/CAT/OBD losses, the order bound, early stopping."""
from __future__ import annotations

import itertools
import math

import numpy as np

from mesa.core import (
    Criterion,
    OrderSelection,
    RecursionTrace,
    UndefinedLossError,
    ValidationError,
    _step_up,
)


def max_order(n: int) -> int:
    """Upper bound 2N/ln(2N) on the scanned AR order, floored and clamped to N-1."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    return min(int(2 * n / math.log(2 * n)), n - 1)


def default_patience(scan_max_order: int, criterion: Criterion | str) -> float:
    """Patience max(100, ceil(3 sqrt(M))); ``math.inf``, a full scan, for ``cat-invsum``.

    The patience grows as sqrt(M), so a stopped fit computes few orders
    past the minimum at large N. The constant 3 lies inside the window
    [2.2, 3.8] that two fixtures fix:

    * c >= 2.2: on order-recovery model j = 5 (``run_order_recovery`` at
      seed 99, N = 30000, M = 5453), FPE's next new minimum after order
      13 is at order 174 and its full-scan minimum at order 196; only a
      patience of at least 161, c >= 161 / sqrt(5453) = 2.18, reaches them;
    * c <= 3.8: at N = 3000 (M = 689, the Gaussian study) the patience
      stays at the floor of 100, since 3.8 sqrt(689) < 100.

    The ``cat-invsum`` loss has deep local minima far below the order of
    its global minimum, where a patience stop would end the scan.
    """
    if Criterion(criterion) is Criterion.CAT_INVSUM:
        return math.inf
    return max(100, math.ceil(3 * math.sqrt(scan_max_order)))


def _loss_sequence(orders, criterion: Criterion, n: int):
    """Yield (order, loss) for (order, p_order, c_{order-1}) from ``orders``.

    Reads ``orders`` only as far as it yields, and stops where the loss is
    undefined; both CAT readings are NaN at order 0. With the unbiased
    powers Pbar_k = N P_k / (N-k), the losses at order m are:

    * ``fpe``: P_m (N+m+1)/(N-m-1), for m < N-1;
    * ``cat``, Parzen's CAT: (1/N) sum_{k=1..m} 1/Pbar_k - 1/Pbar_m, for m >= 1;
    * ``cat-invsum``, CAT with the reciprocal of the whole sum:
      1/(N sum_{k=1..m} Pbar_k) - 1/Pbar_m, for m >= 1;
    * ``obd``, Rao's Optimum Bayes Decision: (N-m-2) ln P_m + m ln N
      + sum_{k<m} ln P_k + sum_{i=1..m} a_i^2, with a the order-m filter.
    """
    if criterion is Criterion.FPE:
        for m, pm, _ in orders:
            if m >= n - 1:
                return
            yield m, pm * (n + m + 1) / (n - m - 1)
    elif criterion in (Criterion.CAT, Criterion.CAT_INVSUM):
        # running sums keep the scan O(1) per order
        invsum = criterion is Criterion.CAT_INVSUM
        acc = 0.0
        for m, pm, _ in orders:
            if m == 0:
                yield m, math.nan
                continue
            if pm == 0.0:
                return
            inv = (n - m) / (n * float(pm))  # 1/Pbar_m: a Python float overflows to inf quietly
            if not math.isfinite(inv):  # P_m is subnormal
                return
            acc += n * pm / (n - m) if invsum else inv
            yield m, 1.0 / (n * acc) - inv if invsum else acc / n - inv
    else:  # Criterion.OBD
        # the order-m coefficient vector is raised from order m-1 in place
        # as orders arrive; its buffer doubles with the orders read
        log_acc = 0.0
        log_n = math.log(n)
        a = np.ones(1)
        scratch = np.empty(1)
        for m, pm, cm in orders:
            if m >= 1:
                if m == a.size:
                    a = np.concatenate((a, np.empty_like(a)))
                    scratch = np.empty_like(a)
                _step_up(a, m - 1, cm, scratch)
            if pm == 0.0:
                return
            log_pm = math.log(pm)
            head = a[1 : m + 1]
            yield m, (n - m - 2) * log_pm + m * log_n + log_acc + float(head.dot(head))
            log_acc += log_pm


def scan_orders(orders, criterion: Criterion, n: int, patience: float) -> OrderSelection:
    """Scan a stream of orders with one loss and pick its first minimum.

    ``orders`` yields ``(m, p_m, c_{m-1})`` for m = 0, 1, ..., as a
    recursion produces them (``c_{-1}`` is None). The scan draws from
    ``orders`` one order at a time and no further than the order where it
    stops, so a lazy recursion computes only the orders scanned. It stops
    after ``patience`` orders without a new minimum; ``math.inf`` scans
    every order.
    """
    if not patience >= 1:
        raise ValidationError(f"patience must be >= 1, got {patience}")
    losses: list[float] = []
    best_loss = math.inf
    best_order = -1
    early_stopped = False
    for m, value in _loss_sequence(orders, criterion, n):
        losses.append(value)
        if value < best_loss:
            best_loss = value
            best_order = m
        if best_order >= 0 and m - best_order >= patience:
            early_stopped = True
            break
    if best_order < 0:
        raise UndefinedLossError(f"{criterion.value} undefined at every order of the trace")
    return OrderSelection(criterion=criterion, losses=losses, early_stopped=early_stopped)


def select_order(trace: RecursionTrace, criterion: Criterion | str) -> OrderSelection:
    """Scan the trace's orders and pick the first minimum of the loss.

    A trace that ``fit`` ran with this criterion holds its scan, which is
    returned. Any other trace is scanned over every order it holds, unless
    its own scan stopped the recursion early: then it lacks the orders
    another scan may read, and ``ValidationError`` is raised.
    """
    criterion = Criterion(criterion)
    if trace.max_order < 1:
        raise ValidationError("trace must hold at least order 1")
    held = trace.selection
    if held is not None:
        if held.criterion is criterion:
            return held
        if held.early_stopped:
            raise ValidationError(
                f"the recursion was stopped by its {held.criterion.value} scan; "
                "fit without a criterion to scan it otherwise"
            )
    orders = zip(range(trace.max_order + 1), trace.p, itertools.chain([None], trace.c))
    return scan_orders(orders, criterion, trace.n_samples, math.inf)
