"""AR order selection: FPE/CAT/OBD losses, the order bound, early stopping."""
from __future__ import annotations

import math

import numpy as np

from mesa.core import (
    Criterion,
    OrderSelection,
    RecursionTrace,
    UndefinedLossError,
    ValidationError,
    _levinson_update,
)


def max_order(n: int) -> int:
    """Upper bound 2N/ln(2N) on the scanned AR order, floored and clamped to N-1."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    return min(int(2 * n / math.log(2 * n)), n - 1)


def loss_fpe(p_m: float, n: int, m: int) -> float:
    """Final Prediction Error loss P_m (N+m+1)/(N-m-1)."""
    if m >= n - 1:
        raise UndefinedLossError(f"FPE undefined for m={m} with n={n}")
    return p_m * (n + m + 1) / (n - m - 1)


def default_patience(scan_max_order: int, criterion: Criterion | str) -> float:
    """Patience max(100, ceil(M/10)); ``math.inf``, a full scan, for ``cat-invsum``.

    The ``cat-invsum`` loss has deep local minima far below the order of
    its global minimum, where a patience stop would end the scan.
    """
    if Criterion(criterion) is Criterion.CAT_INVSUM:
        return math.inf
    return max(100, -(-scan_max_order // 10))


def _inverse_unbiased_power(pm, n: int, m: int) -> float | None:
    """1/Pbar_m = (N-m)/(N P_m), or None where it is not finite (P_m zero or subnormal)."""
    if pm == 0.0:
        return None
    inv = (n - m) / (n * float(pm))  # a Python float overflows to inf without a warning
    return inv if math.isfinite(inv) else None


def _loss_sequence(orders, criterion: Criterion, n: int):
    """Yield (order, loss) for (order, p_order, c_{order-1}) from ``orders``.

    Reads ``orders`` only as far as it yields, and stops where the loss is
    undefined. With the unbiased powers Pbar_k = N P_k / (N-k), the losses
    at order m are:

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
            yield m, loss_fpe(pm, n, m)
    elif criterion is Criterion.CAT:
        # running sum keeps the scan O(1) per order
        acc = 0.0
        for m, pm, _ in orders:
            if m == 0:
                continue
            inv = _inverse_unbiased_power(pm, n, m)
            if inv is None:
                return
            acc += inv
            yield m, acc / n - inv
    elif criterion is Criterion.CAT_INVSUM:
        acc = 0.0
        for m, pm, _ in orders:
            if m == 0:
                continue
            inv = _inverse_unbiased_power(pm, n, m)
            if inv is None:
                return
            acc += n * pm / (n - m)
            yield m, 1.0 / (n * acc) - inv
    elif criterion is Criterion.OBD:
        # the order-m coefficient vector is raised from order m-1 as orders arrive
        log_acc = 0.0
        a = np.ones(1)
        for m, pm, cm in orders:
            if m >= 1:
                a = _levinson_update(a, cm)
            if pm == 0.0:
                return
            sq = float(a[1:] @ a[1:]) if m >= 1 else 0.0
            yield m, (n - m - 2) * math.log(pm) + m * math.log(n) + log_acc + sq
            log_acc += math.log(pm)
    else:
        raise ValidationError(f"no loss scan for criterion {criterion.value!r}")


def scan_orders(
    p0,
    steps,
    criterion: Criterion,
    n: int,
    patience: float,
) -> OrderSelection:
    """Scan a stream of orders with one loss and pick its first minimum.

    ``p0`` is the order-0 power and ``steps`` yields ``(p_{k+1}, c_k)`` for
    k = 0, 1, ..., as a recursion produces them. The scan draws from
    ``steps`` one order at a time and no further than the order where it
    stops, so a lazy recursion computes only the orders scanned. It stops
    after ``patience`` orders without a new minimum; ``math.inf`` scans
    every order.
    """
    if not patience >= 1:
        raise ValidationError(f"patience must be >= 1, got {patience}")

    def orders():
        yield 0, p0, None
        for m, (pm, cm) in enumerate(steps, 1):
            yield m, pm, cm

    # the CAT readings start at order 1: pad so that losses[m] is order m
    from_order_one = criterion in (Criterion.CAT, Criterion.CAT_INVSUM)
    losses: list[float] = [np.nan] if from_order_one else []
    best_loss = np.inf
    best_order = -1
    early_stopped = False
    for m, value in _loss_sequence(orders(), criterion, n):
        losses.append(value)
        if value < best_loss:
            best_loss = value
            best_order = m
        if m - best_order >= patience:
            early_stopped = True
            break
    if best_order < 0:
        raise UndefinedLossError(f"{criterion.value} undefined at every order of the trace")
    return OrderSelection(
        criterion=criterion,
        losses=np.asarray(losses, dtype=np.float64),
        chosen_order=best_order,
        early_stopped=early_stopped,
    )


def select_order(
    trace: RecursionTrace,
    criterion: Criterion | str,
    patience: float | None = None,
) -> OrderSelection:
    """Scan the trace's orders and pick the first minimum of the loss.

    A trace that ``fit`` ran with this criterion holds its scan, which
    ``patience=None`` returns. On any other trace ``patience=None`` is
    ``default_patience(trace.max_order, criterion)``; pass ``math.inf`` for
    a reproducible full sweep. A trace whose scan stopped the recursion
    early cannot be scanned again, with another criterion or an explicit
    patience: it lacks the orders another scan may read.
    """
    criterion = Criterion(criterion)
    if trace.max_order < 1:
        raise ValidationError("trace must hold at least order 1")
    held = trace.selection
    if held is not None:
        if held.criterion is criterion and patience is None:
            return held
        if held.early_stopped:
            raise ValidationError(
                f"the recursion was stopped by its {held.criterion.value} scan; "
                "fit without a criterion to scan it otherwise"
            )
    if patience is None:
        patience = default_patience(trace.max_order, criterion)
    return scan_orders(trace.p[0], zip(trace.p[1:], trace.c), criterion, trace.n_samples, patience)
