"""Closed forms of the FPE, CAT, CAT (inverse sum) and OBD losses.

``mesa.selection`` computes these losses only inside its order scan, the
sums as running sums. The closed forms here evaluate one order directly and serve the
tests as parity oracles for that scan.
"""
import math

import numpy as np

from mesa.core import UndefinedLossError


def loss_fpe(p_m: float, n: int, m: int) -> float:
    """Final Prediction Error loss P_m (N+m+1)/(N-m-1)."""
    if m >= n - 1:
        raise UndefinedLossError(f"FPE undefined for m={m} with n={n}")
    return p_m * (n + m + 1) / (n - m - 1)


def loss_cat(p, n: int, m: int) -> float:
    """Parzen's CAT loss at order m >= 1.

    ``p`` is indexed by order (p[0] present but unused): the loss is
    (1/N) sum_{k=1..m} (N-k)/(N P_k) - (N-m)/(N P_m).

    Once the residuals whiten, this loss decreases under nearly the same
    condition as FPE, so its minimum tracks FPE's order. The reading that
    takes the reciprocal of the whole sum, which picks much larger and more
    widely spread orders, is ``loss_cat_inverse_sum``.
    """
    if m < 1:
        raise UndefinedLossError("CAT is undefined at order 0")
    p = np.asarray(p, dtype=np.float64)
    if np.any(p[1 : m + 1] == 0.0):
        raise UndefinedLossError("CAT undefined: zero prediction-error power")
    k = np.arange(1, m + 1)
    return float(np.sum((n - k) / (n * p[1 : m + 1])) / n - (n - m) / (n * p[m]))


def loss_cat_inverse_sum(p, n: int, m: int) -> float:
    """CAT read with the reciprocal of the whole sum, at order m >= 1.

    ``p`` is indexed by order (p[0] present but unused). With the unbiased
    powers Pbar_k = N P_k / (N-k), the loss is
    1 / (N sum_{k=1..m} Pbar_k) - 1 / Pbar_m.
    """
    if m < 1:
        raise UndefinedLossError("CAT (inverse sum) is undefined at order 0")
    p = np.asarray(p, dtype=np.float64)
    if np.any(p[1 : m + 1] == 0.0):
        raise UndefinedLossError("CAT (inverse sum) undefined: zero prediction-error power")
    k = np.arange(1, m + 1)
    return float(1.0 / (n * np.sum(n * p[1 : m + 1] / (n - k))) - (n - m) / (n * p[m]))


def loss_obd(p, a, n: int, m: int) -> float:
    """Rao's Optimum Bayes Decision loss at order m.

    ``p`` is indexed by order; ``a`` is the order-m coefficient vector
    (a[0] == 1). Natural logarithms throughout.
    """
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if np.any(p[: m + 1] == 0.0):
        raise UndefinedLossError("OBD undefined: zero prediction-error power")
    value = (n - m - 2) * math.log(p[m]) + m * math.log(n)
    if m >= 1:
        value += float(np.sum(np.log(p[:m]))) + float(a[1 : m + 1] @ a[1 : m + 1])
    return value
