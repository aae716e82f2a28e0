"""Burg lattice recursion in numpy, one order at a time."""
from __future__ import annotations

import numpy as np

from mesa.core import DegenerateModelError


def burg_lattice(x: np.ndarray, max_order: int):
    """Start the Burg lattice recursion on ``x``, up to ``max_order``.

    Returns ``(p0, steps)``: the order-0 prediction-error power and a
    generator that yields ``(p_{k+1}, c_k)`` for k = 0..max_order-1, the
    power after each order and the reflection coefficient that reached it.
    An order is computed only when the generator is advanced, so a consumer
    that stops reading stops the recursion. Forward/backward error sequences
    start as the signal itself and lose one usable sample per order.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    p0 = x @ x / x.shape[0]
    if p0 == 0.0:
        raise DegenerateModelError("zero-variance input")
    return p0, _steps(x, p0, max_order)


def _steps(x: np.ndarray, p, max_order: int):
    # errors live in preallocated buffers: b is updated in place, f
    # alternates between two buffers, so no order allocates
    n = x.shape[0]
    f, f_next, b = x.copy(), np.empty(n), x.copy()
    scratch = np.empty(n)
    for k in range(max_order):
        size = n - k - 1
        fa = f[1 : size + 1]
        ba = b[:size]
        den = fa @ fa + ba @ ba
        if den == 0.0:
            raise DegenerateModelError(f"prediction errors vanished at order {k}")
        ck = -2.0 * (fa @ ba) / den
        # |c| <= 1 analytically; clamp the last-ulp excess
        if ck > 1.0:
            ck = 1.0
        elif ck < -1.0:
            ck = -1.0
        p = p * (1.0 - ck * ck)
        yield p, ck
        tmp = scratch[:size]
        np.multiply(ba, ck, out=tmp)
        np.add(fa, tmp, out=f_next[:size])
        np.multiply(fa, ck, out=tmp)
        np.add(ba, tmp, out=ba)
        f, f_next = f_next, f
