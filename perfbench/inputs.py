"""Benchmark inputs and reference truths, generated from the workload seed.

Nothing here imports the package under test: the series, the AR model and
the analytic truths the outputs are scored against come from numpy and
scipy alone, so a change to the program cannot change its own yardstick.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy.signal import lfilter

Z95 = 1.6448536269514722  # standard normal 95 % quantile


def three_peak_curve(f):
    """Two-sided three-peak density of the acceptance suite (f in Hz)."""
    f = np.abs(np.asarray(f, dtype=np.float64))
    floor = 1.0 + 30.0 / (1.0 + (f / 40.0) ** 2)
    peaks = (
        40.0 / (1.0 + ((f - 60.0) / 6.0) ** 2)
        + 25.0 / (1.0 + ((f - 350.0) / 12.0) ** 2)
        + 12.0 / (1.0 + ((f - 1100.0) / 25.0) ** 2)
    )
    return floor + peaks


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(stream,)))


def colored_series(curve, n: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Real series whose ensemble-mean periodogram is the two-sided ``curve``."""
    freqs = np.fft.rfftfreq(n, dt)
    s = curve(freqs)
    re = rng.standard_normal(freqs.size)
    im = rng.standard_normal(freqs.size)
    coeff = np.sqrt(s * n / (2.0 * dt)) * (re + 1j * im)
    coeff[0] = math.sqrt(s[0] * n / dt) * re[0]
    coeff[-1] = math.sqrt(s[-1] * n / dt) * re[-1]
    return np.fft.irfft(coeff, n)


def step_up(c: np.ndarray) -> np.ndarray:
    """Prediction error filter (1, a_1..a_m) from reflection coefficients."""
    a = np.ones(1)
    for ck in c:
        nxt = np.append(a, 0.0)
        nxt[1:] += ck * a[::-1]
        a = nxt
    return a


def step_down(a: np.ndarray) -> np.ndarray:
    """Reflection coefficients of a prediction error filter (inverse of step_up)."""
    cur = np.array(a, dtype=np.float64)
    out = np.empty(cur.size - 1)
    for k in range(cur.size - 1, 0, -1):
        ck = cur[k]
        out[k - 1] = ck
        if abs(ck) >= 1.0:
            out[: k - 1] = 1.0
            break
        cur = (cur[:k] - ck * cur[k:0:-1]) / (1.0 - ck * ck)
    return out


def random_stable_model(order: int, rng: np.random.Generator) -> np.ndarray:
    """Stable AR(order) filter: reflection coefficients of decaying magnitude."""
    k = np.arange(1, order + 1)
    c = rng.uniform(-0.9, 0.9, order) / np.sqrt(k)
    return step_up(c)


def simulate_ar(a: np.ndarray, p_m: float, n: int, rng: np.random.Generator) -> np.ndarray:
    burn_in = 10 * (a.size - 1)
    noise = rng.standard_normal(burn_in + n) * math.sqrt(p_m)
    return lfilter([1.0], a, noise)[burn_in:]


def forecast_truth(a: np.ndarray, p_m: float, tail: np.ndarray, horizon: int):
    """Noise-free conditional mean and predictive sd sigma_h for steps 1..horizon.

    sigma_h^2 = p_m * sum_{j<h} psi_j^2, psi the impulse response of 1/A(z).
    """
    m = a.size - 1
    b = -a[1:]
    hist = list(tail[len(tail) - m:][::-1])  # x_{t-1}, .., x_{t-m}
    mean = np.empty(horizon)
    for h in range(horizon):
        nxt = float(np.dot(b, hist[:m]))
        mean[h] = nxt
        hist.insert(0, nxt)
    impulse = np.zeros(horizon)
    impulse[0] = 1.0
    psi = lfilter([1.0], a, impulse)
    sigma = np.sqrt(p_m * np.cumsum(psi * psi))
    return mean, sigma


def write_column(path, values) -> None:
    with open(path, "w") as handle:
        handle.write("\n".join(f"{float(v):.17g}" for v in values))
        handle.write("\n")


def write_model(path, a: np.ndarray, p_m: float, dt: float) -> None:
    with open(path, "w") as handle:
        json.dump({"a": [float(v) for v in a], "p_m": p_m, "dt": dt}, handle)
