"""Welch's averaged-periodogram PSD with Tukey windowing (comparison baseline)."""
from __future__ import annotations

import numpy as np

from mesa.core import SpectralDensity, TimeSeries, ValidationError

# segment lengths used by the qualitative comparison presets
SEGMENT_PRESETS = (512, 1024, 2048, 8192, 32768)


def tukey_window(n: int, alpha: float) -> np.ndarray:
    """Symmetric tapered-cosine window: flat top, cosine ramps of fraction alpha.

    alpha=0 is rectangular, alpha=1 the Hann window.
    """
    if n < 1:
        raise ValidationError("window length must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    i = np.arange(n, dtype=np.float64)
    edge = alpha * (n - 1) / 2.0
    w = np.ones(n)
    ramp = i < edge
    w[ramp] = 0.5 * (1.0 + np.cos(np.pi * (2.0 * i[ramp] / (alpha * (n - 1)) - 1.0)))
    w = np.minimum(w, w[::-1])
    return w


def welch_psd(
    ts: TimeSeries,
    segment_len: int,
    overlap_fraction: float,
    window: np.ndarray,
    detrend: bool = False,
) -> SpectralDensity:
    """Welch estimate: averaged |DFT(window * segment)|^2 dt / sum(w^2).

    It is tabulated on the segment's non-negative DFT frequencies, in the
    package's one density convention (see :mod:`mesa.core`): the power at
    -f is not folded onto f. The hop is floor(segment_len * (1 -
    overlap_fraction)); a trailing partial segment is dropped.
    ``tukey_window(segment_len, 0.0)`` is the rectangular window; segment
    means are subtracted only when ``detrend`` is set. A window with no
    energy (``tukey_window(2, alpha)`` for any alpha > 0) is refused.
    """
    x = np.asarray(ts.samples, dtype=np.float64)
    n = x.size
    if segment_len > n:
        raise ValidationError(f"segment_len {segment_len} exceeds series length {n}")
    if segment_len < 2:
        raise ValidationError("segment_len must be >= 2")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ValidationError("overlap_fraction must be in [0, 1)")
    window = np.asarray(window, dtype=np.float64)
    if window.size != segment_len:
        raise ValidationError("window length must equal segment_len")
    energy = float(window @ window)
    if not (np.isfinite(energy) and energy > 0.0):
        raise ValidationError(f"the window's energy sum(w^2) must be finite and > 0, got {energy}")
    hop = int(segment_len * (1.0 - overlap_fraction))
    if hop < 1:
        raise ValidationError("overlap too large: hop would be zero")

    starts = np.arange(0, n - segment_len + 1, hop)
    segments = x[starts[:, None] + np.arange(segment_len)[None, :]]
    if detrend:
        segments = segments - segments.mean(axis=1, keepdims=True)
    spec = np.fft.rfft(window * segments, axis=1)
    power = np.mean(np.abs(spec) ** 2, axis=0) * ts.dt / energy
    return SpectralDensity(freqs=np.fft.rfftfreq(segment_len, ts.dt), values=power)
