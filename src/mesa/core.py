"""Domain types shared across the package.

Conventions (used everywhere, never re-negotiated downstream):

* An AR model is stored as its prediction error filter ``a`` with
  ``a[0] == 1``; the autoregressive coefficients are ``b_i = -a_i``.
* ``p_m`` is the time-domain prediction-error power (signal units squared);
  the sampling interval enters only the spectral density normalization.
* Spectral densities are canonically two-sided (units signal^2/Hz); the
  one-sided form doubles values strictly inside (0, Nyquist).

All types are immutable after construction and validate their invariants
eagerly, raising :class:`ValidationError` naming the violated constraint.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """A domain type or argument violates one of its invariants."""


class SpectralError(Exception):
    """Base class for numerical failures (mapped to exit code 3 by the CLI)."""


class DegenerateModelError(SpectralError):
    """The signal is perfectly predictable (zero prediction-error power)."""


class UndefinedLossError(SpectralError):
    """An order-selection loss is undefined for the given arguments."""


class GenerationError(SpectralError):
    """Synthetic-data generation failed (e.g. rejection budget exceeded)."""


class Sided(enum.Enum):
    """Normalization convention of a spectral density."""

    TWO_SIDED = "two_sided"
    ONE_SIDED = "one_sided"


class Criterion(enum.Enum):
    """Order-selection loss functions."""

    FPE = "fpe"
    CAT = "cat"
    CAT_INVSUM = "cat-invsum"
    OBD = "obd"


def _readonly(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``.

    An array of ``dtype`` that is already read-only and owns its memory is
    kept as it is, so a producer can hand over a large buffer without a
    copy. Anything else is copied: a writable array, or a read-only view
    of one, could still change under the caller.
    """
    if (type(values) is np.ndarray and values.dtype == dtype and values.base is None
            and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _levinson_update(a: np.ndarray, c: float) -> np.ndarray:
    """Raise the order of a prediction error filter by one reflection.

    Real-coefficient form of the order-update: append a zero, add ``c``
    times the reversed filter shifted by one.
    """
    out = np.empty(a.shape[0] + 1)
    out[:-1] = a
    out[-1] = 0.0
    out[1:] += c * a[::-1]
    return out


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    Parameters
    ----------
    samples : sequence of float
        Signal values; at least two, all finite.
    dt : float
        Sampling interval in seconds, strictly positive.
    """

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _readonly(self.samples))
        object.__setattr__(self, "dt", float(self.dt))
        _require(self.samples.ndim == 1, "samples must be one-dimensional")
        _require(self.samples.size >= 2, "need at least 2 samples")
        _require(np.isfinite(self.dt) and self.dt > 0, "dt must be finite and > 0")
        _require(bool(np.isfinite(self.samples).all()), "samples must be finite (no NaN/Inf)")

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def nyquist(self) -> float:
        """Highest resolvable frequency, 1/(2*dt)."""
        return 1.0 / (2.0 * self.dt)


@dataclass(frozen=True, eq=False)
class ArModel:
    """Prediction error filter with its prediction-error power.

    ``a`` holds ``(1, a_1, ..., a_m)``; the equivalent AR coefficients are
    ``b_i = -a_i`` (see :attr:`b`). ``p_m`` is the white-noise variance of
    the equivalent AR(m) process in signal units squared.
    """

    a: np.ndarray
    p_m: float
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "a", _readonly(self.a))
        object.__setattr__(self, "p_m", float(self.p_m))
        object.__setattr__(self, "dt", float(self.dt))
        _require(self.a.ndim == 1 and self.a.size >= 1, "a must be a non-empty vector")
        _require(bool(np.isfinite(self.a).all()), "coefficients must be finite")
        _require(self.a[0] == 1.0, "a[0] must equal 1 exactly")
        _require(np.isfinite(self.p_m) and self.p_m >= 0, "p_m must be finite and >= 0")
        _require(np.isfinite(self.dt) and self.dt > 0, "dt must be finite and > 0")

    @property
    def order(self) -> int:
        return int(self.a.size - 1)

    @property
    def b(self) -> np.ndarray:
        """Autoregressive coefficients b_i = -a_i, i = 1..m."""
        return -self.a[1:]

    @property
    def nyquist(self) -> float:
        return 1.0 / (2.0 * self.dt)

    def to_dict(self) -> dict:
        return {"a": [float(v) for v in self.a], "p_m": self.p_m, "dt": self.dt}

    @classmethod
    def from_dict(cls, d: dict) -> "ArModel":
        return cls(a=d["a"], p_m=d["p_m"], dt=d["dt"])


@dataclass(frozen=True, eq=False)
class RecursionTrace:
    """Per-order output of the Levinson/Burg recursion.

    ``p[k]`` is the prediction-error power at order k (k = 0..M) and ``c[k]``
    the reflection coefficient taking order k to k+1. The trace keeps O(M)
    numbers: every order's coefficient vector follows from ``c`` and is
    rebuilt on demand by replaying the order-update (:meth:`coefficients`).

    ``n_samples`` is the length of the fitted series, which the
    order-selection losses read. When the fit ran an order scan to stop the
    recursion, ``selection`` is that scan's result.
    """

    p: np.ndarray
    c: np.ndarray
    dt: float
    n_samples: int
    selection: OrderSelection | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", _readonly(self.p))
        object.__setattr__(self, "c", _readonly(self.c))
        object.__setattr__(self, "dt", float(self.dt))
        _require(self.p.ndim == 1 and self.c.ndim == 1, "p and c must be vectors")
        _require(self.p.size == self.c.size + 1, "need len(p) == len(c) + 1")
        _require(bool(np.isfinite(self.p).all()), "p must be finite")
        _require(bool((self.p >= 0).all()), "prediction-error powers must be >= 0")
        _require(bool((np.abs(self.c) <= 1.0).all()), "reflection coefficients must satisfy |c| <= 1")
        # non-increasing up to roundoff slack
        slack = 1e-12 * (self.p[0] if self.p[0] > 0 else 1.0)
        _require(bool((np.diff(self.p) <= slack).all()), "p must be non-increasing")
        _require(np.isfinite(self.dt) and self.dt > 0, "dt must be finite and > 0")

    @property
    def max_order(self) -> int:
        return int(self.c.size)

    def coefficients(self, order: int) -> np.ndarray:
        """Coefficient vector (1, a_1, .., a_order), replayed from ``c``."""
        if not 0 <= order <= self.max_order:
            raise ValidationError(f"order {order} outside trace range 0..{self.max_order}")
        a = np.ones(1)
        for k in range(order):
            a = _levinson_update(a, self.c[k])
        return a

    def model(self, order: int) -> ArModel:
        """AR model for one order of the recursion."""
        return ArModel(a=self.coefficients(order), p_m=self.p[order], dt=self.dt)


@dataclass(frozen=True, eq=False)
class SpectralDensity:
    """Tabulated power spectral density on a frequency grid.

    ``sided`` records the normalization convention of ``values`` (see module
    docstring); a two-sided density may be tabulated on the positive half
    of its symmetric grid.
    """

    freqs: np.ndarray
    values: np.ndarray
    sided: Sided

    def __post_init__(self):
        object.__setattr__(self, "freqs", _readonly(self.freqs))
        object.__setattr__(self, "values", _readonly(self.values))
        if isinstance(self.sided, str):
            object.__setattr__(self, "sided", Sided(self.sided))
        _require(self.freqs.ndim == 1 and self.freqs.size >= 1, "freqs must be a non-empty vector")
        _require(self.values.shape == self.freqs.shape, "freqs and values must have equal length")
        _require(bool(np.isfinite(self.freqs).all()), "frequencies must be finite")
        _require(bool(np.isfinite(self.values).all()), "PSD values must be finite")
        _require(bool((np.diff(self.freqs) > 0).all()), "frequencies must be strictly increasing")
        _require(bool((self.values >= 0).all()), "PSD values must be non-negative")
        if self.sided is Sided.ONE_SIDED:
            _require(self.freqs[0] >= 0, "one-sided density requires non-negative frequencies")

    def __len__(self) -> int:
        return int(self.freqs.size)


@dataclass(frozen=True, eq=False)
class OrderSelection:
    """Result of scanning a recursion trace with one loss function.

    ``losses[m]`` is the loss at order m; NaN marks orders where the
    criterion is undefined (either CAT reading at order 0). The scan may
    stop before the trace's maximum order when early stopping triggered.
    """

    criterion: Criterion
    losses: np.ndarray
    chosen_order: int
    early_stopped: bool = False

    def __post_init__(self):
        if isinstance(self.criterion, str):
            object.__setattr__(self, "criterion", Criterion(self.criterion))
        object.__setattr__(self, "losses", _readonly(self.losses))
        object.__setattr__(self, "chosen_order", int(self.chosen_order))
        object.__setattr__(self, "early_stopped", bool(self.early_stopped))
        _require(self.losses.ndim == 1 and self.losses.size >= 1, "losses must be a non-empty vector")
        finite = np.isfinite(self.losses)
        _require(bool(finite.any()), "at least one order must have a defined loss")
        _require(0 <= self.chosen_order < self.losses.size, "chosen_order outside evaluated range")
        first_min = int(np.nanargmin(self.losses))
        _require(self.chosen_order == first_min,
                 "chosen_order must be the first minimum of the losses")

    def to_dict(self) -> dict:
        return {
            "criterion": self.criterion.value,
            "losses": [None if not np.isfinite(v) else float(v) for v in self.losses],
            "chosen_order": self.chosen_order,
            "early_stopped": self.early_stopped,
        }


@dataclass(frozen=True, eq=False)
class ForecastEnsemble:
    """Matrix of forecast realizations: one row per member, one column per step."""

    realizations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "realizations", _readonly(self.realizations))
        _require(self.realizations.ndim == 2, "realizations must be a 2-D matrix")
        _require(self.realizations.shape[0] >= 1, "need at least one realization")
        _require(self.realizations.shape[1] >= 1, "horizon must be >= 1")
        _require(bool(np.isfinite(self.realizations).all()), "realizations must be finite")

    @property
    def n_realizations(self) -> int:
        return int(self.realizations.shape[0])

    @property
    def horizon(self) -> int:
        return int(self.realizations.shape[1])
