"""Error metrics and reusable validation experiments.

Two harnesses mirror the synthetic studies used to characterize the
estimator: recovery of a Gaussian-bump spectrum from ensembles of short
series, and recovery of the AR order on random autoregressive processes.
Both are deterministic given their seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mesa import spectrum
from mesa._rng import derive_seed
from mesa.core import Criterion, SpectralDensity, ValidationError
from mesa.estimator import fit
from mesa.selection import select_order
from mesa.synth import generate_ar, generate_from_psd, random_ar_model


def relative_error_freq_avg(estimate: SpectralDensity, truth: SpectralDensity) -> float:
    """Frequency-averaged relative error (1/N_f) sum |S_est - S| / S."""
    if not np.array_equal(estimate.freqs, truth.freqs):
        raise ValidationError("estimate and truth must share one frequency grid")
    if (truth.values <= 0).any():
        raise ValidationError("truth PSD must be strictly positive")
    return float(np.mean(np.abs(estimate.values - truth.values) / truth.values))


def gaussian_bump(mu: float, sigma: float):
    """Analytic Gaussian-bump PSD curve (arbitrary units), usable as a target."""
    if not (np.isfinite(mu) and 0 < sigma < np.inf):
        raise ValidationError(f"gaussian_bump needs a finite mu and a finite sigma > 0, "
                              f"got mu={mu!r}, sigma={sigma!r}")

    def curve(f):
        f = np.asarray(f, dtype=np.float64)
        return np.exp(-0.5 * ((np.abs(f) - mu) / sigma) ** 2)

    return curve


@dataclass(frozen=True)
class RealizationRecord:
    index: int
    order: int
    error: float

    def to_dict(self) -> dict:
        return {"index": self.index, "order": self.order, "error": self.error}


@dataclass(frozen=True)
class GaussianExperimentResult:
    criterion: Criterion
    records: tuple
    mean_psd: SpectralDensity
    error_curve: SpectralDensity

    @property
    def orders(self) -> np.ndarray:
        return np.array([rec.order for rec in self.records])

    @property
    def errors(self) -> np.ndarray:
        return np.array([rec.error for rec in self.records])


def run_gaussian_experiment(
    n_realizations: int,
    n_samples: int,
    criterion: Criterion | str,
    rng_seed: int,
    mu: float = 2.5,
    sigma: float = 0.5,
    dt: float = 0.125,
    n_freqs: int = 1025,
) -> GaussianExperimentResult:
    """Estimate the spectrum of colored noise with a Gaussian-bump target.

    Each realization draws fresh noise from the target, fits it up to order
    2N/ln(2N) or until the order scan of ``criterion`` stops, selects the
    order and scores the model PSD against the analytic curve on a fixed
    grid. The ensemble statistics are running sums over the realizations,
    so memory does not grow with ``n_realizations``; they equal ``np.mean``
    of the stacked PSDs and of the stacked per-frequency relative errors.
    """
    if n_realizations < 1:
        raise ValidationError("need at least one realization")
    criterion = Criterion(criterion)
    curve = gaussian_bump(mu, sigma)
    grid = spectrum.frequency_grid(n_freqs, dt)
    truth = SpectralDensity(freqs=grid, values=curve(grid))
    if (truth.values <= 0).any():
        raise ValidationError("truth PSD must be strictly positive")
    psd_sum = np.zeros(n_freqs)
    error_sum = np.zeros(n_freqs)
    records = []
    for i in range(n_realizations):
        ts = generate_from_psd(curve, n_samples, dt, derive_seed(rng_seed, i))
        trace = fit(ts, criterion=criterion)
        order = select_order(trace, criterion).chosen_order
        # the read-only grid is shared by every estimate, never copied
        est = spectrum.psd(trace.model(order), truth.freqs).values
        error = np.abs(est - truth.values) / truth.values
        records.append(RealizationRecord(index=i, order=order, error=float(np.mean(error))))
        psd_sum += est
        error_sum += error
    return GaussianExperimentResult(
        criterion=criterion,
        records=tuple(records),
        mean_psd=SpectralDensity(freqs=truth.freqs, values=psd_sum / n_realizations),
        error_curve=SpectralDensity(freqs=truth.freqs, values=error_sum / n_realizations),
    )


@dataclass(frozen=True)
class OrderRecoveryRecord:
    index: int
    p_true: int
    p_hat: dict

    def to_dict(self) -> dict:
        return {"index": self.index, "p_true": self.p_true,
                "p_hat": {k: v for k, v in self.p_hat.items()}}


def run_order_recovery(
    n_models: int,
    p_min: int,
    p_max: int,
    n_samples: int,
    rng_seed: int,
) -> tuple:
    """Fit random AR(p) processes and record the order picked by each criterion.

    Each model is fitted to ``fit``'s default bound 2N/ln(2N) and scanned in
    full by ``fpe``, ``cat-invsum`` and ``obd``: the ``cat-invsum`` loss has
    local minima far below its global one, where an early stop would end.
    """
    criteria = (Criterion.FPE, Criterion.CAT_INVSUM, Criterion.OBD)

    def one(j: int) -> OrderRecoveryRecord:
        model = random_ar_model(derive_seed(rng_seed, j, 0), p_min, p_max)
        ts = generate_ar(model, n_samples, rng_seed=derive_seed(rng_seed, j, 1))
        trace = fit(ts)
        p_hat = {c.value: select_order(trace, c).chosen_order for c in criteria}
        return OrderRecoveryRecord(index=j, p_true=model.order, p_hat=p_hat)

    return tuple(one(j) for j in range(n_models))
