"""The public surface of the package, pinned so that a change to it is deliberate."""
import enum
import inspect
import types

import mesa

PUBLIC_NAMES = [
    "ArModel",
    "Criterion",
    "DegenerateModelError",
    "ForecastEnsemble",
    "ForecastSummary",
    "GenerationError",
    "OrderSelection",
    "RecursionTrace",
    "Sided",
    "SpectralDensity",
    "SpectralError",
    "TabulatedPsd",
    "TimeSeries",
    "UndefinedLossError",
    "ValidationError",
    "fit",
    "forecast",
    "forecast_summary",
    "frequency_grid",
    "generate_ar",
    "generate_from_psd",
    "loss_fpe",
    "max_order",
    "psd",
    "random_ar_model",
    "reflection_coefficients",
    "relative_error_ensemble",
    "relative_error_freq_avg",
    "run_gaussian_experiment",
    "run_order_recovery",
    "select_order",
    "to_one_sided",
    "to_two_sided",
    "tukey_window",
    "welch_psd",
]


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(mesa).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


# Parameters of every public function and constructor: a name alone is
# required, "name=" has a default, and "*" starts the keyword-only ones.
# Exceptions take a message and enums a value, so neither is listed.
PUBLIC_SIGNATURES = {
    "ArModel": "a, p_m, dt",
    "ForecastEnsemble": "realizations",
    "ForecastSummary": "steps, median, quantile_levels, quantiles",
    "OrderSelection": "criterion, losses, chosen_order, early_stopped=",
    "RecursionTrace": "p, c, dt, n_samples, selection=",
    "SpectralDensity": "freqs, values, sided",
    "TabulatedPsd": "freqs, values, interpolation=",
    "TimeSeries": "samples, dt",
    "fit": "ts, max_order, *, criterion=, patience=",
    "forecast": "model, seed, horizon, n_realizations, rng_seed, noise_scale=",
    "forecast_summary": "ens, quantiles=",
    "frequency_grid": "n_freqs, dt, sided=",
    "generate_ar": "model, n, burn_in=, *, rng_seed",
    "generate_from_psd": "target, n, dt, rng_seed",
    "loss_fpe": "p_m, n, m",
    "max_order": "n",
    "psd": "model, freqs=",
    "random_ar_model": "rng_seed, p_min=, p_max=",
    "reflection_coefficients": "a",
    "relative_error_ensemble": "estimates, truth",
    "relative_error_freq_avg": "estimate, truth",
    "run_gaussian_experiment": "n_realizations, n_samples, criterion, rng_seed, mu=, sigma=, dt=, n_freqs=",
    "run_order_recovery": "n_models, p_min, p_max, n_samples, rng_seed",
    "select_order": "trace, criterion, patience=",
    "to_one_sided": "sd",
    "to_two_sided": "sd",
    "tukey_window": "n, alpha",
    "welch_psd": "ts, segment_len, overlap_fraction, window, detrend=",
}


def parameters(obj) -> str:
    parts = []
    for param in inspect.signature(obj).parameters.values():
        if param.kind is param.KEYWORD_ONLY and "*" not in parts:
            parts.append("*")
        parts.append(param.name if param.default is param.empty else f"{param.name}=")
    return ", ".join(parts)


def test_public_signatures_are_pinned():
    found = {}
    for name in PUBLIC_NAMES:
        obj = getattr(mesa, name)
        if not (isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum))):
            found[name] = parameters(obj)
    assert found == PUBLIC_SIGNATURES
