"""The public surface of the package, pinned so that a change to it is deliberate."""
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
