"""Maximum entropy (Burg) spectral analysis toolkit.

Fit AR models with Burg's recursion, pick the order with
FPE/CAT/OBD losses, evaluate the maximum-entropy PSD, forecast future
samples, generate synthetic data from target spectra, and compare against
a Welch baseline.
"""
from mesa.baseline import tukey_window, welch_psd
from mesa.core import (
    ArModel,
    Criterion,
    DegenerateModelError,
    ForecastEnsemble,
    GenerationError,
    OrderSelection,
    RecursionTrace,
    SpectralDensity,
    SpectralError,
    TimeSeries,
    UndefinedLossError,
    ValidationError,
)
from mesa.estimator import fit, reflection_coefficients
from mesa.forecast import ForecastSummary, forecast, forecast_summary
from mesa.selection import select_order
from mesa.spectrum import frequency_grid, psd
from mesa.synth import generate_ar, generate_from_psd, random_ar_model
from mesa.validate import relative_error_freq_avg, run_gaussian_experiment, run_order_recovery

__version__ = "0.1.0"
