"""Command-line front end.

Subcommands: estimate | forecast | generate | welch | compare | experiment.
Exit codes: 0 ok, 2 usage or I/O error, 3 numerical/degenerate error or
out of memory.
Randomized commands require an explicit --seed and are deterministic given
it.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

import numpy as np

from mesa import _io, baseline, selection, spectrum, synth, validate
from mesa.forecast import forecast as run_forecast, forecast_summary, quantile_label, summary_levels
from mesa.core import (
    Criterion,
    SpectralDensity,
    SpectralError,
    TimeSeries,
    ValidationError,
)
from mesa.estimator import fit


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--in", dest="infile", required=True, help="input series (CSV or raw binary)")
    p.add_argument("--dt", type=float, default=None, help="sampling interval in seconds")
    p.add_argument("--binary", action="store_true", help="input is raw little-endian float64")


def _patience(text: str) -> float:
    """A positive integer, or ``inf`` for a full scan."""
    return math.inf if text == "inf" else _positive_int(text)


def _add_patience_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--patience", type=_patience, default=None,
                   help="orders without a new minimum before the scan stops "
                        "(default: max(100, ceil(3 sqrt(M))) for M the maximum order, "
                        "'inf' for cat-invsum); 'inf' scans and computes every order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesa",
        description="Maximum entropy (Burg) spectral analysis, forecasting and a Welch baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="fit an AR model, select its order and write the PSD")
    _add_input_args(p)
    p.add_argument("--criterion", choices=[c.value for c in Criterion], default="fpe")
    p.add_argument("--max-order", type=_positive_int, default=None,
                   help="recursion depth (default: 2N/ln 2N)")
    p.add_argument("--demean", action="store_true", help="subtract the sample mean before fitting")
    p.add_argument("--n-freqs", type=_positive_int, default=None, help="PSD grid resolution")
    _add_patience_arg(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("forecast", help="sample conditional continuations of a series")
    _add_input_args(p)
    p.add_argument("--model", required=True, help="fitted model JSON (from estimate)")
    p.add_argument("--horizon", type=_positive_int, required=True)
    p.add_argument("--n-realizations", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--quantiles", default="0.05,0.95",
                   help="comma-separated quantile levels in (0,1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("generate", help="generate synthetic data")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--psd-gaussian", nargs=2, type=float, metavar=("MU", "SIGMA"),
                     help="analytic Gaussian-bump target PSD")
    src.add_argument("--psd", help="tabulated one-sided target PSD CSV (frequency_hz,psd)")
    src.add_argument("--model", help="AR model JSON to simulate")
    p.add_argument("--psd-interp", choices=[i.value for i in synth.Interpolation], default=None,
                   help="interpolation of the tabulated target (default linear; --psd only)")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--dt", type=float, default=None,
                   help="sampling interval (default 0.125 for the Gaussian target, "
                        "1/(2 f_last) for a table whose last frequency f_last is its "
                        "Nyquist; not with --model)")
    p.add_argument("--burn-in", type=int, default=None,
                   help="AR warm-up samples to discard (--model only)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("welch", help="Welch PSD baseline")
    _add_input_args(p)
    p.add_argument("--segment", type=_positive_int, required=True,
                   help="segment length")
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--tukey", type=float, default=0.4, help="Tukey taper fraction")
    p.add_argument("--detrend", action="store_true", help="subtract each segment's mean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_welch)

    p = sub.add_parser("compare", help="MESA vs Welch on shared synthetic data")
    p.add_argument("--psd", required=True, help="tabulated one-sided truth PSD CSV")
    p.add_argument("--psd-interp", choices=[i.value for i in synth.Interpolation],
                   default="linear")
    p.add_argument("--duration", type=float, required=True, help="seconds of synthetic data")
    p.add_argument("--fs", type=float, required=True, help="sampling rate in Hz")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--criterion", choices=[c.value for c in Criterion], default="fpe")
    p.add_argument("--segment", type=_positive_int, default=1024)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--tukey", type=float, default=0.4)
    _add_patience_arg(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("experiment", help="run a validation experiment")
    exp = p.add_subparsers(dest="experiment", required=True)

    g = exp.add_parser("gaussian", help="Gaussian-bump spectrum recovery ensemble")
    g.add_argument("--n-realizations", type=_positive_int, required=True)
    g.add_argument("--n-samples", type=_positive_int, required=True)
    g.add_argument("--criterion", choices=[c.value for c in Criterion], default="fpe")
    g.add_argument("--mu", type=float, default=2.5)
    g.add_argument("--sigma", type=float, default=0.5)
    g.add_argument("--dt", type=float, default=0.125)
    g.add_argument("--n-freqs", type=_positive_int, default=1025)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out-prefix", required=True)
    g.set_defaults(func=cmd_experiment_gaussian)

    o = exp.add_parser("order-recovery", help="AR order recovery on random models")
    o.add_argument("--n-models", type=_positive_int, required=True)
    o.add_argument("--p-min", type=_positive_int, default=2)
    o.add_argument("--p-max", type=_positive_int, default=5000)
    o.add_argument("--n-samples", type=_positive_int, required=True)
    o.add_argument("--seed", type=int, required=True)
    o.add_argument("--out-prefix", required=True)
    o.set_defaults(func=cmd_experiment_order_recovery)

    return parser


def cmd_estimate(args) -> int:
    ts = _io.read_timeseries(args.infile, dt=args.dt, binary=args.binary)
    grid = None
    if args.n_freqs is not None:
        grid = spectrum.frequency_grid(args.n_freqs, ts.dt)
    if args.demean:
        ts = TimeSeries(samples=ts.samples - ts.samples.mean(), dt=ts.dt)
    trace = fit(ts, args.max_order, criterion=args.criterion, patience=args.patience)
    sel = selection.select_order(trace, args.criterion)
    model = trace.model(sel.chosen_order)
    sd = spectrum.psd(model, grid)
    _io.write_psd_csv(f"{args.out_prefix}_psd.csv", sd, ts.dt)
    _io.write_json(f"{args.out_prefix}_model.json", model.to_dict())
    _io.write_json(f"{args.out_prefix}_selection.json", sel.to_dict())
    return 0


def cmd_forecast(args) -> int:
    try:
        levels = tuple(float(q) for q in args.quantiles.split(",") if q.strip())
    except ValueError:
        raise ValidationError(f"bad --quantiles value: {args.quantiles!r}")
    levels = summary_levels(levels, args.n_realizations)  # before any input is read
    model = _io.read_model(args.model)
    seed_ts = _io.read_timeseries(args.infile, dt=args.dt, binary=args.binary)
    ens = run_forecast(model, seed_ts, args.horizon, args.n_realizations, args.seed)
    summary = forecast_summary(ens, levels)
    _io.write_table(args.out, summary.column_names(),
                    (summary.steps, summary.median, *summary.quantiles))
    return 0


def cmd_generate(args) -> int:
    if args.psd_interp is not None and args.psd is None:
        raise ValidationError("--psd-interp applies only to --psd")
    if args.model is not None:
        if args.dt is not None:
            raise ValidationError("--dt does not apply to --model: the model's own dt is used")
        model = _io.read_model(args.model)
        ts = synth.generate_ar(model, args.n, burn_in=args.burn_in, rng_seed=args.seed)
    else:
        if args.burn_in is not None:
            raise ValidationError("--burn-in applies only to --model")
        if args.psd_gaussian is not None:
            mu, sigma = args.psd_gaussian
            target = validate.gaussian_bump(mu, sigma)
            dt = args.dt if args.dt is not None else 0.125
        else:
            table = _io.read_psd_csv(args.psd, args.dt)
            target = synth.tabulated_curve(table, args.psd_interp or "linear")
            dt = args.dt if args.dt is not None else 1.0 / (2.0 * table.freqs[-1])
        ts = synth.generate_from_psd(target, args.n, dt, args.seed)
    _io.write_timeseries_csv(args.out, ts)
    return 0


def _welch_window(args) -> np.ndarray:
    """The Tukey window of ``--segment`` and ``--tukey``, with ``--overlap`` checked, by flag."""
    if args.segment < 2:
        raise ValidationError(f"--segment must be >= 2, got {args.segment}")
    if not 0.0 <= args.tukey <= 1.0:
        raise ValidationError(f"--tukey must be in [0, 1], got {args.tukey}")
    if not 0.0 <= args.overlap < 1.0:
        raise ValidationError(f"--overlap must be in [0, 1), got {args.overlap}")
    window = baseline.tukey_window(args.segment, args.tukey)
    if not window.any():  # --segment 2 with any taper
        raise ValidationError(
            f"--segment {args.segment} with --tukey {args.tukey} gives a window of zeros "
            "(the window's energy is 0): use --segment 3 or more, or --tukey 0")
    return window


def cmd_welch(args) -> int:
    window = _welch_window(args)
    ts = _io.read_timeseries(args.infile, dt=args.dt, binary=args.binary)
    if args.segment > len(ts):
        raise ValidationError(f"--segment {args.segment} exceeds the {len(ts)} samples of --in")
    sd = baseline.welch_psd(ts, window, args.overlap, detrend=args.detrend)
    _io.write_psd_csv(args.out, sd, ts.dt)
    return 0


def cmd_compare(args) -> int:
    samples = args.duration * args.fs
    if not math.isfinite(samples):
        raise ValidationError(f"--duration * --fs must be finite, got {args.duration} * {args.fs}")
    for flag, value in (("--duration", args.duration), ("--fs", args.fs)):
        if value <= 0.0:
            raise ValidationError(f"{flag} must be > 0, got {value}")
    n = int(round(samples))
    if n < 2 or n % 2:
        raise ValidationError(f"duration*fs must be a positive even sample count, got {n}")
    window = _welch_window(args)
    if args.segment > n:
        raise ValidationError(f"--segment {args.segment} exceeds the {n} samples of duration*fs")
    dt = 1.0 / args.fs
    target = synth.tabulated_curve(_io.read_psd_csv(args.psd, dt), args.psd_interp)
    ts = synth.generate_from_psd(target, n, dt, args.seed)

    trace = fit(ts, criterion=args.criterion, patience=args.patience)
    sel = selection.select_order(trace, args.criterion)
    model = trace.model(sel.chosen_order)

    welch_sd = baseline.welch_psd(ts, window, args.overlap)
    grid = welch_sd.freqs
    mesa_sd = spectrum.psd(model, grid)
    truth = SpectralDensity(freqs=grid, values=target(grid))
    mesa_err = validate.relative_error_freq_avg(mesa_sd, truth)
    welch_err = validate.relative_error_freq_avg(welch_sd, truth)

    _io.write_psd_csv(f"{args.out_prefix}_mesa_psd.csv", mesa_sd, dt)
    _io.write_psd_csv(f"{args.out_prefix}_welch_psd.csv", welch_sd, dt)
    _io.write_json(
        f"{args.out_prefix}_metrics.json",
        {
            "n_samples": n,
            "seed": args.seed,
            "criterion": args.criterion,
            "chosen_order": sel.chosen_order,
            "mesa_error": mesa_err,
            "welch_error": welch_err,
        },
    )
    return 0


def _quantile_summary(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    return {quantile_label(q): float(np.quantile(arr, q)) for q in qs}


def cmd_experiment_gaussian(args) -> int:
    result = validate.run_gaussian_experiment(
        args.n_realizations, args.n_samples, args.criterion, args.seed,
        mu=args.mu, sigma=args.sigma, dt=args.dt, n_freqs=args.n_freqs,
    )
    _io.write_jsonl(f"{args.out_prefix}_records.jsonl", map(asdict, result.records))
    _io.write_json(
        f"{args.out_prefix}_summary.json",
        {
            "criterion": result.criterion.value,
            "n_realizations": args.n_realizations,
            "n_samples": args.n_samples,
            "seed": args.seed,
            "order": _quantile_summary(result.orders),
            "error": _quantile_summary(result.errors),
        },
    )
    _io.write_psd_csv(f"{args.out_prefix}_mean_psd.csv", result.mean_psd, args.dt)
    # a dimensionless relative error, not a density: never folded
    _io.write_table(f"{args.out_prefix}_error_curve.csv", ("frequency_hz", "psd"),
                    (result.error_curve.freqs, result.error_curve.values))
    return 0


def cmd_experiment_order_recovery(args) -> int:
    records = validate.run_order_recovery(
        args.n_models, args.p_min, args.p_max, args.n_samples, args.seed,
    )
    _io.write_jsonl(f"{args.out_prefix}_records.jsonl", map(asdict, records))
    summary = {
        "n_models": args.n_models,
        "n_samples": args.n_samples,
        "seed": args.seed,
        "p_true": _quantile_summary([rec.p_true for rec in records]),
        "p_hat": {
            crit: _quantile_summary([rec.p_hat[crit] for rec in records])
            for crit in records[0].p_hat  # --n-models >= 1
        },
    }
    _io.write_json(f"{args.out_prefix}_summary.json", summary)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpectralError as exc:
        print(f"mesa: numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"mesa: out of memory: {str(exc) or 'allocation refused'}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"mesa: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
