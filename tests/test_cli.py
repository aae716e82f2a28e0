"""End-to-end CLI: artifacts, exit codes, determinism."""
import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import welch as scipy_welch

import mesa
from mesa._io import fmt, read_psd_csv, read_timeseries
from mesa.baseline import tukey_window
from mesa.cli import build_parser, main
from mesa.core import ArModel
from mesa.estimator import fit
from mesa.selection import max_order
from mesa.spectrum import psd
from mesa.synth import tabulated_curve
from mesa.validate import run_gaussian_experiment


def run(argv):
    return main([str(a) for a in argv])


def write_noise(path, n=2000, seed=0, dt=0.01):
    rng = np.random.default_rng(seed)
    path.write_text("\n".join(fmt(v) for v in rng.standard_normal(n)) + "\n")
    return path


def write_tabulated(path, ny=50.0):
    f = np.linspace(0.0, ny, 257)
    v = 1.0 + 10.0 / (1.0 + ((f - 20.0) / 2.0) ** 2)
    path.write_text("frequency_hz,psd\n" + "\n".join(f"{fmt(a)},{fmt(b)}" for a, b in zip(f, v)) + "\n")
    return path


def readme_commands():
    # the argv of each command in the README's "Command line" block
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = (shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines())
    return [argv for argv in lines if argv]


def subcommands(parser, prefix=()):
    # every leaf command path of the parser, e.g. ("experiment", "gaussian")
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, prefix + (name,))
            return
    yield prefix


def test_readme_commands_parse():
    # every command the README shows must still be accepted by the parser
    commands = readme_commands()
    assert len(commands) == 9
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "mesa"
        assert callable(parser.parse_args(argv[1:]).func), argv


def test_readme_command_line_block_parses():
    # the block shows every subcommand the parser has, and nothing else
    parser = build_parser()
    shown = set()
    for argv in readme_commands():
        args = parser.parse_args(argv[1:])
        shown.add((args.command,) + ((args.experiment,) if args.command == "experiment" else ()))
    assert shown == set(subcommands(parser))
    assert len(shown) == 7


def test_cli_import_does_not_load_scipy():
    # scipy.signal takes about a second to import and only AR simulation needs it
    src = str(Path(mesa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, mesa.cli; mesa.cli.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_estimate_writes_three_artifacts(tmp_path):
    data = write_noise(tmp_path / "noise.csv")
    prefix = tmp_path / "out"
    assert run(["estimate", "--in", data, "--dt", "0.01", "--criterion", "fpe",
                "--out-prefix", prefix]) == 0
    psd_rows = (tmp_path / "out_psd.csv").read_text().splitlines()
    assert psd_rows[0] == "frequency_hz,psd"
    assert len(psd_rows) > 10
    model = ArModel.from_dict(json.loads((tmp_path / "out_model.json").read_text()))
    assert model.a[0] == 1.0 and model.dt == 0.01
    sel = json.loads((tmp_path / "out_selection.json").read_text())
    assert sel["criterion"] == "fpe"
    assert sel["chosen_order"] == int(np.nanargmin(
        [np.inf if v is None else v for v in sel["losses"]]))


def test_estimate_demean_fits_the_series_less_its_mean(tmp_path):
    x = 1e3 + np.random.default_rng(4).standard_normal(2000)
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(fmt(v) for v in x) + "\n")
    centred = tmp_path / "centred.csv"
    centred.write_text("\n".join(fmt(v) for v in x - x.mean()) + "\n")
    for prefix, path, flags in [("d", raw, ["--demean"]), ("c", centred, []), ("r", raw, [])]:
        assert run(["estimate", "--in", path, "--dt", "0.01", *flags,
                    "--out-prefix", tmp_path / prefix]) == 0
    for suffix in ("_psd.csv", "_model.json", "_selection.json"):
        demeaned = (tmp_path / f"d{suffix}").read_bytes()
        assert demeaned == (tmp_path / f"c{suffix}").read_bytes()
        assert demeaned != (tmp_path / f"r{suffix}").read_bytes()


def test_estimate_cat_inverse_sum(tmp_path):
    data = write_noise(tmp_path / "noise.csv")
    prefix = tmp_path / "out"
    assert run(["estimate", "--in", data, "--dt", "0.01", "--criterion", "cat-invsum",
                "--out-prefix", prefix]) == 0
    sel = json.loads((tmp_path / "out_selection.json").read_text())
    assert sel["criterion"] == "cat-invsum"
    assert sel["losses"][0] is None
    assert sel["chosen_order"] >= 1


def test_estimate_cat_inverse_sum_scans_every_order_by_default(tmp_path):
    data = write_noise(tmp_path / "noise.csv")
    base = ["estimate", "--in", data, "--dt", "0.01", "--criterion", "cat-invsum"]
    assert run(base + ["--out-prefix", tmp_path / "def"]) == 0
    assert run(base + ["--patience", "inf", "--out-prefix", tmp_path / "full"]) == 0
    default = (tmp_path / "def_selection.json").read_bytes()
    assert default == (tmp_path / "full_selection.json").read_bytes()
    assert not json.loads(default)["early_stopped"]
    # --patience still turns the early stop on
    assert run(base + ["--patience", "5", "--out-prefix", tmp_path / "pat"]) == 0
    assert json.loads((tmp_path / "pat_selection.json").read_text())["early_stopped"]


def test_estimate_patience_inf_is_a_full_scan(tmp_path):
    data = write_noise(tmp_path / "noise.csv")
    assert run(["estimate", "--in", data, "--dt", "0.01", "--patience", "inf",
                "--out-prefix", tmp_path / "full"]) == 0
    ts = read_timeseries(data, dt=0.01)
    trace = fit(ts, max_order(len(ts)), criterion="fpe", patience=math.inf)
    sel = json.loads((tmp_path / "full_selection.json").read_text())
    assert sel == json.loads(json.dumps(trace.selection.to_dict()))
    # on white noise the default patience of 100 would stop near order 100
    assert not sel["early_stopped"] and len(sel["losses"]) == trace.max_order + 1


def test_estimate_two_column_input(tmp_path):
    rng = np.random.default_rng(1)
    t = np.arange(500) * 0.5
    x = rng.standard_normal(500)
    path = tmp_path / "two.csv"
    path.write_text("time,value\n" + "\n".join(f"{fmt(a)},{fmt(b)}" for a, b in zip(t, x)) + "\n")
    ts = read_timeseries(path)
    assert ts.dt == pytest.approx(0.5)
    assert run(["estimate", "--in", path, "--out-prefix", tmp_path / "o"]) == 0


def test_estimate_binary_input(tmp_path):
    x = np.random.default_rng(2).standard_normal(1000)
    path = tmp_path / "raw.f64"
    x.astype("<f8").tofile(path)
    assert run(["estimate", "--in", path, "--binary", "--dt", "0.25",
                "--out-prefix", tmp_path / "b"]) == 0


def test_estimate_binary_input_truncated(tmp_path):
    x = np.random.default_rng(2).standard_normal(1000)
    path = tmp_path / "raw.f64"
    path.write_bytes(x.astype("<f8").tobytes() + b"\x00\x01\x02")
    assert run(["estimate", "--in", path, "--binary", "--dt", "0.25",
                "--out-prefix", tmp_path / "b"]) == 2
    assert not (tmp_path / "b_model.json").exists()


def test_estimate_usage_errors(tmp_path):
    data = write_noise(tmp_path / "noise.csv")
    with pytest.raises(SystemExit) as err:
        run(["estimate", "--in", data, "--dt", "0.01", "--criterion", "bogus",
             "--out-prefix", tmp_path / "x"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["estimate", "--in", data, "--dt", "0.01", "--max-order", "0",
             "--out-prefix", tmp_path / "x"])
    assert err.value.code == 2
    # --patience is a positive integer or inf
    for bad in ("nan", "0", "-1", "2.5", "-inf"):
        with pytest.raises(SystemExit) as err:
            run(["estimate", "--in", data, "--dt", "0.01", "--patience", bad,
                 "--out-prefix", tmp_path / "x"])
        assert err.value.code == 2
    # an order the 2000-row input cannot support
    assert run(["estimate", "--in", data, "--dt", "0.01", "--max-order", "2000",
                "--out-prefix", tmp_path / "x"]) == 2
    # missing --dt on single-column input
    assert run(["estimate", "--in", data, "--out-prefix", tmp_path / "x"]) == 2
    # unreadable input
    assert run(["estimate", "--in", tmp_path / "missing.csv", "--dt", "0.01",
                "--out-prefix", tmp_path / "x"]) == 2


def test_binary_file_without_binary_flag_is_a_usage_error(tmp_path, capsys):
    raw = tmp_path / "x.bin"
    np.random.default_rng(4).standard_normal(256).astype("<f8").tofile(raw)
    commands = [
        ["estimate", "--in", raw, "--dt", "1", "--out-prefix", tmp_path / "e"],
        ["welch", "--in", raw, "--dt", "1", "--segment", "64", "--out", tmp_path / "w.csv"],
        ["generate", "--psd", raw, "--n", "64", "--seed", "1", "--out", tmp_path / "g.csv"],
        ["forecast", "--model", raw, "--in", raw, "--dt", "1", "--horizon", "2", "--seed", "1",
         "--out", tmp_path / "f.csv"],
    ]
    for argv in commands:
        assert run(argv) == 2, argv[0]
        assert str(raw) in capsys.readouterr().err


def test_estimate_degenerate_exit_code(tmp_path):
    path = tmp_path / "zeros.csv"
    path.write_text("\n".join(["0.0"] * 64) + "\n")
    assert run(["estimate", "--in", path, "--dt", "1.0", "--out-prefix", tmp_path / "z"]) == 3


@pytest.mark.parametrize("command, argv", [
    ("cmd_estimate", ["estimate", "--in", "x.csv", "--out-prefix", "o"]),
    ("cmd_forecast", ["forecast", "--in", "x.csv", "--model", "m.json", "--horizon", "2",
                      "--seed", "1", "--out", "f.csv"]),
    ("cmd_generate", ["generate", "--psd-gaussian", "2.5", "0.5", "--n", "8", "--seed", "1",
                      "--out", "g.csv"]),
    ("cmd_experiment_gaussian", ["experiment", "gaussian", "--n-realizations", "2",
                                 "--n-samples", "8", "--seed", "1", "--out-prefix", "e"]),
])
@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
     "mesa: out of memory: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)"),
    (MemoryError(), "mesa: out of memory: allocation refused"),
], ids=["numpy", "bare"])
def test_memory_error_exits_3_with_one_line(monkeypatch, capsys, command, argv, error, message):
    # the command raises as a refused allocation would; nothing is allocated
    def refuse(args):
        raise error

    monkeypatch.setattr(f"mesa.cli.{command}", refuse)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def test_generate_gaussian_row_count(tmp_path):
    out = tmp_path / "gen.csv"
    assert run(["generate", "--psd-gaussian", "2.5", "0.5", "--n", "3000",
                "--seed", "1", "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 3000


def test_generate_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["generate", "--psd-gaussian", "2.5", "0.5", "--n", "100",
             "--out", tmp_path / "g.csv"])
    assert err.value.code == 2


def test_generate_deterministic_given_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["generate", "--psd-gaussian", "2.5", "0.5", "--n", "512",
                    "--seed", "42", "--out", out]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_ar_model_roundtrip(tmp_path):
    model = ArModel(a=[1.0, -0.7], p_m=1.0, dt=0.5)
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model.to_dict()))
    out = tmp_path / "sim.csv"
    assert run(["generate", "--model", mpath, "--n", "400", "--seed", "3", "--out", out]) == 0
    ts = read_timeseries(out, dt=0.5)
    assert len(ts) == 400


@pytest.mark.parametrize("source, flag", [
    (["--model", "{model}"], ["--dt", "0.5"]),
    (["--psd-gaussian", "2.5", "0.5"], ["--burn-in", "100"]),
    (["--psd-gaussian", "2.5", "0.5"], ["--psd-interp", "loglog"]),
    (["--model", "{model}"], ["--psd-interp", "linear"]),
], ids=["dt-with-model", "burn-in-without-model", "psd-interp-with-gaussian", "psd-interp-with-model"])
def test_generate_rejects_a_flag_it_would_ignore(tmp_path, capsys, source, flag):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(ArModel(a=[1.0, -0.7], p_m=1.0, dt=0.25).to_dict()))
    argv = ["generate", *source, *flag, "--n", "100", "--seed", "1", "--out", tmp_path / "g.csv"]
    assert run([str(a).format(model=model) for a in argv]) == 2
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("payload", [
    {"a": "abc", "p_m": 1.0, "dt": 1.0},
    {"a": [1.0, -0.5], "p_m": None, "dt": 1.0},
    [1.0, -0.5],
], ids=["bad-coefficients", "null-power", "top-level-list"])
def test_malformed_model_json_is_a_usage_error(tmp_path, capsys, payload):
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(payload))
    data = tmp_path / "seed.csv"
    data.write_text("0.0\n1.0\n")
    assert run(["forecast", "--model", mpath, "--in", data, "--dt", "1.0", "--horizon", "2",
                "--seed", "1", "--out", tmp_path / "fc.csv"]) == 2
    assert run(["generate", "--model", mpath, "--n", "10", "--seed", "1",
                "--out", tmp_path / "sim.csv"]) == 2
    assert str(mpath) in capsys.readouterr().err


def test_welch_command(tmp_path):
    data = write_noise(tmp_path / "noise.csv", n=8192)
    out = tmp_path / "welch.csv"
    assert run(["welch", "--in", data, "--dt", "0.01", "--segment", "1024",
                "--overlap", "0.5", "--tukey", "0.4", "--out", out]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "frequency_hz,psd"
    assert len(rows) == 1 + 513


def scipy_one_sided(x, dt, segment):
    """scipy's one-sided Welch density with the CLI's defaults (overlap 0.5, Tukey 0.4)."""
    return scipy_welch(x, fs=1.0 / dt, window=tukey_window(segment, 0.4), nperseg=segment,
                       noverlap=segment - segment // 2, detrend=False)


@pytest.mark.parametrize("dt", ["0.003", "0.007"])
def test_welch_last_bin_at_nyquist_is_not_doubled(tmp_path, dt):
    # rfftfreq(100, dt)[-1] is Nyquist, yet it misses 1/(2 dt) by an ulp:
    # 166.66666666666669 at dt 0.003, and below it, 71.42857142857142, at 0.007
    data = write_noise(tmp_path / "noise.csv", n=1000)
    out = tmp_path / "welch.csv"
    assert run(["welch", "--in", data, "--dt", dt, "--segment", "100", "--out", out]) == 0
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    ts = read_timeseries(data, dt=float(dt))
    f_ref, p_ref = scipy_one_sided(ts.samples, ts.dt, 100)
    np.testing.assert_array_equal(got[:, 0], f_ref)
    np.testing.assert_allclose(got[:, 1], p_ref, rtol=1e-12)
    two = mesa.welch_psd(ts, tukey_window(100, 0.4), 0.5).values
    np.testing.assert_array_equal(got[1:-1, 1], 2.0 * two[1:-1])
    assert got[-1, 1] == two[-1]


def test_welch_rejects_a_window_without_energy(tmp_path, capsys):
    # tukey_window(2, 0.4) is all zeros
    data = write_noise(tmp_path / "noise.csv", n=64)
    out = tmp_path / "welch.csv"
    assert run(["welch", "--in", data, "--dt", "1", "--segment", "2", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "window's energy" in err
    assert "--segment 2 with --tukey 0.4" in err
    assert not out.exists()


def no_fit(*args, **kwargs):
    raise AssertionError("the series was fitted before the flags were checked")


@pytest.mark.parametrize("flags, message", [
    (["--segment", "2"], "--segment 2 with --tukey 0.4 gives a window of zeros"),
    (["--segment", "1"], "--segment must be >= 2, got 1"),
    (["--segment", "512"], "--segment 512 exceeds the 256 samples of duration*fs"),
    (["--tukey", "2"], "--tukey must be in [0, 1], got 2.0"),
    (["--overlap", "1"], "--overlap must be in [0, 1), got 1.0"),
], ids=["segment-2", "segment-1", "segment-above-n", "tukey", "overlap"])
def test_compare_checks_the_window_before_fitting(tmp_path, monkeypatch, capsys, flags, message):
    monkeypatch.setattr("mesa.cli.fit", no_fit)
    tab = write_tabulated(tmp_path / "target.csv")
    assert run(["compare", "--psd", tab, "--duration", "2", "--fs", "128", "--seed", "5",
                *flags, "--out-prefix", tmp_path / "cmp"]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.csv"]


def test_forecast_command(tmp_path):
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model.to_dict()))
    data = tmp_path / "seed.csv"
    data.write_text("\n".join(["0.0", "1.0", "2.0", "1.5"]) + "\n")
    out = tmp_path / "fc.csv"
    assert run(["forecast", "--model", mpath, "--in", data, "--dt", "1.0",
                "--horizon", "5", "--n-realizations", "50", "--seed", "9",
                "--quantiles", "0.05,0.95", "--out", out]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "step,median,q05,q95"
    assert len(rows) == 6


def test_forecast_quantile_columns(tmp_path):
    model = ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0)
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(model.to_dict()))
    data = tmp_path / "seed.csv"
    data.write_text("0.0\n1.0\n")
    out = tmp_path / "fc.csv"
    args = ["forecast", "--model", mpath, "--in", data, "--dt", "1.0", "--horizon", "3",
            "--n-realizations", "20", "--seed", "9", "--out", out, "--quantiles"]
    assert run(args + ["0.001,0.05,0.051,0.999"]) == 0
    assert out.read_text().splitlines()[0] == "step,median,q00.1,q05,q05.1,q99.9"
    out.unlink()
    assert run(args + ["0.05,0.95,0.050"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--quantiles", "0.05,1.5"], "strictly inside (0, 1)"),
    (["--quantiles", "0.05,0.05"], "must be distinct"),
    (["--n-realizations", "1"], "at least two realizations"),
])
def test_forecast_checks_the_summary_before_forecasting(tmp_path, monkeypatch, capsys, flags, message):
    def no_forecast(*args, **kwargs):
        raise AssertionError("the ensemble was built before the summary request was checked")

    monkeypatch.setattr("mesa.cli.run_forecast", no_forecast)
    mpath = tmp_path / "model.json"
    mpath.write_text(json.dumps(ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0).to_dict()))
    data = tmp_path / "seed.csv"
    data.write_text("0.0\n1.0\n")
    out = tmp_path / "fc.csv"
    assert run(["forecast", "--model", mpath, "--in", data, "--dt", "1.0", "--horizon", "3",
                "--seed", "9", "--out", out, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_forecast_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["forecast", "--model", tmp_path / "m.json", "--in", tmp_path / "d.csv",
             "--horizon", "5", "--out", tmp_path / "f.csv"])
    assert err.value.code == 2


def test_compare_command(tmp_path):
    tab = write_tabulated(tmp_path / "target.csv")
    prefix = tmp_path / "cmp"
    assert run(["compare", "--psd", tab, "--duration", "2", "--fs", "128",
                "--seed", "5", "--segment", "64", "--out-prefix", prefix]) == 0
    metrics = json.loads((tmp_path / "cmp_metrics.json").read_text())
    assert set(metrics) >= {"mesa_error", "welch_error", "chosen_order"}
    assert metrics["mesa_error"] >= 0 and metrics["welch_error"] >= 0
    for suffix in ("_mesa_psd.csv", "_welch_psd.csv"):
        assert (tmp_path / ("cmp" + suffix)).exists()


@pytest.mark.parametrize("duration, fs", [("1", "inf"), ("nan", "128"), ("1e300", "1e300")])
def test_compare_refuses_a_non_finite_sample_count(tmp_path, capsys, duration, fs):
    tab = write_tabulated(tmp_path / "target.csv")
    assert run(["compare", "--psd", tab, "--duration", duration, "--fs", fs, "--seed", "5",
                "--out-prefix", tmp_path / "cmp"]) == 2
    assert "--duration * --fs must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.csv"]


def test_compare_and_welch_fold_an_odd_segment_as_scipy_does(tmp_path):
    # an odd segment's last bin lies below Nyquist, so it is doubled too
    tab = write_tabulated(tmp_path / "target.csv")
    assert run(["compare", "--psd", tab, "--duration", "2", "--fs", "128",
                "--seed", "5", "--segment", "63", "--out-prefix", tmp_path / "cmp"]) == 0
    dt = 1.0 / 128
    x = mesa.generate_from_psd(tabulated_curve(read_psd_csv(tab, dt)), 256, dt, 5).samples
    f_ref, p_ref = scipy_one_sided(x, dt, 63)
    data = tmp_path / "x.csv"
    data.write_text("\n".join(fmt(v) for v in x) + "\n")
    assert run(["welch", "--in", data, "--dt", fmt(dt), "--segment", "63",
                "--out", tmp_path / "welch.csv"]) == 0
    for name in ("cmp_welch_psd.csv", "welch.csv"):
        got = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got[:, 0], f_ref)
        np.testing.assert_allclose(got[:, 1], p_ref, rtol=1e-12)


def test_experiment_gaussian_command(tmp_path):
    prefix = tmp_path / "exp"
    assert run(["experiment", "gaussian", "--n-realizations", "3", "--n-samples", "600",
                "--criterion", "fpe", "--seed", "11", "--out-prefix", prefix]) == 0
    lines = (tmp_path / "exp_records.jsonl").read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert set(rec) == {"index", "order", "error"}
    summary = json.loads((tmp_path / "exp_summary.json").read_text())
    assert summary["criterion"] == "fpe"
    assert "q50" in summary["error"]
    assert (tmp_path / "exp_mean_psd.csv").exists()
    assert (tmp_path / "exp_error_curve.csv").exists()


def test_experiment_gaussian_refuses_a_non_finite_dt(tmp_path, capsys):
    assert run(["experiment", "gaussian", "--n-realizations", "1", "--n-samples", "600",
                "--seed", "1", "--dt", "inf", "--out-prefix", tmp_path / "exp"]) == 2
    assert "dt must be finite and > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_experiment_gaussian_writes_its_mean_psd_one_sided(tmp_path):
    # like every other PSD file; the error curve is a relative error, never folded
    assert run(["experiment", "gaussian", "--n-realizations", "3", "--n-samples", "600",
                "--dt", "0.1", "--n-freqs", "301", "--seed", "2",
                "--out-prefix", tmp_path / "exp"]) == 0
    result = run_gaussian_experiment(3, 600, "fpe", 2, dt=0.1, n_freqs=301)
    f, mean = result.mean_psd.freqs, result.mean_psd.values
    mean_file = np.loadtxt(tmp_path / "exp_mean_psd.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(mean_file[:, 0], f)
    np.testing.assert_array_equal(mean_file[:, 1],
                                  np.where((f > 0.0) & (f < 1.0 / (2.0 * 0.1)), 2.0 * mean, mean))
    curve_file = np.loadtxt(tmp_path / "exp_error_curve.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(curve_file[:, 0], f)
    np.testing.assert_array_equal(curve_file[:, 1], result.error_curve.values)


def test_one_sided_psd_files_round_trip(tmp_path):
    # generate reads a one-sided table T: its series' variance is the integral
    # of T over [0, Nyquist], and estimate recovers T, not 2 T
    tab = write_tabulated(tmp_path / "target.csv", ny=64.0)
    assert run(["generate", "--psd", tab, "--n", 2**16, "--seed", "3",
                "--out", tmp_path / "x.csv"]) == 0
    f, t = np.loadtxt(tab, delimiter=",", skiprows=1).T
    x = np.loadtxt(tmp_path / "x.csv")
    assert abs(x.var() / np.trapezoid(t, f) - 1.0) < 0.05
    assert run(["estimate", "--in", tmp_path / "x.csv", "--dt", 1.0 / 128,
                "--out-prefix", tmp_path / "out"]) == 0
    est = np.loadtxt(tmp_path / "out_psd.csv", delimiter=",", skiprows=1)[1:-1]
    assert abs(np.median(est[:, 1] / np.interp(est[:, 0], f, t)) - 1.0) < 0.05
    # estimate's one-sided file reads back as the model's density, bit for bit
    model = ArModel.from_dict(json.loads((tmp_path / "out_model.json").read_text()))
    table = read_psd_csv(tmp_path / "out_psd.csv", 1.0 / 128)
    np.testing.assert_array_equal(table.values, psd(model, table.freqs).values)


def test_loglog_refuses_a_table_from_0_hz_and_names_the_linear_reading(tmp_path, capsys):
    # every PSD file the package writes starts at 0 Hz
    data = write_noise(tmp_path / "noise.csv")
    assert run(["estimate", "--in", data, "--dt", "0.01", "--out-prefix", tmp_path / "est"]) == 0
    argv = ["generate", "--psd", tmp_path / "est_psd.csv", "--n", "64", "--seed", "1"]
    assert run(argv + ["--psd-interp", "loglog", "--out", tmp_path / "log.csv"]) == 2
    err = capsys.readouterr().err
    assert "needs frequencies > 0, but the table starts at 0 Hz" in err
    assert "--psd-interp linear" in err
    assert not (tmp_path / "log.csv").exists()
    assert run(argv + ["--psd-interp", "linear", "--out", tmp_path / "lin.csv"]) == 0


def test_experiment_order_recovery_command(tmp_path):
    prefix = tmp_path / "rec"
    assert run(["experiment", "order-recovery", "--n-models", "2", "--p-min", "2",
                "--p-max", "10", "--n-samples", "2000", "--seed", "13",
                "--out-prefix", prefix]) == 0
    lines = (tmp_path / "rec_records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"index", "p_true", "p_hat"}
    # the acceptance study's criteria: its CAT reading is cat-invsum
    assert set(rec["p_hat"]) == {"fpe", "cat-invsum", "obd"}
    summary = json.loads((tmp_path / "rec_summary.json").read_text())
    assert set(summary["p_hat"]) == {"fpe", "cat-invsum", "obd"}


def test_experiment_records_bit_identical_across_runs(tmp_path):
    args = ["experiment", "gaussian", "--n-realizations", "3", "--n-samples", "600",
            "--criterion", "fpe", "--seed", "21"]
    assert run(args + ["--out-prefix", tmp_path / "r1"]) == 0
    assert run(args + ["--out-prefix", tmp_path / "r2"]) == 0
    assert (tmp_path / "r1_records.jsonl").read_bytes() == (tmp_path / "r2_records.jsonl").read_bytes()


@pytest.mark.parametrize("argv", [
    ["forecast", "--model", "{model}", "--in", "{data}", "--dt", "1.0", "--horizon", "3",
     "--out", "{tmp}/fc.csv"],
    ["generate", "--psd-gaussian", "2.5", "0.5", "--n", "100", "--out", "{tmp}/g.csv"],
    ["compare", "--psd", "{tab}", "--duration", "2", "--fs", "128", "--segment", "64",
     "--out-prefix", "{tmp}/cmp"],
    ["experiment", "gaussian", "--n-realizations", "2", "--n-samples", "200",
     "--out-prefix", "{tmp}/exp"],
    ["experiment", "order-recovery", "--n-models", "1", "--p-max", "5", "--n-samples", "200",
     "--out-prefix", "{tmp}/rec"],
], ids=["forecast", "generate", "compare", "experiment-gaussian", "experiment-order-recovery"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0).to_dict()))
    data = tmp_path / "seed.csv"
    data.write_text("0.0\n1.0\n")
    paths = {"model": model, "data": data, "tab": write_tabulated(tmp_path / "target.csv"),
             "tmp": tmp_path}
    assert run([a.format(**paths) for a in argv] + ["--seed", "-3"]) == 2
    assert "seed must be a non-negative integer, got -3" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "seed.csv", "target.csv"]


def test_estimate_checks_the_grid_before_fitting(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("mesa.cli.fit", no_fit)
    data = write_noise(tmp_path / "noise.csv")
    assert run(["estimate", "--in", data, "--dt", "0.01", "--n-freqs", "1",
                "--out-prefix", tmp_path / "e"]) == 2
    assert "need n_freqs >= 2, got 1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["noise.csv"]


def test_estimate_psd_on_grid_coarser_than_order(tmp_path):
    # the 9-point grid takes a 16-point FFT of an order-58 filter
    data = tmp_path / "g.csv"
    assert run(["generate", "--psd-gaussian", "2.5", "0.5", "--n", "20000", "--seed", "1",
                "--out", data]) == 0
    for prefix, extra in (("coarse", ["--n-freqs", "9"]), ("fine", [])):
        assert run(["estimate", "--in", data, "--dt", "0.125", "--out-prefix", tmp_path / prefix]
                   + extra) == 0
    assert json.loads((tmp_path / "coarse_selection.json").read_text())["chosen_order"] == 58
    coarse = np.loadtxt(tmp_path / "coarse_psd.csv", delimiter=",", skiprows=1)
    fine = np.loadtxt(tmp_path / "fine_psd.csv", delimiter=",", skiprows=1)
    assert coarse[:, 0].tolist() == [0.5 * k for k in range(9)]
    on_coarse = np.isin(fine[:, 0], coarse[:, 0])
    np.testing.assert_allclose(coarse[:, 1], fine[on_coarse, 1], rtol=1e-9)


@pytest.mark.parametrize("n", [4096, 16424], ids=["lattice", "fast-burg"])
def test_estimate_exactly_periodic_series_exit_code(tmp_path, capsys, n):
    # an impulse every 40 samples is predicted exactly at order 40: its power
    # is zero there on both paths, and the fit ends when order 41 is asked for
    message = "prediction errors vanished at order 40"
    x = np.zeros(n)
    x[::40] = 714660.0
    path = tmp_path / "impulses.csv"
    path.write_text("\n".join(fmt(v) for v in x) + "\n")
    assert run(["estimate", "--in", path, "--dt", "1.0", "--out-prefix", tmp_path / "p"]) == 3
    assert f"mesa: numerical error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "p_model.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_forecast_refuses_a_non_finite_or_negative_p_m(tmp_path, capsys, value):
    # the innovations' scale is sqrt(p_m), so a model JSON carries it; json reads NaN and Infinity
    model = tmp_path / "model.json"
    p_m = {"nan": "NaN", "inf": "Infinity", "-1": "-1"}[value]
    model.write_text(f'{{"a": [1.0, -0.5], "p_m": {p_m}, "dt": 1.0}}')
    data = tmp_path / "seed.csv"
    data.write_text("0.0\n1.0\n")
    assert run(["forecast", "--model", model, "--in", data, "--dt", "1.0", "--horizon", "3",
                "--seed", "1", "--out", tmp_path / "fc.csv"]) == 2
    assert "p_m must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "fc.csv").exists()


_NOT_A_MODEL = 'not an AR model JSON: needs an object with "a", "p_m" and "dt"'


@pytest.mark.parametrize("content, message", [
    (b'{"a": [1.0, -0.5], "p_m": 1.0}', _NOT_A_MODEL),
    (b"[[1.0, -0.5], 1.0, 1.0]", _NOT_A_MODEL),
    (b'{"a": [1.0, -0.5]} {"p_m": 1.0}', "not JSON: Extra data: line 1 column 20 (char 19)"),
    (b'{"a": [1.0, -0.5], "p_m": NaN, "dt": 1.0}', "p_m must be finite and >= 0"),
    (b'{"a": [2.0], "p_m": 1.0, "dt": 1.0}', "a[0] must equal 1 exactly"),
    (b"\x89PNG\r\n\x1a\n\x00\xff", "not a text file (invalid start byte)"),
], ids=["missing-key", "list", "not-json", "nan-p_m", "a0-not-one", "binary"])
def test_forecast_says_what_is_wrong_with_a_model_file(tmp_path, capsys, content, message):
    model = tmp_path / "model.json"
    model.write_bytes(content)
    data = tmp_path / "seed.csv"
    data.write_text("0.0\n1.0\n")
    assert run(["forecast", "--model", model, "--in", data, "--dt", "1.0", "--horizon", "3",
                "--seed", "1", "--out", tmp_path / "fc.csv"]) == 2
    err = capsys.readouterr().err
    assert err == f"mesa: {model}: {message}\n"
    assert "Error(" not in err and "b'" not in err
    assert not (tmp_path / "fc.csv").exists()


@pytest.mark.parametrize("argv, target", [
    (["estimate", "--in", "{tmp}/noise.csv", "--dt", "0.01", "--out-prefix", "{tmp}/missing/z"],
     "{tmp}/missing/z_psd.csv"),
    (["welch", "--in", "{tmp}/noise.csv", "--dt", "0.01", "--segment", "64", "--out", "{tmp}/e"],
     "{tmp}/e"),
], ids=["missing-directory", "output-is-a-directory"])
def test_a_failed_write_names_its_target_not_a_temporary_file(tmp_path, capsys, argv, target):
    write_noise(tmp_path / "noise.csv", n=256)
    (tmp_path / "e").mkdir()
    before = sorted(tmp_path.rglob("*"))
    errs = []
    for _ in range(2):
        assert run([a.format(tmp=tmp_path) for a in argv]) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0].endswith(f": {target.format(tmp=tmp_path)!r}\n")
    assert errs[0] == errs[1]
    assert sorted(tmp_path.rglob("*")) == before  # no temporary file left behind


@pytest.mark.parametrize("name", ["nonexist.csv", "adir"], ids=["missing-file", "directory"])
def test_a_failed_read_names_the_path_as_given(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert run(["estimate", "--in", name, "--dt", "1", "--out-prefix", "z"]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f": {name!r}\n")
    assert str(tmp_path) not in err


@pytest.mark.parametrize("argv", [
    ["generate", "--psd-gaussian", "2.5", "-0.5", "--n", "64", "--out", "{tmp}/g.csv"],
    ["generate", "--psd-gaussian", "2.5", "0", "--n", "64", "--out", "{tmp}/g.csv"],
    ["generate", "--psd-gaussian", "2.5", "inf", "--n", "64", "--out", "{tmp}/g.csv"],
    ["experiment", "gaussian", "--n-realizations", "1", "--n-samples", "64", "--mu", "nan",
     "--out-prefix", "{tmp}/exp"],
], ids=["negative-sigma", "zero-sigma", "infinite-sigma", "nan-mu"])
def test_gaussian_target_parameters_are_checked(tmp_path, capsys, argv):
    assert run([a.format(tmp=tmp_path) for a in argv] + ["--seed", "1"]) == 2
    assert "finite mu and a finite sigma > 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def write_refusal_inputs(tmp):
    """The inputs of ``test_refusals_exit_2_and_write_nothing``, one file each."""
    write_noise(tmp / "noise.csv", n=64)
    write_tabulated(tmp / "target.csv")
    np.zeros(8).astype("<f8").tofile(tmp / "x.bin")
    (tmp / "model.json").write_text(json.dumps(ArModel(a=[1.0, -0.5], p_m=1.0, dt=1.0).to_dict()))
    (tmp / "seed.csv").write_text("0.0\n1.0\n")
    (tmp / "decreasing.csv").write_text("0.2,1.0\n0.1,2.0\n0.0,3.0\n")
    (tmp / "uneven.csv").write_text("0.0,1.0\n0.1,2.0\n0.3,3.0\n")
    (tmp / "uniform.csv").write_text("0.0,1.0\n0.1,2.0\n0.2,3.0\n0.3,4.0\n")
    (tmp / "taken_psd.csv").mkdir()  # an output path that cannot be renamed over


FORECAST = ["forecast", "--model", "{tmp}/model.json", "--in", "{tmp}/seed.csv", "--horizon", "3",
            "--seed", "1", "--out", "{tmp}/out.csv"]
ESTIMATE = ["estimate", "--out-prefix", "{tmp}/out"]
COMPARE = ["compare", "--psd", "{tmp}/target.csv", "--seed", "1", "--out-prefix", "{tmp}/out"]
WELCH = ["welch", "--in", "{tmp}/noise.csv", "--dt", "1", "--out", "{tmp}/out.csv"]
GENERATE = ["generate", "--model", "{tmp}/model.json", "--seed", "1", "--out", "{tmp}/out.csv"]
TARGET = ["generate", "--n", "64", "--seed", "1", "--out", "{tmp}/out.csv"]
DT_MESSAGE = "dt must be finite and > 0"


@pytest.mark.parametrize("argv, message", [
    (FORECAST + ["--dt", "1", "--quantiles", "0.1,x"], "bad --quantiles value"),
    (COMPARE + ["--duration", "1", "--fs", "3"],
     "duration*fs must be a positive even sample count, got 3"),
    (COMPARE + ["--duration", "1", "--fs", "-100"], "--fs must be > 0, got -100.0"),
    (COMPARE + ["--duration", "-1", "--fs", "-100"], "--duration must be > 0, got -1.0"),
    (ESTIMATE + ["--in", "{tmp}/x.bin", "--binary"], "binary input requires --dt"),
    (ESTIMATE + ["--in", "{tmp}/decreasing.csv"], "time column must be increasing"),
    (ESTIMATE + ["--in", "{tmp}/uneven.csv"], "time column is not uniformly spaced"),
    (ESTIMATE + ["--in", "{tmp}/uniform.csv", "--dt", "0.2"],
     "--dt disagrees with the file's time column"),
    (WELCH + ["--segment", "1"], "--segment must be >= 2, got 1"),
    (WELCH + ["--segment", "128"], "--segment 128 exceeds the 64 samples of --in"),
    (WELCH + ["--segment", "4", "--overlap", "0.9"], "overlap too large: hop would be zero"),
    (WELCH + ["--segment", "4", "--overlap", "1"], "--overlap must be in [0, 1), got 1.0"),
    (WELCH + ["--segment", "4", "--tukey", "-0.1"], "--tukey must be in [0, 1], got -0.1"),
    (GENERATE + ["--n", "1"], "need n >= 2"),
    (GENERATE + ["--n", "64", "--burn-in", "-1"], "burn_in must be >= 0"),
    (FORECAST + ["--dt", "2"], "seed and model sampling intervals disagree"),
    (TARGET + ["--psd", "{tmp}/target.csv", "--dt", "0"], DT_MESSAGE),
    (TARGET + ["--psd", "{tmp}/target.csv", "--dt", "-0.5"], DT_MESSAGE),
    (TARGET + ["--psd", "{tmp}/target.csv", "--dt", "nan"], DT_MESSAGE),
    (TARGET + ["--psd", "{tmp}/target.csv", "--dt", "inf"], DT_MESSAGE),
    (TARGET + ["--psd-gaussian", "2.5", "0.5", "--dt", "nan"], DT_MESSAGE),
    (TARGET + ["--psd-gaussian", "2.5", "0.5", "--dt", "inf"], DT_MESSAGE),
    # the atomic writer removes its temp file when the rename fails
    (["estimate", "--in", "{tmp}/noise.csv", "--dt", "1", "--out-prefix", "{tmp}/taken"],
     "Is a directory"),
], ids=["quantiles", "odd-count", "compare-fs", "compare-duration", "binary-dt",
        "decreasing-time", "uneven-time", "dt-disagrees", "segment", "segment-above-n", "overlap",
        "overlap-range", "tukey-range", "generate-n", "burn-in", "forecast-dt", "psd-dt-zero",
        "psd-dt-negative", "psd-dt-nan", "psd-dt-inf", "gaussian-dt-nan", "gaussian-dt-inf",
        "output-is-a-directory"])
def test_refusals_exit_2_and_write_nothing(tmp_path, capsys, argv, message):
    write_refusal_inputs(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run([a.format(tmp=tmp_path) for a in argv]) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
