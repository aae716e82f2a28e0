"""End-to-end CLI: artifacts, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mesa
from mesa._io import fmt, read_timeseries
from mesa.cli import main
from mesa.core import ArModel


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
    assert run(base + ["--no-early-stop", "--out-prefix", tmp_path / "full"]) == 0
    default = (tmp_path / "def_selection.json").read_bytes()
    assert default == (tmp_path / "full_selection.json").read_bytes()
    assert not json.loads(default)["early_stopped"]
    # --patience still turns the early stop on
    assert run(base + ["--patience", "5", "--out-prefix", tmp_path / "pat"]) == 0
    assert json.loads((tmp_path / "pat_selection.json").read_text())["early_stopped"]


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
    # a full scan has no patience to apply
    with pytest.raises(SystemExit) as err:
        run(["estimate", "--in", data, "--dt", "0.01", "--no-early-stop", "--patience", "5",
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


@pytest.mark.parametrize("n,message", [
    (4096, "prediction errors vanished at order 40"),
    (16424, "the model's density is not finite and positive"),
], ids=["lattice", "fast-burg"])
def test_estimate_exactly_periodic_series_exit_code(tmp_path, capsys, n, message):
    # an impulse every 40 samples is predicted exactly at order 40: the lattice
    # finds its errors vanish there, fast Burg fits on and the PSD is not finite
    x = np.zeros(n)
    x[::40] = 714660.0
    path = tmp_path / "impulses.csv"
    path.write_text("\n".join(fmt(v) for v in x) + "\n")
    assert run(["estimate", "--in", path, "--dt", "1.0", "--out-prefix", tmp_path / "p"]) == 3
    assert f"mesa: numerical error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "p_model.json").exists()
