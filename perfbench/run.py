"""End-to-end and per-layer benchmark of the ``mesa`` CLI.

Usage (from the repository root):
    python3 perfbench/run.py --workload estimate_1e5 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one report

Each workload is a closed loop with one client: one CLI invocation at a
time, each a fresh child process running the package from ``src/`` with
``MESA_THREADS=1`` and single-threaded BLAS. Inputs are generated from
``--seed`` by ``inputs.py``, never by the package under test.

``--trace 0`` reports the end-to-end metrics: median wall time of an
invocation, set-up time (a fresh interpreter importing ``mesa.cli`` and
building its parser, once before each plain invocation; median) and the
child's peak RSS. The report adds the failed fraction and the accuracy of
the output against the known truth. ``--trace 1`` alternates
plain and traced invocations (``traced_cli.py``) and reports per-layer
times and counts, the tracing overhead, and the microseconds per order of
``fit`` on the (N, M) kernel cases.

Every invocation's outputs are checked (finite positive PSD, first-minimum
order, stable model, ordered forecast bands, accuracy within tolerance of
the stored reference) and compared byte for byte with the run's first
invocation, plain or traced. Any failure counts in ``failed``. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Seeds: 1 is the default and the seed the accuracy references were taken
on; 9001 is held out, to confirm a gain claimed on other seeds.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
DT = 1.0 / 4096.0
MIN_PLAIN_ROUNDS = 2  # a repeat with the same seed is the determinism check
HARD_CAP_S = 140.0  # no new invocation after this, so a run ends well inside 180 s


@dataclass(frozen=True)
class Sizes:
    estimate_n: int
    gaussian_realizations: int
    gaussian_samples: int
    forecast_order: int
    forecast_seed_rows: int
    forecast_horizon: int
    forecast_realizations: int


FULL = Sizes(100_000, 200, 3000, 1024, 30_000, 1000, 1000)
TINY = Sizes(4096, 4, 512, 16, 2000, 20, 50)
# (N, M) cases of ``fit`` on white noise, read out as estimator.us_per_order.nN_mM;
# they span the small-N regime (per-order overhead) and the large-N one.
KERNEL_CASES = ((4096, 256), (4096, 1024), (30_000, 1024), (30_000, 5450))
KERNEL_REPEATS = 3

# accuracy_err at DEFAULT_SEED and the tolerance: on any seed, accuracy_err may
# exceed the reference by at most this fraction. Over seeds 0-9 and 9001 the
# largest excess seen was 5 % (estimate), 0.7 % (gaussian) and 8 % (forecast).
# accuracy_err is fixed for a seed and spreads 14 % between seeds on
# estimate_1e5, so it is a checked output, not a metric with a bound.
REFERENCE = {
    FULL: {"estimate_1e5": (0.04329314435332482, 0.25), "gaussian_obd": (0.26322228559377214, 0.05),
           "forecast_ar1024": (0.046009555927307814, 0.3)},
    TINY: {"estimate_1e5": (0.09207373557149633, 0.25), "gaussian_obd": (1.102740115590103, 0.25),
           "forecast_ar1024": (0.1951766003940402, 0.25)},
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_table(raw: bytes, header: str) -> np.ndarray:
    text = raw.decode()
    first, _, body = text.partition("\n")
    require(first == header, f"header {first!r} != {header!r}")
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    require(bool(np.isfinite(table).all()), "non-finite value in table")
    return table


def check_psd(raw: bytes) -> np.ndarray:
    table = read_table(raw, "frequency_hz,psd")
    require(bool((table[:, 1] > 0).all()), "PSD has a non-positive value")
    return table


def check_first_minimum(selection: dict) -> None:
    losses = np.array([np.nan if v is None else v for v in selection["losses"]], dtype=np.float64)
    require(bool(np.isfinite(losses).any()), "no defined loss")
    require(selection["chosen_order"] == int(np.nanargmin(losses)),
            "chosen_order is not the first minimum of the losses")


def check_stable(a) -> None:
    a = np.asarray(a, dtype=np.float64)
    require(a[0] == 1.0 and bool(np.isfinite(a).all()), "malformed model coefficients")
    if a.size > 1:
        require(float(np.max(np.abs(inputs.step_down(a)))) < 1.0, "model is not stable")


# --------------------------------------------------------------------- workloads

class Workload:
    name = ""
    outputs: tuple = ()

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes, self.seed, self.workdir = sizes, seed, workdir

    def argv(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, files: dict) -> tuple:
        """(accuracy_err, manifest facts); raises CheckFailed."""
        raise NotImplementedError


class Estimate(Workload):
    """``mesa estimate --criterion fpe`` on a three-peak series at 4096 Hz."""

    name = "estimate_1e5"
    outputs = ("est_psd.csv", "est_model.json", "est_selection.json")

    def __init__(self, sizes, seed, workdir):
        super().__init__(sizes, seed, workdir)
        self.n = sizes.estimate_n
        x = inputs.colored_series(inputs.three_peak_curve, self.n, DT, inputs.rng_for(seed, 0))
        self.series = workdir / "series.csv"
        inputs.write_column(self.series, x)

    def argv(self, out):
        return ["estimate", "--in", str(self.series), "--dt", repr(DT), "--criterion", "fpe",
                "--out-prefix", str(out / "est")]

    def check(self, files):
        psd = check_psd(files["est_psd.csv"])
        selection = json.loads(files["est_selection.json"])
        model = json.loads(files["est_model.json"])
        check_first_minimum(selection)
        check_stable(model["a"])
        require(len(model["a"]) - 1 == selection["chosen_order"], "model order != chosen_order")
        freqs, one_sided = psd[:, 0], psd[:, 1]
        two_sided = np.where((freqs > 0) & (freqs < freqs[-1]), 0.5 * one_sided, one_sided)
        truth = inputs.three_peak_curve(freqs)
        accuracy = float(np.mean(np.abs(two_sided - truth) / truth))
        facts = {"n": self.n, "max_order": min(int(2 * self.n / math.log(2 * self.n)), self.n - 1),
                 "orders_scanned": len(selection["losses"]),
                 "early_stopped": selection["early_stopped"],
                 "chosen_order": selection["chosen_order"]}
        return accuracy, facts


class Gaussian(Workload):
    """``mesa experiment gaussian --criterion obd``: many small fits."""

    name = "gaussian_obd"
    outputs = ("gauss_records.jsonl", "gauss_summary.json", "gauss_mean_psd.csv",
               "gauss_error_curve.csv")

    def argv(self, out):
        return ["experiment", "gaussian", "--n-realizations", str(self.sizes.gaussian_realizations),
                "--n-samples", str(self.sizes.gaussian_samples), "--criterion", "obd",
                "--seed", str(self.seed), "--out-prefix", str(out / "gauss")]

    def check(self, files):
        n = self.sizes.gaussian_samples
        max_order = min(int(2 * n / math.log(2 * n)), n - 1)
        records = [json.loads(line) for line in files["gauss_records.jsonl"].decode().splitlines()]
        require([r["index"] for r in records] == list(range(self.sizes.gaussian_realizations)),
                "records missing or out of order")
        orders = np.array([r["order"] for r in records])
        errors = np.array([r["error"] for r in records], dtype=np.float64)
        require(bool(((orders >= 0) & (orders <= max_order)).all()), "order outside 0..max_order")
        require(bool(np.isfinite(errors).all() and (errors >= 0).all()), "bad record error")
        check_psd(files["gauss_mean_psd.csv"])
        curve = read_table(files["gauss_error_curve.csv"], "frequency_hz,psd")
        require(bool((curve[:, 1] >= 0).all()), "negative error curve")
        summary = json.loads(files["gauss_summary.json"])
        q50 = float(summary["error"]["q50"])
        require(math.isclose(q50, float(np.quantile(errors, 0.5)), rel_tol=1e-12),
                "summary error.q50 disagrees with the records")
        require(summary["order"]["q50"] == float(np.quantile(orders, 0.5)),
                "summary order.q50 disagrees with the records")
        facts = {"n": n, "max_order": max_order, "realizations": len(records),
                 "chosen_order_q50": summary["order"]["q50"]}
        return q50, facts


class Forecast(Workload):
    """``mesa forecast`` from a random stable AR model: no fit at all."""

    name = "forecast_ar1024"
    outputs = ("forecast.csv",)

    def __init__(self, sizes, seed, workdir):
        super().__init__(sizes, seed, workdir)
        rng = inputs.rng_for(seed, 1)
        a = inputs.random_stable_model(sizes.forecast_order, rng)
        series = inputs.simulate_ar(a, 1.0, sizes.forecast_seed_rows, rng)
        self.mean, self.sigma = inputs.forecast_truth(a, 1.0, series, sizes.forecast_horizon)
        self.series, self.model = workdir / "seed.csv", workdir / "model.json"
        inputs.write_column(self.series, series)
        inputs.write_model(self.model, a, 1.0, DT)

    def argv(self, out):
        return ["forecast", "--in", str(self.series), "--dt", repr(DT), "--model", str(self.model),
                "--horizon", str(self.sizes.forecast_horizon),
                "--n-realizations", str(self.sizes.forecast_realizations),
                "--seed", str(self.seed), "--out", str(out / "forecast.csv")]

    def check(self, files):
        table = read_table(files["forecast.csv"], "step,median,q05,q95")
        horizon = self.sizes.forecast_horizon
        require(table[:, 0].tolist() == list(range(1, horizon + 1)), "steps are not 1..horizon")
        median, q05, q95 = table[:, 1], table[:, 2], table[:, 3]
        require(bool((q05 <= median).all() and (median <= q95).all()),
                "forecast bands are not ordered q05 <= median <= q95")
        mu, sigma = self.mean, self.sigma
        err = (np.abs(median - mu) + np.abs(q05 - (mu - inputs.Z95 * sigma))
               + np.abs(q95 - (mu + inputs.Z95 * sigma))) / (3.0 * sigma)
        facts = {"n": self.sizes.forecast_seed_rows, "max_order": None,
                 "model_order": self.sizes.forecast_order, "orders_computed": 0,
                 "orders_scanned": 0, "horizon": horizon,
                 "realizations": self.sizes.forecast_realizations}
        return float(np.mean(err)), facts


WORKLOADS = {w.name: w for w in (Estimate, Gaussian, Forecast)}


# ------------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), MESA_THREADS="1", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Spawner:
    """The launcher (spawn.py) that runs every timed child; see its docstring."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list, log: Path, timeout: float) -> dict:
        """Run ``cmd`` to completion; wall seconds, peak RSS (MB) and exit code."""
        request = {"cmd": [str(c) for c in cmd], "env": child_env(), "cwd": str(ROOT),
                   "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def collect_outputs(out: Path, names) -> dict:
    return {name: (out / name).read_bytes() if (out / name).is_file() else None for name in names}


def digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + (files[name] or b"<missing>") + b"\0")
    return h.hexdigest()


def manifest_child(workdir: Path) -> dict:
    code = ("import json, platform, mesa, numpy, scipy, mesa.cli\n"
            "print(json.dumps({'mesa_version': mesa.__version__,"
            " 'mesa_kernel': getattr(mesa, 'KERNEL', None), 'mesa_file': mesa.__file__,"
            " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
            " 'python': platform.python_version()}))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise SystemExit(f"perfbench: cannot import mesa from {SRC}:\n{out.stderr}")
    info = json.loads(out.stdout)
    if not Path(info["mesa_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported mesa from {info['mesa_file']}, not from {SRC}")
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        info["git_commit"] = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except FileNotFoundError:
        info["git_commit"] = "unavailable"
    info["nproc"] = os.cpu_count()
    info["affinity"] = len(os.sched_getaffinity(0))
    env = child_env()
    info["env"] = {k: env.get(k) for k in ("MESA_THREADS", "OMP_NUM_THREADS",
                                            "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


# ---------------------------------------------------------------------- runs

def per_layer(spans: dict, wall: float) -> dict:
    total, self_time, counts = spans["layers"]["total"], spans["layers"]["self"], spans["counts"]
    fit_s, orders = total.get("estimator", 0.0), counts.get("estimator.orders_computed", 0)
    scanned = counts.get("selection.orders_scanned", 0)
    forecast_s, steps = total.get("forecast", 0.0), counts.get("forecast.member_steps", 0)
    top = sum(s["end"] - s["start"] for s in spans["spans"] if s["parent"] < 0)
    return {
        "cli.startup_s": wall - spans["main_s"],
        "cli.self_s": spans["main_s"] - top,
        "io.read_s": total.get("io.read", 0.0),
        "io.read_rows": counts.get("io.read_rows", 0),
        "io.write_s": total.get("io.write", 0.0),
        "io.write_bytes": counts.get("io.write_bytes", 0),
        "estimator.fit_s": fit_s,
        "estimator.fit_calls": counts.get("estimator.fit_calls", 0),
        "estimator.orders_computed": orders,
        "estimator.us_per_order": 1e6 * fit_s / orders if orders else 0.0,
        "estimator.sys_s": counts.get("estimator.sys_s", 0.0),
        "estimator.minflt": counts.get("estimator.minflt", 0),
        "selection.select_s": total.get("selection", 0.0),
        "selection.orders_scanned": scanned,
        "selection.useful_ratio": scanned / orders if orders else 0.0,
        "selection.early_stopped": counts.get("selection.early_stopped", 0),
        "spectrum.psd_s": total.get("spectrum", 0.0),
        "spectrum.psd_points": counts.get("spectrum.psd_points", 0),
        "synth.generate_s": total.get("synth", 0.0),
        "forecast.forecast_s": forecast_s,
        "forecast.member_steps": steps,
        "forecast.ns_per_member_step": 1e9 * forecast_s / steps if steps else 0.0,
        "forecast.summary_s": total.get("forecast_summary", 0.0),
        "validate.self_s": self_time.get("validate", 0.0),
    }


PER_LAYER_UNITS = {
    "cli.startup_s": "s", "cli.self_s": "s", "io.read_s": "s", "io.read_rows": "count",
    "io.write_s": "s", "io.write_bytes": "bytes", "estimator.fit_s": "s",
    "estimator.fit_calls": "count", "estimator.orders_computed": "count",
    "estimator.us_per_order": "us", "estimator.sys_s": "s", "estimator.minflt": "count",
    "selection.select_s": "s", "selection.orders_scanned": "count",
    "selection.useful_ratio": "1", "spectrum.psd_s": "s", "spectrum.psd_points": "count",
    "synth.generate_s": "s", "forecast.forecast_s": "s", "forecast.member_steps": "count",
    "forecast.ns_per_member_step": "ns", "forecast.summary_s": "s", "validate.self_s": "s",
    "trace.overhead_frac": "1",
}


def invoke(spawner: Spawner, workload: Workload, kind: str, workdir: Path, i: int,
           timeout: float) -> dict:
    """One CLI invocation, plain or traced, with its outputs' digest."""
    out = workdir / f"out{i}"
    out.mkdir()
    cmd = [sys.executable, "-m", "mesa.cli"]
    if kind == "traced":
        cmd = [sys.executable, str(TRACED_CLI), str(workdir / f"spans{i}.json"), "--"]
    log = workdir / f"inv{i}.log"
    res = spawner.run(cmd + workload.argv(out), log, timeout)
    res.update(kind=kind, problems=[], files=collect_outputs(out, workload.outputs))
    res["digest"] = digest(res["files"])
    shutil.rmtree(out)
    if res["code"] != 0:
        res["problems"].append(f"exit code {res['code']}: {log.read_text()[-400:]}")
    elif kind == "traced":
        spans = json.loads((workdir / f"spans{i}.json").read_text())
        res["layers"] = per_layer(spans, res["wall"])
    return res


def check_outputs(workload: Workload, files: dict, sizes: Sizes) -> dict:
    """Output checks of a run's first completed invocation."""
    try:
        accuracy, facts = workload.check(files)
        ref, tol = REFERENCE[sizes][workload.name]
        require(accuracy <= ref * (1.0 + tol),
                f"accuracy_err {accuracy:.6g} above {ref:.6g} + {tol:.0%}")
        return {"accuracy": accuracy, "facts": facts, "problem": None}
    except (CheckFailed, KeyError, ValueError, TypeError) as exc:
        return {"accuracy": None, "facts": {}, "problem": f"output check: {exc}"}


def kernel_metric(n: int, m: int) -> str:
    return f"estimator.us_per_order.n{n}_m{m}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns the result object plus the report's extra fields."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    spawner = Spawner()
    try:
        return _run(spawner, name, seed, seconds, trace, sizes, workdir)
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(spawner, name, seed, seconds, trace, sizes, workdir) -> dict:
    manifest = manifest_child(workdir)  # also the warm-up import before set-up timing
    manifest["seed"] = seed
    manifest["workload"] = name
    begin = time.perf_counter()
    workload = WORKLOADS[name](sizes, seed, workdir)

    kinds = ("plain", "traced") if trace else ("plain",)
    runs, reference, round_walls, setup = [], None, [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not trace:
            # set-up samples are spread over the run, like the invocations,
            # so both see the same drift in machine speed
            cmd = [sys.executable, "-c", "import mesa.cli; mesa.cli.build_parser()"]
            res = spawner.run(cmd, workdir / "setup.log", 120.0)
            if res["code"] != 0:
                raise SystemExit("perfbench: set-up child failed: "
                                 + (workdir / "setup.log").read_text())
            setup.append(res["wall"])
        for kind in (kinds if len(round_walls) % 2 == 0 else kinds[::-1]):
            res = invoke(spawner, workload, kind, workdir, len(runs),
                         HARD_CAP_S + 30.0 - (time.perf_counter() - begin))
            files = res.pop("files")
            if res["code"] == 0:
                if reference is None:
                    reference = check_outputs(workload, files, sizes)
                    reference["digest"] = res["digest"]
                if reference["problem"]:
                    res["problems"].append(reference["problem"])
                if res["digest"] != reference["digest"]:
                    res["problems"].append(f"{kind} output differs from the first invocation's")
            runs.append(res)
        round_walls.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        min_rounds = 1 if trace else MIN_PLAIN_ROUNDS
        typical = statistics.median(round_walls)
        if len(round_walls) >= min_rounds and elapsed + typical > seconds:
            break
        if time.perf_counter() - begin + typical > HARD_CAP_S:
            break

    failures = [r for r in runs if r["problems"]]
    plain = [r for r in runs if r["kind"] == "plain" and not r["problems"]]
    if reference:
        manifest["workload_facts"] = reference["facts"]
    result = {"attempted": len(runs), "failed": len(failures), "manifest": manifest,
              "problems": sorted({p for r in failures for p in r["problems"]})}
    if not trace:
        walls = [r["wall"] for r in plain]
        metrics = {
            "wall_s": statistics.median(walls) if walls else None,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain) if plain else None,
        }
        result["samples"] = {"wall_s": len(walls), "setup_s": len(setup), "peak_rss_mb": len(plain)}
        result["wall_samples"] = walls
        result["accuracy_err"] = reference["accuracy"] if reference else None
        result["units"] = END_TO_END_UNITS
    else:
        traced = [r for r in runs if r["kind"] == "traced" and not r["problems"]]
        metrics = {}
        for key in PER_LAYER_UNITS:
            if key == "trace.overhead_frac":
                metrics[key] = (statistics.median(r["wall"] for r in traced)
                                / statistics.median(r["wall"] for r in plain) - 1.0
                                if traced and plain else None)
            else:
                metrics[key] = statistics.median(r["layers"][key] for r in traced) if traced else None
        result["samples"] = {k: len(traced) for k in metrics}
        for (n, m), value in zip(KERNEL_CASES, kernel_cases(spawner, workdir)):
            metrics[kernel_metric(n, m)] = value
            result["samples"][kernel_metric(n, m)] = KERNEL_REPEATS
        result["units"] = dict(PER_LAYER_UNITS, **{kernel_metric(n, m): "us"
                                                   for n, m in KERNEL_CASES})
        if traced:
            facts = manifest.setdefault("workload_facts", {})
            facts["orders_computed"] = metrics["estimator.orders_computed"]
            facts["orders_scanned"] = metrics["selection.orders_scanned"]
            facts["fit_calls"] = metrics["estimator.fit_calls"]
            facts["early_stopped_count"] = statistics.median(
                r["layers"]["selection.early_stopped"] for r in traced)
    result["metrics"] = metrics
    result["correct"] = not failures and all(v is not None for v in metrics.values())
    return result


def kernel_cases(spawner: Spawner, workdir: Path) -> list:
    out = workdir / "kernels.json"
    cmd = [sys.executable, str(TRACED_CLI), str(out), "--kernel-cases", str(KERNEL_REPEATS)]
    res = spawner.run(cmd + [f"{n}:{m}" for n, m in KERNEL_CASES], workdir / "kernels.log", 150.0)
    if res["code"] != 0:
        return [None] * len(KERNEL_CASES)
    values = json.loads(out.read_text())["kernel_us_per_order"]
    return [values[f"n{n}_m{m}"] for n, m in KERNEL_CASES]


# -------------------------------------------------------------------- report

def upper_percentile(values):
    """Highest of p99/p95/p90/p75 with at least 10 samples beyond it, if any."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def report(name: str, seed: int, trace: bool, result: dict) -> None:
    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"invocations {result['attempted']} (closed loop, 1 client)")
    print(f"   {'metric':<36} {'value':>14}  {'unit':<6} {'n':>3}")
    for key, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {key:<36} {shown:>14}  {result['units'][key]:<6} {result['samples'][key]:>3}")
    frac = result["failed"] / result["attempted"]
    print(f"   {'failed_frac':<36} {frac:>14.6g}  {'1':<6} {result['attempted']:>3}")
    if not trace:
        acc = result["accuracy_err"]
        shown = "n/a" if acc is None else f"{acc:.6g}"
        print(f"   {'accuracy_err':<36} {shown:>14}  {'1':<6} {1:>3}  (fixed for the seed)")
        upper = upper_percentile(result["wall_samples"])
        print("   wall_s " + (f"p{upper[0]} = {upper[1]:.6g} s" if upper else
                             "upper percentile: fewer than 20 samples, median only"))
        print("   wall_s samples " + " ".join(f"{w:.3f}" for w in result["wall_samples"]))
    for problem in result["problems"]:
        print(f"   FAILED: {problem}")
    print("   manifest " + json.dumps(result["manifest"], sort_keys=True))


def json_line(result: dict) -> str:
    metrics = {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mesa" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mesa'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, bool(args.trace), results[name])
    if args.workload == "all":
        print(json.dumps({name: json.loads(json_line(r)) for name, r in results.items()}))
    else:
        print(json_line(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
