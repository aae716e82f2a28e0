"""Self-test of the benchmark at tiny sizes (about a minute).

Run from the repository root:
    python3 -m pytest perfbench -q

It checks that every metric BENCHMARK.json names is emitted with its unit,
that corrupted or non-repeatable outputs are counted as failures, and that
the benchmark refuses to run without the package source.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, trace=False):
    return json.loads(run.json_line(run.run_workload(name, run.DEFAULT_SEED, 0, trace, run.TINY)))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    line = tiny(name, trace)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _negate_first_psd_value(raw):
    header, first, rest = raw.split(b"\n", 2)
    freq, value = first.split(b",")
    return b"\n".join([header, freq + b",-" + value, rest])


def _inflate_summary_q50(raw):
    summary = json.loads(raw)
    summary["error"]["q50"] *= 1.5
    return json.dumps(summary).encode()


def _swap_forecast_bands(raw):
    lines = raw.decode().splitlines()
    rows = [lines[0]] + [",".join([c[0], c[1], c[3], c[2]]) for c in
                         (line.split(",") for line in lines[1:])]
    return ("\n".join(rows) + "\n").encode()


CORRUPTIONS = {
    "estimate_1e5": ("est_psd.csv", _negate_first_psd_value),
    "gaussian_obd": ("gauss_summary.json", _inflate_summary_q50),
    "forecast_ar1024": ("forecast.csv", _swap_forecast_bands),
}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_corrupted_output_is_a_failure(name, monkeypatch):
    target, corrupt = CORRUPTIONS[name]
    collect = run.collect_outputs

    def corrupted(out, names):
        files = collect(out, names)
        files[target] = corrupt(files[target])
        return files

    monkeypatch.setattr(run, "collect_outputs", corrupted)
    line = tiny(name)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] >= 2


def test_nonrepeatable_output_is_a_failure(monkeypatch):
    collect, calls = run.collect_outputs, []

    def second_differs(out, names):
        files = collect(out, names)
        calls.append(out)
        if len(calls) == 2:
            files["forecast.csv"] += b"\n"
        return files

    monkeypatch.setattr(run, "collect_outputs", second_differs)
    line = tiny("forecast_ar1024")
    assert not line["correct"] and line["failed"] == 1 and line["attempted"] >= 2


def test_accuracy_outside_the_reference_tolerance_is_a_failure(monkeypatch):
    ref, tol = run.REFERENCE[run.TINY]["gaussian_obd"]
    monkeypatch.setitem(run.REFERENCE[run.TINY], "gaussian_obd", (0.5 * ref, tol))
    line = tiny("gaussian_obd")
    assert not line["correct"] and line["failed"] == line["attempted"]


def test_checks_reject_a_later_minimum_and_an_unstable_model():
    with pytest.raises(run.CheckFailed):
        run.check_first_minimum({"losses": [None, 3.0, 1.0, 1.0, 2.0], "chosen_order": 3})
    run.check_first_minimum({"losses": [None, 3.0, 1.0, 1.0, 2.0], "chosen_order": 2})
    with pytest.raises(run.CheckFailed):
        run.check_stable([1.0, -2.5, 1.0])
    run.check_stable([1.0, -0.5, 0.06])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "estimate_1e5",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0 and out.stdout.strip() == ""
