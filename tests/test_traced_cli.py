"""The benchmark's tracer finds the functions it wraps.

``perfbench/traced_cli.py`` wraps ``fit`` and ``select_order`` under the
names their callers look them up by, and skips a name it cannot find, so a
renamed or bypassed function would read zero in the per-layer metrics
without any error. These tests run the tracer unchanged on two commands.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import mesa
from mesa._io import fmt

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "perfbench" / "traced_cli.py"


def traced_counts(tmp_path, argv):
    src = str(Path(mesa.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(TRACED_CLI), str(spans), "--", *map(str, argv)],
                   env=env, check=True, capture_output=True)
    return json.loads(spans.read_text())["counts"]


def test_traced_estimate_counts_fit_and_scan(tmp_path):
    data = tmp_path / "noise.csv"
    data.write_text("\n".join(fmt(v) for v in np.random.default_rng(0).standard_normal(2000)) + "\n")
    counts = traced_counts(tmp_path, ["estimate", "--in", data, "--dt", "0.01",
                                      "--out-prefix", tmp_path / "out"])
    assert counts.get("estimator.fit_calls", 0) == 1
    assert counts.get("estimator.orders_computed", 0) > 0
    assert counts.get("selection.orders_scanned", 0) > 0


def test_traced_gaussian_experiment_counts_every_fit(tmp_path):
    counts = traced_counts(tmp_path, ["experiment", "gaussian", "--n-realizations", "3",
                                      "--n-samples", "600", "--seed", "1",
                                      "--out-prefix", tmp_path / "exp"])
    assert counts.get("estimator.fit_calls", 0) == 3
