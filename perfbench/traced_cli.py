"""Run ``mesa.cli.main`` with spans around the calls into each layer.

Usage:
    python3 perfbench/traced_cli.py SPANS_JSON -- <mesa CLI arguments>
    python3 perfbench/traced_cli.py OUT_JSON --kernel-cases REPEATS N:M [N:M ...]

The package is untouched: each public function is wrapped under the name
its caller looks it up by (``mesa.cli.fit``, ``mesa.validate.fit``,
``mesa.spectrum.psd``, ...), the CLI runs as usual, and the spans and
counts are written to SPANS_JSON when it returns. The exit code is the
CLI's. With ``--kernel-cases`` it instead times ``fit`` on white noise for
each (N, M) and records the median microseconds per computed order.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time

import numpy as np


class Tracer:
    """In-memory spans (layer, start, end, parent) plus per-layer counts."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, owner, name: str, layer: str, on_result=None) -> None:
        fn = getattr(owner, name, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append({"layer": layer, "name": name, "parent": parent,
                               "start": time.perf_counter(), "end": None})
            self._stack.append(index)
            before = resource.getrusage(resource.RUSAGE_SELF) if on_result else None
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index]["end"] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                after = resource.getrusage(resource.RUSAGE_SELF)
                on_result(self, result, args, kwargs, before, after)
            return result

        setattr(owner, name, traced)


def _on_fit(tracer, trace, args, kwargs, before, after):
    tracer.add("estimator.fit_calls", 1)
    tracer.add("estimator.orders_computed", int(trace.max_order))
    tracer.add("estimator.sys_s", after.ru_stime - before.ru_stime)
    tracer.add("estimator.minflt", after.ru_minflt - before.ru_minflt)


def _on_select(tracer, sel, args, kwargs, before, after):
    tracer.add("selection.orders_scanned", int(len(sel.losses)))
    tracer.add("selection.early_stopped", int(sel.early_stopped))


def _on_psd(tracer, sd, args, kwargs, before, after):
    tracer.add("spectrum.psd_points", int(len(sd.freqs)))


def _on_read(tracer, ts, args, kwargs, before, after):
    tracer.add("io.read_rows", int(len(ts)))


def _on_atomic_write(tracer, _, args, kwargs, before, after):
    tracer.add("io.write_bytes", os.path.getsize(args[0]))


def _on_forecast(tracer, ens, args, kwargs, before, after):
    tracer.add("forecast.member_steps", int(ens.realizations.size))


def install(tracer: Tracer) -> None:
    import mesa._io
    import mesa.cli
    import mesa.selection
    import mesa.spectrum
    import mesa.synth
    import mesa.validate

    for owner in (mesa.cli, mesa.validate):
        tracer.wrap(owner, "fit", "estimator", _on_fit)
    for owner in (mesa.selection, mesa.validate):
        tracer.wrap(owner, "select_order", "selection", _on_select)
    tracer.wrap(mesa.spectrum, "psd", "spectrum", _on_psd)
    for owner in (mesa.synth, mesa.validate):
        tracer.wrap(owner, "generate_from_psd", "synth")
    tracer.wrap(mesa._io, "read_timeseries", "io.read", _on_read)
    for name in ("write_psd_csv", "write_json", "write_jsonl", "write_timeseries_csv"):
        tracer.wrap(mesa._io, name, "io.write")
    tracer.wrap(mesa._io, "atomic_write_text", "io.write", _on_atomic_write)
    tracer.wrap(mesa.cli, "run_forecast", "forecast", _on_forecast)
    tracer.wrap(mesa.cli, "forecast_summary", "forecast_summary")
    tracer.wrap(mesa.validate, "run_gaussian_experiment", "validate")


def layer_times(spans) -> dict:
    """Total seconds per layer (outermost span of a layer only) and self seconds."""
    children = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]] += span["end"] - span["start"]
    total, self_time = {}, {}
    for i, span in enumerate(spans):
        dur = span["end"] - span["start"]
        self_time[span["layer"]] = self_time.get(span["layer"], 0.0) + dur - children[i]
        parent, nested = span["parent"], False
        while parent >= 0:
            if spans[parent]["layer"] == span["layer"]:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            total[span["layer"]] = total.get(span["layer"], 0.0) + dur
    return {"total": total, "self": self_time}


def kernel_cases(cases, repeats: int) -> dict:
    """Microseconds per computed order of ``fit`` on white noise, median of repeats."""
    from mesa.core import TimeSeries
    from mesa.estimator import fit

    lean = {"keep_coefficients": False} if "keep_coefficients" in inspect.signature(fit).parameters else {}
    rng = np.random.default_rng(0)
    out = {}
    for n, m in cases:
        ts = TimeSeries(rng.standard_normal(n), dt=1.0)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            trace = fit(ts, m, **lean)
            times.append((time.perf_counter() - start) / trace.max_order)
        out[f"n{n}_m{m}"] = float(np.median(times)) * 1e6
    return out


def main(argv) -> int:
    spans_path, rest = argv[0], argv[1:]
    if rest and rest[0] == "--kernel-cases":
        cases = [tuple(int(v) for v in item.split(":")) for item in rest[2:]]
        with open(spans_path, "w") as handle:
            json.dump({"kernel_us_per_order": kernel_cases(cases, int(rest[1]))}, handle)
        return 0
    if rest and rest[0] == "--":
        rest = rest[1:]
    tracer = Tracer()
    install(tracer)
    import mesa.cli

    start = time.perf_counter()
    code = mesa.cli.main(rest)
    wall = time.perf_counter() - start
    with open(spans_path, "w") as handle:
        json.dump({"main_s": wall, "spans": tracer.spans, "counts": tracer.counts,
                   "layers": layer_times(tracer.spans)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
