"""File I/O for the CLI: CSV/binary readers, atomic writers and the one PSD writer.

All floating-point text output uses 17 significant digits so values
round-trip exactly.
"""
from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from mesa.core import SpectralDensity, TimeSeries, ValidationError
from mesa.synth import TabulatedPsd


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file + rename so readers never see a partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# A line of nothing but commas (and blanks) is an empty row to the line
# parser, but a blank line to np.loadtxt. Search "\n" + text so that the
# first line is checked too.
_COMMAS_ONLY = re.compile(r"\n[^\S\n]*,[\s,]*(?:\n|\Z)")

# Characters decoded per read: the reader's memory is a chunk of text and
# the rows parsed so far, not the whole file.
_CHUNK_CHARS = 1 << 16


def _parses(line: str) -> bool:
    try:
        [float(p) for p in line.replace(",", " ").split()]
    except ValueError:
        return False
    return True


def _loadtxt_lines(handle, text: str):
    """Lines of ``text`` and then of the rest of ``handle``, commas made blanks.

    The file is read a chunk at a time and each chunk is cut after its last
    newline, so every line is checked and converted whole. Raises
    ``ValueError``, the error that sends the caller to the line parser, on
    a line of nothing but commas and at the end of a file that holds only
    blanks, before np.loadtxt sees the end (and warns of empty input).
    """
    blank = True
    while True:
        chunk = handle.read(_CHUNK_CHARS)
        text += chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        lines, text = text[:cut], text[cut:]
        if _COMMAS_ONLY.search("\n" + lines):
            raise ValueError("a line of nothing but commas")
        blank = blank and (not lines or lines.isspace())
        yield from lines.replace(",", " ").split("\n")
        if not chunk:
            if blank:
                raise ValueError("no data")
            return


def _read_numeric_rows(path) -> np.ndarray:
    """Parse a numeric table whose cells are separated by commas and/or whitespace.

    Blank lines are skipped, and so is a first line that does not parse (a
    header). A file that is not UTF-8 text is rejected. One C-level
    ``np.loadtxt`` pass, fed the file in chunks, reads well-formed files;
    any other file goes through :func:`_read_numeric_lines`, which gives
    the same values or says what is wrong.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            first = handle.readline()
            try:
                lines = _loadtxt_lines(handle, first if _parses(first) else "")
                return np.loadtxt(lines, ndmin=2, comments=None)
            except UnicodeDecodeError:  # a ValueError too, but reported below
                raise
            except ValueError:
                while handle.read(_CHUNK_CHARS):  # a file that is not text says so first
                    pass
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file ({exc.reason})") from exc
    return _read_numeric_lines(path)


def _read_numeric_lines(path) -> np.ndarray:
    """Line-by-line parse with one Python ``float()`` per cell: slow, but it
    names the first row that is wrong."""
    rows = []
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            parts = [p for p in line.replace(",", " ").split() if p]
            try:
                rows.append([float(p) for p in parts])
            except ValueError:
                if lineno == 0:
                    continue  # header line
                raise ValidationError(f"{path}: unparseable row {lineno + 1}: {line!r}")
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"{path}: inconsistent column count")
    return np.asarray(rows, dtype=np.float64)


def read_timeseries(path, dt: float | None = None, binary: bool = False) -> TimeSeries:
    """Load a series from single-column CSV (+dt), two-column time,value CSV,
    or raw little-endian float64 (+dt)."""
    if binary:
        if dt is None:
            raise ValidationError("binary input requires --dt")
        size = os.path.getsize(path)
        if size % 8:
            raise ValidationError(f"{path}: {size} bytes is not a whole number of float64 samples")
        samples = np.fromfile(path, dtype="<f8")
        return TimeSeries(samples=samples, dt=dt)
    data = _read_numeric_rows(path)
    if data.shape[1] == 1:
        if dt is None:
            raise ValidationError("single-column input requires --dt")
        return TimeSeries(samples=data[:, 0], dt=dt)
    if data.shape[1] == 2:
        times, values = data[:, 0], data[:, 1]
        spacing = np.diff(times)
        if spacing.size == 0 or spacing[0] <= 0:
            raise ValidationError(f"{path}: time column must be increasing")
        mean_dt = float(np.mean(spacing))
        if np.max(np.abs(spacing - mean_dt)) > 1e-9 * mean_dt:
            raise ValidationError(f"{path}: time column is not uniformly spaced")
        if dt is not None and abs(dt - mean_dt) > 1e-9 * mean_dt:
            raise ValidationError(f"{path}: --dt disagrees with the file's time column")
        return TimeSeries(samples=values, dt=mean_dt)
    raise ValidationError(f"{path}: expected 1 or 2 columns, found {data.shape[1]}")


def write_timeseries_csv(path, ts: TimeSeries) -> None:
    atomic_write_text(path, "\n".join(fmt(v) for v in ts.samples) + "\n")


def read_tabulated_psd(path, interpolation: str = "linear") -> TabulatedPsd:
    data = _read_numeric_rows(path)
    if data.shape[1] != 2:
        raise ValidationError(f"{path}: tabulated PSD needs two columns frequency_hz,psd")
    return TabulatedPsd(freqs=data[:, 0], values=data[:, 1], interpolation=interpolation)


def write_psd_csv(path, sd: SpectralDensity, dt: float, one_sided: bool) -> None:
    """Write a density on [0, Nyquist] as ``frequency_hz,psd`` CSV, the only PSD writer.

    ``one_sided`` folds the two-sided density first, doubling every bin
    strictly inside (0, Nyquist). Nyquist comes from ``dt``, not from the
    grid: an odd-length DFT grid ends below it. The tolerance keeps an even
    length's last bin undoubled when it falls an ulp below 1/(2 dt), as
    ``rfftfreq(100, 0.007)[-1]`` does.
    """
    values = sd.values
    if one_sided:
        inside = (sd.freqs > 0.0) & (sd.freqs < (1.0 - 1e-12) / (2.0 * dt))
        values = np.where(inside, 2.0 * values, values)
    lines = ["frequency_hz,psd"]
    lines += [f"{fmt(f)},{fmt(v)}" for f, v in zip(sd.freqs, values)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def write_jsonl(path, dicts) -> None:
    atomic_write_text(path, "".join(json.dumps(d) + "\n" for d in dicts))
