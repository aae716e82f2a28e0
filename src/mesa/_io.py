"""File I/O for the CLI: CSV/binary/JSON readers, atomic writers and the PSD file format.

This module alone knows what a CSV row is. Every table is written by
:func:`write_table`: a header line, then rows of cells with 17 significant
digits, so values round-trip exactly, joined by commas. Every table is
read by ``np.loadtxt``, or by a line loop that gives the same values.

Every PSD file is one-sided and every density in memory two-sided; the
fold between them, doubled on write and halved on read, lives here alone.
"""
from __future__ import annotations

import json
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np

from mesa.core import ArModel, SpectralDensity, TimeSeries, ValidationError, _require


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


def _parses(line: str) -> bool:
    try:
        [float(p) for p in line.replace(",", " ").split()]
    except ValueError:
        return False
    return True


def _read_numeric_rows(path) -> np.ndarray:
    """Parse a numeric table whose cells are separated by commas and/or whitespace.

    Blank lines, lines of only blanks and commas, and a first line that does
    not parse (a header) are skipped; a file that is not UTF-8 text is
    rejected. ``np.loadtxt`` reads a regular file by name, split at commas
    if the first line holds one and at blanks if not. Any other file goes
    through :func:`_read_numeric_lines`, on the handle opened here.
    """
    name = os.path.join(os.getcwd(), path)  # absolute, so numpy never takes it for a URL
    try:
        with open(name, "r", encoding="utf-8-sig") as handle:
            opened = os.fstat(handle.fileno())
            if stat.S_ISREG(opened.st_mode):  # a pipe can be neither reopened nor reread
                first = handle.readline()
                if not name.endswith((".gz", ".bz2", ".xz", ".lzma")):  # numpy would decompress
                    try:
                        with warnings.catch_warnings():
                            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                            data = np.loadtxt(name, delimiter="," if "," in first else None,
                                              skiprows=0 if _parses(first) else 1, ndmin=2,
                                              comments=None, encoding="utf-8-sig")
                        if data.size and os.path.samestat(opened, os.stat(name)):
                            return data
                    except (OSError, ValueError):  # undecodable bytes too, which the drain reports
                        pass
                while handle.read(1 << 16):  # a file that is not text says so first
                    pass
                handle.seek(0)
            return _read_numeric_lines(path, handle)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not a text file ({exc.reason})") from exc


def _read_numeric_lines(path, lines=None) -> np.ndarray:
    """Line-by-line parse with one Python ``float()`` per cell: slow, but it
    names the first row that is wrong, whichever way it is wrong, and keeps
    8 bytes a value. ``lines`` defaults to the file at ``path``."""
    if lines is None:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return _read_numeric_lines(path, handle)
    from array import array  # here, so that a file np.loadtxt reads never loads it

    values, width = array("d"), 0
    for lineno, line in enumerate(lines):
        cells = line.replace(",", " ").split()
        if not cells:
            continue
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            if lineno == 0:
                continue  # header line
            raise ValidationError(f"{path}: unparseable row {lineno + 1}: {line.strip()!r}")
        width = width or len(row)
        if len(row) != width:
            raise ValidationError(f"{path}: inconsistent column count at row {lineno + 1}")
        values.extend(row)
    if not width:
        raise ValidationError(f"{path}: no data rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width)


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


def write_table(path, header, columns) -> None:
    """Write equal-length ``columns`` as CSV under a line of ``header`` names."""
    rows = zip(*(map(fmt, column) for column in columns))
    lines = [",".join(header), *map(",".join, rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_timeseries_csv(path, ts: TimeSeries) -> None:
    atomic_write_text(path, "\n".join(fmt(v) for v in ts.samples) + "\n")


def _interior(freqs: np.ndarray, nyquist: float) -> np.ndarray:
    """The bins strictly inside (0, Nyquist): the ones a one-sided file holds doubled.

    The tolerance keeps an even DFT length's last bin out when it falls an
    ulp below Nyquist, as ``rfftfreq(100, 0.007)[-1]`` does.
    """
    return (freqs > 0.0) & (freqs < (1.0 - 1e-12) * nyquist)


def read_psd_csv(path, dt: float | None) -> SpectralDensity:
    """Read a one-sided ``frequency_hz,psd`` table as the two-sided density.

    The inverse of :func:`write_psd_csv`'s fold: every value strictly
    inside (0, Nyquist) is halved, so a file ``estimate`` writes reads back
    as the model's density bit for bit. Nyquist is 1/(2 dt) for the
    sampling interval the table is used at; with ``dt`` None it is the
    table's last frequency.
    """
    if dt is not None:
        _require(np.isfinite(dt) and dt > 0, "dt must be finite and > 0")
    data = _read_numeric_rows(path)
    if data.shape[1] != 2:
        raise ValidationError(f"{path}: tabulated PSD needs two columns frequency_hz,psd")
    freqs, values = data[:, 0], data[:, 1]
    nyquist = freqs[-1] if dt is None else 0.5 / dt
    values = np.where(_interior(freqs, nyquist), 0.5 * values, values)
    return SpectralDensity(freqs=freqs, values=values)


def write_psd_csv(path, sd: SpectralDensity, dt: float) -> None:
    """Write a density on [0, Nyquist] as one-sided ``frequency_hz,psd`` CSV.

    The two-sided density is folded: every bin strictly inside
    (0, Nyquist) is doubled, and :func:`read_psd_csv` undoes it.
    Nyquist comes from ``dt``, not from the grid: an odd-length DFT grid
    ends below it.
    """
    values = np.where(_interior(sd.freqs, 0.5 / dt), 2.0 * sd.values, sd.values)
    write_table(path, ("frequency_hz", "psd"), (sd.freqs, values))


def read_model(path) -> ArModel:
    """Load the AR model JSON that ``estimate`` writes."""
    try:
        with open(path, "r") as handle:
            return ArModel.from_dict(json.load(handle))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: not an AR model JSON: {exc!r}") from exc


def write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def write_jsonl(path, dicts) -> None:
    atomic_write_text(path, "".join(json.dumps(d) + "\n" for d in dicts))
