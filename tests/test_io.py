"""CSV input: what parses, to which values, and how a bad file is reported."""
import gzip
import os
import threading
import tracemalloc
import urllib.request

import numpy as np
import pytest

from mesa import _io
from mesa._io import (
    _read_numeric_lines,
    _read_numeric_rows,
    atomic_write_text,
    fmt,
    read_psd_csv,
    read_timeseries,
    write_psd_csv,
    write_table,
    write_timeseries_csv,
)
from mesa.cli import main
from mesa.core import SpectralDensity, TimeSeries, ValidationError


def estimate(path, tmp_path):
    return main(["estimate", "--in", str(path), "--dt", "1", "--out-prefix", str(tmp_path / "o")])


def outcome(reader, path):
    """The shape and bytes of what ``reader`` reads from ``path``, or its message.

    The path is written ``<in>`` in a message, so that two names of one
    text compare equal.
    """
    try:
        data = reader(path)
    except ValidationError as exc:
        return str(exc).replace(str(path), "<in>")
    return data.shape, data.tobytes()


def float_oracle(text: str) -> np.ndarray:
    """One Python ``float()`` per token of every non-blank line."""
    rows = [[float(tok) for tok in line.replace(",", " ").split()]
            for line in text.split("\n") if line.strip()]
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("text, message", [
    ("1.0\n2.0\n3.0\nabc\n5.0\n", "unparseable row 4: 'abc'"),
    ("t,x\n0,1.0\n1,2.0\n2,oops\n", "unparseable row 4: '2,oops'"),
    ("\nheader\n1.0\n", "unparseable row 2: 'header'"),
    ("1.0\n2.0\n3.0,4.0\n", "inconsistent column count"),
    ("1.0,2.0\n3.0\nabc\n", "inconsistent column count at row 2"),
    ("", "no data rows"),
    ("\n  \n\n", "no data rows"),
    ("time,value\n", "no data rows"),
    ("time,value\n\n", "no data rows"),
    ("1,2,3\n4,5,6\n", "expected 1 or 2 columns, found 3"),
])
def test_csv_error_names_the_file_and_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert estimate(path, tmp_path) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert message in err
    assert not (tmp_path / "o_model.json").exists()


def test_undecodable_bytes_are_not_a_text_file(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.0\n2.0\n\xff\xfe\n")
    assert estimate(path, tmp_path) == 2
    assert "not a text file" in capsys.readouterr().err


def test_tabulated_psd_needs_two_columns(tmp_path):
    path = tmp_path / "psd.csv"
    path.write_text("frequency_hz,psd,extra\n0,1,2\n1,1,2\n")
    with pytest.raises(ValidationError, match="tabulated PSD needs two columns"):
        read_psd_csv(path, None)


@pytest.mark.parametrize("n", [100, 101], ids=["even", "odd"])
def test_tabulated_psd_halves_what_the_psd_writer_doubles(tmp_path, n):
    # Nyquist comes from dt: an even grid ends an ulp below it here, an odd one
    # a bin below it, and only the odd grid's last bin is folded
    dt = 0.007
    f = np.fft.rfftfreq(n, dt)
    sd = SpectralDensity(freqs=f, values=1.0 + f)
    path = tmp_path / "psd.csv"
    write_psd_csv(path, sd, dt)
    written = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]
    assert (written[-1] == sd.values[-1]) == (n % 2 == 0)
    table = read_psd_csv(path, dt)
    np.testing.assert_array_equal(table.freqs, sd.freqs)
    np.testing.assert_array_equal(table.values, sd.values)


def test_tabulated_psd_without_dt_ends_at_its_nyquist(tmp_path):
    path = tmp_path / "psd.csv"
    path.write_text("frequency_hz,psd\n0,4\n1,4\n2,4\n")
    np.testing.assert_array_equal(read_psd_csv(path, None).values, [4.0, 2.0, 4.0])


@pytest.mark.parametrize("text", [
    "1.5,2.5\n3.5,4.5\n",
    "t,x\n1.5,2.5\n3.5,4.5\n",
    "\n1.5,2.5\n\n\n3.5,4.5",
    "t,x\r\n1.5,2.5\r\n3.5,4.5\r\n",
    "1.5 2.5\n3.5\t4.5\n",
    "  1.5 ,  2.5  \n3.5,\t4.5,\n",
])
def test_csv_layouts_parse_to_the_same_array(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    data = _read_numeric_rows(path)
    np.testing.assert_array_equal(data, [[1.5, 2.5], [3.5, 4.5]])
    assert data.dtype == np.float64


@pytest.mark.parametrize("reader", [_read_numeric_rows, _read_numeric_lines])
def test_rows_of_only_commas_and_blanks_are_blank_lines(tmp_path, reader):
    # a spreadsheet saves an empty row of a two-column sheet as ","
    clean = tmp_path / "clean.csv"
    clean.write_text("t,x\n0.0,1.5\n0.5,2.5\n1.0,3.5\n")
    padded = tmp_path / "padded.csv"
    padded.write_text("t,x\n,\n0.0,1.5\n,\n0.5,2.5\n , \n,,\t,\n1.0,3.5\n,\n")
    assert reader(padded).tobytes() == reader(clean).tobytes()
    assert reader(padded).shape == (3, 2)
    empty = tmp_path / "empty.csv"
    empty.write_text(",\n , \n\n,,\n")
    with pytest.raises(ValidationError, match="no data rows"):
        reader(empty)


def test_reader_is_bitwise_equal_to_per_token_float(tmp_path):
    rng = np.random.default_rng(5)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
    values = np.concatenate([special, rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
    cells = [fmt(v) for v in values] + ["1e-400", "1e400", "-inf", "nan", "+.5", "7."]
    for width in (1, 2):
        body = "\n".join(",".join(cells[i : i + width]) for i in range(0, len(cells) - width + 1, width))
        text = "time,value\n" + body + "\n"
        path = tmp_path / f"w{width}.csv"
        path.write_text(text)
        expected = float_oracle(body)
        for reader in (_read_numeric_rows, _read_numeric_lines):
            data = reader(path)
            assert data.shape == expected.shape
            assert data.tobytes() == expected.tobytes()


def test_byte_order_mark_is_not_a_header(tmp_path):
    one = tmp_path / "one.csv"
    one.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
    np.testing.assert_array_equal(read_timeseries(one, dt=1.0).samples, [1.5, 2.5, 3.5])
    two = tmp_path / "two.csv"
    two.write_bytes(b"\xef\xbb\xbf0.0,1.5\n0.5,2.5\n1.0,3.5\n")
    ts = read_timeseries(two)
    np.testing.assert_array_equal(ts.samples, [1.5, 2.5, 3.5])
    assert ts.dt == 0.5
    # a header after the mark is still skipped
    head = tmp_path / "head.csv"
    head.write_bytes(b"\xef\xbb\xbft,x\n0.0,1.5\n0.5,2.5\n")
    np.testing.assert_array_equal(read_timeseries(head).samples, [1.5, 2.5])


def test_fast_reader_agrees_with_line_reader_on_random_files(tmp_path):
    # values, or the error message, of np.loadtxt's path and the line loop it falls back to
    rng = np.random.default_rng(11)
    cells = ["1", "-2.5", "3e5", "-0", "5e-324", "nan", "-inf", "1_0", "x", ".", "1e", "\x00"]
    seps = [",", " ", "\t", ", ", ",,", "\x0c", "\xa0"]
    ends = ["\n", "\r\n", "\r", "\n\n", "\n \n", "\n,\n", "\n , \n"]
    path = tmp_path / "r.csv"
    for _ in range(400):
        width = int(rng.integers(1, 4))
        lines = ["t,x"] if rng.random() < 0.3 else []
        for _ in range(int(rng.integers(0, 6))):
            n = width if rng.random() < 0.9 else int(rng.integers(0, 4))
            picks = [cells[int(rng.integers(0, 7 if rng.random() < 0.9 else len(cells)))] for _ in range(n)]
            lines.append("".join(seps[int(rng.integers(len(seps)))] * bool(i) + c for i, c in enumerate(picks)))
        text = "".join(line + ends[int(rng.integers(len(ends)))] for line in lines)
        path.write_bytes(text.encode())
        assert outcome(_read_numeric_rows, path) == outcome(_read_numeric_lines, path), repr(text)


@pytest.mark.parametrize("text", [
    "t,x\n0.0 1.5\n0.5 2.5\n",  # a comma header over blank-separated rows
    "t,x\n0.0 1.5\n0.5,2.5\n",
    "0.0 1.5\n0.5,2.5\n1.0,3.5\n",  # a blank-separated first line over comma rows
    "t x\n0.0,1.5\n0.5,2.5\n",
    "0.0 1.5\n0.5,2.5,\n",
    "1.5,\n2.5\n",
    "1.5\n2.5,\n",
])
def test_a_first_line_that_picks_the_wrong_separator_reads_as_the_line_loop(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    assert outcome(_read_numeric_rows, path) == outcome(_read_numeric_lines, path)


def test_written_tables_are_read_without_the_line_loop(tmp_path, monkeypatch):
    def refuse(path, lines=None):
        raise AssertionError(f"{path} went through the line loop")

    monkeypatch.setattr(_io, "_read_numeric_lines", refuse)
    x = np.random.default_rng(3).standard_normal(1000)
    write_table(tmp_path / "table.csv", ("t", "x"), (np.arange(x.size) * 0.5, x))
    write_timeseries_csv(tmp_path / "series.csv", TimeSeries(x, 0.5))
    (tmp_path / "blank.csv").write_text("".join(f"{i} {fmt(v)}\n" for i, v in enumerate(x)))
    for name in ("table.csv", "series.csv", "blank.csv"):
        assert _read_numeric_rows(tmp_path / name)[:, -1].tobytes() == x.tobytes()


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_a_compressed_name_reads_as_csv(tmp_path, suffix):
    text = "t,x\n0.0,1.5\n0.5,2.5\n"
    (tmp_path / "in.csv").write_text(text)
    (tmp_path / f"in.csv{suffix}").write_text(text)
    expected = read_timeseries(tmp_path / "in.csv")
    ts = read_timeseries(tmp_path / f"in.csv{suffix}")
    assert ts.samples.tobytes() == expected.samples.tobytes() and ts.dt == expected.dt


def test_a_name_that_parses_as_a_url_is_read_from_disk(tmp_path, monkeypatch):
    # numpy fetches a path it takes for a URL, so the reader hands it an absolute one
    def refuse(*args, **kwargs):
        raise AssertionError("the reader went to the network")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "x.csv").write_text("1.5\n2.5\n")
    monkeypatch.chdir(tmp_path)
    np.testing.assert_array_equal(_read_numeric_rows("http://localhost/x.csv"), [[1.5], [2.5]])


def test_dot_dot_after_a_symlink_is_resolved_as_the_file_system_does(tmp_path, monkeypatch):
    (tmp_path / "real" / "sub").mkdir(parents=True)
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "link").symlink_to(tmp_path / "real" / "sub")
    (tmp_path / "dir" / "x.csv").write_text("1.5\n")
    (tmp_path / "real" / "x.csv").write_text("2.5\n")  # what dir/link/../x.csv opens
    monkeypatch.chdir(tmp_path)
    path = os.path.join("dir", "link", "..", "x.csv")
    np.testing.assert_array_equal(_read_numeric_rows(path), [[2.5]])


def test_a_file_replaced_while_it_is_read_gives_the_values_first_opened(tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text("x\n1.5\n2.5\n")
    loadtxt = np.loadtxt

    def replace_then_load(*args, **kwargs):  # a writer renames a new file over the name
        atomic_write_text(path, "0.5\n9.5\n8.5\n")
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", replace_then_load)
    np.testing.assert_array_equal(_read_numeric_rows(path), [[1.5], [2.5]])


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("text", [  # past the first 8 KB read
    "t,x\n" + "".join(f"{i},{fmt(i / 7)}\n" for i in range(3000)),
    "x\n" + "1.5\n" * 3000,
    "1.5\n" * 3000,
    "1.5\n" * 3000 + "abc\n",
    "1.5\n" * 3000 + "1.5 2.5\n",
    "x\n\n",
], ids=["header_two_columns", "header", "no_header", "bad_row", "ragged_row", "no_data"])
def test_a_pipe_reads_as_the_same_text_in_a_file(tmp_path, text):
    (tmp_path / "in.csv").write_text(text)
    read_end, write_end = os.pipe()

    def write():
        with open(write_end, "w") as handle:
            handle.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        piped = outcome(_read_numeric_rows, f"/dev/fd/{read_end}")
    finally:
        writer.join()
        os.close(read_end)
    assert piped == outcome(_read_numeric_rows, tmp_path / "in.csv")


def test_a_gzip_file_is_not_a_text_file(tmp_path, capsys):
    path = tmp_path / "in.csv.gz"
    path.write_bytes(gzip.compress(b"1.0\n2.0\n3.0\n"))
    assert estimate(path, tmp_path) == 2
    assert "not a text file" in capsys.readouterr().err


# Files longer than 64k characters, past the first read chunk of numpy's reader
# and of the drain: lines and a CRLF pair cut by a chunk's edge, and, found
# only after the first chunk, what sends the reader to the line loop.
_CHUNK_CHARS = 1 << 16
ROWS_PAST_ONE_CHUNK = _CHUNK_CHARS // 4 + 7
LONG_FILES = {
    "header_two_columns": "t,x\n" + "0.25,-1.5\n" * ROWS_PAST_ONE_CHUNK,
    "crlf": "0.125\r\n" * ROWS_PAST_ONE_CHUNK,
    "blank_then_data": "\n" * _CHUNK_CHARS + " \n" * 3 + "1.5\n2.5",
    "blank_only": "\n" * _CHUNK_CHARS + " \t\n" * 3,
    "commas_only_line_late": "1,2\n" * ROWS_PAST_ONE_CHUNK + ",\n3,4\n",
    "bad_row_late": "1.5\n" * ROWS_PAST_ONE_CHUNK + "abc\n2.5\n",
    "lines_longer_than_a_chunk": " ".join(["1.25"] * _CHUNK_CHARS) + "\n" + " ".join(["2.5"] * _CHUNK_CHARS),
}


@pytest.mark.parametrize("name", LONG_FILES)
def test_reader_agrees_with_line_reader_across_chunks(tmp_path, name):
    path = tmp_path / "long.csv"
    path.write_bytes(LONG_FILES[name].encode())
    assert outcome(_read_numeric_rows, path) == outcome(_read_numeric_lines, path)


def test_undecodable_bytes_are_reported_before_a_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.0\nabc\n" + b"2.0\n" * _CHUNK_CHARS + b"\xff\n")
    with pytest.raises(ValidationError, match="not a text file"):
        _read_numeric_rows(path)


def test_reader_memory_does_not_grow_with_the_text(tmp_path):
    path = tmp_path / "big.csv"
    values = np.random.default_rng(7).standard_normal(200_000)
    path.write_text("\n".join(fmt(v) for v in values) + "\n")  # 4.6 MB of text
    tracemalloc.start()
    try:
        data = _read_numeric_rows(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data[:, 0].tobytes() == values.tobytes()
    assert peak < 4_000_000  # the 1.6 MB of doubles, not the text


@pytest.mark.parametrize("last, expected", [("abc", "unparseable row 200000: 'abc'"), ("1_0", 10.0)])
def test_line_reader_memory_does_not_grow_with_the_rows(tmp_path, last, expected):
    # a last row np.loadtxt refuses sends the whole file through the line loop:
    # "abc" parses nowhere, "1_0" is a number to Python's float() alone
    path = tmp_path / "big.csv"
    values = np.random.default_rng(8).standard_normal(199_999)
    path.write_text("\n".join(fmt(v) for v in values) + f"\n{last}\n")
    tracemalloc.start()
    try:
        try:
            data = _read_numeric_rows(path)
        except ValidationError as exc:
            data = str(exc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(expected, str):
        assert expected in data
    else:
        assert data[:-1, 0].tobytes() == values.tobytes() and data[-1, 0] == expected
    assert peak < 4_000_000  # 8 bytes a value, not a Python list a row
