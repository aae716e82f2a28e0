"""CSV input: what parses, to which values, and how a bad file is reported."""
import numpy as np
import pytest

from mesa._io import _read_numeric_lines, _read_numeric_rows, fmt, read_tabulated_psd, read_timeseries
from mesa.cli import main
from mesa.core import ValidationError


def estimate(path, tmp_path):
    return main(["estimate", "--in", str(path), "--dt", "1", "--out-prefix", str(tmp_path / "o")])


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
    ("1.0,2.0\n,\n3.0,4.0\n", "inconsistent column count"),
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
        read_tabulated_psd(path)


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

    def outcome(reader, path):
        try:
            data = reader(path)
        except ValidationError as exc:
            return str(exc)
        return data.shape, data.tobytes()

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
