"""Property test of the record CSV format: exact bytes and an exact roundtrip.

Records hold arbitrary finite values and sigmas, including ``-0.0``,
subnormals and magnitudes near 1e±300.  The writer must emit the same
bytes as a plain ``csv.writer`` loop with 17-significant-digit floats,
and the reader must give back the same entries bit for bit, in one
``np.loadtxt`` parse; a record is its entries, so that is the whole
record.  Re-spelled record files (quoted or padded cells, other line
ends, blank lines, text that ``int()`` and ``float()`` read but a C
parser may not) must read as the line-by-line reference
``helpers.read_record_by_line`` reads them: the same entries, or the
same error.  The runs are derandomized and keep no example database, so
the suite stays deterministic.
"""

import csv
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strobe_tomo import (MeasurementRecord, ValidationError, laser_cooling_model, random_hermitian,
                         read_record_csv, simulate_measurements, tomography, write_record_csv)
from strobe_tomo.tomography import CSV_HEADER

from helpers import read_record_by_line

EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                 suppress_health_check=[HealthCheck.too_slow])

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
           1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
NON_NEGATIVE = st.one_of(st.sampled_from([s for s in SPECIAL if s >= 0]),
                         st.floats(min_value=0.0, allow_infinity=False))
INSTANTS = st.one_of(st.sampled_from([s for s in SPECIAL if s > 0]),
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@st.composite
def records(draw) -> MeasurementRecord:
    # a few instants, so that entries share them as simulated records do
    instants = draw(st.lists(INSTANTS, min_size=1, max_size=5), label="instants")
    entries = draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(instants), FINITE,
                                      NON_NEGATIVE), min_size=1, max_size=12), label="entries")
    return MeasurementRecord(entries=entries)


def _reference_csv(record: MeasurementRecord, path) -> None:
    """The record format as a ``csv.writer`` loop: integer index, 17-digit floats."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for index, time, value, sigma in record.entries.tolist():
            writer.writerow([int(index), format(time, ".17g"), format(value, ".17g"),
                             format(sigma, ".17g")])


@EXACT
@given(record=records())
def test_csv_bytes_match_reference_and_roundtrip_exactly(record):
    with tempfile.TemporaryDirectory() as folder:
        _assert_reference_bytes(record, folder)


def _assert_reference_bytes(record: MeasurementRecord, folder) -> None:
    """The writer's bytes are the reference's, and one ``np.loadtxt`` parse reads them back exactly."""
    written, reference = Path(folder) / "record.csv", Path(folder) / "reference.csv"
    write_record_csv(record, written)
    _reference_csv(record, reference)
    assert written.read_bytes() == reference.read_bytes()
    with mock.patch.object(tomography, "_entries_by_line", side_effect=AssertionError("read line by line")):
        assert read_record_csv(written).entries.tobytes() == record.entries.tobytes()


def test_full_size_simulated_record_matches_reference(tmp_path):
    # every instant repeats once per observable, and one sigma fills its column
    rng = np.random.default_rng(5)
    observables = [random_hermitian(3, rng) for _ in range(4)]
    record = simulate_measurements(laser_cooling_model(1.0, 0.5), np.diag([0.2, 0.5, 0.3]), observables,
                                   0.01 * np.arange(1, 257), noise_sigma=1e-6, seed=3)
    assert record.entries.shape == (1024, 4)
    _assert_reference_bytes(record, tmp_path)


def test_mixed_sigmas_and_signed_zeros_match_reference(tmp_path):
    # 0.0 and -0.0 in one column keep their own text, in the sigma and value columns alike
    grid = [1e-300, 0.25, 1.0, 3.0]
    sigmas = [0.0, -0.0, 1e-6, 5e-324, 0.1, 1e300, -0.0, 0.0, 1e-6]
    values = [0.0, -0.0, 1.5, -2.5e-310]
    entries = [(i % 3, grid[i % 4], values[i % 4], sigmas[i % 9]) for i in range(40)]
    record = MeasurementRecord(entries=entries)
    zeros = record.entries[:, 2:] == 0
    assert (zeros & np.signbit(record.entries[:, 2:])).any(axis=0).all()
    assert (zeros & ~np.signbit(record.entries[:, 2:])).any(axis=0).all()
    _assert_reference_bytes(record, tmp_path)


#: ways to re-spell one cell of a written record; each is read by ``int()``/``float()``
#: as written, or rejected by them, and the reader must agree with the reference either way
CELL_SPELLINGS = {
    "quoted": lambda cell: f'"{cell}"',
    "doubled quote": lambda cell: f'"{cell}"""',
    "space padded": lambda cell: f"  {cell} ",
    "tab padded": lambda cell: f"\t{cell}\t ",
    "NUL": lambda cell: cell + "\x00",
    "underscore": lambda cell: re.sub(r"^(-?)(\d)", r"\g<1>0_\2", cell),
    "non-ASCII digit": lambda cell: re.sub(r"\d", lambda m: chr(0x660 + int(m.group())), cell, count=1),
    "fullwidth digit": lambda cell: re.sub(r"\d", lambda m: chr(0xFF10 + int(m.group())), cell, count=1),
    "point": lambda cell: cell + ".0" if cell.isdigit() else cell,
    "exponent": lambda cell: cell + "e0",
    "plus": lambda cell: "+" + cell,
    "nan": lambda cell: "nan",
    "inf": lambda cell: "-inf",
    "trailing comma": lambda cell: cell + ",",
    "file separator": lambda cell: cell + "\x1c",
}
#: lines slipped in between the rows of a re-spelled file
EXTRA_LINES = ["", " ", "\t", " \t "]


def _outcome(read, path):
    """The entries ``read`` returns, as bytes, or the message of its :class:`ValidationError`."""
    try:
        return read(path).entries.tobytes()
    except ValidationError as exc:
        return str(exc)


@st.composite
def respelled_records(draw) -> str:
    """The text of a written record, some of its cells, lines and line ends spelled otherwise."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "record.csv"
        write_record_csv(draw(records()), path)
        lines = path.read_text().splitlines()
    header, rows = lines[0], lines[1:draw(st.integers(1, len(lines)), label="kept lines")]
    spellings = draw(st.lists(st.sampled_from(sorted(CELL_SPELLINGS)), max_size=3, unique=True),
                     label="spellings")
    spelled = [draw(st.sampled_from([header, '"' + header.replace(",", '","') + '"']), label="header")]
    for row in rows:
        cells = []
        for cell in row.split(","):
            name = draw(st.sampled_from([None, None, *spellings]), label="cell")
            cells.append(CELL_SPELLINGS[name](cell) if name else cell)
        spelled.append(",".join(cells))
        if draw(st.integers(0, 3), label="extra line") == 0:
            spelled.append(draw(st.sampled_from(EXTRA_LINES), label="line"))
    end = draw(st.sampled_from(["\r\n", "\n", "\r"]), label="line end")
    return end.join(spelled) + end


@settings(EXACT, max_examples=400)
@given(text=respelled_records())
def test_respelled_record_reads_as_the_line_by_line_reference(text):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "record.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert _outcome(read_record_csv, path) == _outcome(read_record_by_line, path)


@pytest.mark.parametrize("body", [
    "", "\r\n", '"0","1.5","0.25","0"\r\n', '"0""",1,2,0\n', "1_0,1_5,2,0\n", "0,\u0661.5,2,0\n",
    "\u0661,1.5,2,0\n", "1.0,1,2,0\n", "1e0,1,2,0\n", "+1,1,2,0\n", "0,1,nan,0\n", "0,inf,2,0\n",
    "0,1,2,0,\n", "0,1,2,0\r1,2,3,0\r", "0,1,2,0\n \n", "0,1\x00,2,0\n", "0,1\x1f,2,0\n",
    "\t0 ,\t1.5 , 2 ,0\n", '0,"1.5\n",2,0\n', "9223372036854775808,1,2,0\n",
    # numpy 2.4.6's integer parser applies C isdigit() to any code point and reads this index as 6406660
    "\U0009c6ca0,1,2,0\n",
])
def test_spellings_read_as_the_line_by_line_reference(tmp_path, body):
    path = tmp_path / "record.csv"
    path.write_text(",".join(CSV_HEADER) + "\n" + body, encoding="utf-8", newline="")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _outcome(read_record_csv, path) == _outcome(read_record_by_line, path)
    assert caught == []


def test_a_field_past_the_csv_limit_fails_as_in_the_reference(tmp_path):
    path = tmp_path / "record.csv"
    path.write_text(",".join(CSV_HEADER) + "\n0,1.5,0.25,0\n0,1.5,0.1250000000000000000000,0\n")
    limit = csv.field_size_limit(20)
    try:
        assert "field larger than field limit (20)" in _outcome(read_record_by_line, path)
        assert _outcome(read_record_csv, path) == _outcome(read_record_by_line, path)
    finally:
        csv.field_size_limit(limit)


def test_a_loadtxt_warning_sends_the_file_line_by_line(tmp_path, monkeypatch):
    # numpy 1.23-1.26 read an index written as 1.0 with a DeprecationWarning where numpy 2 raises
    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated", DeprecationWarning)
        return np.zeros(1, dtype=tomography._ROW)

    monkeypatch.setattr(tomography.np, "loadtxt", warning_loadtxt)
    path = tmp_path / "record.csv"
    path.write_text(",".join(CSV_HEADER) + "\n1.0,1,2,0\n")
    with pytest.raises(ValidationError, match="line 2: invalid literal for int"):
        read_record_csv(path)
    path.write_text(",".join(CSV_HEADER) + "\n1,1,2,0\n")
    assert read_record_csv(path).entries.tolist() == [[1, 1, 2, 0]]
