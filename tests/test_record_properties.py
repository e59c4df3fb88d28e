"""Property test of the record CSV format: exact bytes and an exact roundtrip.

Records hold arbitrary finite values and sigmas, including ``-0.0``,
subnormals and magnitudes near 1e±300.  The writer must emit the same
bytes as a plain ``csv.writer`` loop with 17-significant-digit floats,
and the reader must give back the same entries bit for bit; a record is
its entries, so that is the whole record.  The runs are
derandomized and keep no example database, so the suite stays
deterministic.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strobe_tomo import (MeasurementRecord, laser_cooling_model, random_hermitian, read_record_csv,
                         simulate_measurements, write_record_csv)
from strobe_tomo.tomography import CSV_HEADER

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
        written, reference = Path(folder) / "record.csv", Path(folder) / "reference.csv"
        write_record_csv(record, written)
        _reference_csv(record, reference)
        assert written.read_bytes() == reference.read_bytes()
        assert read_record_csv(written).entries.tobytes() == record.entries.tobytes()


def _assert_reference_bytes(record: MeasurementRecord, folder) -> None:
    written, reference = Path(folder) / "record.csv", Path(folder) / "reference.csv"
    write_record_csv(record, written)
    _reference_csv(record, reference)
    assert written.read_bytes() == reference.read_bytes()
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
