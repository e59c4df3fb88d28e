"""Stroboscopic measurement simulation and linear-inversion reconstruction.

The closed loop: pick a verified observable set, sample expectation values
``tr(Q_i rho(t_j))`` on a shared time grid (optionally with additive
Gaussian noise as a stand-in for whatever averaging a real experiment
does), then recover the initial state by solving for its real coordinates
in the orthonormal hermitian basis, a linear least-squares problem with a
hard trace constraint.  Reconstruction reports the design rank and
condition number so an inadequate observable set or grid shows up as a
diagnosable rank deficiency instead of a silently wrong state.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericalFailure, RankDeficiencyError, ValidationError
from .lindblad import (
    LindbladModel,
    _check_density_matrix,
    _integer,
    _nonnegative_real,
    _propagated,
    validate_density_matrix,
)
from .analysis import SpectralReport, _observable_coordinates
from .operator_algebra import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _coordinates,
    _from_coordinates,
    _instance,
    _tolerances,
    assert_hermitian,
)

__all__ = [
    "MeasurementRecord",
    "ReconstructionResult",
    "validate_time_grid",
    "default_time_grid",
    "simulate_measurements",
    "reconstruct",
    "state_distance",
    "write_record_csv",
    "read_record_csv",
    "CSV_HEADER",
]

CSV_HEADER = ("observable_index", "time", "value", "sigma")


def _real_array(values) -> np.ndarray:
    """``values`` as a float64 array; :class:`TypeError` for ``None``, complex values, text or bools.

    numpy reads text as numbers and a bool as 0 or 1, and it makes numbers
    of a list that mixes bools with numbers, so the entries of a list and
    of an object array are inspected one by one.
    """
    if values is None:
        raise TypeError("got None")
    raw = np.asarray(values)
    if np.iscomplexobj(raw):
        raise TypeError("got complex values")
    given = np.asarray(values, dtype=object) if isinstance(values, (list, tuple)) else raw
    entries = list(given.flat) if given.dtype == object else []
    if raw.dtype.kind in "SU" or any(isinstance(x, (str, bytes)) for x in entries):
        raise TypeError("got text")
    if raw.dtype.kind == "b" or any(isinstance(x, (bool, np.bool_)) for x in entries):
        raise TypeError("got bools")
    return raw.astype(float, copy=False)


def validate_time_grid(instants) -> np.ndarray:
    """Coerce to a 1-D float array of distinct, positive, increasing times.

    Input that is not an array of real numbers (``None``, complex values,
    text, bools, a ragged list, an integer past the float range) raises
    :class:`ValidationError`, as does every failed test.
    """
    try:
        grid = _real_array(instants).reshape(-1)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"time grid must be an array of real instants: {exc}") from exc
    if grid.size == 0:
        raise ValidationError("time grid must contain at least one instant")
    if not np.all(np.isfinite(grid)):
        raise ValidationError("time grid contains non-finite instants")
    if grid[0] <= 0.0:
        raise ValidationError(f"time grid instants must be > 0, got {grid[0]}")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("time grid instants must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Expectation-value samples, one row ``(observable index, time, value, sigma)`` each.

    A record is the rows of its CSV file and nothing else.  ``entries`` may
    be any sequence of 4-tuples of real numbers, not text or bools, and is
    stored as a read-only ``(rows, 4)`` float array.  Each row must hold a
    non-negative integer index, a finite value, a finite sigma >= 0 and a
    finite time > 0; an error names the first bad row and its first failed
    test.  Repeated (index, time) entries mean repeated measurements.
    Records compare and hash by identity; compare contents with ``np.array_equal``.
    """

    entries: np.ndarray

    def __post_init__(self):
        try:
            rows = np.array(_real_array(self.entries))
            if rows.shape == (0,):
                rows = rows.reshape(0, 4)
            if rows.ndim != 2 or rows.shape[1] != 4:
                raise ValueError(f"got shape {rows.shape}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("entries must be rows of 4 finite numbers "
                                  f"(observable index, time, value, sigma): {exc}") from exc
        rows.setflags(write=False)
        object.__setattr__(self, "entries", rows)
        index, time, value, sigma = rows.T
        # one test per entry column, in the order they are reported
        passed = (
            (0 <= index) & (index < np.inf) & (index == np.floor(index)),
            np.isfinite(value),
            (0 <= sigma) & (sigma < np.inf),
            (0 < time) & (time < np.inf),
        )
        failed = ~np.logical_and.reduce(passed)
        if failed.any():
            pos = int(np.argmax(failed))
            bad_index, bad_time, bad_value, bad_sigma = rows[pos].tolist()
            if bad_index.is_integer():
                bad_index = int(bad_index)
            message = (
                f"observable index must be a non-negative integer, got {bad_index}",
                f"non-finite value {bad_value!r}",
                f"sigma must be finite and >= 0, got {bad_sigma}",
                f"time must be finite and > 0, got {bad_time}",
            )[[bool(test[pos]) for test in passed].index(False)]
            raise ValidationError(f"entries[{pos}]: {message}")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Estimated initial state plus the inversion diagnostics.

    Results compare and hash by identity; compare contents with ``np.array_equal``.
    """

    rho_hat: np.ndarray
    residual_norm: float
    design_rank: int
    design_condition: float
    frobenius_error: float | None = None


def default_time_grid(report: SpectralReport) -> np.ndarray:
    """Equispaced instants ``j * dt`` for ``j = 1 .. report.mu``.

    ``dt`` is the reciprocal of the largest decay rate ``|Re lambda|`` over
    the nonzero eigenvalues, so the grid straddles the slowest-to-fastest
    transient range; a generator with no decaying part falls back to the
    reciprocal of the largest eigenvalue magnitude, and a zero generator to
    ``dt = 1``.  No claim of optimality is attached to this choice.
    Anything but a :class:`SpectralReport` raises :class:`ValidationError`.
    """
    values = np.array([c.value for c in _instance(report, SpectralReport, "report").distinct_eigenvalues])
    magnitude = np.abs(values)
    zero_floor = 1e-12 * max(1.0, float(magnitude.max()) if magnitude.size else 0.0)
    nonzero = values[magnitude > zero_floor]
    if nonzero.size == 0:
        dt = 1.0
    else:
        fastest = float(np.abs(nonzero.real).max())
        dt = 1.0 / fastest if fastest > zero_floor else 1.0 / float(np.abs(nonzero).max())
    return dt * np.arange(1, report.mu + 1, dtype=float)


def simulate_measurements(model: LindbladModel, rho0, observables: Sequence[np.ndarray],
                          grid, noise_sigma: float = 0.0, seed: int = 0) -> MeasurementRecord:
    """Sample ``tr(Q_i rho(t_j))`` for every observable and grid instant.

    Each value is ``c_i . expm(t_j R) x``, with ``R`` the real form of the
    model's generator (built once per model, see :func:`build_generator`)
    and ``c_i``, ``x`` the real coordinates of ``Q_i`` and the state, in
    observable-major order.  The exponentials are the generator's kept
    step, and a set equal to the last one the generator checked is not
    checked again (see :class:`Superoperator`); a model whose generator
    cannot be built fails before its observables are checked.  Every
    evolved state is checked to be a density matrix, as in :func:`evolve`.  With ``noise_sigma > 0`` (a finite real)
    the values get independent additive Gaussian noise, drawn in entry
    order from a generator seeded with ``seed`` (an integer >= 0), so
    records are bit-identical across runs with the same arguments.
    """
    _instance(model, LindbladModel, "model")
    grid = validate_time_grid(grid)
    noise_sigma = _nonnegative_real(noise_sigma, "noise_sigma")
    _integer(seed, "seed")
    state0 = _coordinates(validate_density_matrix(rho0, dim=model.dim, name="rho0"))
    gen = model._generator
    coordinates = _observable_coordinates(observables, gen)

    states = _propagated(gen, grid, state0)
    _check_density_matrix(_from_coordinates(states.T, model.dim),
                          lambda j: f"evolved state at t={grid[j]:.6g}", evolved=True)
    values = coordinates @ states
    if noise_sigma > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sigma, values.shape)
    count = len(coordinates)
    entries = np.column_stack((np.arange(count).repeat(grid.size), np.tile(grid, count),
                               values.reshape(-1), np.full(values.size, noise_sigma)))
    return MeasurementRecord(entries=entries)


def reconstruct(model: LindbladModel, observables: Sequence[np.ndarray],
                record: MeasurementRecord, *, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                project: bool = True, truth=None) -> ReconstructionResult:
    """Recover the initial state from a measurement record by linear inversion.

    The unknowns are the state's real coordinates; each record entry
    contributes the design row ``expm(t_j R^T) c_i``, the coordinates of
    ``Q_i`` stepped by the transpose of the real form of the model's
    generator (built once per model, see :func:`build_generator`).  The
    exponentials are the transposes of the generator's kept step, so
    reconstructing right after simulating on the same model and
    equispaced grid forms no new one, and a set equal to the last one the
    generator checked is not checked again.  The trace
    constraint is exact: the identity coordinate is fixed at
    ``1/sqrt(dim)`` and least squares solves only for the dim^2 - 1 >= 3
    traceless coordinates.  ``design_rank``
    counts the fixed coordinate, and ``design_condition`` is the condition
    number of the traceless columns, i.e. of the data alone.  If the rank
    falls short of dim^2 the observables/grid pair cannot determine the
    state and a :class:`RankDeficiencyError` names the achieved rank.

    With ``project=True`` (default) the least-squares estimate is made
    physical afterwards: negative eigenvalues are clipped to zero and the
    trace renormalized.  ``truth`` adds the Frobenius distance to a known
    state to the result.  The record holds one observable past its largest
    index, which must be the number of observables; an empty record fails on rank alone.
    """
    n = _instance(model, LindbladModel, "model").dim
    _tolerances(tol)
    if n < 2:
        raise ValidationError(f"reconstruction needs dimension >= 2, got {n}")
    gen = model._generator
    coordinates = _observable_coordinates(observables, gen)
    index, time, rhs, _sigma = _instance(record, MeasurementRecord, "record").entries.T
    held = int(index.max()) + 1 if index.size else len(coordinates)
    if held != len(coordinates):
        raise ValidationError(f"record holds {held} observables, got {len(coordinates)}")
    instants, at = np.unique(time, return_inverse=True)
    # the observables' coordinates step as columns: rows[k, j, i] is
    # coordinate k of Q_i stepped to instant j
    rows = _propagated(gen, instants, coordinates.T, dual=True)
    design = rows[:, at, index.astype(int)].T
    if not np.all(np.isfinite(design)):
        raise NumericalFailure("design matrix overflows: expm(t * L) is not finite on the record's instants")
    # coordinate 0 is that of I/sqrt(n), so unit trace fixes it
    identity_coeff = 1.0 / np.sqrt(n)
    traceless = design[:, 1:]
    target = rhs - identity_coeff * design[:, 0]

    # one SVD-based solve; LAPACK's gelsd drops singular values <= rank_rtol * sigma_max,
    # the strict threshold of operator_algebra.rank, and reports the rank it kept
    coeffs, _, traceless_rank, sigma = np.linalg.lstsq(traceless, target, rcond=tol.rank_rtol)
    design_rank = 1 + int(traceless_rank)
    required = n * n
    if design_rank < required:
        raise RankDeficiencyError(
            f"measurement design has rank {design_rank}, needs {required}; "
            "the observable set or time grid does not span the operator space",
            achieved_rank=design_rank,
            required_rank=required,
        )
    condition = float(sigma[0] / sigma[-1])
    rho_hat = _from_coordinates(np.concatenate([[identity_coeff], coeffs]), n)
    residual = float(np.linalg.norm(traceless @ coeffs - target))
    if not (np.all(np.isfinite(coeffs)) and np.isfinite(residual)):
        raise NumericalFailure("least-squares estimate is not finite; the record values overflow")

    if project:
        rho_hat = _project_to_physical(rho_hat)

    error = None
    if truth is not None:
        truth = validate_density_matrix(truth, dim=n, name="truth")
        error = float(np.linalg.norm(rho_hat - truth))
    return ReconstructionResult(
        rho_hat=rho_hat,
        residual_norm=residual,
        design_rank=design_rank,
        design_condition=condition,
        frobenius_error=error,
    )


def _project_to_physical(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and renormalize the trace to one."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise NumericalFailure("projected state has no positive weight left")
    w /= total
    projected = (v * w) @ v.conj().T
    projected = (projected + projected.conj().T) / 2.0
    return projected / np.trace(projected).real


def state_distance(a, b) -> tuple[float, float]:
    """(Frobenius norm, trace distance) between two hermitian matrices."""
    am = assert_hermitian(a, name="a")
    bm = assert_hermitian(b, name="b")
    if am.shape != bm.shape:
        raise ValidationError(f"shape mismatch: {am.shape} vs {bm.shape}")
    diff = am - bm
    frobenius = float(np.linalg.norm(diff))
    trace_dist = 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).sum())
    return frobenius, trace_dist


def _formatted(column: np.ndarray, spec: str) -> list[str]:
    """``spec % x`` for each entry of a float column, formatted once per distinct bit pattern."""
    distinct, at = np.unique(column.view(np.int64), return_inverse=True)
    texts = [spec % x for x in distinct.view(float).tolist()]
    return [texts[i] for i in at.tolist()]


def write_record_csv(record: MeasurementRecord, path) -> None:
    """Write a record as CSV with 17-significant-digit floats (exact roundtrip).

    The index, time and sigma columns repeat (each instant once per
    observable, one sigma per record), so each distinct entry of them is
    formatted once; the values are formatted in one pass.  Distinct means
    distinct bits, so ``0.0`` and ``-0.0`` keep their own text, and the
    bytes are those of formatting every entry on its own.
    """
    rows = record.entries.shape[0]
    fields = [None] * (4 * rows)
    for col, spec in ((0, "%d"), (1, "%.17g"), (3, "%.17g")):
        fields[col::4] = _formatted(record.entries[:, col], spec)
    fields[2::4] = record.entries[:, 2].tolist()
    text = ",".join(CSV_HEADER) + "\r\n"
    text += ("%s,%s,%.17g,%s\r\n" * rows) % tuple(fields)
    with open(path, "w", newline="") as handle:
        handle.write(text)


#: one row of a record file as ``np.loadtxt`` reads it: an integer index, then three floats
_ROW = np.dtype([("index", np.int64), ("time", float), ("value", float), ("sigma", float)])
#: the ASCII separators U+001C-U+001F, which ``np.loadtxt`` skips as spaces and ``float()`` rejects
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _entries_in_bulk(text: str) -> np.ndarray | None:
    """The measurement rows of a record file's text in one ``np.loadtxt`` parse, or None.

    None leaves the file to :func:`_entries_by_line`: a header other than
    :data:`CSV_HEADER`, a parse that fails or warns (an empty body, and on
    numpy < 2 an index written as a float literal), or text that
    ``np.loadtxt`` reads differently from ``csv.reader``, ``int()`` and
    ``float()``: a non-ASCII character (it misreads non-ASCII digits), one
    of :data:`_SEPARATORS`, or a field longer than ``csv.field_size_limit()``.
    """
    limit = csv.field_size_limit()
    if (not text.isascii() or any(c in text for c in _SEPARATORS)
            or len(text) > limit and max(map(len, text.split(","))) > limit):
        return None
    lines = io.StringIO(text, newline="")
    try:
        if tuple(h.strip() for h in next(csv.reader(lines), ())) != CSV_HEADER:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype=_ROW, delimiter=",", quotechar='"', comments=None, ndmin=1)
    except (csv.Error, ValueError, Warning):
        return None
    return np.column_stack([rows[name] for name in _ROW.names])


def _entries_by_line(text: str, path) -> np.ndarray:
    """The measurement rows converted one ``csv.reader`` row at a time; an error names its line.

    The header is checked first, then each field goes through ``int()``
    (the index) or ``float()`` (the rest).  The line an error names is
    the file's physical line on which the row ends (``csv.reader``'s
    ``line_num``), so a quoted field that spans lines does not shift it.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ValidationError(f"record file {path!s} is not UTF-8 CSV text: {exc}") from exc
    if not rows or tuple(h.strip() for h in rows[0][1]) != CSV_HEADER:
        raise ValidationError(f"record file {path!s}: expected header {','.join(CSV_HEADER)}")
    entries = np.empty((len(rows) - 1, 4))
    filled = 0
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(f"record file {path!s}, line {lineno}: expected 4 fields")
        try:
            entries[filled] = [int(row[0]), float(row[1]), float(row[2]), float(row[3])]
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"record file {path!s}, line {lineno}: {exc}") from exc
        filled += 1
    return entries[:filled]


def read_record_csv(path) -> MeasurementRecord:
    """Read a record written by :func:`write_record_csv`.

    The record is the file's rows, so reading back what
    :func:`write_record_csv` wrote gives the same record.  The rows are
    parsed in C, by one ``np.loadtxt`` call (see :func:`_entries_in_bulk`).
    Only a file that this call cannot read exactly as ``csv.reader``,
    ``int()`` and ``float()`` do is read again line by line, which also
    names the offending line of a file that fails.  A file that cannot be
    opened, or is not UTF-8 CSV text, raises :class:`ValidationError`.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read record file {path!s}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"record file {path!s} is not UTF-8 CSV text: {exc}") from exc
    entries = _entries_in_bulk(text)
    if entries is None:
        entries = _entries_by_line(text, path)
    if not entries.size:
        raise ValidationError(f"record file {path!s}: no measurement rows")
    return MeasurementRecord(entries=entries)
