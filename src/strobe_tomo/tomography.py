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
    _real_generator,
    build_generator,
    validate_density_matrix,
)
from .analysis import SpectralReport, _checked_observables
from .operator_algebra import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _coordinates,
    _from_coordinates,
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


def validate_time_grid(instants) -> np.ndarray:
    """Coerce to a 1-D float array of distinct, positive, increasing times."""
    grid = np.asarray(instants, dtype=float).reshape(-1)
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

    ``entries`` may be given as any sequence of 4-tuples and is stored as a
    read-only ``(rows, 4)`` float array.  ``grid`` holds the distinct
    measurement instants; every entry's time must be one of them, and
    every index must be an integer in ``[0, observable_count)``.  Repeated
    (index, time) entries are legal and mean repeated measurements.
    Records compare and hash by identity; compare contents with ``np.array_equal``.
    """

    entries: np.ndarray
    observable_count: int
    grid: np.ndarray

    def __post_init__(self):
        _integer(self.observable_count, "observable_count")
        object.__setattr__(self, "grid", validate_time_grid(self.grid))
        try:
            rows = np.array(self.entries, dtype=float)
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
        # the grid is sorted, so a time is on it iff it equals its insertion neighbour
        nearest = self.grid[np.minimum(np.searchsorted(self.grid, time), self.grid.size - 1)]
        # one test per entry column, in the order they are reported
        passed = (
            (0 <= index) & (index < self.observable_count) & (index == np.floor(index)),
            np.isfinite(value),
            (0 <= sigma) & (sigma < np.inf),
            nearest == time,
        )
        failed = ~np.logical_and.reduce(passed)
        if failed.any():
            pos = int(np.argmax(failed))
            bad_index, bad_time, bad_value, bad_sigma = rows[pos].tolist()
            if bad_index.is_integer():
                bad_index = int(bad_index)
            message = (
                f"observable index {bad_index} out of range [0, {self.observable_count})",
                f"non-finite value {bad_value!r}",
                f"sigma must be finite and >= 0, got {bad_sigma}",
                f"time {bad_time!r} is not on the grid",
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
    """
    values = np.array([c.value for c in report.distinct_eigenvalues])
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

    Each value is ``c_i . expm(t_j R) x``, with ``R`` the real generator
    and ``c_i``, ``x`` the real coordinates of ``Q_i`` and the state, in
    observable-major order.  Every evolved state is checked to be a density
    matrix, as in :func:`evolve`.  With ``noise_sigma > 0`` (a finite real)
    the values get independent additive Gaussian noise, drawn in entry
    order from a generator seeded with ``seed`` (an integer >= 0), so
    records are bit-identical across runs with the same arguments.
    """
    grid = validate_time_grid(grid)
    noise_sigma = _nonnegative_real(noise_sigma, "noise_sigma")
    _integer(seed, "seed")
    state0 = _coordinates(validate_density_matrix(rho0, dim=model.dim, name="rho0"))
    checked = _checked_observables(observables, model.dim)

    states = _propagated(_real_generator(build_generator(model)), grid, state0)
    _check_density_matrix(_from_coordinates(states.T, model.dim),
                          lambda j: f"evolved state at t={grid[j]:.6g}", evolved=True)
    values = _coordinates(np.stack(checked)) @ states
    if noise_sigma > 0:
        values = values + np.random.default_rng(seed).normal(0.0, noise_sigma, values.shape)
    count = len(checked)
    entries = np.column_stack((np.arange(count).repeat(grid.size), np.tile(grid, count),
                               values.reshape(-1), np.full(values.size, noise_sigma)))
    return MeasurementRecord(entries=entries, observable_count=count, grid=grid)


def reconstruct(model: LindbladModel, observables: Sequence[np.ndarray],
                record: MeasurementRecord, *, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                project: bool = True, truth=None) -> ReconstructionResult:
    """Recover the initial state from a measurement record by linear inversion.

    The unknowns are the state's real coordinates; each record entry
    contributes the design row ``expm(t_j R^T) c_i``, the coordinates of
    ``Q_i`` stepped by the transposed real generator.  The trace
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
    state to the result.
    """
    n = model.dim
    if n < 2:
        raise ValidationError(f"reconstruction needs dimension >= 2, got {n}")
    checked = _checked_observables(observables, n)
    if record.observable_count != len(checked):
        raise ValidationError(
            f"record holds {record.observable_count} observables, got {len(checked)}"
        )

    index, time, rhs, _sigma = record.entries.T
    instants, at = np.unique(time, return_inverse=True)
    # expm(t R)^T = expm(t R^T), so the observables' coordinates step as columns:
    # rows[k, j, i] is coordinate k of Q_i stepped to instant j
    rows = _propagated(_real_generator(build_generator(model)).T, instants, _coordinates(np.stack(checked)).T)
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


def write_record_csv(record: MeasurementRecord, path) -> None:
    """Write a record as CSV with 17-significant-digit floats (exact roundtrip)."""
    rows = record.entries.shape[0]
    text = ",".join(CSV_HEADER) + "\r\n"
    text += ("%d,%.17g,%.17g,%.17g\r\n" * rows) % tuple(record.entries.ravel().tolist())
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _entries_by_line(rows: list[list[str]], path) -> np.ndarray:
    """The measurement rows converted one line at a time; an error names its line."""
    entries = np.empty((len(rows) - 1, 4))
    filled = 0
    for lineno, row in enumerate(rows[1:], start=2):
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

    The grid is recovered as the sorted distinct times and the observable
    count as one past the largest index seen.  The index column is read
    with ``int()`` and the others with ``float()``, all rows at once; only
    when that fails are the rows converted one by one, so that the error
    names the offending line.  A file that cannot be opened, or is not
    UTF-8 CSV text, raises :class:`ValidationError`.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise ValidationError(f"cannot read record file {path!s}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"record file {path!s} is not UTF-8 CSV text: {exc}") from exc
    if not rows or tuple(h.strip() for h in rows[0]) != CSV_HEADER:
        raise ValidationError(f"record file {path!s}: expected header {','.join(CSV_HEADER)}")
    body = list(filter(None, rows[1:]))
    try:
        if set(map(len, body)) != {4}:
            raise ValueError("not every row has 4 fields")
        index, *numbers = zip(*body)
        # numpy converts strings with int() and float(), as the line-by-line path does
        entries = np.column_stack((np.array(index, dtype=np.int64), np.array(numbers, dtype=float).T))
    except (ValueError, OverflowError):
        entries = _entries_by_line(rows, path)
    if not entries.size:
        raise ValidationError(f"record file {path!s}: no measurement rows")
    count = int(entries[:, 0].max()) + 1
    return MeasurementRecord(entries=entries, observable_count=count, grid=np.unique(entries[:, 1]))
