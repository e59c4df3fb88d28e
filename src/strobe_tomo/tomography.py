"""Stroboscopic measurement simulation and linear-inversion reconstruction.

The closed loop: pick a verified observable set, sample expectation values
``tr(Q_i rho(t_j))`` on a shared time grid (optionally with additive
Gaussian noise as a stand-in for whatever averaging a real experiment
does), then recover the initial state by expanding it over the orthonormal
hermitian basis and solving the resulting linear least-squares problem with
a hard trace constraint.  Reconstruction reports the design rank and
condition number so an inadequate observable set or grid shows up as a
diagnosable rank deficiency instead of a silently wrong state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure, RankDeficiencyError, ValidationError
from .lindblad import (
    LindbladModel,
    build_generator,
    evolve,
    propagator,
    validate_density_matrix,
)
from .analysis import SpectralReport
from .operator_algebra import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    _svd_rank,
    assert_hermitian,
    hermitian_basis,
    vec,
)

__all__ = [
    "Measurement",
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

#: imaginary part allowed on a noiseless expectation value before it is discarded
EXPECTATION_IMAG_ATOL = 1e-10


class Measurement(NamedTuple):
    observable_index: int
    time: float
    value: float
    sigma: float


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


@dataclass(frozen=True)
class MeasurementRecord:
    """Expectation-value samples ``(observable index, time, value, sigma)``.

    ``grid`` holds the distinct measurement instants; every entry's time
    must be one of them, and every index must be below
    ``observable_count``.  Repeated (index, time) entries are legal and
    mean repeated measurements.
    """

    entries: tuple[Measurement, ...]
    observable_count: int
    grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", validate_time_grid(self.grid))
        object.__setattr__(self, "entries", tuple(Measurement(*e) for e in self.entries))
        allowed = set(self.grid.tolist())
        for pos, entry in enumerate(self.entries):
            if not (0 <= entry.observable_index < self.observable_count):
                raise ValidationError(
                    f"entries[{pos}]: observable index {entry.observable_index} "
                    f"out of range [0, {self.observable_count})"
                )
            if not np.isfinite(entry.value):
                raise ValidationError(f"entries[{pos}]: non-finite value {entry.value!r}")
            if not 0 <= entry.sigma < np.inf:
                raise ValidationError(
                    f"entries[{pos}]: sigma must be finite and >= 0, got {entry.sigma}"
                )
            if entry.time not in allowed:
                raise ValidationError(f"entries[{pos}]: time {entry.time!r} is not on the grid")


@dataclass(frozen=True)
class ReconstructionResult:
    """Estimated initial state plus the inversion diagnostics."""

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


def _checked_observables(observables, dim: int) -> list[np.ndarray]:
    checked = [assert_hermitian(q, name=f"observables[{i}]") for i, q in enumerate(observables)]
    if not checked:
        raise ValidationError("observable set must contain at least one observable")
    for i, q in enumerate(checked):
        if q.shape != (dim, dim):
            raise ValidationError(
                f"observables[{i}] has shape {q.shape}, expected ({dim}, {dim})"
            )
    return checked


def _expectation(observable: np.ndarray, state: np.ndarray, index: int, t: float) -> float:
    raw = complex(np.vdot(observable, state))
    if abs(raw.imag) > EXPECTATION_IMAG_ATOL * (1.0 + abs(raw)):
        raise NumericalFailure(
            f"expectation of observable {index} at t={t:.6g} has imaginary part "
            f"{raw.imag:.3e}; observable/state pair is inconsistent"
        )
    return raw.real


def simulate_measurements(model: LindbladModel, rho0, observables: Sequence[np.ndarray],
                          grid, noise_sigma: float = 0.0, seed: int = 0) -> MeasurementRecord:
    """Sample ``tr(Q_i rho(t_j))`` for every observable and grid instant.

    Entries are ordered observable-major.  ``noise_sigma`` must be finite
    and nonnegative; with ``noise_sigma > 0`` each value gets independent
    additive Gaussian noise from a generator seeded with ``seed``, so
    records are bit-identical across runs with the same arguments.
    """
    grid = validate_time_grid(grid)
    if not (np.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValidationError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rho0 = validate_density_matrix(rho0, dim=model.dim, name="rho0")
    checked = _checked_observables(observables, model.dim)

    gen = build_generator(model)
    states = [evolve(gen, rho0, t) for t in grid]

    rng = np.random.default_rng(seed)
    entries = []
    for i, q in enumerate(checked):
        for t, state in zip(grid, states):
            value = _expectation(q, state, i, t)
            if noise_sigma > 0:
                value += rng.normal(0.0, noise_sigma)
            entries.append(Measurement(i, float(t), float(value), float(noise_sigma)))
    return MeasurementRecord(entries=tuple(entries), observable_count=len(checked), grid=grid)


def reconstruct(model: LindbladModel, observables: Sequence[np.ndarray],
                record: MeasurementRecord, *, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                project: bool = True, truth=None) -> ReconstructionResult:
    """Recover the initial state from a measurement record by linear inversion.

    The unknown state is expanded over the orthonormal hermitian basis with
    real coefficients; each record entry contributes the design row
    ``tr(Q_i expm(t_j L)[B_k])``.  The trace constraint is exact: the
    identity coefficient is fixed at ``1/sqrt(dim)`` and least squares
    solves only for the dim^2 - 1 traceless coordinates.  ``design_rank``
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
    checked = _checked_observables(observables, n)
    if record.observable_count != len(checked):
        raise ValidationError(
            f"record holds {record.observable_count} observables, got {len(checked)}"
        )

    basis = np.stack(hermitian_basis(n))
    basis_stack = basis.reshape(n * n, n * n)
    gen = build_generator(model)
    maps = {t: propagator(gen, t) for t in set(e.time for e in record.entries)}

    rows = []
    rhs = []
    for entry in record.entries:
        weights = vec(checked[entry.observable_index]).conj() @ maps[entry.time]
        rows.append((weights @ basis_stack.T).real)
        rhs.append(entry.value)
    design = np.array(rows).reshape(-1, n * n)
    if not np.all(np.isfinite(design)):
        raise NumericalFailure("design matrix overflows: expm(t * L) is not finite on the record's instants")
    # basis[0] is I/sqrt(n), so unit trace fixes its coefficient
    identity_coeff = 1.0 / np.sqrt(n)
    traceless = design[:, 1:]
    target = np.array(rhs) - identity_coeff * design[:, 0]

    traceless_rank, sigma = _svd_rank(traceless, tol)
    design_rank = 1 + traceless_rank
    required = n * n
    if design_rank < required:
        raise RankDeficiencyError(
            f"measurement design has rank {design_rank}, needs {required}; "
            "the observable set or time grid does not span the operator space",
            achieved_rank=design_rank,
            required_rank=required,
        )
    condition = float(sigma[0] / sigma[-1])

    coeffs, *_ = np.linalg.lstsq(traceless, target, rcond=None)
    rho_hat = identity_coeff * basis[0] + np.tensordot(coeffs, basis[1:], axes=1)
    residual = float(np.linalg.norm(traceless @ coeffs - target))
    if not (np.all(np.isfinite(coeffs)) and np.isfinite(residual)):
        raise NumericalFailure("least-squares estimate is not finite; the record values overflow")

    if project:
        rho_hat = _project_to_physical(rho_hat)

    error = None
    if truth is not None:
        truth = assert_hermitian(truth, name="truth")
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
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for entry in record.entries:
            writer.writerow([
                entry.observable_index,
                format(entry.time, ".17g"),
                format(entry.value, ".17g"),
                format(entry.sigma, ".17g"),
            ])


def read_record_csv(path) -> MeasurementRecord:
    """Read a record written by :func:`write_record_csv`.

    The grid is recovered as the sorted distinct times and the observable
    count as one past the largest index seen.  A file that cannot be
    opened, or is not UTF-8 CSV text, raises :class:`ValidationError`.
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
    entries = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(f"record file {path!s}, line {lineno}: expected 4 fields")
        try:
            entries.append(Measurement(int(row[0]), float(row[1]), float(row[2]), float(row[3])))
        except ValueError as exc:
            raise ValidationError(f"record file {path!s}, line {lineno}: {exc}") from exc
    if not entries:
        raise ValidationError(f"record file {path!s}: no measurement rows")
    grid = np.array(sorted({e.time for e in entries}))
    count = max(e.observable_index for e in entries) + 1
    return MeasurementRecord(entries=tuple(entries), observable_count=count, grid=grid)
