"""Markovian master-equation models and their vectorized generators.

A model is a constant Hamiltonian plus dissipation channels ``(rate, L)``
acting as ``L rho L^dag - (1/2){L^dag L, rho}``.  With the effective
Hamiltonian term ``G = -iH - (1/2) sum rate L^dag L`` the generator is
``G rho + rho G^dag + sum rate L rho L^dag``.  The vectorization
convention is row-stacking throughout: under ``vec`` that is
``kron(G, I) + kron(I, conj(G)) + sum rate kron(L, conj(L))``.  The
resulting dim^2 x dim^2 matrix generates the state evolution
``rho(t) = unvec(expm(t * gen) vec(rho0))``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalFailure, ValidationError
from .operator_algebra import (
    HERMITICITY_ATOL,
    _coordinates,
    _from_coordinates,
    _hermitian_form,
    _square,
    as_complex_matrix,
    assert_hermitian,
    expm,
    vec,
)

__all__ = [
    "LindbladModel",
    "Superoperator",
    "laser_cooling_model",
    "build_generator",
    "evolve",
    "validate_density_matrix",
    "matrix_to_json",
    "matrix_from_json",
    "model_to_json",
    "model_from_json",
]

#: trace of an evolved state may drift from 1 by at most this much
EVOLVE_TRACE_ATOL = 1e-10
#: eigenvalues of an evolved state may dip below zero by at most this much
EVOLVE_EIG_FLOOR = -1e-8
#: eigenvalue floor for states supplied as inputs
STATE_EIG_FLOOR = -1e-10
#: a grid is equispaced when every ``t_j`` is ``j * t_1`` to this relative tolerance
EQUISPACED_RTOL = 1e-12
#: largest model dimension: the dense generator of a 64-level model is a
#: 4096 x 4096 complex matrix (256 MiB), and every analysis step is O(dim^6)
MAX_DIM = 64


def _integer(value, name: str, positive: bool = False):
    """``value`` if it is an integer >= 0 (> 0 if ``positive``), not a bool; else :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < positive:
        kind = "positive" if positive else "non-negative"
        raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def _nonnegative_real(value, name: str) -> float:
    """``value`` as a float if it is a finite real number >= 0, not a bool; else :class:`ValidationError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not 0 <= value < np.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value}")
    return value


def _operator(m, name: str, dim: int) -> np.ndarray:
    """A read-only copy of ``m`` as a ``dim x dim`` complex matrix with finite entries."""
    arr = as_complex_matrix(m, name).copy()
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    if arr.shape != (dim, dim):
        raise ValidationError(f"{name} has shape {arr.shape}, expected ({dim}, {dim})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Constant Hamiltonian plus a list of ``(rate, jump operator)`` channels.

    ``dim`` is at most :data:`MAX_DIM`; ``hamiltonian=None`` means the zero
    matrix.  Rates must be finite and nonnegative, every operator must be
    ``dim x dim`` with finite entries, and the Hamiltonian must be
    hermitian.  Time-dependent Hamiltonians are rejected: the vectorized
    generator built from this model is only meaningful when it is constant.
    The operators are stored as read-only copies.  Models compare and hash
    by identity; compare contents with ``np.array_equal``.
    """

    dim: int
    hamiltonian: np.ndarray | None = None
    jumps: tuple[tuple[float, np.ndarray], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if _integer(self.dim, "dim", positive=True) > MAX_DIM:
            raise ValidationError(f"dim must be at most {MAX_DIM}, got {self.dim}")
        ham = np.zeros((self.dim, self.dim)) if self.hamiltonian is None else self.hamiltonian
        if callable(ham):
            raise ValidationError(
                "time-dependent Hamiltonians are not supported; supply a constant matrix"
            )
        ham = assert_hermitian(_operator(ham, "hamiltonian", self.dim), name="hamiltonian")
        object.__setattr__(self, "hamiltonian", ham)

        checked = []
        for idx, item in enumerate(self.jumps):
            try:
                rate, op = item
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"jumps[{idx}] must be a (rate, operator) pair") from exc
            checked.append((_nonnegative_real(rate, f"jumps[{idx}].rate"),
                            _operator(op, f"jumps[{idx}].matrix", self.dim)))
        object.__setattr__(self, "jumps", tuple(checked))


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A dim^2 x dim^2 generator matrix acting on row-stacked operators.

    Row-stacking (``vec`` flattens row by row) is the package's only
    vectorization convention.  Construction only checks the shape, so
    synthetic generators can be injected; matrices produced by
    :func:`build_generator` also annihilate the trace functional
    (``vec(I)^dag @ matrix ~ 0``) and preserve hermiticity; any other gets
    spectral analysis only, as later stages need the real form.  The matrix is stored read-only: a
    caller's array is copied, unless it is already a read-only complex
    array that owns its memory, as :func:`build_generator` passes.
    Compared and hashed by identity; compare contents with
    ``np.array_equal``.
    """

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix, "superoperator matrix")
        n2 = self.dim * self.dim
        if mat.shape != (n2, n2):
            raise ValidationError(
                f"superoperator matrix has shape {mat.shape}, expected ({n2}, {n2})"
            )
        if mat.flags.writeable or not mat.flags.owndata:
            mat = mat.copy()
            mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def laser_cooling_model(gamma1: float, gamma2: float) -> LindbladModel:
    """Three-level model with decay |2> -> |1> at gamma1 and |2> -> |3> at gamma2.

    The Hamiltonian is zero; the jump operators are |1><2| and |3><2| in the
    computational basis, so only the dissipative part drives the dynamics.
    """
    e1 = np.zeros((3, 3), dtype=complex)
    e1[0, 1] = 1.0
    e2 = np.zeros((3, 3), dtype=complex)
    e2[2, 1] = 1.0
    return LindbladModel(dim=3, jumps=((gamma1, e1), (gamma2, e2)))


def build_generator(model: LindbladModel) -> Superoperator:
    """Vectorize a model into its dim^2 x dim^2 generator matrix.

    The output annihilates the trace functional by construction; this is
    re-checked numerically as a guard against degenerate inputs.
    """
    n = model.dim
    eye = np.eye(n, dtype=complex)
    # G rho + rho G^dag + sum rate L rho L^dag, with G = -iH - (1/2) sum rate L^dag L
    effective = -1j * model.hamiltonian
    for rate, op in model.jumps:
        effective = effective - 0.5 * rate * (op.conj().T @ op)
    mat = np.kron(effective, eye) + np.kron(eye, effective.conj())
    for rate, op in model.jumps:
        mat += rate * np.kron(op, op.conj())
    mat.setflags(write=False)
    sup = Superoperator(dim=n, matrix=mat)
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
    residual = float(np.abs(vec(eye).conj() @ mat).max())
    if residual > 1e-10 * scale:
        raise NumericalFailure(
            f"generator fails to annihilate the trace functional (residual {residual:.3e})"
        )
    return sup


def _real_generator(gen: Superoperator) -> np.ndarray:
    """The generator in hermitian coordinates, a real matrix; :class:`NumericalFailure` if it is not."""
    real = _hermitian_form(gen.matrix, gen.dim)
    if np.iscomplexobj(real):
        raise NumericalFailure("the generator does not preserve hermiticity (or is not finite); "
                               "only its spectral analysis is defined")
    return real


def _propagated(mat: np.ndarray, instants: np.ndarray, operand: np.ndarray) -> np.ndarray:
    """``expm(t * mat) @ operand`` at each instant, stacked along a new second axis.

    The package's one forward map; no propagator is formed per instant.
    ``out[:, j]`` is the operand propagated to ``instants[j]``, so the
    instants lie side by side in the columns of one array.  On an
    equispaced grid (``t_j = j * t_1`` to a relative
    :data:`EQUISPACED_RTOL`) the one exponential ``S = expm(t_1 * mat)``
    gives the first instant, and the grid fills by doubling: with ``d``
    instants done, the next ``d`` are ``S**d`` times the first ``d``, in
    one matrix product, then ``S**d`` is squared; about ``log2(m)``
    products for ``m`` instants.  Any other grid carries the operand from
    one instant to the next, one exponential per gap.  Either way the
    results match separate exponentials to roundoff, not bit for bit.
    """
    size = instants.size
    cols = operand.reshape(operand.shape[0], -1)
    width = cols.shape[1]
    out = np.empty((cols.shape[0], size * width), dtype=np.result_type(mat, cols))
    steps = np.arange(1, size + 1)
    if size and np.all(np.abs(instants - steps * instants[:1]) <= EQUISPACED_RTOL * instants):
        power = expm(instants[0] * mat)
        np.matmul(power, cols, out=out[:, :width])
        done = 1
        while done < size:
            count = min(done, size - done)
            np.matmul(power, out[:, :count * width], out=out[:, done * width:(done + count) * width])
            done += count
            if done < size:
                power = power @ power
    else:
        current, previous = cols, 0.0
        for j, t in enumerate(instants):
            current = expm((t - previous) * mat) @ current
            out[:, j * width:(j + 1) * width], previous = current, t
    return out.reshape((cols.shape[0], size) + operand.shape[1:])


def _check_density_matrix(arr: np.ndarray, name: str | Callable[[int], str], *,
                          evolved: bool = False) -> np.ndarray:
    """Test that ``arr`` is hermitian, has unit trace and no negative eigenvalue.

    ``arr`` is one square matrix named ``name``, or a stack of them whose
    ``i``-th matrix is named ``name(i)``, formatted only when it fails; a
    stack is tested in one batched pass, and the error names its first
    failing matrix and that matrix's first failing test, in
    the order hermiticity, trace, eigenvalue floor.  An evolved state fails
    with :class:`NumericalFailure`, at an eigenvalue floor loose enough for
    the forward map's roundoff; an input state fails with :class:`ValidationError`.
    """
    error, eig_floor = (NumericalFailure, EVOLVE_EIG_FLOOR) if evolved else (ValidationError, STATE_EIG_FLOOR)
    stack, names = (arr[None], lambda _: name) if arr.ndim == 2 else (arr, name)
    # the entrywise test of is_hermitian; inf - inf is NaN, which fails it
    scale = 1.0 + np.abs(stack).max(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    hermitian = (scale < np.inf) & (dev <= HERMITICITY_ATOL * scale)
    tr = np.trace(stack, axis1=1, axis2=2)
    unit_trace = np.abs(tr - 1.0) <= EVOLVE_TRACE_ATOL
    tested = hermitian & unit_trace
    # only finite matrices reach the eigensolver
    finite = np.where(tested[:, None, None], stack, 0.0)
    lowest = np.linalg.eigvalsh((finite + finite.conj().swapaxes(1, 2)) / 2.0).min(axis=1)
    bad = ~tested | (lowest < eig_floor)
    if bad.any():
        i = int(np.argmax(bad))
        if not hermitian[i]:
            raise error(f"{names(i)} is not hermitian (max |A - A^dag| = {dev[i]:.3e})")
        if not unit_trace[i]:
            raise error(f"{names(i)} has trace {complex(tr[i]):.12g}, expected 1")
        raise error(f"{names(i)} has eigenvalue {lowest[i]:.3e} below the floor {eig_floor:.1e}")
    return arr


def validate_density_matrix(rho, *, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Check hermiticity, unit trace and positivity; return the coerced array."""
    arr = _square(rho, name, dtype=complex)
    if dim is not None and arr.shape != (dim, dim):
        raise ValidationError(f"{name} has shape {arr.shape}, expected ({dim}, {dim})")
    return _check_density_matrix(arr, name)


def evolve(gen: Superoperator, rho0, t: float) -> np.ndarray:
    """Evolve a density matrix for time ``t`` under the generator.

    Returns the state with real coordinates ``expm(t * R) x0``, ``R`` the
    real generator, after checking that it is still a density matrix: unit
    trace to 1e-10 and eigenvalues above -1e-8.  A violation is reported as
    a numerical failure naming the instant rather than silently repaired.
    """
    rho0 = validate_density_matrix(rho0, dim=gen.dim, name="rho0")
    if not 0 <= t < np.inf:
        raise ValidationError(f"propagation time must be finite and >= 0, got {t}")
    x = _propagated(_real_generator(gen), np.array([t], dtype=float), _coordinates(rho0))[:, 0]
    return _check_density_matrix(_from_coordinates(x, gen.dim), f"evolved state at t={t:.6g}", evolved=True)


# --- JSON encoding -------------------------------------------------------
#
# Complex entries are encoded as {"re": float, "im": float}; plain numbers
# are accepted on input as real entries.  A model file looks like
#   {"dim": 3, "hamiltonian": [[...], ...], "jumps": [{"rate": r, "matrix": [[...], ...]}]}
# with "hamiltonian" optional (omitted means zero).


def _entry_to_json(z: complex) -> dict:
    """``{"re": ..., "im": ...}``; JSON has no NaN or infinity, so a non-finite part is null."""
    re_part, im_part = float(z.real), float(z.imag)
    return {"re": re_part if math.isfinite(re_part) else None,
            "im": im_part if math.isfinite(im_part) else None}


def matrix_to_json(m) -> list:
    arr = as_complex_matrix(m)
    return [[_entry_to_json(z) for z in row] for row in arr]


def _number_from_json(obj, field_name: str) -> float:
    """A JSON number as a finite float; rejects booleans, non-numbers, NaN, infinity and huge integers."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{field_name}: expected a number, got {type(obj).__name__}")
    try:
        value = float(obj)
    except OverflowError:
        raise ValidationError(f"{field_name}: integer out of the float range") from None
    if not math.isfinite(value):
        raise ValidationError(f"{field_name}: non-finite number {value!r}")
    return value


def _entry_from_json(obj, field_name: str) -> complex:
    if isinstance(obj, dict):
        try:
            re_part = obj["re"]
            im_part = obj["im"]
        except KeyError as exc:
            raise ValidationError(f"{field_name}: missing key {exc.args[0]!r}") from exc
        return complex(_number_from_json(re_part, f"{field_name}.re"),
                       _number_from_json(im_part, f"{field_name}.im"))
    return complex(_number_from_json(obj, field_name))


def matrix_from_json(obj, field_name: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{field_name}: expected a non-empty list of rows")
    width = None
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise ValidationError(f"{field_name}[{i}]: expected a non-empty list of entries")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"{field_name}[{i}]: ragged row (length {len(row)}, expected {width})")
        rows.append([_entry_from_json(entry, f"{field_name}[{i}][{j}]")
                     for j, entry in enumerate(row)])
    return np.array(rows, dtype=complex)


def model_to_json(model: LindbladModel) -> dict:
    return {
        "dim": model.dim,
        "hamiltonian": matrix_to_json(model.hamiltonian),
        "jumps": [
            {"rate": rate, "matrix": matrix_to_json(op)} for rate, op in model.jumps
        ],
    }


def model_from_json(obj) -> LindbladModel:
    """Parse a model document, naming the offending field on failure."""
    if not isinstance(obj, dict):
        raise ValidationError(f"model: expected a JSON object, got {type(obj).__name__}")
    if "dim" not in obj:
        raise ValidationError("model: missing required field 'dim'")

    hamiltonian = None
    if obj.get("hamiltonian") is not None:
        hamiltonian = matrix_from_json(obj["hamiltonian"], "hamiltonian")

    jumps = []
    raw_jumps = obj.get("jumps", [])
    if not isinstance(raw_jumps, list):
        raise ValidationError("jumps: expected a list")
    for i, entry in enumerate(raw_jumps):
        if not isinstance(entry, dict):
            raise ValidationError(f"jumps[{i}]: expected an object with 'rate' and 'matrix'")
        if "rate" not in entry:
            raise ValidationError(f"jumps[{i}]: missing required field 'rate'")
        rate = _number_from_json(entry["rate"], f"jumps[{i}].rate")
        if "matrix" not in entry:
            raise ValidationError(f"jumps[{i}]: missing required field 'matrix'")
        jumps.append((rate, matrix_from_json(entry["matrix"], f"jumps[{i}].matrix")))

    return LindbladModel(dim=obj["dim"], hamiltonian=hamiltonian, jumps=tuple(jumps))
