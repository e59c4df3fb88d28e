"""Markovian master-equation models and their vectorized generators.

A model is a constant Hamiltonian plus dissipation channels ``(rate, L)``
acting as ``L rho L^dag - (1/2){L^dag L, rho}``.  The vectorization
convention is row-stacking throughout: under ``vec``, a channel becomes
``kron(L, conj(L)) - (kron(L^dag L, I) + kron(I, (L^dag L).T)) / 2`` and the
commutator ``-i[H, rho]`` becomes ``-i (kron(H, I) - kron(I, H.T))``.  The
resulting dim^2 x dim^2 matrix generates the state evolution
``rho(t) = unvec(expm(t * gen) vec(rho0))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, ValidationError
from .operator_algebra import (
    as_complex_matrix,
    assert_hermitian,
    expm,
    is_hermitian,
    unvec,
    vec,
)

__all__ = [
    "LindbladModel",
    "Superoperator",
    "laser_cooling_model",
    "build_generator",
    "propagator",
    "evolve",
    "validate_density_matrix",
    "trace_functional_residual",
    "matrix_to_json",
    "matrix_from_json",
    "model_to_json",
    "model_from_json",
]

#: trace of an evolved state may drift from 1 by at most this much
EVOLVE_TRACE_ATOL = 1e-10
#: hermiticity slack allowed on evolved states (looser than on inputs: expm roundoff)
EVOLVE_HERMITICITY_ATOL = 1e-10
#: eigenvalues of an evolved state may dip below zero by at most this much
EVOLVE_EIG_FLOOR = -1e-8
#: eigenvalue floor for states supplied as inputs
STATE_EIG_FLOOR = -1e-10


def _finite(m, name: str) -> np.ndarray:
    arr = as_complex_matrix(m, name)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True)
class LindbladModel:
    """Constant Hamiltonian plus a list of ``(rate, jump operator)`` channels.

    ``hamiltonian=None`` means the zero matrix.  Rates must be finite and
    nonnegative, every operator must be ``dim x dim`` with finite entries,
    and the Hamiltonian must be hermitian.  Time-dependent Hamiltonians
    are rejected: the vectorized generator built from this model is only
    meaningful when it is constant.
    """

    dim: int
    hamiltonian: np.ndarray | None = None
    jumps: tuple[tuple[float, np.ndarray], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise ValidationError(f"dim must be a positive integer, got {self.dim!r}")
        ham = self.hamiltonian
        if ham is None:
            ham = np.zeros((self.dim, self.dim), dtype=complex)
        elif callable(ham):
            raise ValidationError(
                "time-dependent Hamiltonians are not supported; supply a constant matrix"
            )
        else:
            ham = assert_hermitian(_finite(ham, "hamiltonian"), name="hamiltonian")
            if ham.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"hamiltonian has shape {ham.shape}, expected ({self.dim}, {self.dim})"
                )
        object.__setattr__(self, "hamiltonian", ham)

        checked = []
        for idx, item in enumerate(self.jumps):
            try:
                rate, op = item
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"jumps[{idx}] must be a (rate, operator) pair") from exc
            rate = float(rate)
            if not np.isfinite(rate):
                raise ValidationError(f"jumps[{idx}].rate must be finite, got {rate}")
            if rate < 0:
                raise ValidationError(f"jumps[{idx}].rate must be >= 0, got {rate}")
            op = _finite(op, f"jumps[{idx}].matrix")
            if op.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"jumps[{idx}].matrix has shape {op.shape}, expected ({self.dim}, {self.dim})"
                )
            checked.append((rate, op))
        object.__setattr__(self, "jumps", tuple(checked))


@dataclass(frozen=True)
class Superoperator:
    """A dim^2 x dim^2 generator matrix acting on row-stacked operators.

    Row-stacking (``vec`` flattens row by row) is the package's only
    vectorization convention.  Construction only checks the shape, so
    synthetic generators can be injected for analysis; matrices produced by
    :func:`build_generator` additionally annihilate the trace functional
    (``vec(I)^dag @ matrix ~ 0``).
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


def trace_functional_residual(sup: Superoperator) -> float:
    """Max |vec(I)^dag @ matrix|: zero iff the generator preserves the trace."""
    ident = np.eye(sup.dim, dtype=complex).reshape(-1)
    return float(np.abs(ident.conj() @ sup.matrix).max())


def build_generator(model: LindbladModel) -> Superoperator:
    """Vectorize a model into its dim^2 x dim^2 generator matrix.

    The output annihilates the trace functional by construction; this is
    re-checked numerically as a guard against degenerate inputs.
    """
    n = model.dim
    eye = np.eye(n, dtype=complex)
    mat = -1j * (np.kron(model.hamiltonian, eye) - np.kron(eye, model.hamiltonian.T))
    for rate, op in model.jumps:
        opdop = op.conj().T @ op
        mat = mat + rate * (
            np.kron(op, op.conj())
            - 0.5 * (np.kron(opdop, eye) + np.kron(eye, opdop.T))
        )
    sup = Superoperator(dim=n, matrix=mat)
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
    residual = trace_functional_residual(sup)
    if residual > 1e-10 * scale:
        raise NumericalFailure(
            f"generator fails to annihilate the trace functional (residual {residual:.3e})"
        )
    return sup


def propagator(gen: Superoperator, t: float) -> np.ndarray:
    """The dim^2 x dim^2 map expm(t * gen) acting on vectorized operators."""
    if t < 0:
        raise ValidationError(f"propagation time must be >= 0, got {t}")
    return expm(t * gen.matrix)


def validate_density_matrix(rho, *, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Check hermiticity, unit trace and positivity; return the coerced array."""
    arr = assert_hermitian(rho, name=name)
    if dim is not None and arr.shape != (dim, dim):
        raise ValidationError(f"{name} has shape {arr.shape}, expected ({dim}, {dim})")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > EVOLVE_TRACE_ATOL:
        raise ValidationError(f"{name} has trace {tr:.12g}, expected 1")
    lowest = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0).min())
    if lowest < STATE_EIG_FLOOR:
        raise ValidationError(
            f"{name} has eigenvalue {lowest:.3e} below the floor {STATE_EIG_FLOOR:.1e}"
        )
    return arr


def evolve(gen: Superoperator, rho0, t: float) -> np.ndarray:
    """Evolve a density matrix for time ``t`` under the generator.

    Returns ``unvec(expm(t * gen) vec(rho0))`` after checking that the
    result is still a density matrix: hermitian, unit trace to 1e-10 and
    eigenvalues above -1e-8.  A violation is reported as a numerical
    failure rather than silently repaired.
    """
    rho0 = validate_density_matrix(rho0, dim=gen.dim, name="rho0")
    out = unvec(propagator(gen, t) @ vec(rho0), gen.dim)

    if not is_hermitian(out, EVOLVE_HERMITICITY_ATOL):
        dev = float(np.abs(out - out.conj().T).max())
        raise NumericalFailure(f"evolved state lost hermiticity (deviation {dev:.3e})")
    tr = complex(np.trace(out))
    if abs(tr - 1.0) > EVOLVE_TRACE_ATOL:
        raise NumericalFailure(f"evolved state has trace {tr:.12g}, expected 1")
    lowest = float(np.linalg.eigvalsh((out + out.conj().T) / 2.0).min())
    if lowest < EVOLVE_EIG_FLOOR:
        raise NumericalFailure(
            f"evolved state has eigenvalue {lowest:.3e} below the floor {EVOLVE_EIG_FLOOR:.1e}"
        )
    return out


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
    """A JSON number as a float; rejects booleans, non-numbers and integers past the float range."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ValidationError(f"{field_name}: expected a number, got {type(obj).__name__}")
    try:
        return float(obj)
    except OverflowError:
        raise ValidationError(f"{field_name}: integer out of the float range") from None


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
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValidationError(f"dim: expected a positive integer, got {dim!r}")

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

    return LindbladModel(dim=dim, hamiltonian=hamiltonian, jumps=tuple(jumps))
