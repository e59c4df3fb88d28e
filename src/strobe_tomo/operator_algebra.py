"""Dense complex matrix kernel.

All values are plain ``numpy.ndarray`` with ``complex128`` entries, kept in
row-major (C) order so that :func:`vec` is literal row-stacking.  The
routines here are the shared substrate for generator construction, spectral
analysis and reconstruction; none of them keeps internal state, so every
function is safe to call from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .errors import NumericalFailure, ValidationError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "as_complex_matrix",
    "is_hermitian",
    "assert_hermitian",
    "vec",
    "unvec",
    "hs_inner",
    "rank",
    "eigenvalues",
    "expm",
    "EigenvalueCluster",
    "eigen_structure",
    "minimal_polynomial",
    "hermitian_basis",
    "random_hermitian",
]


#: absolute floor of the hermiticity predicate, scaled by ``1 + max |A|``
HERMITICITY_ATOL = 1e-12


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by rank tests and eigenvalue clustering.

    Attributes
    ----------
    rank_rtol : float
        Singular values below ``rank_rtol * sigma_max`` do not count
        towards the numerical rank.
    eig_cluster_rtol : float
        Relative spread, as a share of the Frobenius norm, of the computed
        eigenvalues of a Jordan chain of length 2.  Eigenvalues within
        ``|m|_F * eig_cluster_rtol**(2/3)`` of each other are grouped into
        one distinct value, which also holds chains of length 3.
    """

    rank_rtol: float = 1e-9
    eig_cluster_rtol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "eig_cluster_rtol"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValidationError(f"{name} must be finite and strictly positive, got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting anything else."""
    try:
        arr = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not convertible to a complex matrix: {exc}") from exc
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _square(a, name: str = "matrix") -> np.ndarray:
    arr = as_complex_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    return arr


def is_hermitian(a, atol: float = HERMITICITY_ATOL) -> bool:
    """Entrywise hermiticity test: max |A - A^dag| <= atol * (1 + max |A|).

    A matrix with a NaN or infinite entry is not hermitian.
    """
    arr = as_complex_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        return False
    scale = 1.0 + (np.abs(arr).max() if arr.size else 0.0)
    if not scale < np.inf:
        return False
    return float(np.abs(arr - arr.conj().T).max()) <= atol * scale


def assert_hermitian(a, name: str = "matrix") -> np.ndarray:
    arr = _square(a, name)
    if not is_hermitian(arr):
        dev = float(np.abs(arr - arr.conj().T).max())
        raise ValidationError(f"{name} is not hermitian (max |A - A^dag| = {dev:.3e})")
    return arr


def vec(m) -> np.ndarray:
    """Row-stack a matrix into a vector: vec([[a,b],[c,d]]) = (a, b, c, d)."""
    return as_complex_matrix(m).reshape(-1)


def unvec(v, n: int) -> np.ndarray:
    """Inverse of :func:`vec` for an ``n x n`` matrix."""
    arr = np.asarray(v, dtype=complex).reshape(-1)
    if arr.size != n * n:
        raise ValidationError(f"cannot unvec length-{arr.size} vector into a {n}x{n} matrix")
    return arr.reshape(n, n)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(A^dag B), conjugate-linear in ``a``."""
    am = as_complex_matrix(a, "a")
    bm = as_complex_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValidationError(f"shape mismatch in inner product: {am.shape} vs {bm.shape}")
    return complex(np.vdot(am, bm))


def _svd_rank(m: np.ndarray, tol: ToleranceConfig) -> tuple[int, np.ndarray]:
    """Numerical rank of ``m`` and its descending singular values, from one SVD.

    The rank counts the singular values strictly above ``rank_rtol *
    sigma_max``: the one threshold behind every rank read off an SVD.
    """
    sigma = np.linalg.svd(m, compute_uv=False)
    return (int(np.sum(sigma > tol.rank_rtol * sigma[0])) if sigma.size else 0), sigma


def rank(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Numerical rank: singular values strictly above rank_rtol * sigma_max."""
    return _svd_rank(as_complex_matrix(m), tol)[0]


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a square matrix, with multiplicity.

    Backed by the LAPACK nonsymmetric solver (Hessenberg reduction followed
    by shifted QR).  Non-convergence is reported, never silently truncated.
    """
    arr = _square(m)
    try:
        return np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"eigenvalue iteration did not converge for a {arr.shape[0]}x{arr.shape[1]} matrix: {exc}"
        ) from exc


def expm(m) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a Pade approximant."""
    return scipy.linalg.expm(_square(m))


class EigenvalueCluster(NamedTuple):
    """One distinct eigenvalue: its value, multiplicities and index.

    The index is the size of the largest Jordan block, i.e. the power of
    ``(x - value)`` in the minimal polynomial.
    """

    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    index: int


def _group_close(values: np.ndarray, radius: float) -> list[np.ndarray]:
    """Single-linkage groups of values within ``radius``, as index arrays.

    Distances are tested for all pairs at once; union-find then runs only
    over the pairs that are close.
    """
    parent = list(range(values.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    close = np.abs(values[:, None] - values[None, :]) <= radius
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        parent[find(int(i))] = find(int(j))
    groups: dict[int, list[int]] = {}
    for i in range(values.size):
        groups.setdefault(find(i), []).append(i)
    return [np.array(members) for members in groups.values()]


def _jordan_counts(shifted: np.ndarray, algebraic: int,
                   tol: ToleranceConfig) -> tuple[int, int]:
    """(geometric multiplicity, index) from the kernel dimensions of ``shifted**j``.

    The kernel dimensions grow strictly with ``j`` until they reach the
    algebraic multiplicity at ``j = index``; growth that stops short of it
    ends the sequence as well.
    """
    size = shifted.shape[0]
    kernels = []
    power = shifted
    while True:
        kernels.append(size - rank(power, tol))
        if kernels[-1] >= algebraic:
            index = len(kernels)
            break
        if len(kernels) > 1 and kernels[-1] <= kernels[-2]:
            index = len(kernels) - 1
            break
        if len(kernels) == algebraic:
            index = algebraic
            break
        power = power @ shifted
    return min(algebraic, max(1, kernels[0])), index


def eigen_structure(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> tuple[EigenvalueCluster, ...]:
    """Distinct eigenvalues of ``m`` with multiplicities and indices.

    The eigenvalues are computed once and grouped by single linkage within
    ``|m|_F * eig_cluster_rtol**(2/3)``; a group's value is the mean of its
    members and its size the algebraic multiplicity.  A simple eigenvalue has
    geometric multiplicity and index 1 and costs nothing more.  For a
    multiple one both come from the numerical ranks of the powers of
    ``(m - value*I) / |m|_F``, one SVD per power, stopping at the index.
    Clusters are ordered by decreasing real part, then increasing
    imaginary part.  A matrix whose Frobenius norm overflows raises
    :class:`NumericalFailure`.
    """
    arr = _square(m)
    values = eigenvalues(arr)
    norm_f = float(np.linalg.norm(arr))
    if not np.isfinite(norm_f):
        raise NumericalFailure("matrix norm overflows the float range")
    clusters = []
    # A computed Jordan chain of length k spreads by about |m| * delta**(1/k),
    # delta the eigensolver's relative backward error.  eig_cluster_rtol is
    # delta**(1/2), the spread of a chain of length 2, so this radius
    # delta**(1/3) also holds chains of length 3.
    radius = norm_f * tol.eig_cluster_rtol ** (2.0 / 3.0)
    for members in _group_close(values, radius):
        value = complex(values[members].mean())
        count = int(members.size)
        geometric = index = 1
        if count > 1:
            shifted = (arr - value * np.eye(arr.shape[0])) / (norm_f or 1.0)
            geometric, index = _jordan_counts(shifted, count, tol)
        clusters.append(EigenvalueCluster(value, count, geometric, index))
    clusters.sort(key=lambda c: (-c.value.real, c.value.imag))
    return tuple(clusters)


def _minimal_polynomial_of(clusters: Sequence[EigenvalueCluster]) -> np.ndarray:
    """Monic ascending coefficients of ``prod (x - value)**index`` over the clusters.

    Coefficients with magnitude below ``1e-9 * max |c|`` are snapped to zero.
    """
    roots = [c.value for c in clusters for _ in range(c.index)]
    coeffs = np.asarray(np.poly(roots), dtype=complex)[::-1].copy()
    coeffs[np.abs(coeffs) < 1e-9 * np.abs(coeffs).max()] = 0.0
    return coeffs


def minimal_polynomial(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Monic coefficients (ascending degree) of the minimal polynomial of ``m``.

    Built from the roots given by :func:`eigen_structure`: each distinct
    eigenvalue appears as often as its index, so the degree is the sum of
    the indices and defective matrices need no special casing.
    Coefficients with magnitude below ``1e-9 * max |c|`` are snapped to zero.
    """
    return _minimal_polynomial_of(eigen_structure(m, tol))


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal hermitian basis of the n x n matrices under :func:`hs_inner`.

    Returns ``n**2`` matrices: the normalized identity followed by the
    generalized Gell-Mann families (symmetric, antisymmetric, diagonal).
    Every hermitian ``H`` expands as ``sum_k hs_inner(B_k, H) * B_k`` with
    real coefficients.
    """
    if n < 2:
        raise ValidationError(f"hermitian basis needs dimension >= 2, got {n}")
    basis = [np.eye(n, dtype=complex) / np.sqrt(n)]
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
    for j in range(n):
        for k in range(j + 1, n):
            asym = np.zeros((n, n), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2.0)
            asym[k, j] = 1j / np.sqrt(2.0)
            basis.append(asym)
    for level in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        diag[:level, :level] = np.eye(level)
        diag[level, level] = -level
        basis.append(diag / np.sqrt(level * (level + 1)))
    return basis


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random hermitian matrix: complex Gaussian entries, symmetrized."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0
