"""Reference answers computed without the package under test.

The superoperator is assembled column by column from the master equation
itself, the spectrum comes from numpy's eigensolver, and propagators from
scipy's ``expm``.  Nothing here imports ``strobe_tomo``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import connected_components

#: eigenvalues closer than this share of ``max(1, |L|_F)`` are one eigenvalue
CLUSTER_RTOL = 1e-7
#: distinct eigenvalues closer than this share are too close to call
AMBIGUOUS_RTOL = 1e-5
#: smallest noise level assumed for a noiseless record (roundoff in the values)
ROUNDOFF_SIGMA = 1e-12
#: safety factor of the reconstruction error bound (see ``error_bound``)
BOUND_FACTOR = 6.0


class Unverifiable(Exception):
    """The input is too close to a degenerate case for the oracle to decide."""


def lindblad_rhs(ham: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    """-i[H, rho] + sum_k r_k (L rho L^dag - {L^dag L, rho} / 2)."""
    out = -1j * (ham @ rho - rho @ ham)
    for rate, op in jumps:
        opdop = op.conj().T @ op
        out = out + rate * (op @ rho @ op.conj().T - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def superoperator(ham: np.ndarray, jumps) -> np.ndarray:
    """Matrix of the master equation acting on row-stacked matrices."""
    n = ham.shape[0]
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return np.stack([lindblad_rhs(ham, jumps, e).reshape(-1) for e in units], axis=1)


def spectrum_counts(ham: np.ndarray, jumps) -> tuple[int, int]:
    """(mu, eta) of a diagonalizable generator: distinct eigenvalues, largest multiplicity.

    For a diagonalizable matrix the minimal polynomial has one simple root
    per distinct eigenvalue and every geometric multiplicity equals the
    algebraic one.  Diagonalizability is certain for a normal generator
    (Hamiltonian only) and for a simple spectrum; anything else, or two
    distinct eigenvalues too close to tell apart, raises ``Unverifiable``.
    """
    mat = superoperator(ham, jumps)
    scale = max(1.0, float(np.linalg.norm(mat)))
    values = np.linalg.eigvals(mat)
    dist = np.abs(values[:, None] - values[None, :])
    count, labels = connected_components(dist <= CLUSTER_RTOL * scale, directed=False)
    sizes = np.bincount(labels)
    apart = labels[:, None] != labels[None, :]
    if apart.any() and dist[apart].min() <= AMBIGUOUS_RTOL * scale:
        raise Unverifiable("two distinct eigenvalues are within the ambiguity radius")
    normal = np.linalg.norm(mat @ mat.conj().T - mat.conj().T @ mat) <= 1e-10 * scale**2
    if sizes.max() > 1 and not normal:
        raise Unverifiable("repeated eigenvalue of a non-normal generator")
    return int(count), int(sizes.max())


def slowest_decay(ham: np.ndarray, jumps) -> float:
    """Smallest nonzero |Re lambda| of the generator."""
    rates = np.abs(np.linalg.eigvals(superoperator(ham, jumps)).real)
    return float(rates[rates > 1e-9 * max(1.0, rates.max())].min())


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the traceless hermitian n x n matrices, shape (n^2 - 1, n, n)."""
    full = []
    for j in range(n):
        for k in range(n):
            m = np.zeros((n, n), dtype=complex)
            if j == k:
                m[j, j] = 1.0
            elif j < k:
                m[j, k] = m[k, j] = 1 / np.sqrt(2)
            else:
                m[j, k], m[k, j] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            full.append(m)
    full = np.array(full)
    traces = np.trace(full, axis1=1, axis2=2).real
    complement = scipy.linalg.null_space(traces[None, :])
    return np.einsum("kj,kab->jab", complement, full)


def error_bound(ham: np.ndarray, jumps, observables, times, sigma: float) -> float:
    """Largest Frobenius error a correct reconstruction can show on this record.

    The state is ``I/n`` plus a traceless part with coordinates ``c`` in an
    orthonormal basis, and the record is ``A c`` plus noise ``e`` with
    entries of width ``sigma`` (at least ``ROUNDOFF_SIGMA``).  Least squares
    errs by at most ``|e| / s_min(A)``; ``|e| <= 3 sigma sqrt(rows)`` except
    with negligible probability, and the physicality projection at most
    doubles the error, hence the factor 6.
    """
    n = ham.shape[0]
    mat = superoperator(ham, jumps)
    basis = traceless_basis(n).reshape(n * n - 1, n * n).T
    duals = np.array([np.asarray(q, dtype=complex).reshape(-1).conj() for q in observables])
    rows = [(duals @ scipy.linalg.expm(t * mat) @ basis).real for t in times]
    design = np.concatenate(rows)
    s_min = np.linalg.svd(design, compute_uv=False)[-1]
    noise = max(sigma, ROUNDOFF_SIGMA)
    return BOUND_FACTOR * noise * np.sqrt(design.shape[0]) / s_min
