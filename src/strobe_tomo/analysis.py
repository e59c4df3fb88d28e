"""Tomography resource analysis for a vectorized generator.

Answers two questions about a given generator: how many distinct
observables are needed to pin down an unknown initial state (the maximum
geometric multiplicity over the spectrum, called the index of cyclicity
here), and how many measurement instants per observable can ever be needed
(the degree of the generator's minimal polynomial).  A concrete observable
set is adequate when the union of its Krylov subspaces under the dual
generator spans the whole real space of hermitian matrices; this module
verifies that spanning condition and searches for passing sets by seeded
random sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure, SearchExhausted, ValidationError
from .lindblad import Superoperator
from .operator_algebra import (
    DEFAULT_TOLERANCES,
    EigenvalueCluster,
    ToleranceConfig,
    _minimal_polynomial_of,
    assert_hermitian,
    eigen_structure,
    is_hermitian,
    random_hermitian,
    unvec,
    vec,
)

__all__ = [
    "SpectralReport",
    "VerificationResult",
    "spectral_report",
    "krylov_subspace",
    "verify_observables",
    "find_observables",
]


@dataclass(frozen=True)
class SpectralReport:
    """Distinct eigenvalues with multiplicities plus the derived resource counts.

    ``eta`` is the maximum geometric multiplicity (minimal number of
    distinct observables), ``mu`` the minimal-polynomial degree, i.e. the
    sum of the eigenvalue indices (upper bound on instants per
    observable), ``measurement_budget`` their product, and
    ``static_observable_count`` the dim^2 - 1 observables a dynamics-blind
    reconstruction would need instead.  ``min_poly`` holds the monic
    ascending coefficients expanded from the roots, for display.
    """

    dim: int
    distinct_eigenvalues: tuple[EigenvalueCluster, ...]
    eta: int
    mu: int
    min_poly: np.ndarray
    static_observable_count: int
    measurement_budget: int


class VerificationResult(NamedTuple):
    ok: bool
    achieved_rank: int


def spectral_report(gen: Superoperator, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> SpectralReport:
    """Cluster the spectrum once and derive the resource bounds from it.

    Everything comes from one :func:`eigen_structure` call: ``eta`` is the
    largest geometric multiplicity, ``mu`` the sum of the eigenvalue
    indices (the minimal-polynomial degree), and ``min_poly`` is expanded
    from those roots for display.  Only multiple eigenvalues cost an SVD,
    and defective generators are handled like any other.
    """
    distinct = eigen_structure(gen.matrix, tol)
    eta = max(c.geometric_multiplicity for c in distinct)
    mu = sum(c.index for c in distinct)
    return SpectralReport(
        dim=gen.dim,
        distinct_eigenvalues=distinct,
        eta=eta,
        mu=mu,
        min_poly=_minimal_polynomial_of(distinct),
        static_observable_count=gen.dim * gen.dim - 1,
        measurement_budget=eta * mu,
    )


def _checked_observable(gen: Superoperator, observable) -> np.ndarray:
    q = assert_hermitian(observable, name="observable")
    if q.shape != (gen.dim, gen.dim):
        raise ValidationError(f"observable has shape {q.shape}, expected ({gen.dim}, {gen.dim})")
    return q


def _dual_step(adjoint: np.ndarray, current: np.ndarray, dim: int, step: int) -> np.ndarray:
    """``adjoint @ current``, checked to be a hermitian matrix when unvectorized."""
    out = adjoint @ current
    element = unvec(out, dim)
    if not is_hermitian(element, atol=1e-10):
        dev = float(np.abs(element - element.conj().T).max())
        raise NumericalFailure(
            f"Krylov element {step} is not hermitian (deviation {dev:.3e}); "
            "the dual generator does not preserve hermiticity"
        )
    return out


def krylov_subspace(gen: Superoperator, observable, depth: int) -> list[np.ndarray]:
    """[Q, L*Q, ..., (L*)^(depth-1) Q] under the dual generator L*.

    The dual generator is the Hilbert-Schmidt adjoint of ``gen``, i.e. the
    conjugate transpose of its matrix acting on vectorized operators.  For
    trace-preserving dissipative dynamics it maps hermitian matrices to
    hermitian matrices, which is re-checked on every element.
    """
    q = _checked_observable(gen, observable)
    if depth < 1:
        raise ValidationError(f"Krylov depth must be >= 1, got {depth}")

    adjoint = gen.matrix.conj().T
    elements = [q]
    current = vec(q)
    for step in range(1, depth):
        current = _dual_step(adjoint, current, gen.dim, step)
        elements.append(unvec(current, gen.dim))
    return elements


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Residual of ``w`` against the orthonormal rows of ``basis``, Gram-Schmidt applied twice."""
    for _ in range(2):
        w = w - basis.T @ (basis.conj() @ w)
    return w


def verify_observables(gen: Superoperator, observables: Sequence[np.ndarray],
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> VerificationResult:
    """Test whether the observables' Krylov subspaces span all hermitian matrices.

    Builds an orthonormal basis of the sum of the Krylov spaces under the
    dual generator (Arnoldi): each observable starts a chain, and every
    new element is ``L*`` applied to the latest basis vector,
    orthogonalized twice against the basis (classical Gram-Schmidt).  A
    chain ends at breakdown.  An observable's own direction counts when
    its residual exceeds ``rank_rtol`` times its norm, a later element
    when its residual exceeds ``rank_rtol * |L|_2``, so roundoff never
    adds a direction.  No Krylov depth is needed.  The set reconstructs
    arbitrary states iff the basis reaches dim^2 vectors; ``achieved_rank``
    is its size.
    """
    if len(observables) == 0:
        raise ValidationError("observable set must contain at least one observable")
    n2 = gen.dim * gen.dim
    adjoint = gen.matrix.conj().T
    floor = tol.rank_rtol * float(np.linalg.norm(gen.matrix, 2))
    basis = np.zeros((n2, n2), dtype=complex)
    size = 0
    for observable in observables:
        candidate = vec(_checked_observable(gen, observable))
        threshold = tol.rank_rtol * float(np.linalg.norm(candidate))
        step = 0
        while size < n2:
            resid = _orthogonalize(candidate, basis[:size])
            norm = float(np.linalg.norm(resid))
            if not norm > threshold:
                break
            basis[size] = resid / norm
            size += 1
            step += 1
            candidate = _dual_step(adjoint, basis[size - 1], gen.dim, step)
            threshold = floor
    return VerificationResult(ok=size == n2, achieved_rank=size)


def find_observables(gen: Superoperator, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                     seed: int = 0, max_attempts: int = 100) -> list[np.ndarray]:
    """Search for a passing observable set of minimal size by seeded sampling.

    Computes one :func:`spectral_report` for ``eta``, then draws ``eta``
    random hermitian matrices per attempt (complex Gaussian entries,
    symmetrized) and returns the first set that passes
    :func:`verify_observables`.  Deterministic for a fixed seed.  Raises
    :class:`SearchExhausted` with the best achieved rank when every
    attempt fails.
    """
    report = spectral_report(gen, tol)
    rng = np.random.default_rng(seed)
    best_rank = 0
    for _ in range(max_attempts):
        candidate = [random_hermitian(gen.dim, rng) for _ in range(report.eta)]
        ok, achieved = verify_observables(gen, candidate, tol)
        if ok:
            return candidate
        best_rank = max(best_rank, achieved)
    raise SearchExhausted(
        f"no passing observable set in {max_attempts} attempts "
        f"(best spanning rank {best_rank} of {gen.dim * gen.dim} needed, "
        f"eta={report.eta}, seed={seed})",
        attempts=max_attempts,
        best_rank=best_rank,
    )
