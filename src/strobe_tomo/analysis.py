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
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SearchExhausted, ValidationError
from .lindblad import Superoperator, _integer, _operator
from .operator_algebra import (
    DEFAULT_TOLERANCES,
    EigenvalueCluster,
    ToleranceConfig,
    _coordinates,
    _hermiticity,
    _instance,
    _minimal_polynomial_of,
    _tolerances,
    assert_hermitian,
    random_hermitian,
)

__all__ = [
    "SpectralReport",
    "VerificationResult",
    "spectral_report",
    "verify_observables",
    "find_observables",
]


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Distinct eigenvalues with multiplicities plus the derived resource counts.

    ``eta`` is the maximum geometric multiplicity (minimal number of
    distinct observables), ``mu`` the minimal-polynomial degree, i.e. the
    sum of the eigenvalue indices (upper bound on instants per
    observable), ``measurement_budget`` their product, and
    ``static_observable_count`` the dim^2 - 1 observables a dynamics-blind
    reconstruction would need instead.  The clusters come from the
    generator in hermitian coordinates, a real matrix (see
    :func:`spectral_report`).
    ``min_poly`` holds the monic ascending coefficients expanded from the
    roots, for display; it is computed on first access.  Reports compare
    and hash by identity; compare contents with ``np.array_equal``.
    """

    dim: int
    distinct_eigenvalues: tuple[EigenvalueCluster, ...]
    eta: int
    mu: int
    static_observable_count: int
    measurement_budget: int

    @cached_property
    def min_poly(self) -> np.ndarray:
        return _minimal_polynomial_of(self.distinct_eigenvalues)


class VerificationResult(NamedTuple):
    ok: bool
    achieved_rank: int


def spectral_report(gen: Superoperator, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> SpectralReport:
    """Cluster the spectrum once per tolerance and derive the resource bounds from it.

    Everything comes from one :func:`eigen_structure` call on the form the
    generator stores, the real ``gen.hermitian_form =
    T^dag L T`` with ``T`` the columns ``vec(B_k)`` of the hermitian basis
    (the normalized identity, then the generalized Gell-Mann matrices): a
    unitary change of basis, so the spectrum and the Jordan structure are
    those of ``L``, and the eigenvalues and SVDs run in real arithmetic.  ``eta``
    is the largest geometric multiplicity, ``mu`` the sum of the
    eigenvalue indices (the minimal-polynomial degree).  Only multiple
    eigenvalues cost an SVD, and defective generators are handled like any
    other.  The generator of a closed model (every jump at rate 0 or with
    an all-zero operator; see :func:`build_generator`) is ``-i[H, .]``,
    diagonalizable with the Bohr frequencies ``-i (E_j - E_k)`` as its
    eigenvalues: its clusters are those n^2 values grouped by the same
    rule, with the radius from their own Frobenius norm (which can differ
    from ``|R|_F`` in the last bits), at the cost of one n x n
    ``eigvalsh`` plus one sort, O(n^2 log n) time and O(n^2) memory with
    no n^2 x n^2 array formed, and since no rank is decided its answer
    does not depend on ``tol.rank_rtol``.  The generator keeps the
    clusters per ``tol``, so a later call, or :func:`find_observables`,
    reuses them; each call returns a new report built from them.
    """
    distinct = _instance(gen, Superoperator, "gen")._eigen_structure(_tolerances(tol))
    eta = _eta(distinct)
    mu = sum(c.index for c in distinct)
    return SpectralReport(
        dim=gen.dim,
        distinct_eigenvalues=distinct,
        eta=eta,
        mu=mu,
        static_observable_count=gen.dim * gen.dim - 1,
        measurement_budget=eta * mu,
    )


def _eta(distinct: Sequence[EigenvalueCluster]) -> int:
    """The largest geometric multiplicity over the clusters."""
    return max(c.geometric_multiplicity for c in distinct)


def _observable_coordinates(observables, gen: Superoperator) -> np.ndarray:
    """Read-only coordinate rows of a non-empty list of hermitian ``gen.dim x gen.dim`` matrices; errors name ``observables[i]``.

    The list is checked in one batched pass: coerced as a whole by one
    ``np.asarray``, its shape tested, then the stack tested with one
    :func:`_hermiticity` call.  A set whose values equal those of the
    last set this generator mapped is not tested again: the kept rows are
    returned.  The key is the content, so a list or array edited
    in place since is tested afresh.  A list that fails is checked again
    one observable at a time, so the error names the first failing
    observable and that observable's first failing test: coercion,
    hermiticity (which also rejects NaN and infinite entries),
    finiteness, shape.  Anything that is not iterable raises
    :class:`ValidationError` too.
    """
    try:
        observables = list(observables)
    except TypeError:
        raise ValidationError("observables must be a sequence of matrices, "
                              f"got {type(observables).__name__}") from None
    dim = gen.dim
    try:
        stack = np.asarray(observables, dtype=complex)
    except (TypeError, ValueError):  # a matrix that does not coerce, or mixed shapes
        stack = None
    if stack is not None and stack.ndim == 3 and stack.shape[1:] == (dim, dim):
        # with the shape of each matrix fixed, the values' bytes also fix their number
        values = stack.tobytes()
        kept = gen._kept_observables
        if kept is not None and kept[0] == values:
            return kept[1]
        if _hermiticity(stack)[1].all():
            rows = _coordinates(stack)
            rows.setflags(write=False)
            # one tuple, replaced whole, so a racing thread sees an old entry or a new one
            object.__setattr__(gen, "_kept_observables", (values, rows))
            return rows
    for i, q in enumerate(observables):
        _operator(assert_hermitian(q, name=f"observables[{i}]"), f"observables[{i}]", dim)
    raise ValidationError("observable set must contain at least one observable")


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Residual of ``w`` against the orthonormal rows of ``basis``, Gram-Schmidt applied twice."""
    for _ in range(2):
        w = w - basis.T @ (basis @ w)
    return w


def verify_observables(gen: Superoperator, observables: Sequence[np.ndarray],
                       tol: ToleranceConfig = DEFAULT_TOLERANCES) -> VerificationResult:
    """Test whether the observables' Krylov subspaces span all hermitian matrices.

    In real arithmetic: the dual generator is ``R^T``, ``R`` the real
    generator, and an observable is its coordinate vector.  Builds an
    orthonormal basis of the sum of the Krylov spaces under ``R^T``
    (Arnoldi): each observable starts a chain, and every new element is
    ``R^T`` applied to the latest basis vector, orthogonalized twice
    (classical Gram-Schmidt).  A chain ends at breakdown, and the loop once
    the basis is complete.  An observable's own direction counts when its
    residual exceeds ``rank_rtol`` times its norm, a later element when it
    exceeds ``rank_rtol * |R|_2``, so roundoff never adds a direction.  The
    set spans iff the basis reaches dim^2 vectors; ``achieved_rank`` is its size.
    The generator keeps ``|R|_2`` after the first call and the coordinates
    of the last set it checked (see :class:`Superoperator`), so a search
    computes the norm once, and simulating and reconstructing with the
    set it returns check that set no more.
    """
    _tolerances(tol)
    coordinates = _observable_coordinates(observables, _instance(gen, Superoperator, "gen"))
    adjoint = gen.hermitian_form.T
    n2 = gen.dim * gen.dim
    floor = tol.rank_rtol * gen._norm_2
    basis = np.zeros((n2, n2))
    size = 0
    for candidate in coordinates:
        threshold = tol.rank_rtol * float(np.linalg.norm(candidate))
        while size < n2:
            resid = _orthogonalize(candidate, basis[:size])
            norm = float(np.linalg.norm(resid))
            if not norm > threshold:
                break
            basis[size] = resid / norm
            size += 1
            if size == n2:
                break
            candidate = adjoint @ basis[size - 1]
            threshold = floor
    return VerificationResult(ok=size == n2, achieved_rank=size)


def find_observables(gen: Superoperator, tol: ToleranceConfig = DEFAULT_TOLERANCES,
                     seed: int = 0, max_attempts: int = 100) -> list[np.ndarray]:
    """Search for a passing observable set of minimal size by seeded sampling.

    Reads ``eta`` from the clusters the generator keeps for ``tol`` (the
    ones :func:`spectral_report` reads, computed on first request), then
    draws ``eta`` random hermitian matrices per attempt (complex Gaussian
    entries, symmetrized) and returns the first set that passes
    :func:`verify_observables`.  Deterministic for a fixed seed (an integer
    >= 0).  Raises :class:`SearchExhausted` with the best achieved rank
    when all ``max_attempts`` (an integer >= 1) attempts fail.
    """
    _integer(seed, "seed")
    _integer(max_attempts, "max_attempts", positive=True)
    eta = _eta(_instance(gen, Superoperator, "gen")._eigen_structure(_tolerances(tol)))
    rng = np.random.default_rng(seed)
    best_rank = 0
    for _ in range(max_attempts):
        candidate = [random_hermitian(gen.dim, rng) for _ in range(eta)]
        ok, achieved = verify_observables(gen, candidate, tol)
        if ok:
            return candidate
        best_rank = max(best_rank, achieved)
    raise SearchExhausted(
        f"no passing observable set in {max_attempts} attempts "
        f"(best spanning rank {best_rank} of {gen.dim * gen.dim} needed, "
        f"eta={eta}, seed={seed})",
        attempts=max_attempts,
        best_rank=best_rank,
    )
