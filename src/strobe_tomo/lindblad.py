"""Markovian master-equation models and their vectorized generators.

A model is a constant Hamiltonian plus dissipation channels ``(rate, L)``
acting as ``L rho L^dag - (1/2){L^dag L, rho}``.  With the effective
Hamiltonian term ``G = -iH - (1/2) sum rate L^dag L`` the generator is
``G rho + rho G^dag + sum rate L rho L^dag``.  The vectorization
convention is row-stacking throughout: with ``vec`` the row-stacking of a
matrix, ``vec(rho) = rho.reshape(-1)``, that is
``kron(G, I) + kron(I, conj(G)) + sum rate kron(L, conj(L))``.  The
resulting dim^2 x dim^2 matrix generates the state evolution
``rho(t) = unvec(expm(t * gen) vec(rho0))``.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NumericalFailure, ValidationError
from .operator_algebra import (
    EigenvalueCluster,
    ToleranceConfig,
    _clusters,
    _coordinates,
    _form_of_rows,
    _frobenius,
    _from_coordinates,
    _hermitian_form,
    _hermitian_indices,
    _hermiticity,
    _instance,
    _square,
    _type_name,
    as_complex_matrix,
    assert_hermitian,
    eigen_structure,
    expm,
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
#: largest model dimension: a 64-level build with an active jump forms the rows jk (j <= k)
#: of its 4096 x 4096 complex generator matrix (130 MiB), a closed one nothing that size; the
#: whole matrix (256 MiB) is formed only when read; every analysis step is O(dim^6)
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
        raise ValidationError(f"{name} must be a real number, got {_type_name(value)}")
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
    A jump is active when its rate and its operator are nonzero; a silent
    one, of rate 0 or with an all-zero operator, stays in ``jumps`` and in
    the model's JSON but adds nothing to the generator.
    A model is immutable: it is frozen and its operators are stored as
    read-only copies, so it builds its generator once, on first use, and
    keeps it for :func:`build_generator` and every later stage; a build
    that fails is not kept and raises again.  Models compare and hash by
    identity; compare contents with ``np.array_equal``.
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

        try:
            jumps = tuple(self.jumps)
        except TypeError:
            raise ValidationError("jumps must be a sequence of (rate, operator) pairs, "
                                  f"got {_type_name(self.jumps)}") from None
        checked = []
        for idx, item in enumerate(jumps):
            try:
                rate, op = item
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"jumps[{idx}] must be a (rate, operator) pair") from exc
            checked.append((_nonnegative_real(rate, f"jumps[{idx}].rate"),
                            _operator(op, f"jumps[{idx}].matrix", self.dim)))
        object.__setattr__(self, "jumps", tuple(checked))

    @cached_property
    def _generator(self) -> Superoperator:
        """The vectorized generator, built on first read and kept; see :func:`build_generator`."""
        return _vectorized(self)


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A dim^2 x dim^2 generator matrix acting on row-stacked operators.

    Row-stacking (``vec`` flattens row by row) is the package's only
    vectorization convention.  Construction checks ``dim``, the shape and
    that the matrix maps hermitian matrices to hermitian matrices, as every
    Lindblad generator does; a matrix that does not, or that has a NaN or
    infinite entry, raises :class:`ValidationError`, and one whose
    hermitian form overflows the float range :class:`NumericalFailure`.
    Any real matrix in hermitian coordinates passes, so synthetic spectra
    can be injected; matrices produced by :func:`build_generator` also
    annihilate the trace functional (``vec(I)^dag @ matrix ~ 0``), by
    construction, and it is not checked.  The matrix is
    stored read-only: a caller's array is copied, unless it is already a
    read-only complex array that owns its memory.  Formed once here for
    every stage, the read-only ``hermitian_form`` is the generator in
    hermitian coordinates, the real ``R = T^dag matrix T`` that every stage
    runs on.  A generator analyses its spectrum once per
    :class:`ToleranceConfig`: it keeps ``eigen_structure(hermitian_form, tol)``
    for each tolerance asked about, and :func:`spectral_report` and
    :func:`find_observables` read the kept clusters.

    A generator that :func:`build_generator` makes is a ``Superoperator``
    formed from the model's parts rather than from a matrix: it forms
    ``hermitian_form`` from the rows ``jk`` (``j <= k``) of the matrix,
    assembled off ``G`` and the jumps, and ``matrix`` only when a caller
    reads it, both bit for bit as here, and it skips the hermiticity test
    (each mirrored pair of entries is made of the same finite products).
    The jumps are the model's active ones, so ``matrix`` is the ``kron``
    sum over them.  ``repr()`` and error messages show it as a
    ``Superoperator``, and ``repr()`` forms nothing.  Of a closed model,
    one with no active jump, it keeps the eigenvalues ``E`` of the
    model's Hamiltonian and reads its clusters off the Bohr frequencies
    ``-i (E_j - E_k)``: one n x n ``eigvalsh`` when it is built plus a
    grouping of n^2 values, with the radius taken from
    ``|R|_F = |E_j - E_k|_F``, and no rank decision, so those clusters do
    not depend on ``rank_rtol``.  Its ``hermitian_form`` too is formed
    when a stage first reads it, so its spectral analysis holds O(n^2)
    numbers, not O(n^4).

    Every stage of the library loop also reads three things the generator
    keeps once computed: the step exponential ``expm(t * hermitian_form)``
    of the last ``t`` asked for, shared by :func:`simulate_measurements`,
    :func:`reconstruct` and :func:`evolve` (one more dim^2 x dim^2 real
    matrix: 166 KB at dim 12, 128 MiB at :data:`MAX_DIM`); ``|R|_2``, one
    float, for :func:`verify_observables`; and the coordinate rows of the
    last observable set checked, with a copy of its values as the key, so
    one set is checked once however many stages read it.  Compared and
    hashed by identity; compare contents with ``np.array_equal``.
    """

    dim: int
    matrix: np.ndarray
    hermitian_form: np.ndarray = field(init=False, repr=False)
    _structures: dict = field(init=False, repr=False, default_factory=dict)
    # (t, expm(t * hermitian_form)) of the last step asked for, see _step
    _kept_step: tuple | None = field(init=False, repr=False, default=None)
    # (values as bytes, coordinate rows) of the last observable set checked, set by
    # analysis._observable_coordinates
    _kept_observables: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix, "superoperator matrix")
        n2 = _integer(self.dim, "dim", positive=True) ** 2
        if mat.shape != (n2, n2):
            raise ValidationError(
                f"superoperator matrix has shape {mat.shape}, expected ({n2}, {n2})"
            )
        if mat.flags.writeable or not mat.flags.owndata:
            mat = mat.copy()
            mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "hermitian_form", _hermitian_form(mat, self.dim))
        self.hermitian_form.setflags(write=False)

    def _eigen_structure(self, tol: ToleranceConfig) -> tuple[EigenvalueCluster, ...]:
        """:meth:`_analysed`, computed on the first request per ``tol`` and kept."""
        # threads that race here only repeat the same deterministic computation
        if tol not in self._structures:
            self._structures[tol] = self._analysed(tol)
        return self._structures[tol]

    def _analysed(self, tol: ToleranceConfig) -> tuple[EigenvalueCluster, ...]:
        """``eigen_structure(self.hermitian_form, tol)``; a closed model's generator reads its energies instead."""
        return eigen_structure(self.hermitian_form, tol)

    def _step(self, t: float) -> np.ndarray:
        """``expm(t * hermitian_form)``, read-only; only the last ``t`` asked for is kept.

        One entry suffices: every stage of the library loop steps by the
        same ``t_1`` on an equispaced grid, and any other grid asks for
        each gap in turn.
        """
        # one tuple, replaced whole, so a racing thread sees an old entry or a new one
        kept = self._kept_step
        if kept is None or kept[0] != t:
            step = expm(t * self.hermitian_form)
            step.setflags(write=False)
            kept = (t, step)
            object.__setattr__(self, "_kept_step", kept)
        return kept[1]

    @cached_property
    def _norm_2(self) -> float:
        """``|R|_2 = |R^T|_2``, the largest singular value of the hermitian form, computed on first read."""
        return float(np.linalg.norm(self.hermitian_form.T, 2))


@dataclass(frozen=True, eq=False, repr=False)
class _BuiltGenerator(Superoperator):
    """The generator of a model, as :func:`build_generator` makes it: its matrix is formed only when read.

    It holds the parts ``matrix`` is assembled from, ``G`` and the model's
    active jumps (see :func:`_assembled`), and of a closed model
    ``eigvalsh(H)``, which its spectral analysis reads instead of
    ``hermitian_form`` (see :meth:`_analysed`).  ``matrix``, and a closed model's
    ``hermitian_form``, are formed when a stage first reads them, bit for
    bit as a ``Superoperator`` made of the same matrix forms them, and
    kept read-only.  The reshuffle test of :func:`_hermitian_form` is
    skipped, and the hermitian form is formed from the rows ``jk`` with
    ``j <= k`` alone: the entries ``m[kj, ml]`` and ``conj(m[jk, lm])`` are
    sums of the same finite products, conjugated, so they differ by the
    roundoff of those products, far below the test's ``1e-12 * (1 + max
    |m|)`` unless the entries cancel far below the products, as on one
    level, where a jump at rate 1e6 leaves a generator of 0 that the test
    would reject.  It reads as a ``Superoperator`` in ``repr()`` and in
    error messages, and ``repr()`` forms nothing.
    """

    matrix: np.ndarray = field(init=False)
    # (G, active jumps) that _assembled forms the entries of matrix from
    _parts: tuple = field(repr=False)
    # eigvalsh(H) of a closed model; None when a jump is active
    _energies: np.ndarray | None = field(repr=False)

    def __post_init__(self):
        """Nothing to check: :func:`_vectorized` built it from the model's active jumps and checked its overflow guard."""

    def __repr__(self) -> str:
        matrix = vars(self).get("matrix")
        shown = "<formed on first read>" if matrix is None else repr(matrix)
        return f"Superoperator(dim={self.dim!r}, matrix={shown})"

    def _analysed(self, tol: ToleranceConfig) -> tuple[EigenvalueCluster, ...]:
        """A closed model's clusters from the Bohr frequencies ``-i (E_j - E_k)``, ``hermitian_form`` not read; else the general route.

        ``-i[H, .]`` is anti-hermitian, hence diagonalizable: the Bohr
        frequencies are grouped as computed eigenvalues are, and each group
        is one cluster with geometric multiplicity its size and index 1.
        The grouping radius scales with ``|R|_F``, taken from the Bohr
        frequencies themselves (the Frobenius norm is unitarily invariant);
        it can differ from the norm of the formed ``R`` in the last bits,
        which could only move a gap within roundoff of the radius.
        """
        if self._energies is None:
            return super()._analysed(tol)
        bohr = -1j * (self._energies[:, None] - self._energies).reshape(-1)
        return _clusters(bohr, _frobenius(bohr), True, lambda value, size: (size, 1))

    def __getattr__(self, name: str):
        # reached only while matrix or hermitian_form is not formed yet
        if name == "matrix":
            value = _assembled(*self._parts, np.arange(self.dim ** 2))
        elif name == "hermitian_form":
            value = _form_of_rows(_assembled(*self._parts, _hermitian_indices(self.dim)[0]), self.dim)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value.setflags(write=False)
        # threads that race here only form the same array twice
        object.__setattr__(self, name, value)
        return value


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

    The generator is built from the model's active jumps (see
    :class:`LindbladModel`), so the matrix is the ``kron`` sum over them.
    It annihilates the trace functional by construction, so that is not
    checked.  A generator with an entry past the float range raises
    :class:`NumericalFailure`, as does one whose hermitian form overflows,
    when the form is formed.
    No n^2 x n^2 complex matrix is formed: a model with an active jump
    assembles the rows ``jk`` (``j <= k``) of its matrix, about half of
    it, from ``G = -iH - (1/2) sum rate L^dag L`` and the active jumps,
    reads the overflow check off them and forms the hermitian form from
    them; the matrix is formed, bit for bit as the ``kron`` sum forms it,
    only when a caller reads ``matrix``.
    A model is closed when it has no active jump; its generator is then
    ``-i[H, .]``, and it keeps ``eigvalsh(H)`` for its spectral analysis:
    one n x n ``eigvalsh`` here and a grouping of the n^2 Bohr frequencies
    later, instead of an n^2 x n^2 eigensolver and an SVD per multiple
    eigenvalue.  That analysis decides no rank, so its answer does not
    depend on ``rank_rtol``.  Such a generator forms its hermitian form
    too only when a stage first reads it, and the overflow check here
    reads the entries of its matrix off ``H``, so building and analysing
    it takes O(n^2) memory.
    The model builds its generator on the first call and returns the same
    object on every later one (:func:`simulate_measurements` and
    :func:`reconstruct` read that one too); a build that raises is not
    kept, so it raises on every call.  Sharing one generator shares what
    it keeps (see :class:`Superoperator`): on one model and equispaced
    grid, simulation and reconstruction form one step exponential between
    them, and an observable set that :func:`find_observables` verified is
    not checked again.  A model rebuilt from its JSON document is a new
    model, with its own generator.
    """
    return _instance(model, LindbladModel, "model")._generator


def _assembled(effective: np.ndarray, jumps, rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of ``kron(G, I) + kron(I, conj(G)) + sum rate kron(L, conj(L))``: the generator matrix of ``G`` and the jumps.

    Entry ``(jk, lm)`` is ``G_jl I_km + I_jl conj(G_km) + sum rate L_jl
    conj(L_km)``, each product and sum computed as the ``np.kron`` sum
    computes it, so every entry has its bits; ``np.arange(dim**2)`` gives
    the whole matrix.  Called under ``np.errstate(all="ignore")``, or on
    parts whose guards showed every entry finite.
    """
    n = effective.shape[0]
    j, k = np.divmod(rows, n)
    eye = np.eye(n, dtype=complex)
    out = np.empty((rows.size, n, n), dtype=complex)
    term = np.empty_like(out)
    np.multiply(effective[j, :, None], eye[k, None, :], out=out)
    np.multiply(eye[j, :, None], effective.conj()[k, None, :], out=term)
    out += term
    for rate, op in jumps:
        np.multiply(op[j, :, None], op.conj()[k, None, :], out=term)
        term *= rate
        out += term
    return out.reshape(rows.size, n * n)


def _vectorized(model: LindbladModel) -> Superoperator:
    """The generator of :func:`build_generator`, built anew from the model's active jumps.

    The overflow guard reads ``M`` without forming it.  With an active
    jump it reads the rows ``jk`` (``j <= k``) that ``R`` is formed from:
    each row ``kj`` is the conjugate mirror of row ``jk``, so their largest
    entry is that of ``M``.  A closed model's guard reads the entries of
    ``M`` off ``G = -iH``: ``G_jl`` (``j != l``), ``conj(G_km)`` (``k !=
    m``) and ``G_jj + conj(G_kk)``, so nothing of size n^2 x n^2 is formed.
    """
    n = model.dim
    active = tuple((rate, op) for rate, op in model.jumps if rate > 0 and op.any())
    with np.errstate(all="ignore"):
        # G rho + rho G^dag + sum rate L rho L^dag, with G = -iH - (1/2) sum rate L^dag L
        effective = -1j * model.hamiltonian
        for rate, op in active:
            effective = effective - 0.5 * rate * (op.conj().T @ op)
        if active:
            upper_rows = _assembled(effective, active, _hermitian_indices(n)[0])
            top = np.abs(upper_rows).max()
        else:
            diagonal = effective.diagonal()
            top = max(np.abs(effective[~np.eye(n, dtype=bool)]).max(initial=0.0),
                      np.abs(diagonal[:, None] + diagonal.conj()).max())
    if not top < np.inf:
        raise NumericalFailure("the generator overflows the float range")
    effective.setflags(write=False)
    gen = _BuiltGenerator(dim=n, _parts=(effective, active),
                          _energies=None if active else np.linalg.eigvalsh(model.hamiltonian))
    if active:
        form = _form_of_rows(upper_rows, n)
        form.setflags(write=False)
        object.__setattr__(gen, "hermitian_form", form)
    return gen


def _propagated(gen: Superoperator, instants: np.ndarray, operand: np.ndarray, *,
                dual: bool = False) -> np.ndarray:
    """``expm(t R) @ operand`` at each instant, ``R`` the generator's hermitian form, stacked along a new second axis.

    The package's one forward map; no propagator is formed per instant.
    With ``dual`` the map is ``expm(t R^T)``, the transpose of the same
    exponential, which steps the coordinates of observables.  ``out[:, j]``
    is the operand propagated to ``instants[j]``, so the instants lie side
    by side in the columns of one array.  Every exponential is the
    generator's kept step (:meth:`Superoperator._step`).  On an
    equispaced grid (``t_j = j * t_1`` to a relative
    :data:`EQUISPACED_RTOL`) the one step ``S = expm(t_1 R)`` gives the
    first instant, and the grid fills by doubling: with ``d`` instants
    done, the next ``d`` are ``S**d`` times the first ``d``, in one matrix
    product, then ``S**d`` is squared; about ``log2(m)`` products for
    ``m`` instants.  Any other grid carries the operand from one instant
    to the next, one step per gap.  Either way the results match separate
    exponentials to roundoff, not bit for bit.
    """
    # expm(t R)^T = expm(t R^T)
    step = (lambda t: gen._step(t).T) if dual else gen._step
    size = instants.size
    cols = operand.reshape(operand.shape[0], -1)
    width = cols.shape[1]
    out = np.empty((cols.shape[0], size * width), dtype=np.result_type(gen.hermitian_form, cols))
    steps = np.arange(1, size + 1)
    if size and np.all(np.abs(instants - steps * instants[:1]) <= EQUISPACED_RTOL * instants):
        power = step(instants[0])
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
            current = step(t - previous) @ current
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

    The floor's rule is the lowest eigenvalue of ``(A + A^dag)/2`` from
    ``eigvalsh``.  When every matrix passes hermiticity and trace, one
    batched Cholesky factorization of ``(A + A^dag)/2 - floor * I`` comes
    first: if it succeeds, every eigenvalue is above the floor (to roundoff,
    about ``n eps |A|``) and no eigenvalue is computed; if it fails, the
    eigenvalues decide and name the failing matrix as before.
    """
    error, eig_floor = (NumericalFailure, EVOLVE_EIG_FLOOR) if evolved else (ValidationError, STATE_EIG_FLOOR)
    stack, names = (arr[None], lambda _: name) if arr.ndim == 2 else (arr, name)
    dev, hermitian = _hermiticity(stack)
    tr = np.trace(stack, axis1=1, axis2=2)
    unit_trace = np.abs(tr - 1.0) <= EVOLVE_TRACE_ATOL
    tested = hermitian & unit_trace
    if tested.all():
        shifted = (stack + stack.conj().swapaxes(1, 2)) / 2.0 - eig_floor * np.eye(stack.shape[1])
        try:
            np.linalg.cholesky(shifted)
            return arr
        except np.linalg.LinAlgError:
            pass
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


def _check_evolved(states: np.ndarray, n: int, name: str | Callable[[int], str]) -> np.ndarray:
    """The matrices with the real coordinates ``states`` (last axis), checked as evolved states.

    :func:`_check_density_matrix` with ``evolved=True`` on
    ``_from_coordinates(states, n)``, with the same verdict, and the same
    error, for every input.  A matrix formed from real coordinates is
    exactly hermitian wherever it is finite (each entry ``kj`` is the
    conjugate of ``jk`` and the diagonal is real), so finiteness stands in
    for the hermiticity test; the trace test and the Cholesky certificate
    follow.  The certificate factors ``A - floor * I``: when it succeeds,
    ``A`` has unit trace and is positive, so its entries are far below the
    float limit and ``(A + A^dag) / 2`` is ``A`` bit for bit.  A stack that
    fails any test is checked again by :func:`_check_density_matrix`,
    which names the first failing matrix and its first failing test.
    """
    formed = _from_coordinates(states, n)
    stack = formed if formed.ndim == 3 else formed[None]
    if (np.isfinite(stack).all()
            and (np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0) <= EVOLVE_TRACE_ATOL).all()):
        try:
            np.linalg.cholesky(stack - EVOLVE_EIG_FLOOR * np.eye(n))
            return formed
        except np.linalg.LinAlgError:
            pass
    return _check_density_matrix(formed, name, evolved=True)


def validate_density_matrix(rho, *, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Check hermiticity, unit trace and positivity; return the coerced array."""
    arr = _square(rho, name, dtype=complex)
    if dim is not None and arr.shape != (dim, dim):
        raise ValidationError(f"{name} has shape {arr.shape}, expected ({dim}, {dim})")
    return _check_density_matrix(arr, name)


def evolve(gen: Superoperator, rho0, t: float) -> np.ndarray:
    """Evolve a density matrix for time ``t`` under the generator.

    ``t`` must be a finite real number >= 0, not a bool.  Returns the
    state with real coordinates ``expm(t * R) x0``, ``R`` the real
    generator, after checking that it is still a density matrix: unit
    trace to 1e-10 and eigenvalues above -1e-8.  A violation is reported as
    a numerical failure naming the instant rather than silently repaired.
    The state is formed from its coordinates, so it is hermitian wherever
    it is finite, and is checked by :func:`_check_evolved`.
    The exponential is the generator's kept step, so evolving by the same
    ``t`` again forms no new one.
    """
    rho0 = validate_density_matrix(rho0, dim=_instance(gen, Superoperator, "gen").dim, name="rho0")
    t = _nonnegative_real(t, "propagation time")
    x = _propagated(gen, np.array([t], dtype=float), _coordinates(rho0))[:, 0]
    return _check_evolved(x, gen.dim, f"evolved state at t={t:.6g}")


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
        raise ValidationError(f"{field_name}: expected a number, got {_type_name(obj)}")
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


#: the real and imaginary part of an ``{"re", "im"}`` entry
_PARTS = operator.itemgetter("re", "im")


def _matrix_in_bulk(obj) -> np.ndarray | None:
    """A rectangular JSON matrix as a complex array in one fill, or None.

    Its entries must be all ``{"re", "im"}`` objects (other keys are
    ignored) or all plain numbers, each an ``int`` or ``float``, never a
    bool, with a finite float value.  None leaves the matrix to the
    per-entry walk of :func:`matrix_from_json`, which names the offending
    field.
    """
    if type(obj) is not list or not obj or any(type(row) is not list for row in obj):
        return None
    shape = (len(obj), len(obj[0]))
    if not shape[1] or any(len(row) != shape[1] for row in obj):
        return None
    numbers = list(itertools.chain.from_iterable(obj))
    kinds = set(map(type, numbers))
    pairs = kinds == {dict}
    if pairs:
        try:
            numbers = list(itertools.chain.from_iterable(map(_PARTS, numbers)))
        except KeyError:
            return None
        kinds = set(map(type, numbers))
    if not kinds <= {int, float}:
        return None
    try:
        flat = np.array(numbers, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(complex).reshape(shape) if pairs else flat.reshape(shape).astype(complex)


def matrix_from_json(obj, field_name: str = "matrix") -> np.ndarray:
    """The complex matrix a JSON list of rows encodes; an error names the offending field.

    A rectangular matrix of all ``{"re", "im"}`` objects or all plain
    numbers is decoded in one array fill (:func:`_matrix_in_bulk`); any
    other, and every invalid one, is walked entry by entry, which gives
    the same bits and names the first bad row or entry, e.g.
    ``hamiltonian[1][0].re``.
    """
    bulk = _matrix_in_bulk(obj)
    if bulk is not None:
        return bulk
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
        raise ValidationError(f"model: expected a JSON object, got {_type_name(obj)}")
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
