"""Shared random generators and independent oracles for the test suite."""

import csv

import numpy as np

from strobe_tomo import LindbladModel, MeasurementRecord, Superoperator, ValidationError, random_hermitian
from strobe_tomo.tomography import CSV_HEADER


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix via a Wishart draw."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_model(n: int, rng: np.random.Generator, max_jumps: int = 3) -> LindbladModel:
    """Random model: hermitian Hamiltonian plus 0..max_jumps Gaussian channels."""
    ham = random_hermitian(n, rng)
    jumps = []
    for _ in range(int(rng.integers(0, max_jumps + 1))):
        op = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        jumps.append((float(rng.uniform(0.0, 1.5)), op))
    return LindbladModel(dim=n, hamiltonian=ham, jumps=tuple(jumps))


def simple_spectrum_models(n: int, count: int, seed: int) -> list[LindbladModel]:
    """The first ``count`` random models whose generator spectrum is all simple.

    Simple means every pair of eigenvalues (numpy's eigensolver on the
    generator assembled from :func:`lindblad_rhs`) lies more than
    ``1e-6 |L|_F`` apart.
    """
    rng = np.random.default_rng(seed)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    models = []
    while len(models) < count:
        model = random_model(n, rng)
        mat = np.stack([lindblad_rhs(model, e).reshape(-1) for e in units], axis=1)
        values = np.linalg.eigvals(mat)
        gaps = np.abs(values[:, None] - values[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() > 1e-6 * np.linalg.norm(mat):
            models.append(model)
    return models


def jordan_matrix(size: int, blocks, seed: int) -> np.ndarray:
    """``V J V^-1`` for a random complex ``V``, where ``J`` holds the given blocks.

    ``blocks`` is a sequence of ``(value, length)`` Jordan blocks; the rest
    of the diagonal gets the simple values ``-0.3 (i+1) + 0.7i (i mod 2)``.
    """
    jordan = np.zeros((size, size), dtype=complex)
    pos = 0
    for value, length in blocks:
        for i in range(pos, pos + length):
            jordan[i, i] = value
            if i > pos:
                jordan[i - 1, i] = 1.0
        pos += length
    for i in range(pos, size):
        jordan[i, i] = -0.3 * (i + 1) + 0.7j * (i % 2)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return v @ jordan @ np.linalg.inv(v)


def gell_mann_basis(n: int) -> list[np.ndarray]:
    """The hermitian basis written out entry by entry: I/sqrt(n), then the symmetric,
    antisymmetric and diagonal generalized Gell-Mann matrices, each normalized."""
    basis = [np.eye(n, dtype=complex) / np.sqrt(n)]
    for j, k in zip(*np.triu_indices(n, 1)):
        sym = np.zeros((n, n), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
        basis.append(sym)
    for j, k in zip(*np.triu_indices(n, 1)):
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


def real_jordan_matrix(size: int, blocks, seed: int) -> np.ndarray:
    """``V J V^-1`` for a random real ``V``, where the real ``J`` holds the given blocks.

    ``blocks`` is a sequence of ``(value, length)`` Jordan blocks with real
    values.  The rest of the diagonal gets simple values: the pairs
    ``-0.3 (i+1) +- 0.7i`` as real 2 x 2 rotation blocks at positions
    ``i, i+1``, and ``-0.3 (i+1)`` alone at the last position if one is left.
    """
    jordan = np.zeros((size, size))
    pos = 0
    for value, length in blocks:
        for i in range(pos, pos + length):
            jordan[i, i] = value
            if i > pos:
                jordan[i - 1, i] = 1.0
        pos += length
    for i in range(pos, size, 2):
        jordan[i, i] = -0.3 * (i + 1)
        if i + 1 < size:
            jordan[i + 1, i + 1] = jordan[i, i]
            jordan[i, i + 1], jordan[i + 1, i] = 0.7, -0.7
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((size, size))
    return v @ jordan @ np.linalg.inv(v)


def gell_mann_columns(n: int) -> np.ndarray:
    """The unitary ``T`` whose columns are the row-stacked matrices of :func:`gell_mann_basis`."""
    return np.stack([b.reshape(-1) for b in gell_mann_basis(n)], axis=1)


def superoperator_from_real(r: np.ndarray) -> Superoperator:
    """The generator whose form in hermitian coordinates is the real ``n^2 x n^2`` matrix ``r``.

    Its matrix is ``T r T^dag`` with ``T`` of :func:`gell_mann_columns`: it
    maps hermitian matrices to hermitian matrices, and it has the spectrum
    and Jordan structure of ``r``.
    """
    n = int(round(np.sqrt(r.shape[0])))
    t = gell_mann_columns(n)
    return Superoperator(dim=n, matrix=t @ r @ t.conj().T)


def cofactor_det(m: np.ndarray) -> complex:
    """Determinant by cofactor expansion; independent of LAPACK."""
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Direct evaluation of the master-equation right-hand side on a matrix."""
    ham = model.hamiltonian
    out = -1j * (ham @ rho - rho @ ham)
    for rate, op in model.jumps:
        opdop = op.conj().T @ op
        out = out + rate * (op @ rho @ op.conj().T - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def kron_generator(model: LindbladModel) -> np.ndarray:
    """The generator matrix written with ``np.kron``, in the package's order of operations.

    ``kron(G, I) + kron(I, conj(G)) + sum rate kron(L, conj(L))`` with
    ``G = -iH - (1/2) sum rate L^dag L``, row-stacking convention.
    """
    n = model.dim
    eye = np.eye(n, dtype=complex)
    effective = -1j * model.hamiltonian
    for rate, op in model.jumps:
        effective = effective - 0.5 * rate * (op.conj().T @ op)
    mat = np.kron(effective, eye) + np.kron(eye, effective.conj())
    for rate, op in model.jumps:
        mat += rate * np.kron(op, op.conj())
    return mat


def laser_cooling_populations(gamma1: float, gamma2: float, t: float) -> np.ndarray:
    """Analytic solution of the rate equations for the start state |2><2|.

    d rho22/dt = -(g1+g2) rho22, d rho11/dt = g1 rho22, d rho33/dt = g2 rho22.
    """
    s = gamma1 + gamma2
    if s == 0:
        return np.diag([0.0, 1.0, 0.0]).astype(complex)
    decayed = np.exp(-s * t)
    return np.diag([
        (gamma1 / s) * (1.0 - decayed),
        decayed,
        (gamma2 / s) * (1.0 - decayed),
    ]).astype(complex)


def span_rank(matrices, rtol: float = 1e-9) -> int:
    """Numerical rank of the span of flattened matrices (SVD oracle)."""
    stack = np.stack([np.asarray(m, dtype=complex).reshape(-1) for m in matrices])
    sigma = np.linalg.svd(stack, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.sum(sigma > rtol * sigma[0]))


def krylov_subspace(gen, observable, depth: int) -> list[np.ndarray]:
    """[Q, L*Q, ..., (L*)^(depth-1) Q], the monomial Krylov chain under the dual generator.

    ``L*`` is the conjugate transpose of ``gen.matrix`` acting on row-stacked
    matrices.  The reference that the Arnoldi loop of ``verify_observables``
    is checked against.
    """
    adjoint = gen.matrix.conj().T
    elements = [np.asarray(observable, dtype=complex)]
    for _ in range(1, depth):
        elements.append((adjoint @ elements[-1].reshape(-1)).reshape(gen.dim, gen.dim))
    return elements


def equal_rate_cascade(n: int, rate: float, rng: np.random.Generator) -> LindbladModel:
    """Decays |k+1> -> |k> for k = 0 .. n-2, all at ``rate``, in a random unitary basis.

    Every jump has the same rate, so the generator has repeated eigenvalues
    and is not normal.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    jumps = []
    for k in range(n - 1):
        lower = np.zeros((n, n), dtype=complex)
        lower[k, k + 1] = 1.0
        jumps.append((rate, q @ lower @ q.conj().T))
    return LindbladModel(dim=n, jumps=tuple(jumps))


def read_record_by_line(path) -> MeasurementRecord:
    """The record file reader written out line by line: ``csv.reader`` rows, ``int()`` and ``float()``.

    The reference that ``read_record_csv`` is checked against: the same
    record, or a :class:`ValidationError` with the same message.  Blank
    rows are skipped; every other row must hold 4 fields, and an error
    names the physical line on which its row ends.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = [(reader.line_num, row) for row in reader]
    except OSError as exc:
        raise ValidationError(f"cannot read record file {path!s}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"record file {path!s} is not UTF-8 CSV text: {exc}") from exc
    if not rows or tuple(h.strip() for h in rows[0][1]) != CSV_HEADER:
        raise ValidationError(f"record file {path!s}: expected header {','.join(CSV_HEADER)}")
    entries = []
    for lineno, row in rows[1:]:
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(f"record file {path!s}, line {lineno}: expected 4 fields")
        try:
            entries.append([float(int(row[0])), float(row[1]), float(row[2]), float(row[3])])
        except (ValueError, OverflowError) as exc:
            raise ValidationError(f"record file {path!s}, line {lineno}: {exc}") from exc
    if not entries:
        raise ValidationError(f"record file {path!s}: no measurement rows")
    return MeasurementRecord(entries=entries)


def group_close_by_all_pairs(values: np.ndarray, radius: float) -> tuple[np.ndarray, list[list[int]]]:
    """Single linkage written out over all pairs: the reference for ``operator_algebra._group_close``.

    Two values are close when ``|a - b| <= radius``; the groups are the
    connected components of two or more values, found by a depth-first walk
    of the full closeness matrix.  Returns the indices of the values close
    to no other, and the groups ordered by their first member, each in
    index order.
    """
    close = np.abs(values[:, None] - values) <= radius
    np.fill_diagonal(close, False)
    component = np.full(values.size, -1)
    groups = []
    for start in range(values.size):
        if component[start] >= 0 or not close[start].any():
            continue
        component[start] = start
        stack, members = [start], [start]
        while stack:
            for j in np.flatnonzero(close[stack.pop()] & (component < 0)).tolist():
                component[j] = start
                stack.append(j)
                members.append(j)
        groups.append(sorted(members))
    return np.flatnonzero(component < 0), groups


def clusters_by_key_sorts(values: np.ndarray, norm_f: float, real: bool, counts,
                          group=group_close_by_all_pairs) -> tuple:
    """The clusters of ``operator_algebra._clusters`` built one object per value and ordered by two key sorts.

    The reference for its array version: the lone values, then one cluster
    per group of ``group(values, radius)`` with its mean (real when
    ``real`` and a member lies within half the radius of the real axis);
    then a stable sort by decreasing real part, levels that start wherever
    the real part drops by more than the radius, and a stable sort by
    level and imaginary part.
    """
    from strobe_tomo.operator_algebra import EIG_CLUSTER_RTOL, EigenvalueCluster

    radius = norm_f * EIG_CLUSTER_RTOL ** (2.0 / 3.0)
    lone, groups = group(values, radius)
    clusters = [EigenvalueCluster(value, 1, 1, 1) for value in values[lone].astype(complex).tolist()]
    for members in groups:
        members_values = values[members]
        value = members_values.mean()
        if real and np.abs(members_values.imag).min() <= radius / 2:
            value = value.real
        geometric, index = counts(value, members_values.size)
        clusters.append(EigenvalueCluster(complex(value), members_values.size, geometric, index))
    clusters.sort(key=lambda c: -c.value.real)
    level = np.cumsum(np.diff([c.value.real for c in clusters], prepend=np.inf) < -radius).tolist()
    order = sorted(range(len(clusters)), key=lambda i: (level[i], clusters[i].value.imag))
    return tuple(clusters[i] for i in order)
