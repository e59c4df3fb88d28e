"""Dense matrix kernel.

All values are plain ``numpy.ndarray`` with ``complex128`` entries, kept in
row-major (C) order so that ``reshape(-1)`` is literal row-stacking; the
spectral routines (:func:`eigenvalues`, :func:`rank`, :func:`eigen_structure`)
and :func:`expm` keep a real ``float64`` input real and run real LAPACK on it.  The
routines here are the shared substrate for generator construction, spectral
analysis and reconstruction; none of them keeps internal state, so every
function is safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericalFailure, ValidationError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "as_complex_matrix",
    "assert_hermitian",
    "rank",
    "eigenvalues",
    "expm",
    "EigenvalueCluster",
    "eigen_structure",
    "minimal_polynomial",
    "random_hermitian",
]


#: absolute floor of the hermiticity predicate, scaled by ``1 + max |A|``
HERMITICITY_ATOL = 1e-12

#: relative spread, as a share of the Frobenius norm, of the computed eigenvalues
#: of a Jordan chain of length 2; eigenvalues within ``|m|_F * EIG_CLUSTER_RTOL**(2/3)``
#: of each other are one distinct value, which also holds chains of length 3
EIG_CLUSTER_RTOL = 1e-8


@dataclass(frozen=True)
class ToleranceConfig:
    """The numerical threshold shared by every rank test.

    Attributes
    ----------
    rank_rtol : float
        Singular values below ``rank_rtol * sigma_max`` do not count
        towards the numerical rank.
    """

    rank_rtol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.rank_rtol < np.inf:
            raise ValidationError(
                f"rank_rtol must be finite and strictly positive, got {self.rank_rtol!r}"
            )


DEFAULT_TOLERANCES = ToleranceConfig()


def _instance(value, kind: type, name: str):
    """``value`` if it is a ``kind``; else :class:`ValidationError` naming ``name`` and both types."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _tolerances(tol) -> ToleranceConfig:
    """``tol`` if it is a :class:`ToleranceConfig`; else :class:`ValidationError`."""
    return _instance(tol, ToleranceConfig, "tol")


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-D complex128 array, rejecting anything else."""
    return _matrix(a, name, complex)


def _matrix(a, name: str = "matrix", dtype=None) -> np.ndarray:
    """``a`` as a 2-D array of ``dtype``; by default float64 for real entries, complex128 otherwise."""
    try:
        arr = np.asarray(a, dtype=dtype)
        if dtype is None and arr.dtype.char not in "dD":
            arr = arr.astype(float if arr.dtype.kind in "biuf" else complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not convertible to a complex matrix: {exc}") from exc
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _square(a, name: str = "matrix", dtype=None) -> np.ndarray:
    arr = _matrix(a, name, dtype)
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    return arr


def _hermiticity(stack: np.ndarray, atol: float = HERMITICITY_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Hermiticity of each square matrix on the last two axes: ``max |A - A^dag|`` and the test.

    The test is ``max |A - A^dag| <= atol * (1 + max |A|)``; a matrix with a
    NaN or infinite entry fails it.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        scale = 1.0 + np.abs(stack).max(axis=(-2, -1), initial=0.0)
        dev = np.abs(stack - stack.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    return dev, (scale < np.inf) & (dev <= atol * scale)


def assert_hermitian(a, name: str = "matrix") -> np.ndarray:
    arr = _square(a, name, dtype=complex)
    dev, hermitian = _hermiticity(arr)
    if not hermitian:
        raise ValidationError(f"{name} is not hermitian (max |A - A^dag| = {dev:.3e})")
    return arr


def rank(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> int:
    """Numerical rank: singular values strictly above rank_rtol * sigma_max.

    A real matrix gets a real SVD.  A matrix with a NaN or infinite entry
    has no numerical rank and raises :class:`NumericalFailure`.
    """
    arr = _matrix(m)
    if not np.isfinite(arr).all():
        raise NumericalFailure(f"cannot rank a {arr.shape[0]}x{arr.shape[1]} matrix with non-finite entries")
    sigma = np.linalg.svd(arr, compute_uv=False)
    return int(np.sum(sigma > tol.rank_rtol * sigma[0])) if sigma.size else 0


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a square matrix, with multiplicity.

    Backed by the LAPACK nonsymmetric solver (Hessenberg reduction followed
    by shifted QR), in real arithmetic for a real matrix: its complex
    eigenvalues then come in exact conjugate pairs, and the result is a
    real array when every eigenvalue is real.  Non-convergence is
    reported, never silently truncated.
    """
    arr = _square(m)
    try:
        return np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"eigenvalue iteration did not converge for a {arr.shape[0]}x{arr.shape[1]} matrix: {exc}"
        ) from exc


def _pade_coefficients(m: int) -> list[float]:
    """Coefficients of the [m/m] Pade approximant of ``e^x``, scaled to integers.

    ``b_k = (2m - k)! / (k! (m - k)!)`` for ``k = 0 .. m``: the numerator is
    ``sum b_k x^k``, the denominator ``sum b_k (-x)^k``.
    """
    f = math.factorial
    return [float(f(2 * m - k) // (f(k) * f(m - k))) for k in range(m + 1)]


#: the Pade degrees m of :func:`expm` with theta_m, the largest ``eta`` at which
#: the approximant r_m has a backward error below the unit roundoff
#: (Al-Mohy & Higham 2009, Table 3.1)
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1), (7, 9.504178996162932e-1),
               (9, 2.097847961257068), (13, 4.25))
#: per degree m <= 9, the odd and the even coefficients as rows against the
#: powers I, A^2, A^4, ...: the rows give U / A and V of ``r_m = (V - U)^-1 (V + U)``
_PADE_LOW = {m: np.array([_pade_coefficients(m)[1::2], _pade_coefficients(m)[0::2]]) for m in (3, 5, 7, 9)}
#: for m = 13, rows against I, A^2, A^4, A^6 that give U / A and V as
#: ``A^6 row0 + row2`` and ``A^6 row1 + row3``
_PADE_HIGH = np.array([[0.0] + _pade_coefficients(13)[9::2], [0.0] + _pade_coefficients(13)[8:13:2],
                       _pade_coefficients(13)[1:9:2], _pade_coefficients(13)[0:8:2]])
#: ``(53 - log2(1 / c_{2m+1})) / (2m)``, with ``c_{2m+1} = (m!)^2 / ((2m)! (2m+1)!)`` the
#: leading coefficient of the approximant's backward-error series and 2^-53 the unit roundoff
_ELL_OFFSET = {m: (53 - math.log2(math.factorial(2 * m) * math.factorial(2 * m + 1)
                                  / math.factorial(m) ** 2)) / (2 * m) for m, _ in _PADE_THETA}
#: :func:`expm` first scales a matrix whose 1-norm reaches 2**this, so that the
#: powers up to A^10 that pick the degree stay finite
_EXPM_PRESCALE_LOG2 = 100


def _ell(a: np.ndarray, ones: np.ndarray, norm: float, m: int, s: int = 0) -> int:
    """``s + ell(2^-s a, m)``: the squarings after which r_m is accurate (Al-Mohy & Higham 2009, eq. 5.1).

    ``ell = max(ceil(log2(alpha / u) / (2m)), 0)`` with ``alpha =
    |c_{2m+1}| |||a|^(2m+1)||_1 / ||a||_1``; ``norm`` is ``||a||_1``.
    The powers are those of ``|a| / norm``, whose 1-norm is 1, so nothing
    overflows; that 1 also bounds the power's norm, which skips the
    ``2m + 1`` matrix-vector products whenever the bound gives ``s``.
    """
    bound = math.log2(norm) + _ELL_OFFSET[m]
    if bound <= s:
        return s
    col = ones
    scaled = np.abs(a) / norm
    for _ in range(2 * m + 1):
        col = col.dot(scaled)
    top = float(col.max())
    return max(s, math.ceil(bound + math.log2(top) / (2 * m))) if top > 0 else s


def _pade_uv(a: np.ndarray, ones: np.ndarray, norm: float) -> tuple[np.ndarray, np.ndarray, int]:
    """``(U, V, s)`` with ``r_m(2^-s a) = (V - U)^-1 (V + U)`` for the degree m and scaling s chosen.

    Algorithm 6.1 of Al-Mohy & Higham (2009), with exact 1-norms:
    ``eta`` comes from ``d_k = ||a^k||_1^(1/k)`` of the even powers
    ``a^4 .. a^10``, each formed when a degree first needs it.  The lowest
    degree whose ``theta_m`` bounds ``eta`` wins unless :func:`_ell` asks
    for squarings; degree 13 takes the ``s`` that brings ``eta`` under
    ``theta_13``, plus those squarings.
    """
    n = a.shape[0]
    powers = np.empty((5, n, n), dtype=a.dtype)  # I, a^2, a^4, a^6, a^8
    powers[0] = np.eye(n)
    np.dot(a, a, out=powers[1])
    np.dot(powers[1], powers[1], out=powers[2])
    np.dot(powers[2], powers[1], out=powers[3])
    d4, d6 = ones.dot(np.abs(powers[2:4])).max(axis=1) ** (1 / 4, 1 / 6)
    eta = max(d4, d6)
    for m, theta in _PADE_THETA[:4]:
        if m == 7:
            np.dot(powers[2], powers[2], out=powers[4])
            d8 = float(ones.dot(np.abs(powers[4])).max()) ** (1 / 8)
            eta = max(d6, d8)
        if eta <= theta and _ell(a, ones, norm, m) == 0:
            k = m // 2 + 1
            odd, even = _PADE_LOW[m].dot(powers[:k].reshape(k, -1)).reshape(2, n, n)
            return a.dot(odd), even, 0
    d10 = float(ones.dot(np.abs(powers[2].dot(powers[3]))).max()) ** (1 / 10)
    eta = min(eta, max(d8, d10))
    s = max(0, math.ceil(math.log2(eta / _PADE_THETA[4][1]))) if eta > 0 else 0
    s = _ell(a, ones, norm, 13, s)
    if s:
        a = a * 2.0 ** -s
        powers[1:4] *= np.array([2.0 ** (-2 * s), 2.0 ** (-4 * s), 2.0 ** (-6 * s)])[:, None, None]
    parts = _PADE_HIGH.dot(powers[:4].reshape(4, -1)).reshape(4, n, n)
    odd, even = np.matmul(powers[3], parts[:2]) + parts[2:]
    return a.dot(odd), even, s


def expm(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade approximant.

    The algorithm of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009): Pade degrees 3, 5, 7, 9 and 13, chosen from
    ``d_k = ||A^k||_1^(1/k)`` rather than ``||A||_1`` so that a
    non-normal matrix is not over-scaled, and extra squarings wherever the
    approximant's backward-error bound asks for them.  The approximant is
    evaluated as ``I + 2 (V - U)^-1 U``: the identity comes last, so the
    small terms of ``e^A`` for a tiny ``A`` are not rounded against it.  A matrix with a NaN or infinite entry, or an
    infinite 1-norm, gives an all-NaN result; no input raises or warns
    past the shape checks, and a result that overflows is returned as
    computed, so callers test the result for finiteness.  A real input
    gives a float64 result in real arithmetic; any other, complex128.
    """
    a = _square(m)
    n = a.shape[0]
    ones = np.ones(n)
    with np.errstate(all="ignore"):
        norm = float(ones.dot(np.abs(a)).max())
        if not norm < np.inf:
            return np.full(a.shape, np.nan, dtype=a.dtype)
        if norm == 0:
            return np.eye(n, dtype=a.dtype)
        # a power-of-two scaling, undone by as many extra squarings
        prescale = max(0, math.frexp(norm)[1] - _EXPM_PRESCALE_LOG2)
        if prescale:
            a = a * 2.0 ** -prescale
            norm *= 2.0 ** -prescale
        u, v, s = _pade_uv(a, ones, norm)
        try:
            x = np.linalg.solve(v - u, u + u)
        except np.linalg.LinAlgError:
            return np.full(a.shape, np.nan, dtype=a.dtype)
        x.flat[::n + 1] += 1.0
        for _ in range(s + prescale):
            x = x.dot(x)
    return x


class EigenvalueCluster(NamedTuple):
    """One distinct eigenvalue: its value, multiplicities and index.

    The index is the size of the largest Jordan block, i.e. the power of
    ``(x - value)`` in the minimal polynomial.
    """

    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    index: int


def _group_close(values: np.ndarray, radius: float) -> tuple[np.ndarray, list[list[int]]]:
    """Single-linkage groups of finite values within ``radius >= 0``: the lone values, then the groups.

    Two values are close when ``|a - b| <= radius``.  The values are sorted
    along the axis, real or imaginary, over which they spread more.  A
    close pair is also within ``radius`` along that axis, so only the pairs
    within ``2 * radius`` along it are tested, which finds the same close
    pairs as testing all of them; union-find joins them.  Values on one
    line along the axis, as the Bohr frequencies of a closed model and a
    real spectrum are, need only each value and the next tested: rounding
    is monotone, so two values across a gap wider than ``radius`` are
    farther apart still.  That is one sort plus the pairs tested:
    O(m log m) time and O(m) memory for m values on one line, or when few
    values crowd within a radius of each other along the axis.  Returns
    the indices of the values with no other value within ``radius``, and
    the index lists of the groups of two or more, ordered by their first
    member, each in index order.
    """
    real, imag = values.real, values.imag
    spread = real.max() - real.min(), imag.max() - imag.min()
    along = real if spread[0] > spread[1] else imag
    # the order of equal coordinates does not matter: every pair of them falls in one window
    order = along.argsort()
    coordinate = along[order]
    after = np.arange(1, values.size + 1)
    # fl(b - a) <= radius implies b <= a + 2 radius, so each window holds every close pair
    widths = coordinate.searchsorted(coordinate + 2 * radius, side="right") - after
    if min(spread) == 0:
        widths = np.minimum(widths, 1)
    if not widths.any():
        return np.arange(values.size), []
    # the window after the k-th value in order holds the next widths[k] values
    first = order.repeat(widths)
    second = order[np.arange(first.size) + (after + widths - widths.cumsum()).repeat(widths)]
    # the test of the all-pairs matrix, |a - b| by numpy, so its roundoff is the same
    close = np.abs(values[first] - values[second]) <= radius
    parent = list(range(values.size))
    paired = [False] * values.size

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(first[close].tolist(), second[close].tolist()):
        parent[find(i)] = find(j)
        paired[i] = paired[j] = True
    lone: list[int] = []
    groups: dict[int, list[int]] = {}
    for i, joined in enumerate(paired):
        if joined:
            groups.setdefault(find(i), []).append(i)
        else:
            lone.append(i)
    return np.array(lone, dtype=np.intp), list(groups.values())


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
    ``|m|_F * EIG_CLUSTER_RTOL**(2/3)``; a group's size is the algebraic
    multiplicity, and its value the one member or the mean of several.  A
    simple eigenvalue has geometric multiplicity and index 1 and costs
    nothing more.  For a multiple one both come from the numerical ranks of
    the powers of ``(m - value*I) / |m|_F``, one SVD per power, stopping at
    the index.  A real ``m`` stays real throughout: its eigenvalues come
    from real LAPACK in conjugate pairs, and a group closed under
    conjugation (one member within half the radius of the real axis) has
    a real mean, so the SVDs of its powers are real too.  Clusters are
    ordered by decreasing real part, then increasing imaginary part; real
    parts that chain within the radius of each other count as equal, so
    roundoff never decides the order.  A
    matrix whose Frobenius norm overflows raises :class:`NumericalFailure`.
    """
    arr = _square(m)
    values = eigenvalues(arr)
    norm_f = _frobenius(arr)

    def counts(value, size: int) -> tuple[int, int]:
        return _jordan_counts((arr - value * np.eye(arr.shape[0])) / (norm_f or 1.0), size, tol)

    return _clusters(values, norm_f, not np.iscomplexobj(arr), counts)


def _frobenius(arr: np.ndarray) -> float:
    """``|arr|_F``; :class:`NumericalFailure` if it overflows."""
    norm_f = float(np.linalg.norm(arr))
    if not np.isfinite(norm_f):
        raise NumericalFailure("matrix norm overflows the float range")
    return norm_f


def _clusters(values: np.ndarray, norm_f: float, real: bool,
              counts: Callable[[complex, int], tuple[int, int]]) -> tuple[EigenvalueCluster, ...]:
    """Clusters of the eigenvalues ``values`` of a matrix of Frobenius norm ``norm_f``, as :func:`eigen_structure` forms them.

    ``real`` says the matrix is real, so a group closed under conjugation
    gets a real mean; ``counts(value, size)`` gives the (geometric
    multiplicity, index) of each group of ``size >= 2`` values.
    """
    # A computed Jordan chain of length k spreads by about |m| * delta**(1/k),
    # delta the eigensolver's relative backward error.  EIG_CLUSTER_RTOL is
    # delta**(1/2), the spread of a chain of length 2, so this radius
    # delta**(1/3) also holds chains of length 3.
    radius = norm_f * EIG_CLUSTER_RTOL ** (2.0 / 3.0)
    lone, groups = _group_close(values, radius)
    clusters = [EigenvalueCluster(value, 1, 1, 1) for value in values[lone].astype(complex).tolist()]
    for members in groups:
        group = values[members]
        value = group.mean()
        if real and np.abs(group.imag).min() <= radius / 2:
            value = value.real
        geometric, index = counts(value, group.size)
        clusters.append(EigenvalueCluster(complex(value), group.size, geometric, index))
    clusters.sort(key=lambda c: -c.value.real)
    # a new level wherever the real part drops by more than the radius
    level = np.cumsum(np.diff([c.value.real for c in clusters], prepend=np.inf) < -radius).tolist()
    order = sorted(range(len(clusters)), key=lambda i: (level[i], clusters[i].value.imag))
    return tuple(clusters[i] for i in order)


def _minimal_polynomial_of(clusters: Sequence[EigenvalueCluster]) -> np.ndarray:
    """Monic ascending coefficients of ``prod (x - value)**index`` over the clusters.

    Coefficients other than the leading one are snapped to zero when their
    magnitude is below ``1e-9`` times the largest finite magnitude.
    """
    roots = [c.value for c in clusters for _ in range(c.index)]
    coeffs = np.asarray(np.poly(roots), dtype=complex)[::-1].copy()
    magnitude = np.abs(coeffs)
    small = magnitude < 1e-9 * magnitude[np.isfinite(magnitude)].max()
    small[-1] = False
    coeffs[small] = 0.0
    return coeffs


def minimal_polynomial(m, tol: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Monic coefficients (ascending degree) of the minimal polynomial of ``m``.

    Built from the roots given by :func:`eigen_structure`: each distinct
    eigenvalue appears as often as its index, so the degree is the sum of
    the indices and defective matrices need no special casing.
    Coefficients other than the leading one are snapped to zero when their
    magnitude is below ``1e-9`` times the largest finite magnitude.
    """
    return _minimal_polynomial_of(eigen_structure(m, tol))


@lru_cache(maxsize=None)
def _hermitian_indices(n: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Row-stacked index arithmetic of the hermitian basis of ``n x n`` matrices, as ``(rows, cols, pairs, levels)``.

    The basis ``B_k`` is orthonormal under ``tr(A^dag B)``: the normalized
    identity, then the generalized Gell-Mann families (symmetric,
    antisymmetric, diagonal), ``n**2`` matrices in all; every hermitian
    ``A`` is ``sum_k tr(B_k A) B_k`` with real coefficients, and the
    package never forms the ``B_k`` themselves.  ``rows`` lists the
    ``pairs`` entries ``jk`` with ``j < k``, then the diagonal entries
    ``jj``; ``cols`` lists the same ``jk``, their mirrors ``kj``, then the
    diagonal.  ``levels`` holds, on the diagonal entries, the normalized
    identity and the diagonal family.
    """
    j, k = np.triu_indices(n, 1)
    diagonal = np.arange(n) * (n + 1)
    levels = np.triu(np.ones((n, n)), 1) - np.diag(np.arange(n))
    levels[:, 0] = 1.0
    levels /= np.linalg.norm(levels, axis=0)
    return (np.concatenate([j * n + k, diagonal]), np.concatenate([j * n + k, k * n + j, diagonal]),
            j.size, levels)


def _coordinates(a: np.ndarray) -> np.ndarray:
    """Real coordinates ``x_k = tr(B_k A)`` of hermitian matrices, in the basis order of :func:`_hermitian_indices`.

    ``x = T^dag vec(A)``, ``T`` the unitary with the columns ``vec(B_k)`` and ``vec``
    row-stacking; ``x`` replaces the last two axes.
    """
    n = a.shape[-1]
    scaled = a.reshape(-1, n * n)[:, _hermitian_indices(n)[0]].T * np.sqrt(2.0)
    return _scaled_coordinates(scaled, n).T.reshape(a.shape[:-2] + (n * n,))


def _scaled_coordinates(scaled: np.ndarray, n: int) -> np.ndarray:
    """Coordinates, on the first axis, from ``sqrt(2)`` times the entries on :func:`_hermitian_indices`' rows.

    Entry ``kj`` is the conjugate of ``jk``: the symmetric and the antisymmetric
    coordinates are the real and minus the imaginary part of ``sqrt(2) A_jk``.
    """
    _, _, pairs, levels = _hermitian_indices(n)
    diagonal = levels.T @ scaled[pairs:].real / np.sqrt(2.0)
    return np.concatenate([diagonal[:1], scaled[:pairs].real, -scaled[:pairs].imag, diagonal[1:]])


def _from_coordinates(x: np.ndarray, n: int) -> np.ndarray:
    """``sum_k x_k B_k`` for real coordinates on the last axis: the inverse of :func:`_coordinates`."""
    _, cols, pairs, levels = _hermitian_indices(n)
    upper = (x[..., 1:pairs + 1] - 1j * x[..., pairs + 1:2 * pairs + 1]) / np.sqrt(2.0)
    diagonal = np.concatenate([x[..., :1], x[..., 2 * pairs + 1:]], axis=-1) @ levels.T
    out = np.empty(x.shape[:-1] + (n * n,), dtype=complex)
    out[..., cols] = np.concatenate([upper, upper.conj(), diagonal], axis=-1)
    return out.reshape(x.shape[:-1] + (n, n))


def _hermitian_form(m: np.ndarray, n: int) -> np.ndarray:
    """A generator in hermitian coordinates: the real ``T^dag m T``.

    ``T`` is unitary, so the result has the spectrum, Jordan structure and
    Frobenius norm of ``m``.  A generator that maps hermitian matrices to
    hermitian matrices, ``m[kj, ml] = conj(m[jk, lm])`` for all indices,
    is a real matrix in these coordinates (Gorini, Kossakowski & Sudarshan,
    J. Math. Phys. 17, 821 (1976)).  That holds exactly when the reshuffled
    matrix ``C[jl, km] = m[jk, lm]`` passes :func:`_hermiticity`; then each
    column of ``m T`` is hermitian, so only its rows ``jk`` with ``j <= k``
    are formed.  Any other ``m``, NaN or infinite entries included, raises
    :class:`ValidationError`.
    """
    if not _hermiticity(m.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n))[1]:
        raise ValidationError("superoperator matrix does not preserve hermiticity (or is not finite)")
    rows, cols, pairs, levels = _hermitian_indices(n)
    # sqrt(2) (m T) on the rows jk (j < k) and jj: the symmetric and the
    # antisymmetric family from the entry pairs, the others from levels
    block = m[rows][:, cols]
    upper, lower = block[:, :pairs], block[:, pairs:2 * pairs]
    diagonal = block[:, 2 * pairs:] @ (levels * np.sqrt(2.0))
    scaled = np.concatenate([diagonal[:, :1], upper + lower, (lower - upper) * 1j, diagonal[:, 1:]], axis=1)
    return _scaled_coordinates(scaled, n)


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random hermitian matrix: complex Gaussian entries, symmetrized."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0
