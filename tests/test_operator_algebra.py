import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from strobe_tomo import (
    DEFAULT_TOLERANCES,
    LindbladModel,
    NumericalFailure,
    ToleranceConfig,
    ValidationError,
    build_generator,
    eigen_structure,
    eigenvalues,
    expm,
    laser_cooling_model,
    minimal_polynomial,
    random_hermitian,
    rank,
)

from strobe_tomo.operator_algebra import (
    EIG_CLUSTER_RTOL,
    EigenvalueCluster,
    _clusters,
    _coordinates,
    _from_coordinates,
    _group_close,
    _hermitian_form,
    _hermiticity,
    _minimal_polynomial_of,
)

from helpers import (
    clusters_by_key_sorts,
    cofactor_det,
    equal_rate_cascade,
    gell_mann_basis,
    gell_mann_columns,
    group_close_by_all_pairs,
    jordan_matrix,
    random_density,
    random_model,
)

E1 = np.zeros((3, 3), dtype=complex)
E1[0, 1] = 1.0


class TestKron:
    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_single_entry_block_position(self):
        out = np.kron(E1, E1)
        assert out.shape == (9, 9)
        expected = np.zeros((9, 9), dtype=complex)
        expected[0, 4] = 1.0  # row 1, column 5 in 1-based indexing
        assert np.array_equal(out, expected)

    def test_scalar_second_factor(self):
        out = np.kron(np.array([[0, 1], [0, 0]]), np.array([[2]]))
        assert np.array_equal(out, np.array([[0, 2], [0, 0]]))

    def test_block_structure_random(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        out = np.kron(a, b)
        assert out.shape == (6, 6)
        for i in range(2):
            for j in range(3):
                block = out[3 * i:3 * i + 3, 2 * j:2 * j + 2]
                assert np.allclose(block, a[i, j] * b, atol=0)


class TestRowStacking:
    def test_row_stacking_definition(self):
        m = np.array([[1 + 2j, 3], [4, 5 - 1j]])
        assert np.array_equal(m.reshape(-1), np.array([1 + 2j, 3, 4, 5 - 1j]))

    def test_product_identity(self):
        # oracle: the row-stacked, directly computed product A @ X @ B
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, x, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                       for _ in range(3))
            direct = (a @ x @ b).reshape(-1)
            lifted = np.kron(a, b.T) @ x.reshape(-1)
            assert np.abs(direct - lifted).max() <= 1e-12


class TestRank:
    def test_zero_matrix(self):
        assert rank(np.zeros((9, 9))) == 0

    def test_identity(self):
        assert rank(np.eye(9)) == 9

    def test_laser_cooling_kernel(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        assert gen.matrix.shape[1] - rank(gen.matrix) == 4

    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)])
    def test_rank_plus_kernel(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert rank(m) == min(shape)
        # rank-deficient product
        tall = rng.standard_normal((shape[0], 2))
        wide = rng.standard_normal((2, shape[1]))
        prod = tall @ wide
        assert rank(prod) == 2

    def test_real_matrix_gets_a_real_svd(self, monkeypatch):
        seen = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert rank(np.diag([1.0, 2.0, 0.0])) == 2
        assert rank(np.diag([1.0, 2.0j, 0.0])) == 2
        assert seen == [np.float64, np.complex128]

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)])
    def test_non_finite_entry_is_a_numerical_failure(self, entry):
        # numpy's SVD would raise a bare LinAlgError on NaN and give rank 0 on inf
        m = np.diag([1.0, 1.0]).astype(type(entry))
        m[0, 0] = entry
        with pytest.raises(NumericalFailure, match=r"^cannot rank a 2x2 matrix with non-finite entries$"):
            rank(m)


class TestEigenvalues:
    def test_diagonal(self):
        vals = eigenvalues(np.diag([1.0, 2.0 + 1j, -3.0]))
        assert sorted(vals, key=lambda z: (z.real, z.imag)) == pytest.approx(
            [-3.0, 1.0, 2.0 + 1j]
        )

    def test_nilpotent(self):
        vals = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.abs(vals).max() <= 1e-12

    def test_generator_spectrum(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        vals = np.sort_complex(eigenvalues(gen.matrix))
        expected = np.sort_complex(np.array([0, 0, 0, 0, -3, -1.5, -1.5, -1.5, -1.5]))
        assert np.abs(vals - expected).max() <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_sum_matches_trace(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm = np.linalg.norm(m)
        assert abs(eigenvalues(m).sum() - np.trace(m)) <= 1e-9 * norm

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_product_matches_cofactor_determinant(self, n):
        rng = np.random.default_rng(n + 17)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        det = cofactor_det(m)
        prod = np.prod(eigenvalues(m))
        assert abs(prod - det) <= 1e-9 * max(1.0, abs(det))

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            eigenvalues(np.ones((2, 3)))

    def test_real_matrix_stays_real(self):
        # real LAPACK returns complex eigenvalues in exact conjugate pairs
        m = np.random.default_rng(7).standard_normal((8, 8))
        vals = eigenvalues(m)
        assert np.iscomplexobj(vals)
        assert np.array_equal(np.sort_complex(vals), np.sort_complex(vals.conj()))
        assert eigenvalues(np.diag([1.0, -2.0])).dtype == np.float64


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_diagonal(self):
        out = expm(np.diag([1.0, -2.0 + 0.5j]))
        assert np.allclose(out, np.diag(np.exp([1.0, -2.0 + 0.5j])), rtol=1e-12)

    def test_inverse_pairing(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a *= 5.0 / np.linalg.norm(a, 2)
            assert np.abs(expm(a) @ expm(-a) - np.eye(4)).max() <= 1e-9

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_semigroup_preserves_trace(self, t):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        rng = np.random.default_rng(int(t * 10))
        rho = random_density(3, rng)
        evolved = (expm(t * gen.matrix) @ rho.reshape(-1)).reshape(3, 3)
        assert abs(np.trace(evolved) - 1.0) <= 1e-10

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e308, complex(np.inf, 1.0)])
    def test_non_finite_input_gives_non_finite_output(self, entry):
        # 1e308 is finite, but its column sums, the 1-norm, overflow
        a = np.eye(3, dtype=complex)
        a[0, 1] = entry
        a[1, 1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expm(a)
        assert out.dtype == np.complex128
        assert not np.isfinite(out).any()

    def test_overflowing_result_is_returned_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expm(np.full((4, 4), 500.0))
        assert not np.isfinite(out).all()

    @pytest.mark.parametrize("a", [np.diag([1e-300, 0.0]), np.array([[0.0, 1e30], [0.0, 0.0]])],
                             ids=["tiny", "nilpotent"])
    def test_exact_cases(self, a):
        assert np.array_equal(expm(a), np.eye(2) + a)

    def test_real_input_stays_real(self):
        rng = np.random.default_rng(8)
        for scale in (1e-3, 1.0, 30.0):
            a = scale * rng.standard_normal((9, 9))
            out = expm(a)
            assert out.dtype == np.float64
            reference = expm(a.astype(complex))
            assert np.linalg.norm(out - reference) <= 1e-13 * np.linalg.norm(reference)
        assert expm(np.zeros((2, 2))).dtype == np.float64
        assert np.isnan(expm(np.diag([np.inf, 0.0]))).all()


#: ``expm`` must be within this many unit roundoffs of the exact exponential
#: (relative, Frobenius norm), times the exponential's relative condition number
#: or 1, whichever is larger: the rounding of the result alone costs about one
#: unit roundoff.  The largest ratio over the cases below is 1.1, on the Hamiltonian.
EXPM_ROUNDOFFS = 4
UNIT_ROUNDOFF = 2.0 ** -53


def mpmath_expm(a: np.ndarray) -> np.ndarray:
    """The exponential at 50 significant digits, rounded to complex128."""
    with mpmath.workdps(50):
        x = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(x[i, j]) for j in range(x.cols)] for i in range(x.rows)])


def expm_condition(a: np.ndarray) -> float:
    """Relative condition number of the exponential in the Frobenius norm.

    Exact (scipy's Kronecker form) up to 16 x 16.  Above that it is the
    power-method estimate ``|A|_F |L(A, E)|_F / |e^A|_F`` after four steps
    ``E <- L(A^dag, L(A, E))``, L the Frechet derivative, whose adjoint is
    the derivative at ``A^dag``; the estimate approaches the norm from below.
    """
    if a.shape[0] <= 16:
        return float(scipy.linalg.expm_cond(a))
    e = np.random.default_rng(0).standard_normal(a.shape)
    for _ in range(4):
        e = scipy.linalg.expm_frechet(a.conj().T, scipy.linalg.expm_frechet(a, e, compute_expm=False),
                                      compute_expm=False)
        e /= np.linalg.norm(e)
    x, derivative = scipy.linalg.expm_frechet(a, e)
    return float(np.linalg.norm(a) * np.linalg.norm(derivative) / np.linalg.norm(x))


def dissipative_model(n: int, seed: int) -> LindbladModel:
    """The first draw of :func:`random_model` with at least one jump."""
    rng = np.random.default_rng(seed)
    while not (model := random_model(n, rng)).jumps:
        pass
    return model


def slowest_rate(mat: np.ndarray) -> float:
    """The smallest nonzero decay rate ``-Re(lambda)`` of a generator; the smallest frequency if nothing decays."""
    values = np.linalg.eigvals(mat)
    floor = 1e-9 * np.abs(mat).max()
    rates = -values.real
    if np.any(rates > floor):
        return float(rates[rates > floor].min())
    return float(np.abs(values)[np.abs(values) > floor].min())


class TestExpmAccuracy:
    """``expm`` against an independent exponential, from t = 1e-8 up to 1e3 over the slowest rate."""

    CASES = {
        "laser cooling": lambda: laser_cooling_model(1.0, 2.0),
        "dissipative n=2": lambda: dissipative_model(2, 2),
        "dissipative n=3": lambda: dissipative_model(3, 3),
        "dissipative n=4": lambda: dissipative_model(4, 4),
        # nothing decays, so no mode of the exponential is negligible
        "hamiltonian n=3": lambda: LindbladModel(dim=3, hamiltonian=random_hermitian(3, np.random.default_rng(5))),
        "cascade rate 1e-3": lambda: equal_rate_cascade(3, 1e-3, np.random.default_rng(11)),
        "cascade rate 1": lambda: equal_rate_cascade(3, 1.0, np.random.default_rng(12)),
        "cascade rate 1e3": lambda: equal_rate_cascade(3, 1e3, np.random.default_rng(13)),
    }

    @staticmethod
    def times(mat: np.ndarray) -> list[float]:
        slowest = slowest_rate(mat)
        return [1e-8, 1.0 / slowest, 30.0 / slowest, 1e3 / slowest]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_mpmath(self, case):
        mat = build_generator(self.CASES[case]()).matrix
        for t in self.times(mat):
            exact = mpmath_expm(t * mat)
            error = np.linalg.norm(expm(t * mat) - exact) / np.linalg.norm(exact)
            bound = EXPM_ROUNDOFFS * UNIT_ROUNDOFF * max(expm_condition(t * mat), 1.0)
            assert error <= bound, (t, error, bound)

    @pytest.mark.parametrize("n", [5, 6])
    def test_matches_scipy_at_25_and_36(self, n):
        # mpmath would take minutes here; each exponential is within its bound, so both together
        mat = build_generator(dissipative_model(n, n)).matrix
        for t in self.times(mat):
            oracle = scipy.linalg.expm(t * mat)
            error = np.linalg.norm(expm(t * mat) - oracle) / np.linalg.norm(oracle)
            assert error <= 2 * EXPM_ROUNDOFFS * UNIT_ROUNDOFF * max(expm_condition(t * mat), 1.0)

    def test_decay_faster_than_the_float_range(self):
        # rate 1e200: the powers that choose the degree overflow, yet the decay completes
        # and the exponential is finite
        decay = np.zeros((3, 3), dtype=complex)
        decay[0, 1] = 1.0
        a = 0.5 * build_generator(LindbladModel(dim=3, jumps=((1e200, decay),))).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = expm(a)
        assert np.abs(out - mpmath_expm(a)).max() <= EXPM_ROUNDOFFS * UNIT_ROUNDOFF


class TestMinimalPolynomial:
    def test_identity(self):
        coeffs = minimal_polynomial(np.eye(3))
        assert coeffs == pytest.approx([-1.0, 1.0])

    def test_projector(self):
        coeffs = minimal_polynomial(np.diag([0.0, 0.0, 1.0]))
        assert coeffs == pytest.approx([0.0, -1.0, 1.0])

    def test_zero_matrix(self):
        assert minimal_polynomial(np.zeros((3, 3))) == pytest.approx([0.0, 1.0])

    @pytest.mark.parametrize("g1,g2", [(1.0, 2.0), (0.5, 0.5), (3.0, 0.0)])
    def test_generator(self, g1, g2):
        s = g1 + g2
        coeffs = minimal_polynomial(build_generator(laser_cooling_model(g1, g2)).matrix)
        assert len(coeffs) == 4
        assert coeffs[0] == 0
        assert coeffs[1] == pytest.approx(0.5 * s * s, rel=1e-9)
        assert coeffs[2] == pytest.approx(1.5 * s, rel=1e-9)
        assert coeffs[3] == 1.0

    def test_defective_matrix(self):
        # Jordan block: minimal polynomial is lambda^2 despite a single eigenvalue
        coeffs = minimal_polynomial(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert coeffs == pytest.approx([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_annihilates_matrix(self, n):
        rng = np.random.default_rng(n * 3)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        coeffs = minimal_polynomial(m)
        deg = len(coeffs) - 1
        value = np.zeros((n, n), dtype=complex)
        power = np.eye(n, dtype=complex)
        for c in coeffs:
            value = value + c * power
            power = power @ m
        assert np.abs(value).max() <= 1e-8 * np.linalg.norm(m) ** deg

    def test_monic_coefficient_survives_large_rates(self):
        # roots 0, -1.5e5, -3e5: the monic coefficient is 2e-11 of the largest one
        coeffs = minimal_polynomial(build_generator(laser_cooling_model(1e5, 2e5)).matrix)
        assert coeffs[-1] == 1.0
        assert coeffs == pytest.approx([0.0, 4.5e10, 4.5e5, 1.0], rel=1e-9)

    def test_overflowing_coefficient_scales_nothing(self):
        # (x - 1e200)(x - 2e200): the constant term overflows, the others are finite
        coeffs = _minimal_polynomial_of([EigenvalueCluster(1e200, 1, 1, 1), EigenvalueCluster(2e200, 1, 1, 1)])
        assert coeffs[0] == np.inf
        assert coeffs[1] == pytest.approx(-3e200, rel=1e-12)
        assert coeffs[2] == 1.0

    def test_eigenvalues_are_roots(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        coeffs = minimal_polynomial(gen.matrix)
        for lam in eigenvalues(gen.matrix):
            assert abs(np.polyval(coeffs[::-1], lam)) <= 1e-8


class TestEigenStructure:
    def test_complex_matrix(self):
        # J_3(-1) + a semisimple double -2.5 + four simple complex values, under a complex similarity
        clusters = eigen_structure(jordan_matrix(9, [(-1.0, 3), (-2.5, 1), (-2.5, 1)], seed=4))
        by_value = {round(c.value.real, 6): c[1:] for c in clusters}
        assert len(clusters) == 6
        assert (by_value[-1.0], by_value[-2.5]) == ((3, 1, 3), (2, 2, 1))


def grouping_cases(kind: str, rng: np.random.Generator):
    """``(values, radius)`` pairs of one kind for the grouping tests."""
    for _ in range(150):
        size = int(rng.integers(1, 30))
        radius = float(rng.choice([0.0, 0.25, 1e-3, 0.7]))
        if kind == "ties":
            # few distinct points, each taken several times
            values = (rng.integers(-2, 3, size) + 1j * rng.integers(-2, 3, size)) * 0.25
        elif kind == "chains":
            # steps of exactly the radius, one ulp inside it or one ulp outside it, along a random direction
            steps = rng.choice([radius, np.nextafter(radius, 0.0), np.nextafter(radius, 1.0)], size)
            values = np.exp(1j * rng.choice([0.0, np.pi / 2, np.pi / 4, rng.uniform(0, np.pi)])) * np.cumsum(steps)
        elif kind == "conjugate-pairs":
            half = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * radius * 3
            values = np.concatenate([half, half.conj(), half.real[: size // 3]])
        elif kind == "one-line":
            # Bohr frequencies -i (E_j - E_k) of integer energies, exact or a little off, or of random
            # ones; or real values, as a real spectrum has
            energies = (rng.integers(-3, 4, size) + rng.choice([0.0, 1e-9]) * rng.standard_normal(size)) * radius
            if rng.random() < 0.3:
                energies = rng.standard_normal(size) * radius * 4
            values = -1j * (energies[:, None] - energies).reshape(-1) if rng.random() < 0.7 else energies
        else:
            values = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * radius * 2
        yield values.astype(complex), radius


class TestGroupClose:
    """The sorted sweep finds the single-linkage groups of the all-pairs test, in the same order."""

    @pytest.mark.parametrize("kind", ["ties", "chains", "conjugate-pairs", "one-line", "scattered"])
    def test_matches_the_all_pairs_reference(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for values, radius in grouping_cases(kind, rng):
            lone, groups = _group_close(values, radius)
            expected_lone, expected_groups = group_close_by_all_pairs(values, radius)
            assert np.array_equal(lone, expected_lone)
            assert groups == expected_groups

    def test_pair_whose_gap_rounds_onto_the_radius(self):
        # b - a rounds to 0.7 although b lies past a + 0.7 as rounded: a window of one radius misses it
        a, b = -0.5981710012073957, 0.10182899879260422
        assert b - a == 0.7 and b > a + 0.7
        values = np.array([1j * a, 1j * b, 5j])
        assert group_close_by_all_pairs(values, 0.7)[1] == _group_close(values, 0.7)[1] == [[0, 1]]

    def test_many_equal_values_in_linear_time(self):
        # 4096 equal Bohr frequencies, as a zero Hamiltonian on 64 levels has: one group,
        # without the 16.7 million pairs of the all-pairs test
        tracemalloc.start()
        try:
            lone, groups = _group_close(np.zeros(4096, dtype=complex), 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lone.size == 0 and groups == [list(range(4096))]
        assert peak < 2_000_000


def cluster_cases(kind: str, rng: np.random.Generator):
    """``(values, norm_f)`` pairs of one kind for the cluster tests; the radius is ``norm_f * EIG_CLUSTER_RTOL**(2/3)``."""
    for _ in range(80):
        size = int(rng.integers(1, 30))
        norm_f = float(rng.choice([1.0, 3e5, 1e-3]))
        radius = norm_f * EIG_CLUSTER_RTOL ** (2.0 / 3.0)
        # imaginary parts 3 radii apart keep values out of each other's groups
        apart = rng.permutation(size) * 3 * radius
        if kind == "equal-real":
            values = rng.integers(-2, 3, size) * radius + 1j * apart
        elif kind == "real-chains":
            # real parts falling by exactly the radius, one ulp less or one ulp more
            steps = rng.choice([radius, np.nextafter(radius, 0.0), np.nextafter(radius, 1.0)], size)
            values = -np.cumsum(steps) + 1j * apart * rng.choice([-1.0, 1.0])
        elif kind == "conjugate-pairs":
            half = (rng.standard_normal(size) + 1j * rng.choice([1e-3, 0.3, 3.0], size)) * radius * 4
            values = np.concatenate([half, half.conj()])
        elif kind == "groups":
            centres = (rng.standard_normal(4) + 1j * rng.integers(-1, 2, 4)) * radius * 10
            values = centres[rng.integers(0, 4, size)] + rng.standard_normal(size) * radius * 0.2
        else:
            # a real array, as the eigensolver returns for a real spectrum
            values = rng.integers(-3, 4, size) * radius * rng.choice([0.5, 1.0, 2.0])
        yield (values if kind == "real" else values.astype(complex)), norm_f


def cluster_bits(clusters) -> list:
    """Each cluster's fields with their types, the value as its bytes: equal only when bit for bit the same."""
    return [(type(c.value), np.array(c.value).tobytes()) + tuple((type(x), x) for x in c[1:]) for c in clusters]


def recorded_counts():
    """``counts(value, size)`` for :func:`_clusters` that records the type and bytes of each value it is given."""
    calls = []

    def counts(value, size):
        calls.append((type(value), np.array(value).tobytes(), size))
        return max(1, size - 1), 1 + size % 3

    return counts, calls


class TestClusters:
    """The array ordering gives the clusters of one object per value and two key sorts, bit for bit."""

    @staticmethod
    def assert_same_as_key_sorts(values, norm_f, real, group=group_close_by_all_pairs):
        counts, calls = recorded_counts()
        expected_counts, expected_calls = recorded_counts()
        got = _clusters(values, norm_f, real, counts)
        expected = clusters_by_key_sorts(values, norm_f, real, expected_counts, group)
        assert cluster_bits(got) == cluster_bits(expected)
        assert calls == expected_calls

    @pytest.mark.parametrize("kind", ["equal-real", "real-chains", "conjugate-pairs", "groups", "real"])
    @pytest.mark.parametrize("real", [True, False], ids=["real-matrix", "complex-matrix"])
    def test_matches_the_key_sorts(self, kind, real):
        rng = np.random.default_rng(sum(map(ord, kind)))
        for values, norm_f in cluster_cases(kind, rng):
            self.assert_same_as_key_sorts(values, norm_f, real)

    def test_one_value(self):
        for value in (np.array([-0.0]), np.array([2.5 - 1j]), np.array([0.0 + 0.0j])):
            self.assert_same_as_key_sorts(value, 1.0, True)

    def test_laser_cooling_spectrum(self):
        form = build_generator(laser_cooling_model(1.0, 2.0)).hermitian_form
        values = np.linalg.eigvals(form)
        assert values.size == 9
        self.assert_same_as_key_sorts(values, float(np.linalg.norm(form)), True)

    def test_bohr_frequencies_of_64_levels(self):
        # 4096 values in 9 groups and the lone ones between; the all-pairs grouping would take 268 MB
        energies = np.random.default_rng(64).integers(-2, 3, 64) + np.arange(64) * 1e-3
        bohr = -1j * (energies[:, None] - energies).reshape(-1)
        self.assert_same_as_key_sorts(bohr, float(np.linalg.norm(bohr)), True, group=_group_close)


def package_basis(n: int) -> np.ndarray:
    """The package's hermitian basis: the matrices whose coordinates are the unit vectors."""
    return _from_coordinates(np.eye(n * n), n)


class TestHermitianBasis:
    def test_qubit_count_and_orthonormality(self):
        basis = package_basis(2)
        assert len(basis) == 4
        for i, a in enumerate(basis):
            assert np.abs(a - a.conj().T).max() <= 1e-15
            for j, b in enumerate(basis):
                assert np.vdot(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)

    def test_qutrit_count(self):
        assert len(package_basis(3)) == 9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_expansion_completeness(self, n):
        rng = np.random.default_rng(n)
        h = random_hermitian(n, rng)
        rebuilt = sum(np.vdot(b, h) * b for b in package_basis(n))
        assert np.abs(rebuilt - h).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_explicit_gell_mann_matrices(self, n):
        # the package builds the basis from its coordinate map; this pins the
        # order, signs and normalization against the matrices written out
        basis = package_basis(n)
        assert len(basis) == n * n
        for got, expected in zip(basis, gell_mann_basis(n)):
            assert np.abs(got - expected).max() <= 1e-15


class TestHermitianForm:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_oracle(self, n):
        # T^dag L T with T the columns vec(B_k) of the hermitian basis
        rng = np.random.default_rng(40 + n)
        basis = gell_mann_columns(n)
        for _ in range(3):
            mat = build_generator(random_model(n, rng)).matrix
            oracle = basis.conj().T @ mat @ basis
            form = _hermitian_form(mat, n)
            assert form.dtype == np.float64
            assert np.abs(form - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_generator_stores_its_form_read_only(self, n):
        rng = np.random.default_rng(80 + n)
        models = [random_model(n, rng) for _ in range(3)]
        for model in models + ([laser_cooling_model(1.0, 2.0)] if n == 3 else []):
            gen = build_generator(model)
            assert gen.hermitian_form.dtype == np.float64
            assert np.array_equal(gen.hermitian_form, _hermitian_form(gen.matrix, n))
            with pytest.raises(ValueError, match="read-only"):
                gen.hermitian_form[0, 0] = 1.0


class TestCoordinates:
    """The coordinate map x_k = tr(B_k A) and its inverse, without a dense basis."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_basis_traces(self, n):
        rng = np.random.default_rng(60 + n)
        basis = gell_mann_basis(n)
        for _ in range(3):
            a = random_hermitian(n, rng)
            x = _coordinates(a)
            assert x.dtype == np.float64
            oracle = np.array([np.trace(b @ a) for b in basis])
            assert np.abs(x - oracle.real).max() <= 1e-14 * np.abs(a).max()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_round_trip(self, n):
        rng = np.random.default_rng(70 + n)
        stack = np.stack([random_hermitian(n, rng) for _ in range(4)])
        x = _coordinates(stack)
        assert x.shape == (4, n * n)
        back = _from_coordinates(x, n)
        assert np.abs(back - stack).max() <= 1e-14 * np.abs(stack).max()
        # the rebuilt matrices are hermitian to the last bit
        assert np.array_equal(back, back.conj().swapaxes(1, 2))
        assert _coordinates(stack[0]).shape == (n * n,)


def is_hermitian(m: np.ndarray) -> bool:
    return bool(_hermiticity(m)[1])


class TestHermiticity:
    def test_hermitian_and_not(self):
        assert is_hermitian(np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]]))
        assert not is_hermitian(np.array([[1.0, 2 - 1j], [2 - 1j, -3.0]]))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_entry_is_not_hermitian(self, entry, value):
        m = np.eye(2, dtype=complex)
        m[entry] = value
        assert not is_hermitian(m)

    def test_empty_matrix_gives_a_bool(self):
        dev, hermitian = _hermiticity(np.zeros((0, 0)))
        assert dev == 0.0 and hermitian.dtype == bool and hermitian

    def test_batched_test_matches_matrix_by_matrix(self):
        rng = np.random.default_rng(11)
        stack = np.stack([random_hermitian(3, rng) for _ in range(9)])
        stack[1, 0, 2] += 1e-6
        stack[2, 1, 1] = np.nan
        stack[3, 0, 1] = np.inf
        stack[4, 2, 2] = np.inf
        stack[5, 0, 1] = stack[5, 1, 0] = -np.inf
        stack[6, 1, 2] = complex(np.nan, np.inf)
        stack[7] *= 1e300
        dev, hermitian = _hermiticity(stack)
        assert hermitian.tolist() == [is_hermitian(m) for m in stack]
        assert hermitian.tolist() == [True, False, False, False, False, False, False, True, True]
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(dev, [np.abs(m - m.conj().T).max() for m in stack])


class TestToleranceConfig:
    def test_defaults(self):
        assert DEFAULT_TOLERANCES.rank_rtol == 1e-9
        assert EIG_CLUSTER_RTOL == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"rank_rtol": 0.0},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValidationError):
            ToleranceConfig(**kwargs)

    @pytest.mark.parametrize("name", ["rank_rtol"])
    def test_rejects_infinite(self, name):
        with pytest.raises(ValidationError, match="finite"):
            ToleranceConfig(**{name: float("inf")})
