import numpy as np
import pytest

from strobe_tomo import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    ValidationError,
    build_generator,
    eigenvalues,
    expm,
    hermitian_basis,
    hs_inner,
    is_hermitian,
    laser_cooling_model,
    minimal_polynomial,
    random_hermitian,
    rank,
    unvec,
    vec,
)

from helpers import cofactor_det, random_density

E1 = np.zeros((3, 3), dtype=complex)
E1[0, 1] = 1.0
E2 = np.zeros((3, 3), dtype=complex)
E2[2, 1] = 1.0


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


class TestVec:
    def test_row_stacking_definition(self):
        m = np.array([[1 + 2j, 3], [4, 5 - 1j]])
        assert np.array_equal(vec(m), np.array([1 + 2j, 3, 4, 5 - 1j]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(unvec(vec(m), n), m)

    def test_unvec_rejects_bad_length(self):
        with pytest.raises(ValidationError):
            unvec(np.ones(8), 3)

    def test_product_identity(self):
        # oracle: vec of the directly computed product A @ X @ B
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, x, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                       for _ in range(3))
            direct = vec(a @ x @ b)
            lifted = np.kron(a, b.T) @ vec(x)
            assert np.abs(direct - lifted).max() <= 1e-12


class TestHsInner:
    def test_identity_norm(self):
        assert hs_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    def test_disjoint_supports(self):
        assert hs_inner(E1, E2) == 0

    def test_unit_vector(self):
        assert hs_inner(E1, E1) == pytest.approx(1.0)

    def test_conjugate_symmetry_and_positivity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
            assert hs_inner(a, a).real > 0
            assert abs(hs_inner(a, a).imag) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            hs_inner(np.eye(2), np.eye(3))


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
        evolved = unvec(expm(t * gen.matrix) @ vec(rho), 3)
        assert abs(np.trace(evolved) - 1.0) <= 1e-10


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

    def test_eigenvalues_are_roots(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        coeffs = minimal_polynomial(gen.matrix)
        for lam in eigenvalues(gen.matrix):
            assert abs(np.polyval(coeffs[::-1], lam)) <= 1e-8


class TestHermitianBasis:
    def test_qubit_count_and_orthonormality(self):
        basis = hermitian_basis(2)
        assert len(basis) == 4
        for i, a in enumerate(basis):
            assert np.abs(a - a.conj().T).max() <= 1e-15
            for j, b in enumerate(basis):
                assert hs_inner(a, b) == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)

    def test_qutrit_count(self):
        assert len(hermitian_basis(3)) == 9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_expansion_completeness(self, n):
        rng = np.random.default_rng(n)
        h = random_hermitian(n, rng)
        rebuilt = sum(hs_inner(b, h) * b for b in hermitian_basis(n))
        assert np.abs(rebuilt - h).max() <= 1e-12

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ValidationError):
            hermitian_basis(1)


class TestIsHermitian:
    def test_hermitian_and_not(self):
        assert is_hermitian(np.array([[1.0, 2 - 1j], [2 + 1j, -3.0]]))
        assert not is_hermitian(np.array([[1.0, 2 - 1j], [2 - 1j, -3.0]]))

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_entry_is_not_hermitian(self, entry, value):
        m = np.eye(2, dtype=complex)
        m[entry] = value
        assert not is_hermitian(m)


class TestToleranceConfig:
    def test_defaults(self):
        assert DEFAULT_TOLERANCES.rank_rtol == 1e-9
        assert DEFAULT_TOLERANCES.eig_cluster_rtol == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"rank_rtol": 0.0},
        {"eig_cluster_rtol": -1e-8},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValidationError):
            ToleranceConfig(**kwargs)

    @pytest.mark.parametrize("name", ["rank_rtol", "eig_cluster_rtol"])
    def test_rejects_infinite(self, name):
        with pytest.raises(ValidationError, match="finite"):
            ToleranceConfig(**{name: float("inf")})
