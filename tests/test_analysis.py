import numpy as np
import pytest

from strobe_tomo import (
    NumericalFailure,
    SearchExhausted,
    Superoperator,
    ValidationError,
    build_generator,
    find_observables,
    hermitian_basis,
    hs_inner,
    krylov_subspace,
    laser_cooling_model,
    random_hermitian,
    spectral_report,
    verify_observables,
)

from helpers import jordan_matrix, simple_spectrum_models, span_rank


@pytest.fixture(scope="module")
def cooling_gen():
    return build_generator(laser_cooling_model(1.0, 2.0))


@pytest.fixture(scope="module")
def cooling_report(cooling_gen):
    return spectral_report(cooling_gen)


def zero_generator(n: int) -> Superoperator:
    return Superoperator(dim=n, matrix=np.zeros((n * n, n * n)))


def simple_spectrum_generator() -> Superoperator:
    return Superoperator(dim=3, matrix=np.diag(np.arange(0.0, -9.0, -1.0)))


class TestSpectralReport:
    def test_laser_cooling(self, cooling_report):
        rep = cooling_report
        assert rep.dim == 3
        clusters = {round(c.value.real, 9): c for c in rep.distinct_eigenvalues}
        assert set(clusters) == {0.0, -1.5, -3.0}
        assert all(abs(c.value.imag) <= 1e-10 for c in rep.distinct_eigenvalues)
        assert clusters[0.0].algebraic_multiplicity == 4
        assert clusters[0.0].geometric_multiplicity == 4
        assert clusters[-1.5].algebraic_multiplicity == 4
        assert clusters[-1.5].geometric_multiplicity == 4
        assert clusters[-3.0].algebraic_multiplicity == 1
        assert clusters[-3.0].geometric_multiplicity == 1
        assert rep.eta == 4
        assert rep.mu == 3
        assert rep.measurement_budget == 12
        assert rep.static_observable_count == 8

    def test_zero_generator(self):
        rep = spectral_report(zero_generator(3))
        assert len(rep.distinct_eigenvalues) == 1
        only = rep.distinct_eigenvalues[0]
        assert abs(only.value) <= 1e-12
        assert only.algebraic_multiplicity == 9
        assert only.geometric_multiplicity == 9
        assert rep.eta == 9
        assert rep.mu == 1

    def test_injected_simple_spectrum(self):
        rep = spectral_report(simple_spectrum_generator())
        assert len(rep.distinct_eigenvalues) == 9
        assert rep.eta == 1
        assert rep.mu == 9

    def test_multiplicity_ordering_invariants(self, cooling_report):
        total_algebraic = 0
        for c in cooling_report.distinct_eigenvalues:
            assert 1 <= c.geometric_multiplicity <= c.algebraic_multiplicity
            total_algebraic += c.algebraic_multiplicity
        assert total_algebraic == 9

    def test_mu_equals_distinct_count_when_diagonalizable(self, cooling_report):
        diagonalizable = all(
            c.geometric_multiplicity == c.algebraic_multiplicity
            for c in cooling_report.distinct_eigenvalues
        )
        assert diagonalizable
        assert cooling_report.mu == len(cooling_report.distinct_eigenvalues)

    def test_min_poly_annihilates_generator(self, cooling_gen, cooling_report):
        mat = cooling_gen.matrix
        value = np.zeros_like(mat)
        power = np.eye(9, dtype=complex)
        for c in cooling_report.min_poly:
            value = value + c * power
            power = power @ mat
        mu = cooling_report.mu
        assert np.abs(value).max() <= 1e-8 * np.linalg.norm(mat) ** mu

    def test_clustered_eigenvalues_are_min_poly_roots(self, cooling_report):
        coeffs = cooling_report.min_poly[::-1]
        for c in cooling_report.distinct_eigenvalues:
            assert abs(np.polyval(coeffs, c.value)) <= 1e-7


class TestSpectralStructure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_simple_spectrum_random_models(self, n):
        for model in simple_spectrum_models(n, count=6, seed=100 + n):
            gen = build_generator(model)
            rep = spectral_report(gen)
            assert len(rep.distinct_eigenvalues) == n * n
            assert rep.mu == n * n
            assert rep.eta == 1
            observables = find_observables(gen, seed=n, max_attempts=5)
            assert len(observables) == 1

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("length", [2, 3])
    def test_jordan_block_under_similarity(self, length, seed):
        # J_length(-1) + a semisimple double -2.5 + simple values; the
        # computed eigenvalues of the chain spread by about eps^(1/length)
        gen = Superoperator(dim=3, matrix=jordan_matrix(9, [(-1.0, length), (-2.5, 1), (-2.5, 1)], seed))
        rep = spectral_report(gen)
        clusters = {round(c.value.real, 6): c for c in rep.distinct_eigenvalues}
        chain, double = clusters[-1.0], clusters[-2.5]
        assert (chain.algebraic_multiplicity, chain.geometric_multiplicity, chain.index) == (length, 1, length)
        assert (double.algebraic_multiplicity, double.geometric_multiplicity, double.index) == (2, 2, 1)
        assert len(rep.distinct_eigenvalues) == 2 + (9 - length - 2)
        assert rep.eta == 2
        assert rep.mu == 8
        assert len(rep.min_poly) == 9


def budget(report):
    return report.eta, report.mu, report.measurement_budget


class TestMeasurementBudget:
    def test_laser_cooling(self, cooling_report):
        assert budget(cooling_report) == (4, 3, 12)

    def test_zero_generator(self):
        assert budget(spectral_report(zero_generator(3))) == (9, 1, 9)

    def test_simple_spectrum(self):
        assert budget(spectral_report(simple_spectrum_generator())) == (1, 9, 9)


class TestKrylovSubspace:
    def test_identity_is_fixed_point(self, cooling_gen):
        elements = krylov_subspace(cooling_gen, np.eye(3), 3)
        assert len(elements) == 3
        assert np.abs(elements[1]).max() <= 1e-14
        assert np.abs(elements[2]).max() <= 1e-14

    def test_excited_projector_is_eigenvector(self, cooling_gen):
        # hand evaluation: the dual generator scales |2><2| by -(g1+g2)
        proj = np.diag([0.0, 1.0, 0.0])
        elements = krylov_subspace(cooling_gen, proj, 3)
        assert np.abs(elements[1] - (-3.0) * proj).max() <= 1e-12
        assert span_rank(elements) == 1

    def test_generic_observable_fills_depth(self, cooling_gen):
        rng = np.random.default_rng(123)
        full = sum(
            span_rank(krylov_subspace(cooling_gen, random_hermitian(3, rng), 3)) == 3
            for _ in range(100)
        )
        assert full >= 99

    def test_elements_stay_hermitian(self, cooling_gen):
        rng = np.random.default_rng(11)
        for _ in range(50):
            for element in krylov_subspace(cooling_gen, random_hermitian(3, rng), 3):
                assert np.abs(element - element.conj().T).max() <= 1e-10

    def test_rejects_non_hermitian_observable(self, cooling_gen):
        with pytest.raises(ValidationError, match="hermitian"):
            krylov_subspace(cooling_gen, np.array([[0, 1], [0, 0]]), 3)

    def test_rejects_bad_depth_and_shape(self, cooling_gen):
        with pytest.raises(ValidationError):
            krylov_subspace(cooling_gen, np.eye(3), 0)
        with pytest.raises(ValidationError):
            krylov_subspace(cooling_gen, np.eye(2), 3)

    def test_reports_hermiticity_breakdown_for_foreign_generator(self):
        # an injected non-dissipative generator whose dual destroys hermiticity
        sup = simple_spectrum_generator()
        with pytest.raises(NumericalFailure, match="hermiticity"):
            krylov_subspace(sup, np.ones((3, 3)) / 3 + np.eye(3) * 0.5, 3)


class TestVerifyObservables:
    def test_three_observables_never_suffice(self, cooling_gen):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ok, achieved = verify_observables(
                cooling_gen, [random_hermitian(3, rng) for _ in range(3)]
            )
            assert not ok
            assert achieved < 9

    def test_four_random_observables_generically_pass(self, cooling_gen):
        rng = np.random.default_rng(23)
        passes = sum(
            verify_observables(cooling_gen, [random_hermitian(3, rng) for _ in range(4)]).ok
            for _ in range(50)
        )
        assert passes >= 48

    def test_identity_alone(self, cooling_gen):
        ok, achieved = verify_observables(cooling_gen, [np.eye(3)])
        assert not ok
        assert achieved == 1

    def test_monotone_in_observables(self, cooling_gen):
        rng = np.random.default_rng(31)
        for _ in range(10):
            pool = [random_hermitian(3, rng) for _ in range(5)]
            previous = 0
            for size in range(1, 6):
                _, achieved = verify_observables(cooling_gen, pool[:size])
                assert achieved >= previous
                previous = achieved

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_generator_rank_counts_observables(self, n):
        rng = np.random.default_rng(n)
        for k in range(1, n * n):
            ok, achieved = verify_observables(zero_generator(n),
                                              [random_hermitian(n, rng) for _ in range(k)])
            assert not ok
            assert achieved == k

    def test_empty_set_rejected(self, cooling_gen):
        with pytest.raises(ValidationError):
            verify_observables(cooling_gen, [])


class TestFindObservables:
    def test_laser_cooling_search(self, cooling_gen):
        observables = find_observables(cooling_gen, seed=42)
        assert len(observables) == 4
        for q in observables:
            assert np.abs(q - q.conj().T).max() <= 1e-14
        assert verify_observables(cooling_gen, observables).ok

    def test_zero_generator_yields_operator_basis(self):
        gen = zero_generator(2)
        observables = find_observables(gen, seed=1)
        assert len(observables) == 4
        # mu = 1 collapses each Krylov space to the observable itself,
        # so the four must already span the hermitian 2x2 space
        assert span_rank(observables) == 4

    def test_deterministic_for_fixed_seed(self, cooling_gen):
        first = find_observables(cooling_gen, seed=9)
        second = find_observables(cooling_gen, seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_exhaustion_reports_diagnostics(self, cooling_gen):
        with pytest.raises(SearchExhausted) as excinfo:
            find_observables(cooling_gen, seed=0, max_attempts=0)
        assert excinfo.value.attempts == 0
        assert excinfo.value.best_rank == 0


class TestSpanningAgainstBasisOracle:
    def test_verified_set_spans_hermitian_space(self, cooling_gen):
        # independent oracle: expand all Krylov elements over the hermitian
        # basis by explicit inner products and rank the coefficient matrix
        observables = find_observables(cooling_gen, seed=4)
        basis = hermitian_basis(3)
        rows = []
        for q in observables:
            for element in krylov_subspace(cooling_gen, q, 3):
                rows.append([hs_inner(b, element).real for b in basis])
        assert span_rank(np.array(rows)) == 9
