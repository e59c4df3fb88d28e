import numpy as np
import pytest

import strobe_tomo.operator_algebra
from strobe_tomo import (
    LindbladModel,
    NumericalFailure,
    SearchExhausted,
    Superoperator,
    ToleranceConfig,
    ValidationError,
    build_generator,
    eigen_structure,
    evolve,
    find_observables,
    hermitian_basis,
    laser_cooling_model,
    random_hermitian,
    reconstruct,
    simulate_measurements,
    spectral_report,
    verify_observables,
)

from helpers import jordan_matrix, krylov_subspace, random_density, simple_spectrum_models, span_rank


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


def hamiltonian_only_generator(n: int, seed: int) -> Superoperator:
    """Random Hamiltonian, no dissipation: eigenvalue 0 with multiplicity n, the rest simple."""
    ham = random_hermitian(n, np.random.default_rng(seed))
    return build_generator(LindbladModel(dim=n, hamiltonian=ham))


class TestRealForm:
    """The report reads the generator in hermitian coordinates; the structure is that of the matrix itself."""

    @staticmethod
    def assert_same_structure(gen):
        report = spectral_report(gen)
        direct = eigen_structure(gen.matrix)
        scale = np.linalg.norm(gen.matrix)
        assert len(report.distinct_eigenvalues) == len(direct)
        matched = set()
        for c in direct:
            i = int(np.argmin([abs(r.value - c.value) for r in report.distinct_eigenvalues]))
            mine = report.distinct_eigenvalues[i]
            assert abs(mine.value - c.value) <= 1e-10 * scale
            assert mine[1:] == c[1:]
            matched.add(i)
        assert len(matched) == len(direct)
        assert report.eta == max(c.geometric_multiplicity for c in direct)
        assert report.mu == sum(c.index for c in direct)
        return report

    def test_laser_cooling(self, cooling_gen):
        report = self.assert_same_structure(cooling_gen)
        assert (report.eta, report.mu) == (4, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_simple_spectrum_models(self, n):
        for model in simple_spectrum_models(n, count=3, seed=200 + n):
            report = self.assert_same_structure(build_generator(model))
            assert (report.eta, report.mu) == (1, n * n)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_hamiltonian_only_models(self, n):
        report = self.assert_same_structure(hamiltonian_only_generator(n, seed=300 + n))
        zero = min(report.distinct_eigenvalues, key=lambda c: abs(c.value))
        assert zero[1:] == (n, n, 1)
        assert (report.eta, report.mu) == (n, n * n - n + 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_hamiltonian_only_order_is_that_of_the_matrix(self, seed):
        # every real part is 0 up to roundoff, which must not decide the order
        rng = np.random.default_rng(seed)
        gen = build_generator(LindbladModel(dim=3, hamiltonian=random_hermitian(3, rng)))
        mine = [c.value for c in spectral_report(gen).distinct_eigenvalues]
        direct = [c.value for c in eigen_structure(gen.matrix)]
        assert len(mine) == len(direct) == 7
        assert np.abs(np.subtract(mine, direct)).max() <= 1e-10 * np.linalg.norm(gen.matrix)

    def test_generator_breaking_hermiticity_analysed_as_given(self):
        gen = Superoperator(dim=3, matrix=jordan_matrix(9, [(-1.0, 3), (-2.5, 1), (-2.5, 1)], seed=4))
        assert spectral_report(gen).distinct_eigenvalues == eigen_structure(gen.matrix)

    def test_cluster_closed_under_conjugation_has_real_svds(self, monkeypatch):
        seen = []
        rank = strobe_tomo.operator_algebra.rank

        def spy(m, *args):
            seen.append(m.dtype)
            return rank(m, *args)

        monkeypatch.setattr(strobe_tomo.operator_algebra, "rank", spy)
        report = spectral_report(hamiltonian_only_generator(4, seed=304))
        assert report.eta == 4
        assert seen and set(seen) == {np.dtype(np.float64)}

    def test_min_poly_computed_on_first_read(self, cooling_gen):
        report = spectral_report(cooling_gen)
        assert "min_poly" not in vars(report)
        assert report.min_poly is report.min_poly
        assert report.min_poly == pytest.approx([0.0, 4.5, 4.5, 1.0], rel=1e-12)


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

    def test_reports_hermiticity_breakdown_for_foreign_generator(self):
        # an injected non-dissipative generator whose dual destroys hermiticity,
        # rejected before any Krylov element is formed
        sup = simple_spectrum_generator()
        with pytest.raises(NumericalFailure, match=r"^the generator does not preserve hermiticity"):
            verify_observables(sup, [np.ones((3, 3)) / 3 + np.eye(3) * 0.5])


class TestUpFrontRejection:
    """Every stage after the spectrum runs on the real generator and rejects one that is not real."""

    MESSAGE = r"^the generator does not preserve hermiticity \(or is not finite\); only its spectral analysis"

    def test_hand_made_generator(self):
        # the dual sends rho_01 to rho_00 alone: a hermitian input gets a complex diagonal
        sup = Superoperator(dim=2, matrix=np.outer(np.eye(4)[1], np.eye(4)[0]))
        with pytest.raises(NumericalFailure, match=self.MESSAGE):
            verify_observables(sup, [np.diag([1.0, -1.0])])
        with pytest.raises(NumericalFailure, match=self.MESSAGE):
            evolve(sup, np.diag([1.0, 0.0]), 0.5)
        report = spectral_report(sup)
        assert (report.eta, report.mu) == (3, 2)

    def test_model_whose_generator_overflows(self):
        # L^dag L has entries of 1e400: the generator is not finite
        model = LindbladModel(dim=2, jumps=((1.0, np.array([[0.0, 1e200], [0.0, 0.0]])),))
        observables = [np.diag([1.0, -1.0])]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match=self.MESSAGE):
                simulate_measurements(model, np.eye(2) / 2, observables, [1.0])
            record = simulate_measurements(LindbladModel(dim=2), np.eye(2) / 2, observables, [1.0])
            with pytest.raises(NumericalFailure, match=self.MESSAGE):
                reconstruct(model, observables, record)


def _benchmark_search_input(seed: int, n: int, cls: int, round_: int):
    """The model and search seed of one generic-search benchmark input, drawn as its generator does."""
    rng = np.random.default_rng([seed, 2, cls, round_])
    ham = random_hermitian(n, rng)
    jumps = tuple((float(rng.uniform(0.1, 1.5)), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                  for _ in range(int(rng.integers(1, 4))))
    random_density(n, rng)  # the initial state is drawn before the search seed
    return LindbladModel(dim=n, hamiltonian=ham, jumps=jumps), int(rng.integers(2**31))


class TestVerifyRoundoff:
    """Roundoff in the Arnoldi loop never reads as a generator that breaks hermiticity."""

    # two dissipative n = 4 models whose 16th Krylov element used to miss the
    # hermiticity test by about 1e-10, with |L|_2 = 18.3 and 42.0
    @pytest.mark.parametrize("seed, round_", [(2, 485), (5, 214)])
    def test_valid_generator_passes(self, seed, round_):
        model, search_seed = _benchmark_search_input(seed, 4, 1, round_)
        gen = build_generator(model)
        observables = find_observables(gen, seed=search_seed)
        assert verify_observables(gen, observables) == (True, 16)


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
        # a rank threshold of half |L|_2 keeps every candidate set far from spanning
        with pytest.raises(SearchExhausted, match="in 3 attempts") as excinfo:
            find_observables(cooling_gen, ToleranceConfig(rank_rtol=0.5), seed=0, max_attempts=3)
        assert excinfo.value.attempts == 3
        assert 0 < excinfo.value.best_rank < 9


class TestSpanningAgainstBasisOracle:
    def test_verified_set_spans_hermitian_space(self, cooling_gen):
        # independent oracle: expand all Krylov elements over the hermitian
        # basis by explicit inner products and rank the coefficient matrix
        observables = find_observables(cooling_gen, seed=4)
        basis = hermitian_basis(3)
        rows = []
        for q in observables:
            for element in krylov_subspace(cooling_gen, q, 3):
                rows.append([np.vdot(b, element).real for b in basis])
        assert span_rank(np.array(rows)) == 9
