import importlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strobe_tomo.analysis
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
    find_observables,
    laser_cooling_model,
    random_hermitian,
    reconstruct,
    simulate_measurements,
    spectral_report,
    verify_observables,
)

from strobe_tomo.analysis import _observable_coordinates
from strobe_tomo.operator_algebra import _hermitian_form

from helpers import (
    find_by_single_draws,
    gell_mann_basis,
    hermitian_of_one_draw,
    kron_generator,
    krylov_subspace,
    random_density,
    real_jordan_matrix,
    simple_spectrum_models,
    span_rank,
    superoperator_from_real,
    verify_by_orthogonalize,
    without_silent_jumps,
)


@pytest.fixture(scope="module")
def cooling_gen():
    return build_generator(laser_cooling_model(1.0, 2.0))


@pytest.fixture(scope="module")
def cooling_report(cooling_gen):
    return spectral_report(cooling_gen)


def zero_generator(n: int) -> Superoperator:
    return Superoperator(dim=n, matrix=np.zeros((n * n, n * n)))


def simple_spectrum_generator() -> Superoperator:
    return superoperator_from_real(np.diag(np.arange(0.0, -9.0, -1.0)))


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

    def test_cluster_closed_under_conjugation_has_real_svds(self, monkeypatch):
        seen = []
        rank = strobe_tomo.operator_algebra.rank

        def spy(m, *args):
            seen.append(m.dtype)
            return rank(m, *args)

        monkeypatch.setattr(strobe_tomo.operator_algebra, "rank", spy)
        # the general route: a closed model's own report decides no rank
        clusters = eigen_structure(hamiltonian_only_generator(4, seed=304).hermitian_form)
        assert max(c.geometric_multiplicity for c in clusters) == 4
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
        gen = superoperator_from_real(real_jordan_matrix(9, [(-1.0, length), (-2.5, 1), (-2.5, 1)], seed))
        rep = spectral_report(gen)
        clusters = {round(c.value.real, 6): c for c in rep.distinct_eigenvalues}
        chain, double = clusters[-1.0], clusters[-2.5]
        assert (chain.algebraic_multiplicity, chain.geometric_multiplicity, chain.index) == (length, 1, length)
        assert (double.algebraic_multiplicity, double.geometric_multiplicity, double.index) == (2, 2, 1)
        assert len(rep.distinct_eigenvalues) == 2 + (9 - length - 2)
        assert rep.eta == 2
        assert rep.mu == 8
        assert len(rep.min_poly) == 9


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def xx_chain() -> np.ndarray:
    """The open 3-spin XX chain ``sum_i X_i X_i+1 + Y_i Y_i+1``: energies -2.83 (x2), 0 (x4), 2.83 (x2)."""
    x, y, one = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.eye(2)
    return sum(np.kron(np.kron(a, b), c) for a, b, c in
               [(x, x, one), (y, y, one), (one, x, x), (one, y, y)])


class TestClosedModels:
    """A closed model's report is read off the Bohr frequencies: the general route's answer, without its eigensolver."""

    @staticmethod
    def report_matching_general_route(model):
        gen = build_generator(model)
        report = spectral_report(gen)
        general = eigen_structure(gen.hermitian_form)
        assert [c[1:] for c in report.distinct_eigenvalues] == [c[1:] for c in general]
        assert np.abs(np.subtract([c.value for c in report.distinct_eigenvalues],
                                  [c.value for c in general])).max() <= 1e-10 * np.linalg.norm(gen.matrix)
        assert (report.eta, report.mu) == (max(c.geometric_multiplicity for c in general),
                                           sum(c.index for c in general))
        return report

    @pytest.mark.parametrize("seed", range(10))
    def test_integer_energies_in_a_random_basis(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = 2 + seed % 5
        energies = rng.integers(-2, 3, size=n)
        differences = Counter(int(a - b) for a in energies for b in energies)
        u = random_unitary(n, rng)
        ham = u @ np.diag(energies.astype(float)) @ u.conj().T
        report = self.report_matching_general_route(LindbladModel(dim=n, hamiltonian=ham))
        assert (report.eta, report.mu) == (max(differences.values()), len(differences))

    @pytest.mark.parametrize("ham, expected", [
        (np.zeros((4, 4)), (16, 1)),
        (np.diag(np.arange(16.0)), (16, 31)),
        (xx_chain(), (24, 5)),
    ], ids=["zero", "diag-0..15", "xx-chain"])
    def test_named_hamiltonians(self, ham, expected):
        report = self.report_matching_general_route(LindbladModel(dim=ham.shape[0], hamiltonian=ham))
        assert (report.eta, report.mu) == expected

    @pytest.mark.parametrize("jump", [(0.0, np.array([[0.0, 1.0], [0.0, 0.0]])), (2.0, np.zeros((2, 2)))],
                             ids=["rate-0", "zero-operator"])
    def test_silent_jumps_keep_a_model_closed(self, jump):
        model = LindbladModel(dim=2, hamiltonian=np.diag([0.0, 1.0]), jumps=(jump,))
        assert build_generator(model)._energies is not None
        report = self.report_matching_general_route(model)
        assert (report.eta, report.mu) == (2, 3)

    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), integer=st.booleans(),
           scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    def test_report_equals_the_general_route_on_the_formed_form(self, n, seed, integer, scale):
        rng = np.random.default_rng(seed)
        energies = rng.integers(-2, 3, size=n) if integer else rng.standard_normal(n)
        u = random_unitary(n, rng)
        ham = scale * (u @ np.diag(energies.astype(float)) @ u.conj().T)
        self.report_matching_general_route(LindbladModel(dim=n, hamiltonian=ham))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_forms_read_after_the_report_are_those_of_the_general_route(self, n):
        rng = np.random.default_rng(500 + n)
        silent = (0.0, rng.standard_normal((n, n)))
        model = LindbladModel(dim=n, hamiltonian=random_hermitian(n, rng), jumps=(silent,))
        gen = build_generator(model)
        spectral_report(gen)
        assert not {"matrix", "hermitian_form"} & vars(gen).keys()
        # the silent jump adds no term: the matrix is that of H alone
        assert gen.matrix.tobytes() == kron_generator(without_silent_jumps(model)).tobytes()
        assert gen.hermitian_form.tobytes() == _hermitian_form(gen.matrix, n).tobytes()
        assert gen.matrix is gen.matrix and gen.hermitian_form is gen.hermitian_form
        assert not (gen.matrix.flags.writeable or gen.hermitian_form.flags.writeable)

    @pytest.mark.parametrize("levels", [64, 3], ids=["random", "three-levels"])
    def test_64_level_report_forms_no_generator(self, levels):
        # the generator matrix of 64 levels takes 268 MB and its hermitian form 134 MB;
        # the report needs the 4096 Bohr frequencies and their grouping
        rng = np.random.default_rng(64)
        energies = rng.standard_normal(64) if levels == 64 else np.arange(64) % 3
        u = random_unitary(64, rng)
        model = LindbladModel(dim=64, hamiltonian=u @ np.diag(energies.astype(float)) @ u.conj().T)
        tracemalloc.start()
        try:
            gen = build_generator(model)
            report = spectral_report(gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000
        assert not {"matrix", "hermitian_form"} & vars(gen).keys()
        if levels == 3:
            assert (report.eta, report.mu) == (22**2 + 2 * 21**2, 5)
        else:
            assert report.eta == 64

    def test_closed_model_runs_no_eigensolver_and_no_rank(self, spy):
        values, ranks = spy("operator_algebra", "eigenvalues"), spy("operator_algebra", "rank")
        report = spectral_report(build_generator(LindbladModel(dim=6, hamiltonian=np.diag(np.arange(6.0) % 3))))
        assert (report.eta, report.mu) == (12, 5)
        assert (len(values), len(ranks)) == (0, 0)

    @pytest.mark.parametrize("rate", [1e-300, 5e-324])
    def test_any_active_jump_takes_the_general_route(self, spy, rate):
        values, ranks = spy("operator_algebra", "eigenvalues"), spy("operator_algebra", "rank")
        model = LindbladModel(dim=3, hamiltonian=np.diag([0.0, 1.0, 1.0]),
                              jumps=((rate, np.outer(np.eye(3)[0], np.eye(3)[1])),))
        assert getattr(build_generator(model), "_energies", None) is None
        spectral_report(build_generator(model))
        assert len(values) == 1 and len(ranks) > 0

    def test_hand_made_generator_takes_the_general_route(self, spy):
        values = spy("operator_algebra", "eigenvalues")
        closed = build_generator(LindbladModel(dim=3, hamiltonian=np.diag([0.0, 1.0, 1.0])))
        report = spectral_report(Superoperator(dim=3, matrix=closed.matrix))
        assert (report.eta, report.mu) == (5, 3)
        assert len(values) == 1


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


class TestUpFrontRejection:
    """A model whose generator cannot be built fails in every stage that needs it."""

    def test_model_whose_generator_overflows(self):
        # L^dag L has entries of 1e400: building the generator fails, with no warning
        model = LindbladModel(dim=2, jumps=((1.0, np.array([[0.0, 1e200], [0.0, 0.0]])),))
        observables = [np.diag([1.0, -1.0])]
        with pytest.raises(NumericalFailure, match=r"^the generator overflows the float range$"):
            simulate_measurements(model, np.eye(2) / 2, observables, [1.0])
        record = simulate_measurements(LindbladModel(dim=2), np.eye(2) / 2, observables, [1.0])
        with pytest.raises(NumericalFailure, match=r"^the generator overflows the float range$"):
            reconstruct(model, observables, record)


@pytest.fixture
def spy(monkeypatch):
    """``spy(module, name)`` counts the calls of a package function under every name bound to it.

    The function ``module.name`` is replaced wherever the package or one of
    its modules binds it; the returned list collects each call's arguments.
    """
    modules = [strobe_tomo] + [importlib.import_module(f"strobe_tomo.{name}")
                               for name in ("operator_algebra", "lindblad", "analysis", "tomography", "cli")]

    def install(module: str, name: str) -> list:
        calls = []
        original = getattr(importlib.import_module(f"strobe_tomo.{module}"), name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for bound in modules:
            if getattr(bound, name, None) is original:
                monkeypatch.setattr(bound, name, counting)
        return calls

    return install


@pytest.fixture
def form_calls(spy):
    """The arguments of every step from a generator's rows to its hermitian form, ``_form_of_rows``.

    A hand-made generator takes it through ``_hermitian_form``, a built one directly.
    """
    return spy("operator_algebra", "_form_of_rows")


class TestFormedOnce:
    """A generator forms its hermitian form once, when it is made, and every stage reads the stored one."""

    def test_report_and_verification(self, form_calls):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        report = spectral_report(gen)
        rng = np.random.default_rng(3)
        assert verify_observables(gen, [random_hermitian(3, rng) for _ in range(report.eta)]).ok
        assert len(form_calls) == 1

    def test_exhausted_search(self, form_calls):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(SearchExhausted, match="in 3 attempts"):
            find_observables(gen, ToleranceConfig(rank_rtol=0.5), seed=0, max_attempts=3)
        assert len(form_calls) == 1


class TestOnePlanPerModel:
    """A model builds its generator once, and a generator analyses its spectrum once per tolerance."""

    def test_library_loop_builds_and_analyses_once(self, spy, form_calls):
        builds = spy("lindblad", "build_generator")
        structures = spy("operator_algebra", "eigen_structure")
        model = laser_cooling_model(1.0, 2.0)
        rho0 = random_density(3, np.random.default_rng(5))
        # the README library loop, through the package's names as a user calls them
        gen = strobe_tomo.build_generator(model)
        report = strobe_tomo.spectral_report(gen)
        observables = strobe_tomo.find_observables(gen, seed=3)
        grid = strobe_tomo.default_time_grid(report)
        record = strobe_tomo.simulate_measurements(model, rho0, observables, grid, noise_sigma=1e-9, seed=1)
        result = strobe_tomo.reconstruct(model, observables, record, truth=rho0)
        assert result.frobenius_error < 1e-6
        assert (len(builds), len(form_calls), len(structures)) == (1, 1, 1)

    def test_library_loop_on_a_dissipative_model_forms_no_full_matrix(self, spy):
        # the build assembles the rows jk (j <= k) of the 9 x 9 matrix, and no stage reads matrix
        assembled = spy("lindblad", "_assembled")
        model = laser_cooling_model(1.0, 2.0)
        rho0 = random_density(3, np.random.default_rng(5))
        gen = strobe_tomo.build_generator(model)
        report = strobe_tomo.spectral_report(gen)
        observables = strobe_tomo.find_observables(gen, seed=3)
        grid = strobe_tomo.default_time_grid(report)
        record = strobe_tomo.simulate_measurements(model, rho0, observables, grid, noise_sigma=1e-9, seed=1)
        assert strobe_tomo.reconstruct(model, observables, record, truth=rho0).frobenius_error < 1e-6
        assert [args[2].size for args in assembled] == [3 * 4 // 2]
        assert "matrix" not in vars(gen)

    def test_model_returns_its_one_generator(self):
        model = laser_cooling_model(1.0, 2.0)
        assert build_generator(model) is build_generator(model)
        assert build_generator(model) is not build_generator(laser_cooling_model(1.0, 2.0))

    def test_each_tolerance_gets_its_own_structure(self, spy):
        structures = spy("operator_algebra", "eigen_structure")
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        first = spectral_report(gen)
        again = spectral_report(gen, ToleranceConfig())
        assert again is not first and again.distinct_eigenvalues is first.distinct_eigenvalues
        loose = ToleranceConfig(rank_rtol=0.5)
        with pytest.raises(SearchExhausted):
            find_observables(gen, loose, max_attempts=1)
        clusters = spectral_report(gen, loose).distinct_eigenvalues
        assert len(structures) == 2
        assert clusters == eigen_structure(gen.hermitian_form, loose)

    def test_overflowing_model_fails_on_every_call(self):
        model = LindbladModel(dim=2, jumps=((1.0, np.array([[0.0, 1e200], [0.0, 0.0]])),))
        for _ in range(3):
            with pytest.raises(NumericalFailure, match=r"^the generator overflows the float range$"):
                build_generator(model)
        with pytest.raises(NumericalFailure, match=r"^the generator overflows the float range$"):
            simulate_measurements(model, np.eye(2) / 2, [np.diag([1.0, -1.0])], [1.0])


class TestObservableListCheck:
    """A list of observables is checked in one pass; the first failing observable is named with its first failing test."""

    FAILING = {
        "wrong-shape": (np.eye(2), "has shape (2, 2), expected (3, 3)"),
        "non-square": (np.ones((3, 2)), "must be square, got shape (3, 2)"),
        "one-dimensional": (np.ones(3), "must be 2-D, got shape (3,)"),
        "non-hermitian": (np.triu(np.ones((3, 3))), "is not hermitian (max |A - A^dag| = 1.000e+00)"),
        "nan": (np.diag([np.nan, 0.0, 0.0]), "is not hermitian (max |A - A^dag| = nan)"),
    }
    # each failing kind once first, behind 0, 1 or 2 valid observables, the others after it
    ORDERS = [(lead, kinds[k:] + kinds[:k]) for kinds in [list(FAILING)] for k in range(len(kinds)) for lead in (0, 1, 2)]

    @pytest.mark.parametrize("lead, kinds", ORDERS)
    def test_first_failing_observable_named(self, cooling_gen, lead, kinds):
        valid = [np.diag([1.0, 0.0, -1.0]), np.eye(3)][:lead]
        observables = valid + [self.FAILING[kind][0] for kind in kinds]
        message = f"observables[{lead}] {self.FAILING[kinds[0]][1]}"
        with pytest.raises(ValidationError) as verified:
            verify_observables(cooling_gen, observables)
        with pytest.raises(ValidationError) as simulated:
            simulate_measurements(laser_cooling_model(1.0, 2.0), np.eye(3) / 3, observables, [1.0])
        assert str(verified.value) == str(simulated.value) == message

    @pytest.mark.parametrize("observables, kind", [(None, "NoneType"), (5, "int")], ids=["none", "int"])
    def test_non_iterable_rejected(self, cooling_gen, observables, kind):
        model = laser_cooling_model(1.0, 2.0)
        record = simulate_measurements(model, np.eye(3) / 3, [np.eye(3)], [1.0])
        calls = [
            lambda: verify_observables(cooling_gen, observables),
            lambda: simulate_measurements(model, np.eye(3) / 3, observables, [1.0]),
            lambda: reconstruct(model, observables, record),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=f"^observables must be a sequence of matrices, got {kind}$"):
                call()

    def test_generator_checked_like_a_list(self, cooling_gen):
        # a one-shot iterable is read once, so a failing one is still named
        observables = (q for q in [np.eye(3), np.eye(2)])
        with pytest.raises(ValidationError, match=r"^observables\[1\] has shape \(2, 2\), expected \(3, 3\)$"):
            verify_observables(cooling_gen, observables)

    def test_valid_list_gives_coordinate_rows(self, cooling_gen):
        rng = np.random.default_rng(8)
        observables = [random_hermitian(3, rng) for _ in range(4)]
        basis = gell_mann_basis(3)
        rows = _observable_coordinates(observables, cooling_gen)
        assert rows.shape == (4, 9) and not rows.flags.writeable
        expected = [[np.trace(b @ q).real for b in basis] for q in observables]
        assert np.abs(rows - expected).max() <= 1e-14

    # whole lists that fail the batched check; every stage names the first bad observable
    LISTS = {
        "non-hermitian": ([np.eye(3), np.triu(np.ones((3, 3)))],
                          r"observables\[1\] is not hermitian \(max \|A - A\^dag\| = 1\.000e\+00\)"),
        "wrong-shape": ([np.eye(2), np.eye(2)], r"observables\[0\] has shape \(2, 2\), expected \(3, 3\)"),
        "mixed-shapes": ([np.eye(3), np.eye(2)], r"observables\[1\] has shape \(2, 2\), expected \(3, 3\)"),
        "empty": ([], r"observable set must contain at least one observable"),
        "ragged": ([np.eye(3), [[1, 0, 0], [0, 1], [0, 0, 1]]],
                   r"observables\[1\] is not convertible to a complex matrix: .*inhomogeneous"),
    }

    @pytest.mark.parametrize("kind", list(LISTS))
    def test_failing_list_named_by_every_stage(self, kind):
        observables, message = self.LISTS[kind]
        model = laser_cooling_model(1.0, 2.0)
        gen = build_generator(model)
        record = simulate_measurements(model, np.eye(3) / 3, [np.eye(3)], [1.0])
        calls = [
            lambda: verify_observables(gen, observables),
            lambda: simulate_measurements(model, np.eye(3) / 3, observables, [1.0]),
            lambda: reconstruct(model, observables, record),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=f"^{message}"):
                call()


class TestObservablesMappedOnce:
    """A generator keeps the coordinate rows of the last observable set it mapped, keyed by the set's values."""

    @pytest.fixture
    def mapped(self, monkeypatch):
        calls = []
        original = strobe_tomo.analysis._coordinates

        def counted(stack):
            calls.append(stack.shape)
            return original(stack)

        monkeypatch.setattr(strobe_tomo.analysis, "_coordinates", counted)
        return calls

    def test_one_set_mapped_once_across_the_loop(self, mapped):
        model = laser_cooling_model(1.0, 2.0)
        gen = build_generator(model)
        rng = np.random.default_rng(12)
        rho0 = random_density(3, rng)
        observables = [random_hermitian(3, rng) for _ in range(4)]
        assert verify_observables(gen, observables).ok
        # an equal copy, as nested lists, is the same set
        record = simulate_measurements(model, rho0, [q.tolist() for q in observables], np.arange(1, 4) / 3)
        result = reconstruct(model, observables, record, truth=rho0)
        assert result.frobenius_error < 1e-9
        assert mapped == [(4, 3, 3)]

    def test_set_edited_in_place_is_checked_again(self, mapped):
        model = laser_cooling_model(1.0, 2.0)
        rng = np.random.default_rng(13)
        rho0 = random_density(3, rng)
        observables = np.stack([random_hermitian(3, rng) for _ in range(4)])
        record = simulate_measurements(model, rho0, observables, np.arange(1, 4) / 3)
        observables[1, 0, 2] += 1.0
        with pytest.raises(ValidationError, match=r"^observables\[1\] is not hermitian"):
            reconstruct(model, observables, record)
        # a hermitian edit is mapped afresh, so the reconstruction sees the new set
        observables[1, 2, 0] += 1.0
        assert reconstruct(model, observables, record, truth=rho0).frobenius_error > 1e-3
        assert mapped == [(4, 3, 3)] * 2

    def test_search_computes_the_norm_once(self, monkeypatch):
        norms = []
        original = np.linalg.norm

        def counted(x, ord=None, *args, **kwargs):
            if ord == 2:
                norms.append(x.shape)
            return original(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counted)
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(SearchExhausted, match="in 4 attempts"):
            find_observables(gen, ToleranceConfig(rank_rtol=0.5), seed=0, max_attempts=4)
        assert norms == [(9, 9)]
        assert gen._norm_2 == original(gen.hermitian_form.T, 2)


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
        basis = gell_mann_basis(3)
        rows = []
        for q in observables:
            for element in krylov_subspace(cooling_gen, q, 3):
                rows.append([np.vdot(b, element).real for b in basis])
        assert span_rank(np.array(rows)) == 9


def _model_of_kind(kind: str, n: int, rng: np.random.Generator) -> LindbladModel:
    """A dissipative model (1-2 complex Gaussian jumps), a closed one, or the zero generator's model."""
    if kind == "zero":
        return LindbladModel(dim=n)
    ham = random_hermitian(n, rng)
    if kind == "closed":
        return LindbladModel(dim=n, hamiltonian=ham)
    jumps = tuple((float(rng.uniform(0.1, 1.5)), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                  for _ in range(int(rng.integers(1, 3))))
    return LindbladModel(dim=n, hamiltonian=ham, jumps=jumps)


def _outcome(call):
    """The observables' bytes a search returns, or its error's type, message and best rank."""
    try:
        return [q.tobytes() for q in call()]
    except SearchExhausted as exc:
        return type(exc), str(exc), exc.attempts, exc.best_rank


class TestSameDecisionsAsTheReferenceLoops:
    """The Arnoldi steps and the batched draws decide as the loops written with a helper per step and a draw per observable."""

    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["dissipative", "closed", "zero"]),
           kind_of_set=st.sampled_from(["eta-1", "eta", "eta+1", "duplicated", "identity", "zero",
                                        "identity-first", "zero-first"]))
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    def test_verify_matches_the_reference(self, n, seed, kind, kind_of_set):
        rng = np.random.default_rng(seed)
        gen = build_generator(_model_of_kind(kind, n, rng))
        eta = spectral_report(gen).eta
        count = {"eta-1": max(eta - 1, 1), "eta+1": eta + 1}.get(kind_of_set, eta)
        observables = [random_hermitian(n, rng) for _ in range(count)]
        if kind_of_set == "duplicated":
            observables.insert(1, observables[0].copy())
        elif kind_of_set in ("identity", "zero"):
            observables = [np.eye(n) if kind_of_set == "identity" else np.zeros((n, n))]
        elif kind_of_set.endswith("-first"):
            observables.insert(0, np.eye(n) if kind_of_set == "identity-first" else np.zeros((n, n)))
        result = verify_observables(gen, observables)
        assert (type(result.ok), type(result.achieved_rank)) == (bool, int)
        assert tuple(result) == verify_by_orthogonalize(gen, observables)

    @given(eta=st.integers(1, 4), model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 50))
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    def test_search_draws_the_reference_observables(self, eta, model_seed, seed):
        # a closed model on eta levels has eta = its dimension; a dissipative one, generically 1
        rng = np.random.default_rng(model_seed)
        gen = build_generator(_model_of_kind("closed", eta, rng) if eta > 1 or model_seed % 2
                              else _model_of_kind("dissipative", int(rng.integers(2, 4)), rng))
        assert spectral_report(gen).eta == eta
        found = find_observables(gen, seed=seed)
        assert isinstance(found, list) and all(q.shape == (gen.dim, gen.dim) for q in found)
        assert _outcome(lambda: found) == _outcome(lambda: find_by_single_draws(gen, seed=seed))

    @pytest.mark.parametrize("seed", range(51))
    def test_laser_cooling_search_draws_the_reference_observables(self, cooling_gen, seed):
        assert _outcome(lambda: find_observables(cooling_gen, seed=seed)) == \
            _outcome(lambda: find_by_single_draws(cooling_gen, seed=seed))

    @given(n=st.integers(3, 4), model_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 50),
           max_attempts=st.integers(1, 3), rank_rtol=st.sampled_from([0.2, 0.5]))
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    def test_exhausted_search_matches_the_reference(self, n, model_seed, seed, max_attempts, rank_rtol):
        # a rank threshold this large leaves a 3- or 4-level generator deficient: no set reaches n^2 directions
        gen = build_generator(_model_of_kind("dissipative", n, np.random.default_rng(model_seed)))
        tol = ToleranceConfig(rank_rtol=rank_rtol)
        outcome = _outcome(lambda: find_observables(gen, tol, seed=seed, max_attempts=max_attempts))
        assert outcome[0] is SearchExhausted and outcome[2] == max_attempts
        assert outcome == _outcome(lambda: find_by_single_draws(gen, tol, seed=seed, max_attempts=max_attempts))

    @pytest.mark.parametrize("n, count", [(1, 1), (3, 4), (5, 1), (4, 2), (6, 3)])
    def test_batched_draw_is_the_single_draws(self, n, count):
        # the same bytes, and the generator left in the same state
        batched, single = np.random.default_rng(n), np.random.default_rng(n)
        stack = strobe_tomo.operator_algebra._random_hermitians(n, count, batched)
        expected = [hermitian_of_one_draw(n, single) for _ in range(count)]
        assert stack.shape == (count, n, n)
        assert [q.tobytes() for q in stack] == [q.tobytes() for q in expected]
        assert batched.bit_generator.state == single.bit_generator.state
        assert random_hermitian(n, batched).tobytes() == hermitian_of_one_draw(n, single).tobytes()
