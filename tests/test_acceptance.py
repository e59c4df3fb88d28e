"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
under plain ``pytest -v`` the per-test PASSED/FAILED column carries the same
information.
"""

import time

import numpy as np
import pytest

from strobe_tomo import (
    build_generator,
    default_time_grid,
    eigenvalues,
    find_observables,
    krylov_subspace,
    laser_cooling_model,
    minimal_polynomial,
    random_hermitian,
    rank,
    reconstruct,
    simulate_measurements,
    spectral_report,
    verify_observables,
)

from helpers import laser_cooling_populations, random_density, random_model

POSITIVE_RATE_PAIRS = [(1.0, 2.0), (0.5, 0.5), (2.0, 3.0), (0.1, 5.0), (3.0, 0.7)]


class _report:
    """Prints '[PASS] ...' or '[FAIL] ...' for one acceptance criterion."""

    def __init__(self, label: str):
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] acceptance {self.label}")
        return False


def golden_generator(g1: float, g2: float) -> np.ndarray:
    out = np.zeros((9, 9), dtype=complex)
    out[0, 4] = g1
    out[8, 4] = g2
    out[4, 4] = -(g1 + g2)
    for i in (1, 3, 5, 7):
        out[i, i] = -0.5 * (g1 + g2)
    return out


@pytest.fixture(scope="module")
def cooling_gen():
    return build_generator(laser_cooling_model(1.0, 2.0))


@pytest.fixture(scope="module")
def cooling_setup(cooling_gen):
    model = laser_cooling_model(1.0, 2.0)
    report = spectral_report(cooling_gen)
    grid = default_time_grid(report)
    observables = find_observables(cooling_gen, seed=3)
    assert verify_observables(cooling_gen, observables).ok
    return model, grid, observables


def test_criterion_1_generator_golden_matrix():
    with _report("1: generator equals the golden 9x9 matrix, < 1 ms per build"):
        for g1, g2 in [(1.0, 2.0), (0.5, 0.5), (3.0, 0.0)]:
            build_generator(laser_cooling_model(g1, g2))  # warm-up
            best = np.inf
            for _ in range(5):
                start = time.perf_counter()
                gen = build_generator(laser_cooling_model(g1, g2))
                best = min(best, time.perf_counter() - start)
            assert np.array_equal(gen.matrix, golden_generator(g1, g2)), (g1, g2)
            assert best < 1e-3, f"build took {best * 1e3:.3f} ms for {(g1, g2)}"


def test_criterion_2_spectrum(cooling_gen):
    with _report("2: eigenvalue multiset {0 x4, -1.5 x4, -3} within 1e-10"):
        computed = np.sort(eigenvalues(cooling_gen.matrix).real)
        expected = np.sort(np.array([0, 0, 0, 0, -1.5, -1.5, -1.5, -1.5, -3.0]))
        assert np.abs(computed - expected).max() <= 1e-10
        assert np.abs(eigenvalues(cooling_gen.matrix).imag).max() <= 1e-10


def test_criterion_3_index_of_cyclicity():
    with _report("3: eta = 4 and dim Ker(L) = 4 for all tested positive rate pairs"):
        for g1, g2 in POSITIVE_RATE_PAIRS:
            gen = build_generator(laser_cooling_model(g1, g2))
            assert gen.matrix.shape[1] - rank(gen.matrix) == 4, (g1, g2)
            assert spectral_report(gen).eta == 4, (g1, g2)


def test_criterion_4_minimal_polynomial():
    with _report("4: minimal polynomial (0, s^2/2, 3s/2, 1) to 1e-9 relative"):
        for g1, g2 in POSITIVE_RATE_PAIRS:
            s = g1 + g2
            coeffs = minimal_polynomial(build_generator(laser_cooling_model(g1, g2)).matrix)
            assert len(coeffs) == 4, (g1, g2)
            assert coeffs[0] == 0, (g1, g2)
            assert abs(coeffs[1] - 0.5 * s * s) <= 1e-9 * (0.5 * s * s), (g1, g2)
            assert abs(coeffs[2] - 1.5 * s) <= 1e-9 * (1.5 * s), (g1, g2)
            assert abs(coeffs[3] - 1.0) <= 1e-9, (g1, g2)


def test_criterion_5_measurement_budget(cooling_gen):
    with _report("5: measurement budget (4, 3, 12) and static count 8"):
        report = spectral_report(cooling_gen)
        assert (report.eta, report.mu, report.measurement_budget) == (4, 3, 12)
        assert report.static_observable_count == 8


def test_criterion_6_minimality_of_eta(cooling_gen):
    with _report("6: 3 observables never verify over 1000 draws; "
                 "4 observables pass >= 95/100; < 30 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260810)
        for _ in range(1000):
            ok, _ = verify_observables(cooling_gen, [random_hermitian(3, rng) for _ in range(3)])
            assert not ok
        passes = 0
        for _ in range(100):
            ok, _ = verify_observables(cooling_gen, [random_hermitian(3, rng) for _ in range(4)])
            passes += int(ok)
        elapsed = time.perf_counter() - start
        assert passes >= 95, f"only {passes}/100 four-observable sets verified"
        assert elapsed < 30.0, f"minimality sweep took {elapsed:.1f} s"


def test_criterion_7_end_to_end_roundtrip(cooling_setup):
    with _report("7: noiseless roundtrip <= 1e-8 over 100 states; noisy medians "
                 "monotone with sigma and <= 1e-1 at sigma=1e-3; < 60 s"):
        model, grid, observables = cooling_setup
        start = time.perf_counter()

        rng = np.random.default_rng(555)
        worst = 0.0
        for _ in range(100):
            truth = random_density(3, rng)
            record = simulate_measurements(model, truth, observables, grid)
            result = reconstruct(model, observables, record, truth=truth)
            worst = max(worst, result.frobenius_error)
        assert worst <= 1e-8, f"worst noiseless error {worst:.3e}"

        medians = []
        for level, sigma in enumerate((1e-4, 1e-3, 1e-2)):
            errors = []
            for trial in range(50):
                truth = random_density(3, rng)
                record = simulate_measurements(model, truth, observables, grid,
                                               noise_sigma=sigma,
                                               seed=1000 * level + trial)
                result = reconstruct(model, observables, record, truth=truth)
                errors.append(result.frobenius_error)
            medians.append(float(np.median(errors)))
        assert medians[1] <= 1e-1, f"median error {medians[1]:.3e} at sigma=1e-3"
        assert medians[0] < medians[1] < medians[2], f"medians not monotone: {medians}"

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"roundtrip sweep took {elapsed:.1f} s"


def test_criterion_8_physics_property_suite():
    with _report("8: trace/positivity/semigroup/dual-hermiticity over 500 draws, N in {2,3,4}"):
        from strobe_tomo import evolve

        rng = np.random.default_rng(8080)
        for draw in range(500):
            n = 2 + draw % 3
            model = random_model(n, rng)
            gen = build_generator(model)
            rho0 = random_density(n, rng)
            t1, t2 = rng.uniform(0.05, 1.5, size=2)

            stepwise = evolve(gen, evolve(gen, rho0, t1), t2)
            direct = evolve(gen, rho0, t1 + t2)
            for state in (stepwise, direct):
                assert abs(np.trace(state) - 1.0) <= 1e-10
                assert np.linalg.eigvalsh((state + state.conj().T) / 2).min() >= -1e-8
            assert np.abs(stepwise - direct).max() <= 1e-9

            observable = random_hermitian(n, rng)
            for element in krylov_subspace(gen, observable, 3):
                assert np.abs(element - element.conj().T).max() <= 1e-10


def test_criterion_9_closed_form_evolution():
    with _report("9: rho22 = exp(-st) and rho11 = (g1/s)(1 - exp(-st)) within 1e-10"):
        from strobe_tomo import evolve

        g1, g2 = 1.0, 2.0
        gen = build_generator(laser_cooling_model(g1, g2))
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        for t in np.linspace(0.05, 2.0, 20):
            state = evolve(gen, rho0, float(t))
            expected = laser_cooling_populations(g1, g2, float(t))
            assert abs(state[1, 1] - expected[1, 1]) <= 1e-10
            assert abs(state[0, 0] - expected[0, 0]) <= 1e-10
            assert np.abs(state - expected).max() <= 1e-10
