import math

import numpy as np
import pytest

from strobe_tomo import (
    Measurement,
    MeasurementRecord,
    RankDeficiencyError,
    Superoperator,
    ValidationError,
    build_generator,
    default_time_grid,
    find_observables,
    hermitian_basis,
    laser_cooling_model,
    propagator,
    read_record_csv,
    reconstruct,
    simulate_measurements,
    spectral_report,
    state_distance,
    unvec,
    validate_time_grid,
    vec,
    verify_observables,
    write_record_csv,
)

from helpers import random_density, random_model


@pytest.fixture(scope="module")
def cooling_model():
    return laser_cooling_model(1.0, 2.0)


@pytest.fixture(scope="module")
def cooling_gen(cooling_model):
    return build_generator(cooling_model)


@pytest.fixture(scope="module")
def cooling_report(cooling_gen):
    return spectral_report(cooling_gen)


@pytest.fixture(scope="module")
def cooling_grid(cooling_report):
    return default_time_grid(cooling_report)


@pytest.fixture(scope="module")
def verified_observables(cooling_gen):
    return find_observables(cooling_gen, seed=3)


class TestTimeGrid:
    def test_laser_cooling_default(self, cooling_grid):
        assert np.allclose(cooling_grid, [1 / 3, 2 / 3, 1.0], rtol=0, atol=1e-12)

    def test_zero_generator_fallback(self):
        report = spectral_report(Superoperator(dim=3, matrix=np.zeros((9, 9))))
        assert report.mu == 1
        assert np.array_equal(default_time_grid(report), [1.0])

    def test_simple_spectrum_spacing(self):
        gen = Superoperator(dim=2, matrix=np.diag([0.0, -0.5, -1.0, -2.0]))
        report = spectral_report(gen)
        assert report.mu == 4
        assert np.allclose(default_time_grid(report), [0.5, 1.0, 1.5, 2.0], atol=1e-12)

    def test_purely_imaginary_spectrum_falls_back_to_magnitude(self):
        gen = Superoperator(dim=2, matrix=np.diag([0.0, 2j, -2j, 0.0]))
        report = spectral_report(gen)
        assert report.mu == 3
        assert np.allclose(default_time_grid(report), [0.5, 1.0, 1.5], atol=1e-12)

    @pytest.mark.parametrize("bad", [[], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, np.inf]])
    def test_validate_rejects_bad_grids(self, bad):
        with pytest.raises(ValidationError):
            validate_time_grid(bad)


class TestSimulate:
    def test_identity_observable_reads_one(self, cooling_model, cooling_grid):
        rho0 = random_density(3, np.random.default_rng(0))
        record = simulate_measurements(cooling_model, rho0, [np.eye(3)], cooling_grid)
        assert len(record.entries) == 3
        for entry in record.entries:
            assert entry.value == pytest.approx(1.0, abs=1e-12)

    def test_excited_population_decay(self, cooling_model, cooling_grid):
        # oracle: rho22(t) = exp(-(g1+g2) t) from the rate equations
        proj = np.diag([0.0, 1.0, 0.0])
        record = simulate_measurements(cooling_model, proj, [proj], cooling_grid)
        first = record.entries[0]
        assert first.time == pytest.approx(1 / 3)
        assert first.value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_noisy_record_deterministic_for_seed(self, cooling_model, cooling_grid,
                                                 verified_observables):
        rho0 = random_density(3, np.random.default_rng(1))
        first = simulate_measurements(cooling_model, rho0, verified_observables,
                                      cooling_grid, noise_sigma=1e-3, seed=11)
        second = simulate_measurements(cooling_model, rho0, verified_observables,
                                       cooling_grid, noise_sigma=1e-3, seed=11)
        assert first.entries == second.entries
        assert np.array_equal(first.grid, second.grid)

    def test_noise_changes_values(self, cooling_model, cooling_grid, verified_observables):
        rho0 = random_density(3, np.random.default_rng(1))
        clean = simulate_measurements(cooling_model, rho0, verified_observables, cooling_grid)
        noisy = simulate_measurements(cooling_model, rho0, verified_observables,
                                      cooling_grid, noise_sigma=1e-2, seed=5)
        deltas = [abs(a.value - b.value) for a, b in zip(clean.entries, noisy.entries)]
        assert max(deltas) > 0
        assert all(entry.sigma == 1e-2 for entry in noisy.entries)

    def test_entry_layout_is_observable_major(self, cooling_model, cooling_grid,
                                               verified_observables):
        rho0 = random_density(3, np.random.default_rng(2))
        record = simulate_measurements(cooling_model, rho0, verified_observables, cooling_grid)
        expected = [(i, t) for i in range(4) for t in cooling_grid]
        assert [(e.observable_index, e.time) for e in record.entries] == expected

    def test_rejects_bad_inputs(self, cooling_model, cooling_grid):
        rho0 = random_density(3, np.random.default_rng(3))
        with pytest.raises(ValidationError):
            simulate_measurements(cooling_model, rho0, [], cooling_grid)
        with pytest.raises(ValidationError, match="hermitian"):
            simulate_measurements(cooling_model, rho0, [np.array([[0, 1], [0, 0]])], cooling_grid)
        for sigma in (-1, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="sigma"):
                simulate_measurements(cooling_model, rho0, [np.eye(3)], cooling_grid,
                                      noise_sigma=sigma)
        with pytest.raises(ValidationError, match="trace"):
            simulate_measurements(cooling_model, np.eye(3), [np.eye(3)], cooling_grid)
        with pytest.raises(ValidationError, match="shape"):
            simulate_measurements(cooling_model, rho0, [np.eye(2)], cooling_grid)


class TestRecordCsv:
    def test_roundtrip_is_exact(self, cooling_model, cooling_grid, verified_observables,
                                tmp_path):
        rho0 = random_density(3, np.random.default_rng(4))
        record = simulate_measurements(cooling_model, rho0, verified_observables,
                                       cooling_grid, noise_sigma=1e-4, seed=8)
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        back = read_record_csv(path)
        assert back.entries == record.entries
        assert back.observable_count == record.observable_count
        assert np.array_equal(back.grid, record.grid)

    def test_header_is_documented_format(self, cooling_model, cooling_grid, tmp_path):
        rho0 = random_density(3, np.random.default_rng(4))
        record = simulate_measurements(cooling_model, rho0, [np.eye(3)], cooling_grid)
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        first = path.read_text().splitlines()[0]
        assert first == "observable_index,time,value,sigma"

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,1,2,3\n")
        with pytest.raises(ValidationError, match="header"):
            read_record_csv(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("observable_index,time,value,sigma\n0,abc,2,3\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_record_csv(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("observable_index,time,value,sigma\n")
        with pytest.raises(ValidationError, match="no measurement rows"):
            read_record_csv(path)

    def test_rejects_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"observable_index,time,value,sigma\n0,1,\xff\xfe,0\n")
        with pytest.raises(ValidationError, match="UTF-8"):
            read_record_csv(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            read_record_csv(tmp_path / "missing.csv")


class TestReconstruct:
    def test_noiseless_roundtrip(self, cooling_model, cooling_grid, verified_observables):
        rng = np.random.default_rng(42)
        for _ in range(10):
            truth = random_density(3, rng)
            record = simulate_measurements(cooling_model, truth, verified_observables,
                                           cooling_grid)
            result = reconstruct(cooling_model, verified_observables, record, truth=truth)
            assert result.frobenius_error <= 1e-8
            assert result.design_rank == 9

    def test_three_observables_rank_deficient(self, cooling_model, cooling_grid,
                                              verified_observables):
        truth = random_density(3, np.random.default_rng(6))
        record = simulate_measurements(cooling_model, truth, verified_observables[:3],
                                       cooling_grid)
        with pytest.raises(RankDeficiencyError) as excinfo:
            reconstruct(cooling_model, verified_observables[:3], record)
        assert excinfo.value.achieved_rank < 9
        assert excinfo.value.required_rank == 9

    def test_degenerate_grid_rank_deficient(self, cooling_model, verified_observables):
        # every observable measured repeatedly at one instant: duplicated rows
        truth = random_density(3, np.random.default_rng(7))
        single = simulate_measurements(cooling_model, truth, verified_observables,
                                       np.array([0.5]))
        entries = tuple(single.entries) * 3
        degenerate = MeasurementRecord(entries=entries, observable_count=4,
                                       grid=np.array([0.5]))
        with pytest.raises(RankDeficiencyError):
            reconstruct(cooling_model, verified_observables, degenerate)

    def test_projection_safety(self, cooling_model, cooling_grid, verified_observables):
        rng = np.random.default_rng(13)
        for sigma in (1e-3, 1e-2):
            truth = random_density(3, rng)
            record = simulate_measurements(cooling_model, truth, verified_observables,
                                           cooling_grid, noise_sigma=sigma,
                                           seed=int(rng.integers(1 << 31)))
            result = reconstruct(cooling_model, verified_observables, record)
            rho = result.rho_hat
            assert np.abs(rho - rho.conj().T).max() <= 1e-14
            assert abs(np.trace(rho).real - 1.0) <= 1e-13
            assert np.linalg.eigvalsh(rho).min() >= -1e-13

    def test_no_project_keeps_raw_estimate(self, cooling_model, cooling_grid,
                                           verified_observables):
        # pure-state truth plus noise pushes the raw estimate slightly
        # outside the physical set; without projection that is reported
        truth = np.zeros((3, 3), dtype=complex)
        truth[0, 0] = 1.0
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid, noise_sigma=1e-3, seed=2)
        raw = reconstruct(cooling_model, verified_observables, record, project=False)
        projected = reconstruct(cooling_model, verified_observables, record, project=True)
        assert np.linalg.eigvalsh(raw.rho_hat).min() < 0
        assert np.linalg.eigvalsh(projected.rho_hat).min() >= -1e-13

    def test_projection_skippable_matches_for_clean_data(self, cooling_model, cooling_grid,
                                                         verified_observables):
        truth = random_density(3, np.random.default_rng(8))
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid)
        raw = reconstruct(cooling_model, verified_observables, record, project=False)
        projected = reconstruct(cooling_model, verified_observables, record)
        assert np.abs(raw.rho_hat - projected.rho_hat).max() <= 1e-9

    def test_deterministic(self, cooling_model, cooling_grid, verified_observables):
        truth = random_density(3, np.random.default_rng(9))
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid, noise_sigma=1e-3, seed=4)
        a = reconstruct(cooling_model, verified_observables, record, truth=truth)
        b = reconstruct(cooling_model, verified_observables, record, truth=truth)
        assert np.array_equal(a.rho_hat, b.rho_hat)
        assert a.residual_norm == b.residual_norm
        assert a.design_condition == b.design_condition
        assert a.frobenius_error == b.frobenius_error

    def test_count_mismatch_rejected(self, cooling_model, cooling_grid, verified_observables):
        truth = random_density(3, np.random.default_rng(10))
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid)
        with pytest.raises(ValidationError, match="observables"):
            reconstruct(cooling_model, verified_observables[:2], record)

    def test_dimension_mismatch_rejected(self, cooling_model, cooling_grid,
                                         verified_observables):
        truth = random_density(3, np.random.default_rng(11))
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid)
        with pytest.raises(ValidationError, match="shape"):
            reconstruct(cooling_model, [np.eye(2)] * 4, record)

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_random_model_reconstructs_its_truth(self, seed):
        # a verified single observable on a random 3-level model: the design
        # is ill-conditioned (about 1e7) but of full rank, and the exact
        # trace constraint must not turn that into a rank deficiency
        rng = np.random.default_rng(seed)
        model = random_model(3, rng)
        gen = build_generator(model)
        observables = find_observables(gen, seed=0)
        assert verify_observables(gen, observables).ok
        truth = random_density(3, rng)
        record = simulate_measurements(model, truth, observables,
                                       default_time_grid(spectral_report(gen)))
        result = reconstruct(model, observables, record, truth=truth)
        assert result.design_rank == 9
        assert result.design_condition > 1e5
        assert result.frobenius_error <= 1e-6

    def test_design_condition_is_the_datas_own(self, cooling_model, cooling_grid,
                                               verified_observables):
        truth = random_density(3, np.random.default_rng(12))
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid)
        result = reconstruct(cooling_model, verified_observables, record)
        # oracle: singular values of the traceless design columns, by explicit traces
        basis = hermitian_basis(3)[1:]
        gen = build_generator(cooling_model)
        rows = [[np.trace(verified_observables[e.observable_index].conj().T
                          @ unvec(propagator(gen, e.time) @ vec(b), 3)).real for b in basis]
                for e in record.entries]
        sigma = np.linalg.svd(np.array(rows), compute_uv=False)
        assert result.design_condition == pytest.approx(sigma[0] / sigma[-1], rel=1e-6)

    def test_condition_number_reported(self, cooling_model, cooling_grid,
                                       verified_observables):
        truth = random_density(3, np.random.default_rng(12))
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid)
        result = reconstruct(cooling_model, verified_observables, record)
        assert result.design_condition >= 1.0
        assert np.isfinite(result.design_condition)
        assert result.residual_norm >= 0.0
        assert result.frobenius_error is None


class TestStateDistance:
    def test_zero_for_equal_states(self):
        rho = random_density(3, np.random.default_rng(1))
        assert state_distance(rho, rho) == (0.0, 0.0)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0, 0.0])
        b = np.diag([0.0, 1.0, 0.0])
        frobenius, trace_dist = state_distance(a, b)
        assert frobenius == pytest.approx(math.sqrt(2.0))
        assert trace_dist == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_consistency_sweep(self, n):
        # oracle: trace distance recomputed from the eigenvalues directly
        rng = np.random.default_rng(n * 13)
        for _ in range(25):
            a = random_density(n, rng)
            b = random_density(n, rng)
            frobenius, trace_dist = state_distance(a, b)
            eigs = np.linalg.eigvalsh(a - b)
            assert trace_dist == pytest.approx(0.5 * np.abs(eigs).sum(), abs=1e-12)
            assert trace_dist <= frobenius * math.sqrt(n) / 2 + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            state_distance(np.eye(2) / 2, np.eye(3) / 3)


class TestMeasurementRecordValidation:
    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValidationError, match="out of range"):
            MeasurementRecord(entries=(Measurement(2, 1.0, 0.5, 0.0),),
                              observable_count=2, grid=np.array([1.0]))

    def test_rejects_time_off_grid(self):
        with pytest.raises(ValidationError, match="grid"):
            MeasurementRecord(entries=(Measurement(0, 2.0, 0.5, 0.0),),
                              observable_count=1, grid=np.array([1.0]))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValidationError, match="sigma"):
            MeasurementRecord(entries=(Measurement(0, 1.0, 0.5, -0.1),),
                              observable_count=1, grid=np.array([1.0]))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValidationError, match="sigma must be finite"):
            MeasurementRecord(entries=(Measurement(0, 1.0, 0.5, sigma),),
                              observable_count=1, grid=np.array([1.0]))
