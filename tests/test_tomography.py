import math

import contextlib

import numpy as np
import pytest
import scipy.linalg

import strobe_tomo.lindblad as lindblad

from strobe_tomo import (
    LindbladModel,
    MeasurementRecord,
    RankDeficiencyError,
    Superoperator,
    ValidationError,
    build_generator,
    default_time_grid,
    evolve,
    find_observables,
    laser_cooling_model,
    random_hermitian,
    read_record_csv,
    reconstruct,
    simulate_measurements,
    spectral_report,
    state_distance,
    validate_time_grid,
    verify_observables,
    write_record_csv,
)

from helpers import gell_mann_basis, gell_mann_columns, random_density, random_model, superoperator_from_real


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
        gen = superoperator_from_real(np.diag([0.0, -0.5, -1.0, -2.0]))
        report = spectral_report(gen)
        assert report.mu == 4
        assert np.allclose(default_time_grid(report), [0.5, 1.0, 1.5, 2.0], atol=1e-12)

    @pytest.mark.parametrize("report", [None, "report", 3])
    def test_default_grid_needs_a_report(self, report):
        with pytest.raises(ValidationError, match=rf"^report must be a SpectralReport, got {type(report).__name__}$"):
            default_time_grid(report)

    def test_purely_imaginary_spectrum_falls_back_to_magnitude(self):
        gen = Superoperator(dim=2, matrix=np.diag([0.0, 2j, -2j, 0.0]))
        report = spectral_report(gen)
        assert report.mu == 3
        assert np.allclose(default_time_grid(report), [0.5, 1.0, 1.5], atol=1e-12)

    @pytest.mark.parametrize("bad", [[], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, np.inf]])
    def test_validate_rejects_bad_grids(self, bad):
        with pytest.raises(ValidationError):
            validate_time_grid(bad)

    @pytest.mark.parametrize("bad, detail", [
        ([1j], "got complex values"),
        (np.array([1.0 + 0j, 2.0]), "got complex values"),
        ([[1, 2], [3]], "inhomogeneous"),
        ([10**400], "int too large to convert to float"),
        (None, "got None"),
        (["0.5", "1"], "got text"),
        ("0.5", "got text"),
        ([b"0.5", b"1"], "got text"),
        ([0.5, "1"], "got text"),
        (np.array([0.5, "1"], dtype=object), "got text"),
        ([True], "got bools"),
        (np.array([True, False]), "got bools"),
        ([0.5, True], "got bools"),
        ([[0.5], [np.True_]], "got bools"),
        (np.array([0.5, True], dtype=object), "got bools"),
    ], ids=["complex", "complex-array", "ragged", "huge-integer", "none", "str-list", "str", "bytes",
            "mixed-list", "object-array", "bool", "bool-array", "mixed-bool-list", "nested-numpy-bool",
            "object-bool-array"])
    def test_non_real_input_rejected(self, bad, detail):
        with pytest.raises(ValidationError, match=f"^time grid must be an array of real instants: .*{detail}"):
            validate_time_grid(bad)
        with pytest.raises(ValidationError, match="^time grid must be an array of real instants"):
            simulate_measurements(laser_cooling_model(1.0, 2.0), np.eye(3) / 3, [np.eye(3)], bad)

    @pytest.mark.parametrize("grid", [[1, 2], (0.5,), 2.0, [np.float32(1.0), 2**70]])
    def test_real_input_accepted(self, grid):
        assert np.array_equal(validate_time_grid(grid), np.asarray(grid, dtype=float).reshape(-1))


class TestSimulate:
    def test_identity_observable_reads_one(self, cooling_model, cooling_grid):
        rho0 = random_density(3, np.random.default_rng(0))
        record = simulate_measurements(cooling_model, rho0, [np.eye(3)], cooling_grid)
        assert len(record.entries) == 3
        assert np.allclose(record.entries[:, 2], 1.0, rtol=0.0, atol=1e-12)

    def test_excited_population_decay(self, cooling_model, cooling_grid):
        # oracle: rho22(t) = exp(-(g1+g2) t) from the rate equations
        proj = np.diag([0.0, 1.0, 0.0])
        record = simulate_measurements(cooling_model, proj, [proj], cooling_grid)
        _index, time, value, _sigma = record.entries[0]
        assert time == pytest.approx(1 / 3)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_noisy_record_deterministic_for_seed(self, cooling_model, cooling_grid,
                                                 verified_observables):
        rho0 = random_density(3, np.random.default_rng(1))
        first = simulate_measurements(cooling_model, rho0, verified_observables,
                                      cooling_grid, noise_sigma=1e-3, seed=11)
        second = simulate_measurements(cooling_model, rho0, verified_observables,
                                       cooling_grid, noise_sigma=1e-3, seed=11)
        assert np.array_equal(first.entries, second.entries)

    def test_noise_changes_values(self, cooling_model, cooling_grid, verified_observables):
        rho0 = random_density(3, np.random.default_rng(1))
        clean = simulate_measurements(cooling_model, rho0, verified_observables, cooling_grid)
        noisy = simulate_measurements(cooling_model, rho0, verified_observables,
                                      cooling_grid, noise_sigma=1e-2, seed=5)
        deltas = np.abs(clean.entries[:, 2] - noisy.entries[:, 2])
        assert deltas.max() > 0
        assert np.all(noisy.entries[:, 3] == 1e-2)

    def test_entry_layout_is_observable_major(self, cooling_model, cooling_grid,
                                               verified_observables):
        rho0 = random_density(3, np.random.default_rng(2))
        record = simulate_measurements(cooling_model, rho0, verified_observables, cooling_grid)
        expected = [[i, t] for i in range(4) for t in cooling_grid]
        assert record.entries[:, :2].tolist() == expected

    def test_noise_is_one_draw_in_entry_order(self, cooling_model, cooling_grid,
                                              verified_observables):
        rho0 = random_density(3, np.random.default_rng(4))
        clean = simulate_measurements(cooling_model, rho0, verified_observables, cooling_grid)
        noisy = simulate_measurements(cooling_model, rho0, verified_observables,
                                      cooling_grid, noise_sigma=1e-3, seed=17)
        noise = np.random.default_rng(17).normal(0.0, 1e-3, len(clean.entries))
        assert np.array_equal(noisy.entries[:, 2], clean.entries[:, 2] + noise)

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


def _record_grid(grid: np.ndarray, path) -> np.ndarray:
    """``grid`` as read back from a record CSV file holding one entry per instant."""
    write_record_csv(MeasurementRecord(entries=[(0, t, 0.0, 0.0) for t in grid]), path)
    return np.unique(read_record_csv(path).entries[:, 1])


def _horizon(mat: np.ndarray) -> float:
    """Three slowest decay times of the generator, or 10 if nothing decays."""
    rates = np.abs(np.linalg.eigvals(mat).real)
    rates = rates[rates > 1e-9]
    return 3.0 / rates.min() if rates.size else 10.0


class TestLibraryArguments:
    """Seeds, attempt counts and noise levels follow the CLI's rules, as ValidationError."""

    @pytest.mark.parametrize("call, name", [
        (lambda gen, model: find_observables(gen, seed=-1), "seed"),
        (lambda gen, model: find_observables(gen, seed=1.5), "seed"),
        (lambda gen, model: find_observables(gen, seed=True), "seed"),
        (lambda gen, model: find_observables(gen, max_attempts=2.5), "max_attempts"),
        (lambda gen, model: find_observables(gen, max_attempts=0), "max_attempts"),
        (lambda gen, model: find_observables(gen, max_attempts=-3), "max_attempts"),
        (lambda gen, model: simulate_measurements(model, np.eye(3) / 3, [np.eye(3)], [1.0],
                                                  noise_sigma=0.1, seed=-1), "seed"),
        (lambda gen, model: simulate_measurements(model, np.eye(3) / 3, [np.eye(3)], [1.0],
                                                  seed=True), "seed"),
        (lambda gen, model: simulate_measurements(model, np.eye(3) / 3, [np.eye(3)], [1.0],
                                                  noise_sigma="0.1"), "noise_sigma"),
        (lambda gen, model: simulate_measurements(model, np.eye(3) / 3, [np.eye(3)], [1.0],
                                                  noise_sigma=True), "noise_sigma"),
    ], ids=["seed-negative", "seed-fractional", "seed-bool", "attempts-fractional", "attempts-zero",
            "attempts-negative", "simulate-seed-negative", "simulate-seed-bool", "sigma-string",
            "sigma-bool"])
    def test_rejected_with_the_argument_named(self, cooling_gen, cooling_model, call, name):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            call(cooling_gen, cooling_model)

    @pytest.mark.parametrize("call, name, kind, got", [
        (lambda gen, model, record: spectral_report(model), "gen", "Superoperator", "LindbladModel"),
        (lambda gen, model, record: verify_observables(model, [np.eye(3)]), "gen", "Superoperator",
         "LindbladModel"),
        (lambda gen, model, record: find_observables(model), "gen", "Superoperator", "LindbladModel"),
        (lambda gen, model, record: evolve(model, np.eye(3) / 3, 1.0), "gen", "Superoperator",
         "LindbladModel"),
        (lambda gen, model, record: simulate_measurements(gen, np.eye(3) / 3, [np.eye(3)], [1.0]),
         "model", "LindbladModel", "Superoperator"),
        (lambda gen, model, record: reconstruct(gen, [np.eye(3)], record), "model", "LindbladModel",
         "Superoperator"),
        (lambda gen, model, record: build_generator(gen), "model", "LindbladModel", "Superoperator"),
        (lambda gen, model, record: reconstruct(model, [np.eye(3)], record.entries), "record",
         "MeasurementRecord", "ndarray"),
    ], ids=["spectral-report", "verify", "find", "evolve", "simulate", "reconstruct-model", "build",
            "reconstruct-record"])
    def test_wrong_argument_type_is_named(self, cooling_gen, cooling_model, call, name, kind, got):
        record = simulate_measurements(cooling_model, np.eye(3) / 3, [np.eye(3)], [1.0])
        # a built generator reads as a Superoperator, whether its model is dissipative or closed
        closed_gen = build_generator(LindbladModel(dim=3, hamiltonian=np.diag([0.0, 1.0, 2.0])))
        for gen in (cooling_gen, closed_gen):
            with pytest.raises(ValidationError, match=f"^{name} must be a {kind}, got {got}$"):
                call(gen, cooling_model, record)

    @pytest.mark.parametrize("tol, kind", [(None, "NoneType"), (1e-9, "float")], ids=["none", "float"])
    def test_tolerances_must_be_a_config(self, cooling_gen, cooling_model, tol, kind):
        record = simulate_measurements(cooling_model, np.eye(3) / 3, [np.eye(3)], [1.0])
        calls = [
            lambda: spectral_report(cooling_gen, tol),
            lambda: find_observables(cooling_gen, tol),
            lambda: verify_observables(cooling_gen, [np.eye(3)], tol),
            lambda: reconstruct(cooling_model, [np.eye(3)], record, tol=tol),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=f"^tol must be a ToleranceConfig, got {kind}$"):
                call()


class TestRealDesign:
    """The design rows in real coordinates against the dense complex oracle of the Gell-Mann basis."""

    @staticmethod
    def _models():
        rng = np.random.default_rng(31)
        return [laser_cooling_model(1.0, 2.0)] + [random_model(n, rng) for n in range(2, 7)]

    @pytest.mark.parametrize("index", range(6), ids=["laser-cooling"] + [f"random-{n}" for n in range(2, 7)])
    def test_matches_dense_oracle(self, index, monkeypatch):
        model = self._models()[index]
        n = model.dim
        rng = np.random.default_rng(index)
        observables = [random_hermitian(n, rng) for _ in range(2)]
        grid = default_time_grid(spectral_report(build_generator(model)))
        record = simulate_measurements(model, random_density(n, rng), observables, grid)
        solved = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda a, *args, **kw: solved.append(a) or lstsq(a, *args, **kw))
        with contextlib.suppress(RankDeficiencyError):
            reconstruct(model, observables, record)
        # oracle: tr(Q_i expm(t L)[B_k]) for the traceless basis elements
        gen = build_generator(model).matrix
        basis = gell_mann_columns(n)[:, 1:]
        oracle = np.array([(observables[int(i)].reshape(-1).conj() @ scipy.linalg.expm(t * gen) @ basis).real
                           for i, t, _value, _sigma in record.entries])
        assert np.linalg.norm(solved[0] - oracle) <= 1e-13 * np.linalg.norm(oracle)

    def test_one_level_model_is_rejected(self):
        model = LindbladModel(dim=1, hamiltonian=np.array([[0.5]]))
        record = MeasurementRecord(entries=[(0, 1.0, 1.0, 0.0)])
        with pytest.raises(ValidationError, match="dimension >= 2, got 1"):
            reconstruct(model, [np.eye(1)], record)


class TestPropagation:
    """Doubling or stepping along the grid matches one exponential per instant."""

    @pytest.fixture(params=["laser"] + [f"random-{n}" for n in (3, 4, 5, 6)])
    def generator(self, request):
        if request.param == "laser":
            return build_generator(laser_cooling_model(1.0, 2.0))
        n = int(request.param.split("-")[1])
        return build_generator(random_model(n, np.random.default_rng(40 + n)))

    # "equispaced" has 16 instants; the other lengths lie on both sides of
    # powers of two, where the doubling ends with a partial product
    @pytest.mark.parametrize("kind", ["equispaced", "csv-256", "log"]
                             + [f"equispaced-{m}" for m in (1, 2, 3, 5, 100, 255, 257)])
    def test_matches_expm_per_instant(self, generator, kind, tmp_path):
        form = generator.hermitian_form
        a = _horizon(form)
        if kind.startswith("equispaced"):
            m = int(kind.split("-")[1]) if "-" in kind else 16
            grid = a * np.arange(1, m + 1) / m
        elif kind == "csv-256":
            grid = _record_grid(a * np.arange(1, 257) / 256, tmp_path / "record.csv")
        else:
            grid = np.geomspace(a / 1e3, a, 40)
        rng = np.random.default_rng(5)
        size = form.shape[0]
        # the state vector as simulate propagates it, and three dual rows as reconstruct does
        state = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        duals = rng.standard_normal((size, 3)) + 0j
        states = lindblad._propagated(generator, grid, state)
        rows = lindblad._propagated(generator, grid, duals, dual=True)
        for t, got_state, got_rows in zip(grid, states.swapaxes(0, 1), rows.swapaxes(0, 1)):
            for got, expected in ((got_state, scipy.linalg.expm(t * form) @ state),
                                  (got_rows, scipy.linalg.expm(t * form.T) @ duals)):
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_generator_keeps_the_last_step_only(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        first = gen._step(0.5)
        assert gen._step(0.5) is first
        second = gen._step(0.75)
        t, kept = gen._kept_step
        assert t == 0.75 and kept is second and not kept.flags.writeable
        assert np.abs(kept - scipy.linalg.expm(0.75 * gen.hermitian_form)).max() <= 1e-14
        assert gen._step(0.5) is not first

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []
        original = lindblad.expm

        def counted(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(lindblad, "expm", counted)
        return calls

    def _stages(self, grid, path, calls, rebuilt=False):
        """expm calls of simulate and of reconstruct on the record read back from CSV.

        With ``rebuilt`` the record is reconstructed on the model read back
        from its JSON document, as the CLI does.
        """
        model = laser_cooling_model(1.0, 2.0)
        observables = find_observables(build_generator(model), seed=3)
        rho0 = random_density(3, np.random.default_rng(9))
        record = simulate_measurements(model, rho0, observables, grid)
        simulated = len(calls)
        write_record_csv(record, path)
        if rebuilt:
            model = lindblad.model_from_json(lindblad.model_to_json(model))
        result = reconstruct(model, observables, read_record_csv(path), truth=rho0)
        assert result.frobenius_error < 1e-9
        return simulated, len(calls) - simulated

    @pytest.mark.parametrize("rebuilt, expected", [(False, (1, 0)), (True, (1, 1))], ids=["one-model", "rebuilt"])
    def test_equispaced_grid_costs_one_exponential_per_generator(self, expm_calls, tmp_path, rebuilt, expected):
        # 3 j / 240 differs from j * (3 / 240) in the last bit at 85 of the instants;
        # reconstruct steps by the transpose of the step simulate kept on the same generator
        grid = 3.0 * np.arange(1, 241) / 240
        assert self._stages(grid, tmp_path / "record.csv", expm_calls, rebuilt) == expected

    def test_other_grid_costs_at_most_one_exponential_per_gap(self, expm_calls, tmp_path):
        grid = np.geomspace(0.01, 3.0, 40)
        simulated, reconstructed = self._stages(grid, tmp_path / "record.csv", expm_calls)
        assert 1 < simulated <= grid.size and 1 < reconstructed <= grid.size


class TestRecordCsv:
    def test_roundtrip_is_exact(self, cooling_model, cooling_grid, verified_observables,
                                tmp_path):
        rho0 = random_density(3, np.random.default_rng(4))
        record = simulate_measurements(cooling_model, rho0, verified_observables,
                                       cooling_grid, noise_sigma=1e-4, seed=8)
        path = tmp_path / "record.csv"
        write_record_csv(record, path)
        back = read_record_csv(path)
        assert back.entries.tobytes() == record.entries.tobytes()

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
        # a text cell, and an index past the float range
        for row in ("0,abc,2,3", "1" + "0" * 400 + ",1,2,3"):
            path.write_text(f"observable_index,time,value,sigma\n{row}\n")
            with pytest.raises(ValidationError, match="line 2"):
                read_record_csv(path)

    @pytest.mark.parametrize("bad", ["0,1,x,0", "0,1,2", "0,1,2,3,4", "1.0,1,2,0", "0,1,2,0,",
                                     "0,x,2,0", "0,1e,2,0", "0,1,2,x"])
    def test_error_names_the_line_after_valid_rows(self, tmp_path, bad):
        # a bad cell, a ragged row, or a float literal in the index column
        # on line 5, after three valid rows and a blank line: the bulk parse
        # fails and the line-by-line reader names the line
        path = tmp_path / "bad.csv"
        path.write_text("observable_index,time,value,sigma\n0,1,0.5,0\n\n1,1,0.25,0\n"
                        f"{bad}\n0,2,0.5,0\n")
        with pytest.raises(ValidationError, match="line 5: "):
            read_record_csv(path)

    @pytest.mark.parametrize("bad, message", [("x,1,2,0", "invalid literal"), ("0,1,2", "expected 4 fields")])
    def test_error_names_the_physical_line(self, tmp_path, bad, message):
        # the quoted time of line 2 ends on line 3, so the bad row is on line 4
        path = tmp_path / "bad.csv"
        path.write_text(f'observable_index,time,value,sigma\n0,"1.5\n",2,0\n{bad}\n')
        with pytest.raises(ValidationError, match=f"line 4: {message}"):
            read_record_csv(path)

    def test_spellings_of_one_instant_read_as_one_value(self, tmp_path):
        path = tmp_path / "record.csv"
        path.write_text("observable_index,time,value,sigma\n"
                        "0,0.5,1,0.5\n1,5e-1,2,5e-1\n0,1,3,0.5\n1,1.0,4,5e-1\n")
        record = read_record_csv(path)
        assert record.entries.tolist() == [[0, 0.5, 1, 0.5], [1, 0.5, 2, 0.5], [0, 1, 3, 0.5],
                                           [1, 1, 4, 0.5]]
        assert np.unique(record.entries[:, 1]).tolist() == [0.5, 1.0]

    def test_cells_read_as_int_and_float_read_them(self, tmp_path):
        path = tmp_path / "record.csv"
        rows = [" 1 ,1.5e0, -2 ,0", "+0,1_5e-1,.25,1E-3", "00,\t3\t,1_0,5."]
        path.write_text("observable_index,time,value,sigma\n" + "\n".join(rows) + "\n")
        expected = [[int(r[0]), *map(float, r[1:])] for r in (row.split(",") for row in rows)]
        assert read_record_csv(path).entries.tolist() == expected

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
        degenerate = MeasurementRecord(entries=entries)
        with pytest.raises(RankDeficiencyError):
            reconstruct(cooling_model, verified_observables, degenerate)

    def test_entry_order_does_not_matter(self, cooling_model, cooling_grid, verified_observables):
        truth = random_density(3, np.random.default_rng(14))
        record = simulate_measurements(cooling_model, truth, verified_observables,
                                       cooling_grid, noise_sigma=1e-3, seed=3)
        order = np.random.default_rng(15).permutation(len(record.entries))
        shuffled = MeasurementRecord(entries=tuple(record.entries[i] for i in order))
        a = reconstruct(cooling_model, verified_observables, record, project=False)
        b = reconstruct(cooling_model, verified_observables, shuffled, project=False)
        assert np.abs(a.rho_hat - b.rho_hat).max() <= 1e-12

    def test_record_must_hold_as_many_observables_as_given(self, cooling_model, cooling_grid,
                                                           verified_observables):
        record = simulate_measurements(cooling_model, np.eye(3) / 3, verified_observables[:3], cooling_grid)
        with pytest.raises(ValidationError, match=r"^record holds 3 observables, got 4$"):
            reconstruct(cooling_model, verified_observables, record)

    def test_rejects_out_of_range_index(self, cooling_model):
        # index 2 makes a record of 3 observables
        record = MeasurementRecord(entries=((0, 1.0, 0.5, 0.0), (2, 1.0, 0.5, 0.0)))
        with pytest.raises(ValidationError, match=r"^record holds 3 observables, got 2$"):
            reconstruct(cooling_model, [np.eye(3), np.eye(3)], record)

    def test_empty_record_rank_deficient(self, cooling_model, verified_observables):
        empty = MeasurementRecord(entries=())
        assert empty.entries.shape == (0, 4)
        with pytest.raises(RankDeficiencyError) as excinfo:
            reconstruct(cooling_model, verified_observables, empty)
        assert excinfo.value.achieved_rank == 1

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

    @pytest.mark.parametrize("truth", [np.eye(1), np.eye(2) / 2])
    def test_truth_of_another_dimension_rejected(self, cooling_model, cooling_grid,
                                                 verified_observables, truth):
        # a 1 x 1 truth used to broadcast into a wrong distance, a 2 x 2 one to crash
        record = simulate_measurements(cooling_model, np.eye(3) / 3, verified_observables,
                                       cooling_grid)
        with pytest.raises(ValidationError, match="truth has shape"):
            reconstruct(cooling_model, verified_observables, record, truth=truth)

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
        basis = gell_mann_basis(3)[1:]
        gen = build_generator(cooling_model)
        rows = [[np.trace(verified_observables[int(index)].conj().T
                          @ (scipy.linalg.expm(time * gen.matrix) @ b.reshape(-1)).reshape(3, 3)).real
                 for b in basis]
                for index, time, _value, _sigma in record.entries]
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
    @pytest.mark.parametrize("index", [0.5, -1, math.inf, math.nan])
    def test_rejects_index_that_is_not_a_non_negative_integer(self, index):
        with pytest.raises(ValidationError,
                           match=rf"^entries\[0\]: observable index must be a non-negative integer, got {index}$"):
            MeasurementRecord(entries=((index, 1.0, 0.5, 0.0),))

    @pytest.mark.parametrize("time", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_time_that_is_not_finite_and_positive(self, time):
        with pytest.raises(ValidationError, match=rf"^entries\[0\]: time must be finite and > 0, got {time}$"):
            MeasurementRecord(entries=((0, time, 0.5, 0.0),))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValidationError, match="sigma"):
            MeasurementRecord(entries=((0, 1.0, 0.5, -0.1),))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValidationError, match="sigma must be finite"):
            MeasurementRecord(entries=((0, 1.0, 0.5, sigma),))

    #: per test in check order: the column, a value that fails it, and the message it raises
    FAILURES = (
        (0, -1, "observable index must be a non-negative integer, got -1"),
        (2, math.nan, "non-finite value nan"),
        (3, -0.1, r"sigma must be finite and >= 0, got -0\.1"),
        (1, 0.0, r"time must be finite and > 0, got 0\.0"),
    )

    @staticmethod
    def _replaced(entry: tuple, changes) -> tuple:
        row = list(entry)
        for column, bad, _ in changes:
            row[column] = bad
        return tuple(row)

    @pytest.mark.parametrize("test", range(4))
    def test_first_bad_entry_and_first_failed_test_are_named(self, test):
        good = (1, 1.0, 0.5, 0.0)
        # entries[2] fails this test and every later one; entries[4] fails another test
        first = self._replaced(good, self.FAILURES[test:])
        other = self._replaced(good, [self.FAILURES[(test + 1) % 4]])
        entries = (good, good, first, good, other, good)
        message = self.FAILURES[test][2]
        with pytest.raises(ValidationError, match=rf"^entries\[2\]: {message}$"):
            MeasurementRecord(entries=entries)

    @pytest.mark.parametrize("entries", [
        ((0, 1.0, 0.5),),
        ((0, 1.0, 0.5),) * 4,
        (("a", 1.0, 0.5, 0.0),),
        ((0, 1.0, (0.5, 0.25), 0.0),),
        (((0,), (1.0,), (0.5,), (0.0,)),),
        ((10**400, 1.0, 0.5, 0.0),),
        (("0", "1.0", "0.5", "0"),),
        (np.array([("0", "1.0", "0.5", "0")]),),
        ((True, 1.0, 0.5, 0.0),),
    ], ids=["3-tuple", "four 3-tuples", "text cell", "ragged nested cell", "nested cells",
            "index past the float range", "text row", "text array", "bool index"])
    def test_rejects_entries_that_are_not_rows_of_four_numbers(self, entries):
        with pytest.raises(ValidationError, match=r"^entries must be rows of 4 finite numbers"):
            MeasurementRecord(entries=entries)

    def test_entries_are_a_read_only_copy(self):
        source = np.array([(0, 1.0, 0.5, 0.0), (1, 2.0, 0.25, 0.1)])
        record = MeasurementRecord(entries=source)
        from_tuples = MeasurementRecord(entries=[(0, 1.0, 0.5, 0.0), (1, 2.0, 0.25, 0.1)])
        assert record.entries.dtype == float and record.entries.shape == (2, 4)
        assert np.array_equal(record.entries, from_tuples.entries)
        with pytest.raises(ValueError):
            record.entries[0, 2] = 9.0
        source[0, 2] = 9.0
        assert record.entries[0, 2] == 0.5


class TestIdentityEquality:
    """The dataclasses that hold arrays compare and hash by identity."""

    @staticmethod
    def _pipeline(observables, grid) -> dict:
        model = laser_cooling_model(1.0, 2.0)
        gen = build_generator(model)
        record = simulate_measurements(model, np.eye(3) / 3, observables, grid)
        return {"model": model, "generator": gen, "report": spectral_report(gen),
                "record": record, "result": reconstruct(model, observables, record)}

    @pytest.mark.parametrize("name", ["model", "generator", "report", "record", "result"])
    def test_compares_and_hashes_by_identity(self, name, verified_observables, cooling_grid):
        first = self._pipeline(verified_observables, cooling_grid)[name]
        twin = self._pipeline(verified_observables, cooling_grid)[name]
        assert first == first and first != twin
        assert hash(first) == hash(first) and len({first, twin}) == 2
