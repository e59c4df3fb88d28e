import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from strobe_tomo import (
    laser_cooling_model,
    matrix_to_json,
    model_from_json,
    model_to_json,
    read_record_csv,
)
import strobe_tomo
from strobe_tomo.cli import main

from helpers import random_density, random_model


@pytest.fixture()
def cooling_files(tmp_path):
    """Model, state and verified-observables files for the 3-level system."""
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_json(laser_cooling_model(1.0, 2.0))))

    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(matrix_to_json(random_density(3, np.random.default_rng(0)))))

    obs_path = tmp_path / "obs.json"
    code = main(["find-observables", str(model_path), "--seed", "3", "--out", str(obs_path)])
    assert code == 0
    return {"model": model_path, "state": state_path, "obs": obs_path, "dir": tmp_path}


class TestAnalyze:
    def test_gamma_shortcut_text(self, capsys):
        assert main(["analyze", "--gamma1", "1", "--gamma2", "2"]) == 0
        out = capsys.readouterr().out
        assert "eta  (minimal distinct observables)   : 4" in out
        assert "mu   (instants bound per observable)  : 3" in out
        assert "measurement budget eta*mu             : 12" in out
        assert "static tomography observable count    : 8" in out

    def test_large_rates_keep_the_monic_coefficient(self, capsys):
        assert main(["analyze", "--gamma1", "1e5", "--gamma2", "2e5"]) == 0
        out = capsys.readouterr().out
        assert "minimal polynomial (ascending, monic) : [0, 45000000000, 450000, 1]" in out

    def test_json_document(self, capsys):
        assert main(["analyze", "--gamma1", "1", "--gamma2", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        analysis = doc["analysis"]
        assert analysis["eta"] == 4
        assert analysis["mu"] == 3
        assert analysis["measurement_budget"] == 12
        assert analysis["static_observable_count"] == 8
        multiplicities = {
            round(c["re"], 9): (c["algebraic_multiplicity"], c["geometric_multiplicity"])
            for c in analysis["distinct_eigenvalues"]
        }
        assert multiplicities == {0.0: (4, 4), -1.5: (4, 4), -3.0: (1, 1)}
        coeffs = [c["re"] for c in analysis["min_poly"]]
        assert coeffs == pytest.approx([0.0, 4.5, 4.5, 1.0], rel=1e-9)

    def test_document_is_self_contained(self, capsys):
        # the echoed model must reproduce the same analysis when re-run
        assert main(["analyze", "--gamma1", "0.5", "--gamma2", "0.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        model = model_from_json(doc["model"])
        assert doc["tolerances"]["rank_rtol"] == 1e-9
        assert doc["tolerances"]["eig_cluster_rtol"] == 1e-8
        rerun = model_to_json(model)
        assert rerun == doc["model"]

    def test_zero_model_file(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"dim": 3, "jumps": []}))
        assert main(["analyze", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analysis"]["eta"] == 9
        assert doc["analysis"]["mu"] == 1

    def test_malformed_file_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "jumps": [{"matrix": [[0]]}]}))
        assert main(["analyze", str(path)]) == 2
        assert "jumps[0]" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_requires_model_or_gammas(self, capsys):
        assert main(["analyze"]) == 2
        assert main(["analyze", "--gamma1", "1"]) == 2

    def test_rejects_model_and_gammas_together(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_json(laser_cooling_model(1.0, 2.0))))
        assert main(["analyze", str(path), "--gamma1", "1", "--gamma2", "2"]) == 2

    def test_negative_rate_rejected(self, capsys):
        assert main(["analyze", "--gamma1", "-1", "--gamma2", "2"]) == 2

    @pytest.mark.parametrize("field", ["rate", "entry"])
    def test_non_finite_model_file_exit_two(self, tmp_path, capsys, field):
        # Python's json reads the NaN literal, so such files do reach the package
        doc = model_to_json(laser_cooling_model(1.0, 2.0))
        if field == "rate":
            doc["jumps"][0]["rate"] = float("nan")
        else:
            doc["jumps"][1]["matrix"][2][1] = {"re": float("inf"), "im": 0.0}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        assert main(["analyze", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_min_poly_written_as_null(self, tmp_path, capsys):
        # nine simple eigenvalues of size ~1e40: the degree-9 coefficients pass 1e308
        model = random_model(3, np.random.default_rng(1))
        doc = model_to_json(model)
        doc["hamiltonian"] = matrix_to_json(model.hamiltonian * 1e40)
        for jump in doc["jumps"]:
            jump["rate"] *= 1e40
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path), "--json"]) == 0
        out = capsys.readouterr().out

        def reject(constant):
            raise ValueError(constant)

        analysis = json.loads(out, parse_constant=reject)["analysis"]
        assert analysis["mu"] == 9
        assert None in [c["re"] for c in analysis["min_poly"]]
        assert analysis["min_poly"][-1] == {"re": 1.0, "im": 0.0}

    def test_norm_overflow_exit_three(self, tmp_path, capsys):
        # finite entries of 2e200 overflow |L|_F; the answer was eta = 9, mu = 1, not 4 and 3
        doc = model_to_json(laser_cooling_model(1.0, 2.0))
        doc["jumps"][1]["rate"] = 2e200
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with np.errstate(over="ignore"):
            assert main(["analyze", str(path), "--json"]) == 3
        assert "overflows" in capsys.readouterr().err

    def test_overflow_reports_one_error_line(self, tmp_path, capsys):
        doc = model_to_json(laser_cooling_model(1.0, 2.0))
        doc["jumps"][0]["rate"] = 1e200
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", str(path)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [
            "error: matrix norm overflows the float range"
        ]

    @pytest.mark.parametrize("dim", [10**12, 65])
    def test_dimension_past_the_cap_exit_two(self, tmp_path, capsys, dim):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dim": dim, "jumps": []}))
        assert main(["analyze", str(path)]) == 2
        assert f"dim must be at most 64, got {dim}" in capsys.readouterr().err

    def test_json_reports_index(self, capsys):
        assert main(["analyze", "--gamma1", "1", "--gamma2", "2", "--json"]) == 0
        analysis = json.loads(capsys.readouterr().out)["analysis"]
        assert [c["index"] for c in analysis["distinct_eigenvalues"]] == [1, 1, 1]


class TestFindObservables:
    def test_deterministic_file_bytes(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_json(laser_cooling_model(1.0, 2.0))))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["find-observables", str(model_path), "--seed", "7", "--out", str(out1)]) == 0
        assert main(["find-observables", str(model_path), "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "spanning rank 9/9" in capsys.readouterr().out

    def test_file_holds_four_hermitian_matrices(self, cooling_files):
        doc = json.loads(cooling_files["obs"].read_text())
        assert isinstance(doc, list) and len(doc) == 4
        for mat in doc:
            arr = np.array([[e["re"] + 1j * e["im"] for e in row] for row in mat])
            assert np.abs(arr - arr.conj().T).max() <= 1e-14

    def test_zero_qubit_model(self, tmp_path, capsys):
        model_path = tmp_path / "zero2.json"
        model_path.write_text(json.dumps({"dim": 2, "jumps": []}))
        out = tmp_path / "obs.json"
        assert main(["find-observables", str(model_path), "--seed", "1", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 4

    def test_exhaustion_exit_code(self, tmp_path, monkeypatch, capsys):
        # a rank threshold of half the largest singular value keeps every
        # candidate set far from spanning, so the search genuinely runs out
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_json(laser_cooling_model(1.0, 2.0))))
        monkeypatch.setenv("STROBE_TOMO_TOLERANCE", "0.5")
        code = main(["find-observables", str(model_path), "--max-attempts", "3",
                     "--out", str(tmp_path / "obs.json")])
        assert code == 4
        assert "3 attempts" in capsys.readouterr().err

    @pytest.mark.parametrize("attempts", ["0", "-2"])
    def test_max_attempts_below_one_exit_two(self, tmp_path, capsys, attempts):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_json(laser_cooling_model(1.0, 2.0))))
        code = main(["find-observables", str(model_path), f"--max-attempts={attempts}",
                     "--out", str(tmp_path / "obs.json")])
        assert code == 2
        assert "--max-attempts" in capsys.readouterr().err

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_json(laser_cooling_model(1.0, 2.0))))
        code = main(["find-observables", str(model_path),
                     "--out", str(tmp_path / "missing" / "obs.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write")


class TestSimulate:
    def test_identity_rows_read_one(self, cooling_files, tmp_path, capsys):
        obs_path = tmp_path / "ident.json"
        obs_path.write_text(json.dumps([matrix_to_json(np.eye(3))]))
        out = tmp_path / "rec.csv"
        assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                     str(obs_path), "--out", str(out)]) == 0
        record = read_record_csv(out)
        assert np.allclose(record.entries[:, 2], 1.0, rtol=0.0, atol=1e-12)

    def test_excited_projector_value(self, cooling_files, tmp_path):
        proj = np.diag([0.0, 1.0, 0.0])
        state_path = tmp_path / "excited.json"
        state_path.write_text(json.dumps(matrix_to_json(proj)))
        obs_path = tmp_path / "proj.json"
        obs_path.write_text(json.dumps([matrix_to_json(proj)]))
        out = tmp_path / "rec.csv"
        assert main(["simulate", str(cooling_files["model"]), str(state_path),
                     str(obs_path), "--out", str(out)]) == 0
        record = read_record_csv(out)
        _index, time, value, _sigma = record.entries[0]
        assert time == pytest.approx(1 / 3)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_bad_sigma_exit_two(self, cooling_files, tmp_path, capsys, sigma):
        out = tmp_path / "rec.csv"
        assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                     str(cooling_files["obs"]), f"--sigma={sigma}", "--out", str(out)]) == 2
        assert "--sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exit_two(self, cooling_files, tmp_path, capsys):
        assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                     str(cooling_files["obs"]),
                     "--out", str(tmp_path / "missing" / "rec.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write")

    def test_missing_state_file(self, cooling_files, tmp_path, capsys):
        assert main(["simulate", str(cooling_files["model"]),
                     str(tmp_path / "nope.json"), str(cooling_files["obs"]),
                     "--out", str(tmp_path / "rec.csv")]) == 2

    def test_invalid_state_exit_five(self, cooling_files, tmp_path, capsys):
        state_path = tmp_path / "unnormalized.json"
        state_path.write_text(json.dumps(matrix_to_json(np.eye(3))))
        assert main(["simulate", str(cooling_files["model"]), str(state_path),
                     str(cooling_files["obs"]), "--out", str(tmp_path / "rec.csv")]) == 5
        assert "trace" in capsys.readouterr().err

    def test_deterministic_csv_bytes(self, cooling_files, tmp_path):
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        for out in (out1, out2):
            assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                         str(cooling_files["obs"]), "--sigma", "1e-3", "--seed", "21",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestReconstruct:
    def test_noiseless_pipeline(self, cooling_files, tmp_path, capsys):
        record_path = tmp_path / "rec.csv"
        assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                     str(cooling_files["obs"]), "--out", str(record_path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", str(cooling_files["model"]), str(cooling_files["obs"]),
                     str(record_path), "--truth", str(cooling_files["state"]), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["design_rank"] == 9
        assert doc["result"]["frobenius_error"] <= 1e-8
        assert doc["result"]["projected"] is True

    def test_text_output_reports_distances(self, cooling_files, tmp_path, capsys):
        record_path = tmp_path / "rec.csv"
        main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
              str(cooling_files["obs"]), "--out", str(record_path)])
        capsys.readouterr()
        assert main(["reconstruct", str(cooling_files["model"]), str(cooling_files["obs"]),
                     str(record_path), "--truth", str(cooling_files["state"])]) == 0
        out = capsys.readouterr().out
        assert "frobenius error" in out
        assert "trace distance" in out
        assert "design rank      : 9" in out

    def test_rank_deficiency_exit_six(self, cooling_files, tmp_path, capsys):
        # record from only the first three observables
        three = json.loads(cooling_files["obs"].read_text())[:3]
        obs3_path = tmp_path / "obs3.json"
        obs3_path.write_text(json.dumps(three))
        record_path = tmp_path / "rec3.csv"
        assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                     str(obs3_path), "--out", str(record_path)]) == 0
        code = main(["reconstruct", str(cooling_files["model"]), str(obs3_path),
                     str(record_path)])
        assert code == 6
        err = capsys.readouterr().err
        assert "rank" in err and "9" in err

    def test_calls_in_one_process_print_what_each_prints_alone(self, cooling_files, tmp_path,
                                                               capsys):
        record_path = tmp_path / "rec.csv"
        assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                     str(cooling_files["obs"]), "--sigma", "1e-4", "--out", str(record_path)]) == 0
        common = ["reconstruct", str(cooling_files["model"]), str(cooling_files["obs"]),
                  str(record_path), "--truth", str(cooling_files["state"])]
        calls = [common + ["--json"], common]
        # each call alone, in a fresh interpreter
        src = pathlib.Path(strobe_tomo.__file__).parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        alone = [subprocess.run([sys.executable, "-m", "strobe_tomo", *argv], env=env,
                                capture_output=True, text=True, check=True).stdout
                 for argv in calls]
        capsys.readouterr()
        together = []
        for argv in calls:
            assert main(argv) == 0
            together.append(capsys.readouterr().out)
        assert together == alone
        assert json.loads(together[0])["result"]["design_rank"] == 9
        assert "design rank      : 9" in together[1]

    def test_no_project_reports_raw(self, cooling_files, tmp_path, capsys):
        pure = np.zeros((3, 3))
        pure[0, 0] = 1.0
        state_path = tmp_path / "pure.json"
        state_path.write_text(json.dumps(matrix_to_json(pure)))
        record_path = tmp_path / "noisy.csv"
        assert main(["simulate", str(cooling_files["model"]), str(state_path),
                     str(cooling_files["obs"]), "--sigma", "1e-3", "--seed", "2",
                     "--out", str(record_path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", str(cooling_files["model"]), str(cooling_files["obs"]),
                     str(record_path), "--no-project", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["projected"] is False
        arr = np.array([[e["re"] + 1j * e["im"] for e in row]
                        for row in doc["result"]["rho_hat"]])
        assert np.linalg.eigvalsh((arr + arr.conj().T) / 2).min() < 0

    def test_one_level_model_exit_two(self, tmp_path, capsys):
        paths = {name: tmp_path / f"{name}.json" for name in ("model", "obs", "state")}
        paths["model"].write_text(json.dumps({"dim": 1, "hamiltonian": [[0.5]]}))
        paths["obs"].write_text(json.dumps([[[1.0]]]))
        paths["state"].write_text(json.dumps([[1.0]]))
        record_path = tmp_path / "rec.csv"
        assert main(["simulate", str(paths["model"]), str(paths["state"]), str(paths["obs"]),
                     "--out", str(record_path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", str(paths["model"]), str(paths["obs"]), str(record_path)]) == 2
        assert "dimension >= 2, got 1" in capsys.readouterr().err


class TestToleranceEnv:
    def test_override_propagates_to_document(self, monkeypatch, capsys):
        monkeypatch.setenv("STROBE_TOMO_TOLERANCE", "1e-6")
        assert main(["analyze", "--gamma1", "1", "--gamma2", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"]["rank_rtol"] == 1e-6

    @pytest.mark.parametrize("value", ["inf", "nan", "0"])
    def test_non_finite_or_zero_value_exit_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("STROBE_TOMO_TOLERANCE", value)
        assert main(["analyze", "--gamma1", "1", "--gamma2", "2", "--json"]) == 2
        assert "rank_rtol" in capsys.readouterr().err

    def test_invalid_value_exit_two(self, monkeypatch, capsys):
        monkeypatch.setenv("STROBE_TOMO_TOLERANCE", "not-a-number")
        assert main(["analyze", "--gamma1", "1", "--gamma2", "2"]) == 2
        assert "STROBE_TOMO_TOLERANCE" in capsys.readouterr().err


class TestArgparseBehaviour:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "strobe-tomo" in capsys.readouterr().out


@pytest.fixture()
def cooling_record(cooling_files):
    """A noiseless record of the cooling state under the verified observables."""
    path = cooling_files["dir"] / "record.csv"
    assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                 str(cooling_files["obs"]), "--out", str(path)]) == 0
    return path


def _reconstruct_args(cooling_files, record, *extra):
    return ["reconstruct", str(cooling_files["model"]), str(cooling_files["obs"]), str(record), *extra]


class TestInputBoundary:
    @pytest.mark.parametrize("command", ["find-observables", "simulate"])
    def test_negative_seed_exit_two(self, cooling_files, tmp_path, capsys, command):
        inputs = [str(cooling_files["model"])]
        if command == "simulate":
            inputs += [str(cooling_files["state"]), str(cooling_files["obs"]), "--sigma", "0"]
        out = tmp_path / "out"
        assert main([command, *inputs, "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["model", "state", "obs"])
    def test_non_utf8_json_exit_two(self, cooling_files, tmp_path, capsys, which):
        cooling_files[which].write_bytes(b'{"dim": 3, "jumps": [\xff\xfe]}')
        assert main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                     str(cooling_files["obs"]), "--out", str(tmp_path / "rec.csv")]) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
    @pytest.mark.parametrize("which", ["state", "obs", "truth"])
    def test_non_finite_matrix_entry_exit_two(self, cooling_files, cooling_record, tmp_path,
                                              capsys, which, value):
        # json reads Infinity and NaN; the number itself is the error, whatever the matrix
        doc = json.loads(cooling_files["obs" if which == "obs" else "state"].read_text())
        matrix = doc[1] if which == "obs" else doc
        matrix[0][1] = {"re": value, "im": 0.0}
        path = tmp_path / "truth.json" if which == "truth" else cooling_files[which]
        path.write_text(json.dumps(doc))
        if which == "truth":
            code = main(_reconstruct_args(cooling_files, cooling_record, "--truth", str(path)))
        else:
            code = main(["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                         str(cooling_files["obs"]), "--out", str(tmp_path / "rec.csv")])
        assert code == 2
        field = {"state": "state", "obs": "observables[1]", "truth": "truth"}[which]
        assert f"{field}[0][1].re: non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_non_hermitian_observable_exit_two(self, cooling_files, cooling_record, tmp_path,
                                               capsys, command):
        doc = json.loads(cooling_files["obs"].read_text())
        doc[1][0][1] = {"re": 5.0, "im": 0.0}
        cooling_files["obs"].write_text(json.dumps(doc))
        if command == "simulate":
            argv = ["simulate", str(cooling_files["model"]), str(cooling_files["state"]),
                    str(cooling_files["obs"]), "--out", str(tmp_path / "rec.csv")]
        else:
            argv = _reconstruct_args(cooling_files, cooling_record)
        assert main(argv) == 2
        assert "observables[1] is not hermitian" in capsys.readouterr().err

    def test_missing_record_exit_two(self, cooling_files, tmp_path, capsys):
        assert main(_reconstruct_args(cooling_files, tmp_path / "missing.csv")) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_record_exit_two(self, cooling_files, cooling_record, capsys):
        cooling_record.write_bytes(cooling_record.read_bytes() + b"0,1,\xff,0\n")
        assert main(_reconstruct_args(cooling_files, cooling_record)) == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_record_sigma_exit_two(self, cooling_files, cooling_record, capsys, sigma):
        lines = cooling_record.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + sigma
        cooling_record.write_text("\n".join(lines) + "\n")
        assert main(_reconstruct_args(cooling_files, cooling_record, "--json")) == 2
        err = capsys.readouterr().err
        assert "sigma must be finite" in err

    @pytest.mark.parametrize("truth", [np.eye(3), np.eye(2) / 2, np.diag([1.5, -0.5, 0.0])])
    def test_truth_breaking_invariants_exit_five(self, cooling_files, cooling_record, tmp_path,
                                                 capsys, truth):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(matrix_to_json(truth)))
        assert main(_reconstruct_args(cooling_files, cooling_record, "--truth", str(path))) == 5
        assert "truth" in capsys.readouterr().err

    def test_truth_not_json_exit_two(self, cooling_files, cooling_record, tmp_path, capsys):
        path = tmp_path / "truth.json"
        path.write_text("[[1, 0], [0")
        assert main(_reconstruct_args(cooling_files, cooling_record, "--truth", str(path))) == 2
        assert "not valid" in capsys.readouterr().err
