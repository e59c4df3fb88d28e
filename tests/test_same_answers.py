"""The comparison of ``tools/same_answers.py``: which ``rho_hat`` gaps it lists, and what it prints."""

import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "same_answers.py"


@pytest.fixture(scope="module")
def same_answers():
    # the script pins BLAS to one thread in os.environ when it loads; keep that out of the suite
    with mock.patch.dict(os.environ):
        spec = importlib.util.spec_from_file_location("same_answers", SCRIPT)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def entry(round_: int, rho: np.ndarray, condition: float) -> dict:
    return {"workload": "long-record", "seed": 1, "class": "dissipative-6", "round": round_,
            "eta": 1, "mu": 3, "causes": [], "design_rank": 35, "design_condition": condition,
            "rho_hat": [rho.real.tolist(), rho.imag.tolist()]}


def shifted(rho: np.ndarray, gap: float) -> np.ndarray:
    """``rho`` with its first entry moved by ``gap``, so the Frobenius distance is ``gap``."""
    out = rho.copy()
    out[0, 0] += gap
    return out


#: the gaps flagged under the old allowance (1e-12 below condition 1e4): 1.07e-12 to
#: 2.46e-12, at these conditions; each is tried with the largest gap
FLAGGED_CONDITIONS = [7636.0, 3807.0, 7358.0, 8354.0, 3894.0]


class TestRhoAllowance:
    @pytest.mark.parametrize("condition, allowed", [(1.0, 1e-12), (100.0, 1e-12), (1e3, 1e-11),
                                                    (1e4, 1e-10), (1e6, 1e-8)])
    def test_allowance_grows_with_the_condition_without_a_jump(self, same_answers, condition, allowed):
        rho = np.eye(2) / 2
        distance, allowance = same_answers.rho_gap(entry(0, rho, condition), entry(0, rho, condition))
        assert distance == 0.0 and allowance == pytest.approx(allowed, rel=1e-12)

    def test_flagged_roundoff_gaps_pass_and_a_real_gap_is_listed(self, same_answers, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rho = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        first = [entry(k, rho, c) for k, c in enumerate(FLAGGED_CONDITIONS)]
        second = [entry(k, shifted(rho, 2.46e-12), c) for k, c in enumerate(FLAGGED_CONDITIONS)]
        k = len(FLAGGED_CONDITIONS)
        first += [entry(k, rho, 1e3), entry(k + 1, rho, 50.0)]
        second += [entry(k, shifted(rho, 1e-9), 1e3), entry(k + 1, rho, 50.0)]
        paths = []
        for name, answers in (("first.json", first), ("second.json", second)):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps({"checkout": name, "answers": answers}))
        assert same_answers.main(["compare", str(paths[0]), str(paths[1])]) == 1
        out = capsys.readouterr().out
        assert "rho_hat bit for bit the same on 1 of 7 inputs that have one" in out
        listed = [line for line in out.splitlines() if line.startswith("  ")]
        assert out.count("rho_hat: 1 inputs differ") == 1
        assert len(listed) == 1 and f"round {k}:" in listed[0] and "(condition 1000.0)" in listed[0]

    def test_signed_zero_is_not_the_same_bits(self, same_answers):
        zero, negative = np.zeros((2, 2)), np.zeros((2, 2))
        negative[0, 0] = -0.0
        a, b = entry(0, zero, 10.0), entry(0, negative, 10.0)
        assert same_answers.rho_gap(a, b)[0] == 0.0
        assert same_answers.bits(a["rho_hat"]) != same_answers.bits(b["rho_hat"])
