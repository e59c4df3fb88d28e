"""The four workloads: their inputs, one operation each, and its check.

Each workload is a closed loop with one caller.  An operation runs the
package's public functions on one generated input and fills ``out``; the
caller times it, then ``check`` compares ``out`` with the oracle and
returns the failure causes (empty when the operation is correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracle
import strobe_tomo as st
from strobe_tomo import cli

#: width of the Gaussian noise added to simulated records in the full loop
SIGMA = 1e-6
#: instants in a long record
LONG_RECORD_INSTANTS = 256
#: with this many rounds the most expensive class alone holds the 10 samples beyond the tail
TAIL_ROUNDS = 11
#: the paper's answer for the laser-cooling model: observables, instants, budget
LASER_EXPECTED = {"eta": 4, "mu": 3, "budget": 12}


@dataclass(frozen=True)
class Workload:
    """``min_rounds`` is the fewest rounds a timed run makes (see ``run.run_loop``)."""

    name: str
    classes: tuple[str, ...]
    make: Callable[[int, int, int], dict]
    run: Callable[[dict, dict], None]
    check: Callable[[dict, dict], list[str]]
    min_rounds: int


def _model(inp: dict):
    if "gammas" in inp:
        return st.laser_cooling_model(*inp["gammas"])
    return st.LindbladModel(dim=inp["ham"].shape[0], hamiltonian=inp["ham"], jumps=inp["jumps"])


def _laser_input(rng) -> dict:
    gammas = inputs.laser_rates(rng)
    return {"gammas": gammas, "ham": np.zeros((3, 3), dtype=complex), "jumps": inputs.laser_jumps(*gammas)}


def _expected(inp: dict) -> dict:
    if "gammas" in inp:
        return LASER_EXPECTED
    mu, eta = oracle.spectrum_counts(inp["ham"], inp["jumps"])
    return {"eta": eta, "mu": mu}


def _check_report(inp: dict, out: dict) -> list[str]:
    causes = [out["error"]] if "error" in out else []
    if "eta" in out:
        expected = _expected(inp)
        causes += [f"wrong_{key}" for key in ("eta", "mu", "budget")
                   if key in expected and out[key] != expected[key]]
    return causes


def _check_state(inp: dict, out: dict, sigma: float) -> list[str]:
    if "rho_hat" not in out:
        return []
    out["recon_err"] = float(np.linalg.norm(out["rho_hat"] - inp["rho0"]))
    bound = oracle.error_bound(inp["ham"], inp["jumps"], out["observables"], out["grid"], sigma)
    return [] if out["recon_err"] <= bound else ["inaccurate"]


# --- paper-loop and generic-search: the library loop of the README -------------


def _full_loop(inp: dict, out: dict) -> None:
    model = _model(inp)
    gen = st.build_generator(model)
    report = st.spectral_report(gen)
    out.update(eta=report.eta, mu=report.mu, budget=report.measurement_budget)
    observables = st.find_observables(gen, seed=inp["search_seed"])
    grid = st.default_time_grid(report)
    out.update(observables=observables, grid=grid)
    record = st.simulate_measurements(model, inp["rho0"], observables, grid,
                                      noise_sigma=SIGMA, seed=inp["noise_seed"])
    out["rho_hat"] = st.reconstruct(model, observables, record, truth=inp["rho0"]).rho_hat


def _check_full_loop(inp: dict, out: dict) -> list[str]:
    return _check_report(inp, out) + _check_state(inp, out, SIGMA)


def _loop_input(inp: dict, rng) -> dict:
    n = inp["ham"].shape[0]
    inp.update(rho0=inputs.random_density(n, rng),
               search_seed=int(rng.integers(2**31)), noise_seed=int(rng.integers(2**31)))
    return inp


def paper_loop() -> Workload:
    def make(seed, cls, k):
        rng = inputs.rng_for(seed, 1, cls, k)
        return _loop_input(_laser_input(rng), rng)

    return Workload("paper-loop", ("laser-3",), make, _full_loop, _check_full_loop, TAIL_ROUNDS)


SEARCH_DIMS = (3, 4, 5)


def generic_search() -> Workload:
    def make(seed, cls, k):
        rng = inputs.rng_for(seed, 2, cls, k)
        ham, jumps = inputs.dissipative_model(SEARCH_DIMS[cls], rng)
        return _loop_input({"ham": ham, "jumps": jumps}, rng)

    # The cost of an exhausted search varies by about 30 % from model to
    # model; 36 rounds keep the median's spread over seeds near 5 %.
    classes = tuple(f"dissipative-{n}" for n in SEARCH_DIMS)
    return Workload("generic-search", classes, make, _full_loop, _check_full_loop, 36)


# --- generic-spectrum: generator build and spectral analysis only ------------


SPECTRUM_CLASSES = tuple((kind, n) for n in (6, 8, 12) for kind in ("dissipative", "hamiltonian"))


def generic_spectrum() -> Workload:
    def make(seed, cls, k):
        kind, n = SPECTRUM_CLASSES[cls]
        rng = inputs.rng_for(seed, 3, cls, k)
        if kind == "dissipative":
            ham, jumps = inputs.dissipative_model(n, rng)
        else:
            ham, jumps = inputs.hamiltonian_only_model(n, rng), ()
        return {"ham": ham, "jumps": jumps}

    def run(inp, out):
        report = st.spectral_report(st.build_generator(_model(inp)))
        out.update(eta=report.eta, mu=report.mu)

    # Six rounds put the 10 samples beyond the tail in the two n = 12 classes.
    classes = tuple(f"{kind}-{n}" for kind, n in SPECTRUM_CLASSES)
    return Workload("generic-spectrum", classes, make, run, _check_report, 6)


# --- long-record: simulate a long record, write it, reconstruct through the CLI --


LONG_RECORD_CLASSES = (("laser", 3), ("dissipative", 4), ("dissipative", 6))


def long_record(workdir: str) -> Workload:
    def make(seed, cls, k):
        kind, n = LONG_RECORD_CLASSES[cls]
        rng = inputs.rng_for(seed, 4, cls, k)
        if kind == "laser":
            inp = _laser_input(rng)
            count = 4
        else:
            ham, jumps = inputs.dissipative_model(n, rng)
            inp = {"ham": ham, "jumps": jumps}
            count = n
        inp.update(
            rho0=inputs.random_density(n, rng),
            observables=[inputs.random_hermitian(n, rng) for _ in range(count)],
            grid=inputs.long_record_grid(inp["ham"], inp["jumps"], LONG_RECORD_INSTANTS),
        )
        folder = os.path.join(workdir, f"{kind}-{n}")
        os.makedirs(folder, exist_ok=True)
        paths = {name: os.path.join(folder, name) for name in
                 ("model.json", "observables.json", "state.json", "record.csv")}
        inputs.write_model(paths["model.json"], inp["ham"], inp["jumps"])
        inputs.write_matrices(paths["observables.json"], inp["observables"])
        inputs.write_matrix(paths["state.json"], inp["rho0"])
        inp["paths"] = paths
        return inp

    def run(inp, out):
        paths = inp["paths"]
        record = st.simulate_measurements(_model(inp), inp["rho0"], inp["observables"], inp["grid"])
        st.write_record_csv(record, paths["record.csv"])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            out["exit"] = cli.main([
                "reconstruct", paths["model.json"], paths["observables.json"], paths["record.csv"],
                "--json", "--truth", paths["state.json"],
            ])
        out["stdout"], out["stderr"] = stdout.getvalue(), stderr.getvalue()

    def check(inp, out):
        if "error" in out:
            return [out["error"]]
        if out["exit"] != 0:
            return [f"exit_{out['exit']}"]
        try:
            rows = json.loads(out["stdout"])["result"]["rho_hat"]
            out["rho_hat"] = np.array([[complex(z["re"], z["im"]) for z in row] for row in rows])
        except (ValueError, KeyError, TypeError):
            return ["bad_output"]
        out.update(observables=inp["observables"], grid=inp["grid"])
        return _check_state(inp, out, 0.0)

    # Propagation is LAPACK-heavy, which the reference computation tracks
    # less closely; 24 rounds average the machine's drift over a longer run.
    classes = tuple(f"{kind}-{n}" for kind, n in LONG_RECORD_CLASSES)
    return Workload("long-record", classes, make, run, check, 24)


def build(name: str, workdir: str) -> Workload:
    factories = {
        "paper-loop": paper_loop,
        "generic-spectrum": generic_spectrum,
        "generic-search": generic_search,
        "long-record": lambda: long_record(workdir),
    }
    return factories[name]()
