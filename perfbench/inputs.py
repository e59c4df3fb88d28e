"""Seeded input generators.

Every input is a function of ``(seed, workload, class, index)`` alone, so
a run can draw as many as it has time for and two runs with one seed see
the same inputs.  The package under test only ever receives the arrays
made here.
"""

from __future__ import annotations

import json

import numpy as np

import oracle

#: laser-cooling rates are drawn log-uniformly from this range
RATE_RANGE = (0.25, 4.0)
#: Bohr frequencies of a Hamiltonian-only model stay this far apart, as a share of |L|_F
BOHR_GAP_RTOL = 10 * oracle.AMBIGUOUS_RTOL


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix from a complex Wishart draw."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def laser_jumps(gamma1: float, gamma2: float) -> tuple:
    """Decay |2> -> |1> at gamma1 and |2> -> |3> at gamma2 (levels 1..3)."""
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    e32 = np.zeros((3, 3), dtype=complex)
    e32[2, 1] = 1.0
    return ((gamma1, e12), (gamma2, e32))


def laser_rates(rng: np.random.Generator) -> tuple[float, float]:
    low, high = np.log(RATE_RANGE[0]), np.log(RATE_RANGE[1])
    g1, g2 = np.exp(rng.uniform(low, high, size=2))
    return float(g1), float(g2)


def dissipative_model(n: int, rng: np.random.Generator) -> tuple[np.ndarray, tuple]:
    """Random Hamiltonian plus 1-3 complex Gaussian jump operators."""
    ham = random_hermitian(n, rng)
    jumps = tuple(
        (float(rng.uniform(0.1, 1.5)), rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for _ in range(int(rng.integers(1, 4)))
    )
    return ham, jumps


def hamiltonian_only_model(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hamiltonian whose Bohr frequencies E_j - E_k (j != k) are well apart.

    The generator then has eigenvalue 0 with multiplicity n and n^2 - n
    simple eigenvalues.  Draws with two frequencies closer than
    ``BOHR_GAP_RTOL * |L|_F`` are redrawn, so the expected counts are
    unambiguous.
    """
    while True:
        ham = random_hermitian(n, rng)
        energies = np.linalg.eigvalsh(ham)
        bohr = (energies[:, None] - energies[None, :])[~np.eye(n, dtype=bool)]
        scale = max(1.0, float(np.sqrt(2 * n * np.sum(energies**2) - 2 * np.sum(energies) ** 2)))
        gaps = np.diff(np.sort(np.concatenate([bohr, [0.0]])))
        if gaps.min() > BOHR_GAP_RTOL * scale:
            return ham


def long_record_grid(ham: np.ndarray, jumps, instants: int) -> np.ndarray:
    """``instants`` equispaced times up to three times the slowest decay time."""
    horizon = 3.0 / oracle.slowest_decay(ham, jumps)
    return horizon * np.arange(1, instants + 1) / instants


# --- files for the command-line round trip ---------------------------------


def _matrix_json(m: np.ndarray) -> list:
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(m)]


def write_model(path, ham: np.ndarray, jumps) -> None:
    doc = {
        "dim": int(ham.shape[0]),
        "hamiltonian": _matrix_json(ham),
        "jumps": [{"rate": rate, "matrix": _matrix_json(op)} for rate, op in jumps],
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)


def write_matrix(path, m: np.ndarray) -> None:
    with open(path, "w") as handle:
        json.dump(_matrix_json(m), handle)


def write_matrices(path, ms) -> None:
    with open(path, "w") as handle:
        json.dump([_matrix_json(m) for m in ms], handle)
