import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strobe_tomo import (
    LindbladModel,
    NumericalFailure,
    Superoperator,
    ValidationError,
    build_generator,
    evolve,
    laser_cooling_model,
    model_from_json,
    model_to_json,
    matrix_from_json,
    matrix_to_json,
    validate_density_matrix,
)

from strobe_tomo import lindblad
from strobe_tomo.lindblad import EVOLVE_EIG_FLOOR, MAX_DIM, STATE_EIG_FLOOR, _check_density_matrix

from helpers import (
    kron_generator,
    laser_cooling_populations,
    lindblad_rhs,
    random_density,
    random_model,
    superoperator_from_real,
)


def trace_residual(sup: Superoperator) -> float:
    """max |vec(I)^dag L|: zero iff the generator preserves the trace."""
    return float(np.abs(np.eye(sup.dim).reshape(-1) @ sup.matrix).max())


def golden_generator(g1: float, g2: float) -> np.ndarray:
    out = np.zeros((9, 9), dtype=complex)
    out[0, 4] = g1
    out[8, 4] = g2
    out[4, 4] = -(g1 + g2)
    for i in (1, 3, 5, 7):
        out[i, i] = -0.5 * (g1 + g2)
    return out


class TestLaserCoolingModel:
    def test_jump_positions(self):
        model = laser_cooling_model(1.0, 2.0)
        assert model.dim == 3
        assert np.array_equal(model.hamiltonian, np.zeros((3, 3)))
        (r1, e1), (r2, e2) = model.jumps
        assert (r1, r2) == (1.0, 2.0)
        expected1 = np.zeros((3, 3))
        expected1[0, 1] = 1.0
        expected2 = np.zeros((3, 3))
        expected2[2, 1] = 1.0
        assert np.array_equal(e1, expected1)
        assert np.array_equal(e2, expected2)

    def test_zero_dissipation(self):
        model = laser_cooling_model(0.0, 0.0)
        assert all(rate == 0.0 for rate, _ in model.jumps)

    def test_single_channel(self):
        model = laser_cooling_model(1.0, 0.0)
        assert model.jumps[1][0] == 0.0
        gen = build_generator(model)
        assert np.array_equal(gen.matrix, golden_generator(1.0, 0.0))

    @pytest.mark.parametrize("g1,g2", [(-1.0, 2.0), (1.0, -0.5)])
    def test_negative_rate_rejected(self, g1, g2):
        with pytest.raises(ValidationError, match="rate"):
            laser_cooling_model(g1, g2)


class TestModelValidation:
    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValidationError, match="hermitian"):
            LindbladModel(dim=2, hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hamiltonian_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            LindbladModel(dim=3, hamiltonian=np.eye(2))

    def test_jump_shape_mismatch(self):
        with pytest.raises(ValidationError, match="jumps"):
            LindbladModel(dim=3, jumps=((1.0, np.eye(2)),))

    def test_time_dependent_hamiltonian_rejected(self):
        with pytest.raises(ValidationError, match="time-dependent"):
            LindbladModel(dim=2, hamiltonian=lambda t: np.eye(2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(ValidationError, match=r"jumps\[0\]\.rate must be finite"):
            LindbladModel(dim=2, jumps=((bad, np.eye(2)),))
        op = np.eye(2, dtype=complex)
        op[0, 1] = bad
        with pytest.raises(ValidationError, match=r"jumps\[0\]\.matrix has non-finite"):
            LindbladModel(dim=2, jumps=((1.0, op),))
        with pytest.raises(ValidationError, match="hamiltonian has non-finite"):
            LindbladModel(dim=2, hamiltonian=np.diag([bad, 0.0]))

    def test_boolean_dim_rejected(self):
        with pytest.raises(ValidationError, match="dim must be a positive integer"):
            LindbladModel(dim=True)

    @pytest.mark.parametrize("dim", [10**12, MAX_DIM + 1])
    def test_dimension_cap_checked_before_allocation(self, dim):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=f"dim must be at most {MAX_DIM}"):
                LindbladModel(dim=dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a (MAX_DIM + 1)^2 complex Hamiltonian alone would take 67 kB
        assert peak < 16_000

    def test_none_hamiltonian_means_zero(self):
        model = LindbladModel(dim=2)
        assert np.array_equal(model.hamiltonian, np.zeros((2, 2)))

    def test_model_keeps_read_only_copies_of_its_operators(self):
        ham = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        model = LindbladModel(dim=2, hamiltonian=ham, jumps=((1.0, jump),))
        ham[0, 1] = 5.0
        jump[0, 0] = np.nan
        assert np.array_equal(model.hamiltonian, np.diag([1.0, -1.0]))
        assert np.array_equal(model.jumps[0][1], [[0.0, 1.0], [0.0, 0.0]])
        for stored in (model.hamiltonian, model.jumps[0][1], LindbladModel(dim=2).hamiltonian):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 1] = 5.0

    @pytest.mark.parametrize("rate", ["x", None, 1 + 2j, np.complex128(1.0), True, np.True_])
    def test_non_real_rate_rejected(self, rate):
        with pytest.raises(ValidationError, match=r"jumps\[1\]\.rate must be a real number"):
            LindbladModel(dim=2, jumps=((1.0, np.eye(2)), (rate, np.eye(2))))

    @pytest.mark.parametrize("rate", [2, np.int64(2), np.float32(2.0), 2.0])
    def test_real_rate_types_accepted(self, rate):
        model = LindbladModel(dim=2, jumps=((rate, np.eye(2)),))
        assert type(model.jumps[0][0]) is float and model.jumps[0][0] == 2.0

    def test_huge_integer_rate_rejected(self):
        with pytest.raises(ValidationError, match=r"jumps\[0\]\.rate must be finite"):
            LindbladModel(dim=2, jumps=((10**400, np.eye(2)),))

    @pytest.mark.parametrize("jumps, kind", [(None, "NoneType"), (5, "int")])
    def test_non_iterable_jumps_rejected(self, jumps, kind):
        with pytest.raises(ValidationError, match=rf"^jumps must be a sequence of \(rate, operator\) pairs, got {kind}$"):
            LindbladModel(dim=2, jumps=jumps)

    def test_jumps_given_as_a_list_or_generator(self):
        for jumps in ([(1.0, np.eye(2))], ((1.0, np.eye(2)) for _ in range(1))):
            assert LindbladModel(dim=2, jumps=jumps).jumps[0][0] == 1.0

    def test_model_is_frozen(self):
        model = LindbladModel(dim=2)
        with pytest.raises(AttributeError):
            model.jumps = ()


class TestBuildGenerator:
    @pytest.mark.parametrize("g1,g2", [(1.0, 2.0), (0.5, 0.5), (3.0, 0.0), (0.25, 1.75)])
    def test_matches_golden_matrix_exactly(self, g1, g2):
        gen = build_generator(laser_cooling_model(g1, g2))
        assert gen.dim == 3
        assert np.array_equal(gen.matrix, golden_generator(g1, g2))

    def test_commutator_action(self):
        # oracle: -i[H, rho] evaluated directly
        model = LindbladModel(dim=2, hamiltonian=np.diag([1.0, -1.0]))
        gen = build_generator(model)
        coherence = np.zeros((2, 2), dtype=complex)
        coherence[0, 1] = 1.0
        out = gen.matrix @ coherence.reshape(-1)
        assert np.abs(out - (-2j) * coherence.reshape(-1)).max() <= 1e-14

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_direct_rhs(self, n):
        # oracle: the master-equation right-hand side applied entrywise
        rng = np.random.default_rng(n * 7)
        for _ in range(5):
            model = random_model(n, rng)
            gen = build_generator(model)
            rho = random_density(n, rng)
            direct = lindblad_rhs(model, rho)
            lifted = (gen.matrix @ rho.reshape(-1)).reshape(n, n)
            assert np.abs(direct - lifted).max() <= 1e-12 * max(1.0, np.abs(direct).max())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_kron_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(8):
            model = random_model(n, rng)
            assert build_generator(model).matrix.tobytes() == kron_generator(model).tobytes()

    def test_all_zero_model(self):
        gen = build_generator(LindbladModel(dim=3))
        assert np.array_equal(gen.matrix, np.zeros((9, 9)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_annihilates_trace_functional(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            gen = build_generator(random_model(n, rng))
            assert trace_residual(gen) <= 1e-10

    @pytest.mark.parametrize("jumps", [(), ((1.0, np.outer(np.eye(3)[0], np.eye(3)[1])),)],
                             ids=["closed", "dissipative"])
    def test_rotated_multiple_of_the_identity_builds(self, jumps):
        # the identity part cancels in the matrix's entries but not in the residual's summands,
        # whose roundoff is about eps |H|; the threshold scaled by max |M| alone read 1e-16
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        model = LindbladModel(dim=3, hamiltonian=q @ (1e9 * np.eye(3)) @ q.conj().T, jumps=jumps)
        residual = trace_residual(build_generator(model))
        assert 1e-9 < residual <= 1e-15 * 1e9

    @staticmethod
    def guard_message_of_the_formed_matrix(model: LindbladModel) -> str | None:
        """The guards' verdict read off the matrix written out: the failure message, or None."""
        with np.errstate(all="ignore"):
            mat = kron_generator(model)
            top = np.abs(mat).max()
            if not top < np.inf:
                return "the generator overflows the float range"
            residual = np.abs(np.eye(model.dim).reshape(-1) @ mat).max()
            effective = -1j * model.hamiltonian
            for rate, op in model.jumps:
                effective = effective - 0.5 * rate * (op.conj().T @ op)
            summand = max([np.abs(effective).max()] + [rate * np.abs(op).max() ** 2 for rate, op in model.jumps])
        if residual > 1e-10 * max(1.0, top, summand):
            return f"generator fails to annihilate the trace functional (residual {residual:.3e})"
        return None

    @staticmethod
    def silent(size: float) -> tuple:
        """A rate-0 jump on 3 levels whose largest entry is ``size``."""
        op = np.zeros((3, 3), dtype=complex)
        op[0, 2], op[2, 1] = size, 0.7j * size
        return ((0.0, op),)

    EDGE_MODELS = {
        "one-level": (np.array([[3.0]]), ()),
        "huge-diagonal": (np.diag([1.7e308, -1.7e308, 0.0]), ()),
        "huge-equal-diagonal": (np.diag([1.7e308, 1.7e308, 0.0]), ()),
        "huge-off-diagonal": (np.array([[0.0, 1.7e308, 0.0], [1.7e308, 0.0, 0.0], [0.0, 0.0, 1.0]]), ()),
        "hermiticity-defect": (np.array([[1.0, 2.0 + 2e-12, 0.0], [2.0, -1.0, 1j], [0.0, -1j, 0.5]]), ()),
        "scalar-1e12": (1e12 * np.eye(3), ()),
        "silent-1e100": (np.eye(3), silent(1e100)),
        "silent-1e152": (np.eye(3), silent(1e152)),
        "silent-1e154": (np.eye(3), silent(1.2e154)),
        "silent-1e160": (np.eye(3), silent(1e160)),
        "zero-operator-at-huge-rate": (np.eye(3), ((1e300, np.zeros((3, 3))),)),
    }

    @pytest.mark.parametrize("name", EDGE_MODELS)
    def test_closed_guards_match_the_formed_matrix(self, name):
        # a closed model's guards read M's entries off G = -iH without forming M
        ham, jumps = self.EDGE_MODELS[name]
        model = LindbladModel(dim=ham.shape[0], hamiltonian=ham, jumps=jumps)
        expected = self.guard_message_of_the_formed_matrix(model)
        if expected is None:
            assert build_generator(model)._energies is not None
        else:
            with pytest.raises(NumericalFailure, match=f"^{re.escape(expected)}$"):
                build_generator(model)

    def test_overflowing_generator_rejected_without_warning(self):
        # L^dag L has an entry of 1e400, and the krons turn it into inf and NaN entries
        model = LindbladModel(dim=2, jumps=((1.0, np.array([[0.0, 1e200], [0.0, 0.0]])),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailure, match=r"^the generator overflows the float range$"):
                build_generator(model)


class TestSuperoperator:
    def test_shape_checked(self):
        with pytest.raises(ValidationError, match="shape"):
            Superoperator(dim=3, matrix=np.eye(4))

    @pytest.mark.parametrize("dim, size", [(0, 0), (-1, 1), (3.0, 9), (True, 1)])
    def test_dim_checked(self, dim, size):
        # the hermitian form is formed at construction, which needs a positive integer dim
        with pytest.raises(ValidationError, match="^dim must be a positive integer"):
            Superoperator(dim=dim, matrix=np.zeros((size, size)))

    def test_synthetic_injection_allowed(self):
        # trace-functional residual is only enforced for built generators;
        # the first row of the real form is the trace's rate of change
        sup = superoperator_from_real(np.diag(np.arange(-1.0, -10.0, -1.0)))
        assert trace_residual(sup) > 0

    @pytest.mark.parametrize("entry", [None, np.nan, np.inf], ids=["breaks-hermiticity", "nan", "inf"])
    def test_matrix_that_is_not_a_generator_rejected(self, entry):
        # the dual sends rho_01 to rho_00 alone, so a hermitian input gets a complex diagonal;
        # a non-finite entry in a generator that preserves hermiticity fails the same test
        if entry is None:
            matrix = np.outer(np.eye(4)[1], np.eye(4)[0])
        else:
            matrix = build_generator(laser_cooling_model(1.0, 2.0)).matrix.copy()
            matrix[0, 0] = entry
        with pytest.raises(ValidationError, match=r"^superoperator matrix does not preserve hermiticity "
                                                  r"\(or is not finite\)$"):
            Superoperator(dim=int(np.sqrt(matrix.shape[0])), matrix=matrix)

    def test_matrix_is_a_read_only_copy(self):
        # writing into the caller's array does not reach the generator
        m = superoperator_from_real(np.diag(np.arange(0.0, -9.0, -1.0))).matrix.copy()
        sup = Superoperator(dim=3, matrix=m)
        m[0, 0] = np.nan
        assert np.isfinite(sup.matrix).all()
        with pytest.raises(ValueError, match="read-only"):
            sup.matrix[0, 0] = 5.0

    def test_built_generator_is_read_only(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(ValueError, match="read-only"):
            gen.matrix[0, 0] = 5.0
        assert np.array_equal(gen.matrix, golden_generator(1.0, 2.0))


class TestEvolve:
    def test_time_zero_is_identity(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        rho = random_density(3, np.random.default_rng(1))
        assert np.abs(evolve(gen, rho, 0.0) - rho).max() <= 1e-13

    def test_closed_form_populations(self):
        # oracle: analytic rate-equation solution from the |2><2| start
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        for t in np.linspace(0.05, 2.0, 20):
            expected = laser_cooling_populations(1.0, 2.0, t)
            assert np.abs(evolve(gen, rho0, t) - expected).max() <= 1e-10

    def test_long_time_limit(self):
        g1, g2 = 1.0, 2.0
        s = g1 + g2
        gen = build_generator(laser_cooling_model(g1, g2))
        rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)
        out = evolve(gen, rho0, 100.0 / s)
        assert np.abs(out - np.diag([g1 / s, 0.0, g2 / s])).max() <= 1e-10

    def test_negative_time_rejected(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(ValidationError):
            evolve(gen, np.eye(3) / 3, -0.1)

    def test_dimension_mismatch_rejected(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(ValidationError):
            evolve(gen, np.eye(2) / 2, 0.5)

    def test_non_density_state_rejected(self):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(ValidationError, match="trace"):
            evolve(gen, np.eye(3), 0.5)

    def test_physicality_over_random_draws(self):
        rng = np.random.default_rng(2024)
        draws = 0
        while draws < 1000:
            n = int(rng.integers(2, 5))
            model = random_model(n, rng)
            gen = build_generator(model)
            rho0 = random_density(n, rng)
            t = float(rng.uniform(0.0, 3.0))
            out = evolve(gen, rho0, t)
            assert np.abs(out - out.conj().T).max() <= 1e-10
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-8
            draws += 1

    def test_semigroup_composition(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            gen = build_generator(random_model(n, rng))
            rho0 = random_density(n, rng)
            t1, t2 = rng.uniform(0.05, 1.5, size=2)
            two_steps = evolve(gen, evolve(gen, rho0, t1), t2)
            one_step = evolve(gen, rho0, t1 + t2)
            assert np.abs(two_steps - one_step).max() <= 1e-9

    def test_unitary_case_conserves_purity(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            ham = (lambda g: (g + g.conj().T) / 2)(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            gen = build_generator(LindbladModel(dim=n, hamiltonian=ham))
            rho0 = random_density(n, rng)
            purity0 = np.trace(rho0 @ rho0).real
            for t in (0.3, 1.0, 2.5):
                out = evolve(gen, rho0, t)
                assert abs(np.trace(out @ out).real - purity0) <= 1e-10

    @pytest.mark.parametrize("matrix, rho0, match", [
        # -I scales the state by exp(-t): its trace leaks away
        (-np.eye(4), np.eye(2) / 2, "^evolved state at t=0.5 has trace"),
        # grows rho_00 as exp(t) and drains rho_11 by as much, below zero
        (np.outer(np.eye(4)[0], np.eye(4)[0]) - np.outer(np.eye(4)[3], np.eye(4)[0]),
         np.diag([1.0, 0.0]), "^evolved state at t=0.5 has eigenvalue"),
    ], ids=["trace", "eigenvalue"])
    def test_unphysical_evolution_is_a_numerical_failure(self, matrix, rho0, match):
        gen = Superoperator(dim=2, matrix=matrix)
        with pytest.raises(NumericalFailure, match=match):
            evolve(gen, rho0, 0.5)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(ValidationError, match="propagation time must be finite and >= 0"):
            evolve(gen, np.eye(3) / 3, t)

    @pytest.mark.parametrize("t", [-0.1, -1, np.nan, np.inf, -np.inf, 10**400],
                             ids=["negative", "negative-int", "nan", "inf", "minus-inf", "huge-int"])
    def test_time_out_of_range_keeps_its_message(self, t):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(ValidationError, match=r"^propagation time must be finite and >= 0, got "):
            evolve(gen, np.eye(3) / 3, t)

    @pytest.mark.parametrize("t, kind", [("0.5", "str"), (None, "NoneType"), (0.5 + 0j, "complex"),
                                         (True, "bool"), (np.True_, "bool")])
    def test_non_real_time_rejected(self, t, kind):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        with pytest.raises(ValidationError, match=rf"^propagation time must be a real number, got {kind}$"):
            evolve(gen, np.eye(3) / 3, t)

    @pytest.mark.parametrize("t", [1, np.int64(1), np.float32(1.0)])
    def test_real_time_types_accepted(self, t):
        gen = build_generator(laser_cooling_model(1.0, 2.0))
        rho = random_density(3, np.random.default_rng(2))
        assert np.abs(evolve(gen, rho, t) - evolve(gen, rho, 1.0)).max() == 0.0


class TestDensityValidation:
    def test_accepts_valid(self):
        rho = random_density(3, np.random.default_rng(0))
        out = validate_density_matrix(rho)
        assert np.array_equal(out, rho)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValidationError, match="hermitian"):
            validate_density_matrix(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            validate_density_matrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="eigenvalue"):
            validate_density_matrix(np.diag([1.5, -0.5]))


def _broken(rho: np.ndarray, test: str) -> np.ndarray:
    """``rho`` changed so that it fails ``test`` and passes the tests before it."""
    out = rho.copy()
    if test == "hermitian":
        out[0, 1] += 1e-6
    elif test == "trace":
        out *= 1.0 + 1e-6
    else:
        out = np.diag([1.0 + 1e-6, -1e-6, 0.0]).astype(complex)
    return out


class TestStackedDensityCheck:
    """A stack of evolved states is checked in one pass; the first failing one is named."""

    TESTS = ("hermitian", "trace", "eigenvalue")

    @pytest.fixture
    def stack(self):
        rng = np.random.default_rng(11)
        return np.stack([random_density(3, rng) for _ in range(6)])

    def test_valid_stack_passes(self, stack):
        assert _check_density_matrix(stack, "s{}".format, evolved=True) is stack

    @pytest.mark.parametrize("test", TESTS)
    def test_first_failing_instant_is_named(self, stack, test):
        stack[3] = _broken(stack[3], test)
        # a later state failing a different test does not take precedence
        other = self.TESTS[(self.TESTS.index(test) + 1) % 3]
        stack[5] = _broken(stack[5], other)
        names = [f"evolved state at t={0.5 * (i + 1):.6g}" for i in range(6)]
        expected = {"hermitian": "is not hermitian", "trace": "has trace",
                    "eigenvalue": "has eigenvalue .* below the floor"}[test]
        with pytest.raises(NumericalFailure, match=rf"^evolved state at t=2 {expected}"):
            _check_density_matrix(stack, names.__getitem__, evolved=True)

    @pytest.mark.parametrize("test", TESTS)
    def test_stack_matches_one_by_one(self, stack, test):
        # the stacked check raises what checking each state alone raises first
        stack[2] = _broken(stack[2], test)
        names = [f"state {i}" for i in range(6)]
        with pytest.raises(NumericalFailure) as one_by_one:
            for arr, name in zip(stack, names):
                _check_density_matrix(arr, name, evolved=True)
        with pytest.raises(NumericalFailure, match=re.escape(str(one_by_one.value))):
            _check_density_matrix(stack, names.__getitem__, evolved=True)

    def test_non_finite_state_fails_hermiticity(self, stack):
        stack[1, 0, 0] = np.nan
        with pytest.raises(NumericalFailure, match="s1 is not hermitian"):
            _check_density_matrix(stack, "s{}".format, evolved=True)

    def test_passing_stack_computes_no_eigenvalues(self, stack, monkeypatch):
        # the Cholesky certificate settles a stack of valid states alone
        def eigvalsh(_):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert _check_density_matrix(stack, "s{}".format, evolved=True) is stack
        state = stack[0]
        assert _check_density_matrix(state, "s0") is state


def _with_lowest(lowest: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """A unit-trace hermitian matrix in a random basis whose lowest eigenvalue is ``lowest``."""
    rest = rng.uniform(0.1, 1.0, n - 1)
    values = np.concatenate([[lowest], (1.0 - lowest) * rest / rest.sum()])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * values) @ q.conj().T


def _eigvalsh_rule(stack: np.ndarray, floor: float) -> str | None:
    """The message of the first state whose lowest eigenvalue is below ``floor``, from ``eigvalsh`` alone."""
    lowest = np.linalg.eigvalsh((stack + stack.conj().swapaxes(1, 2)) / 2.0).min(axis=1)
    for i, value in enumerate(lowest):
        if value < floor:
            return f"s{i} has eigenvalue {value:.3e} below the floor {floor:.1e}"
    return None


class TestEigenvalueFloorSweep:
    """The Cholesky certificate never changes the verdict or the message of the eigenvalue rule."""

    @pytest.mark.parametrize("evolved, floor, error", [
        (True, EVOLVE_EIG_FLOOR, NumericalFailure),
        (False, STATE_EIG_FLOOR, ValidationError),
    ], ids=["evolved", "input"])
    def test_same_verdict_and_message_as_eigvalsh(self, evolved, floor, error):
        rng = np.random.default_rng(41 if evolved else 42)
        lowest = [floor * (1 + 1e-3), floor * (1 - 1e-3), 0.0]
        for n in (2, 3, 4, 6):
            basis_state = np.zeros((n, n), dtype=complex)
            basis_state[0, 0] = 1.0
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pure = np.outer(v, v.conj()) / np.vdot(v, v).real
            kinds = [_with_lowest(value, n, rng) for value in lowest] + [basis_state, pure]
            for order in range(len(kinds)):
                stack = np.stack(kinds[order:] + kinds[:order])
                expected = _eigvalsh_rule(stack, floor)
                for i, state in enumerate(stack):
                    alone = _eigvalsh_rule(state[None], floor)
                    if alone is None:
                        assert _check_density_matrix(state, f"s{i}", evolved=evolved) is state
                    else:
                        with pytest.raises(error) as raised:
                            _check_density_matrix(state, f"s{i}", evolved=evolved)
                        assert str(raised.value) == alone.replace("s0", f"s{i}", 1)
                if expected is None:
                    assert _check_density_matrix(stack, "s{}".format, evolved=evolved) is stack
                else:
                    with pytest.raises(error) as raised:
                        _check_density_matrix(stack, "s{}".format, evolved=evolved)
                    assert str(raised.value) == expected

    def test_sweep_holds_states_on_both_sides_of_the_floor(self):
        rng = np.random.default_rng(43)
        for floor in (EVOLVE_EIG_FLOOR, STATE_EIG_FLOOR):
            below = np.stack([_with_lowest(floor * (1 + 1e-3), 3, rng)])
            above = np.stack([_with_lowest(floor * (1 - 1e-3), 3, rng)])
            assert _eigvalsh_rule(below, floor) is not None
            assert _eigvalsh_rule(above, floor) is None


class TestModelJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        model = random_model(3, rng, max_jumps=2)
        doc = json.loads(json.dumps(model_to_json(model)))
        rebuilt = model_from_json(doc)
        assert rebuilt.dim == model.dim
        assert np.array_equal(rebuilt.hamiltonian, model.hamiltonian)
        assert len(rebuilt.jumps) == len(model.jumps)
        for (r1, m1), (r2, m2) in zip(rebuilt.jumps, model.jumps):
            assert r1 == r2
            assert np.array_equal(m1, m2)

    def test_omitted_hamiltonian_means_zero(self):
        model = model_from_json({"dim": 2, "jumps": []})
        assert np.array_equal(model.hamiltonian, np.zeros((2, 2)))

    def test_plain_numbers_accepted_as_real_entries(self):
        mat = matrix_from_json([[1, 0], [0, {"re": 0.5, "im": -0.5}]])
        assert np.array_equal(mat, np.array([[1, 0], [0, 0.5 - 0.5j]]))

    @pytest.mark.parametrize("doc,field", [
        ([], "model"),
        ({}, "dim"),
        ({"dim": 0}, "dim"),
        ({"dim": 2.5}, "dim"),
        ({"dim": 2, "jumps": [{}]}, "jumps[0]"),
        ({"dim": 2, "jumps": [{"rate": "x", "matrix": [[0]]}]}, "jumps[0].rate"),
        ({"dim": 2, "jumps": [{"rate": 1.0}]}, "jumps[0]"),
        ({"dim": 2, "hamiltonian": [[1, 2], [3]]}, "hamiltonian[1]"),
        ({"dim": 2, "hamiltonian": [[{"re": 1}, 0], [0, 0]]}, "hamiltonian[0][0]"),
    ])
    def test_errors_name_offending_field(self, doc, field):
        with pytest.raises(ValidationError, match=re.escape(field)):
            model_from_json(doc)

    def test_matrix_encoding_roundtrip(self):
        rng = np.random.default_rng(21)
        mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(matrix_from_json(matrix_to_json(mat)), mat)


#: JSON numbers that decode to floats: signed zero, subnormals, the float range's ends and
#: integers that round or do not fit in int64
JSON_NUMBERS = [0, 1, -7, 2**53 + 1, 2**63, 2**64 + 1, -2**63 - 1, 10**308, 0.5, -0.0, 5e-324, -5e-324,
                2.2250738585072014e-308, 1.79e308, -1.79e308, 1.7976931348623157e308]
#: entries that the per-entry walk rejects, or reads only as a mixed row
ODD_ENTRIES = [10**400, -10**400, True, False, "1", None, float("nan"), float("inf"), -float("inf"), [1],
               {"re": 1}, {"im": 1}, {"re": 1, "im": 2, "extra": "ignored"}, {"re": True, "im": 0},
               {"re": "1", "im": 0}, {"re": 10**400, "im": 0}, {"re": 0, "im": float("nan")}, 0.25]


def _decoded(doc):
    """``(dtype, shape, bytes)`` of ``matrix_from_json(doc)``, or the message of its error."""
    try:
        matrix = matrix_from_json(doc, "m")
    except ValidationError as exc:
        return str(exc)
    return matrix.dtype.str, matrix.shape, matrix.tobytes()


@st.composite
def json_matrices(draw):
    """A JSON matrix of numbers or {"re", "im"} objects, sometimes ragged, empty or with odd entries."""
    rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    numbers = st.sampled_from(JSON_NUMBERS)
    pairs = st.fixed_dictionaries({"re": numbers, "im": numbers})
    kind = draw(st.sampled_from([numbers, pairs, st.one_of(numbers, pairs)]))
    doc = [[draw(kind) for _ in range(width)] for _ in range(rows)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, width - 1))
        doc[i][j] = draw(st.sampled_from(ODD_ENTRIES))
    shape_change = draw(st.sampled_from([None, None, "ragged", "empty row", "empty"]))
    if shape_change == "ragged":
        doc[-1].append(doc[0][0])
    elif shape_change == "empty row":
        doc[draw(st.integers(0, rows - 1))] = []
    elif shape_change == "empty":
        doc = []
    # through the JSON text, so that NaN and Infinity arrive as their literals decode
    return json.loads(json.dumps(doc))


class TestMatrixJsonBulk:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=json_matrices())
    def test_bulk_decoding_matches_the_per_entry_walk(self, doc):
        with mock.patch.object(lindblad, "_matrix_in_bulk", lambda obj: None):
            walked = _decoded(doc)
        assert _decoded(doc) == walked

    @pytest.mark.parametrize("doc", [
        [[1, -0.0], [5e-324, 2**53 + 1]],
        [[{"re": -0.0, "im": 1.79e308}, {"re": 2**64 + 1, "im": -5e-324}]],
        [[{"re": 1, "im": 2, "extra": [None]}]],
    ])
    def test_valid_matrices_take_the_bulk_path(self, doc):
        bulk = lindblad._matrix_in_bulk(doc)
        with mock.patch.object(lindblad, "_matrix_in_bulk", lambda obj: None):
            walked = matrix_from_json(doc)
        assert bulk is not None and bulk.tobytes() == walked.tobytes() and bulk.shape == walked.shape

    @pytest.mark.parametrize("doc,message", [
        ([[10**400]], "m[0][0]: integer out of the float range"),
        ([[{"re": 0, "im": 10**400}]], "m[0][0].im: integer out of the float range"),
        ([[1, True]], "m[0][1]: expected a number, got bool"),
        ([[{"re": "1", "im": 0}]], "m[0][0].re: expected a number, got str"),
        ([[0.5, float("nan")]], "m[0][1]: non-finite number nan"),
        ([[{"re": 0, "im": float("-inf")}]], "m[0][0].im: non-finite number -inf"),
        ([[{"re": 1}]], "m[0][0]: missing key 'im'"),
        ([[1, 2], [3]], "m[1]: ragged row (length 1, expected 2)"),
        ([[1], []], "m[1]: expected a non-empty list of entries"),
        ([], "m: expected a non-empty list of rows"),
    ])
    def test_errors_name_the_field(self, doc, message):
        assert _decoded(doc) == message

