"""Command-line front end: analyze, find-observables, simulate, reconstruct.

Exit codes: 0 success, 2 unreadable/invalid input files or flags or an
unwritable output path, 3 numerical failure, 4 observable search
exhausted, 5 state file (``simulate``'s state or ``--truth``) violates the
density-matrix invariants, 6 measurement design rank deficiency.  The
commands raise the package's errors and :func:`main` alone maps them to
codes, through :data:`EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

import numpy as np

from . import __version__
from .errors import (
    NumericalFailure,
    RankDeficiencyError,
    SearchExhausted,
    ValidationError,
)
from .operator_algebra import DEFAULT_TOLERANCES, HERMITICITY_ATOL, ToleranceConfig, assert_hermitian
from .lindblad import (
    LindbladModel,
    _entry_to_json,
    build_generator,
    laser_cooling_model,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    validate_density_matrix,
)
from .analysis import find_observables, spectral_report, verify_observables
from .tomography import (
    default_time_grid,
    read_record_csv,
    reconstruct,
    simulate_measurements,
    state_distance,
    write_record_csv,
)

TOLERANCE_ENV_VAR = "STROBE_TOMO_TOLERANCE"


class _StateInvariantError(ValidationError):
    """A state file that parses but is not a density matrix of the model's dimension."""


#: exit code of each error type; the first match wins, so a subclass precedes its base
EXIT_CODES = (
    (_StateInvariantError, 5),
    (ValidationError, 2),
    (NumericalFailure, 3),
    (SearchExhausted, 4),
    (RankDeficiencyError, 6),
)


def _tolerances_from_env() -> ToleranceConfig:
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_TOLERANCES
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{TOLERANCE_ENV_VAR}={raw!r} is not a number") from None
    return ToleranceConfig(rank_rtol=value)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _nonnegative_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _load_json_file(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ValidationError(f"{what} {path!r} is not valid UTF-8 JSON: {exc}") from exc


def _write_file(path: str, write) -> None:
    """Call ``write(path)``, reporting an unwritable path as invalid input."""
    try:
        write(path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc}") from exc


def _load_model(path: str) -> LindbladModel:
    return model_from_json(_load_json_file(path, "model file"))


def _load_state(path: str, dim: int, name: str) -> np.ndarray:
    """A density matrix from a JSON file; broken invariants raise :class:`_StateInvariantError`."""
    matrix = matrix_from_json(_load_json_file(path, f"{name} file"), name)
    try:
        return validate_density_matrix(matrix, dim=dim, name=name)
    except ValidationError as exc:
        raise _StateInvariantError(str(exc)) from exc


def _load_observables(path: str) -> list[np.ndarray]:
    doc = _load_json_file(path, "observables file")
    if not isinstance(doc, list) or not doc:
        raise ValidationError(f"observables file {path!r}: expected a non-empty JSON array")
    out = []
    for i, item in enumerate(doc):
        mat = matrix_from_json(item, f"observables[{i}]")
        out.append(assert_hermitian(mat, name=f"observables[{i}]"))
    return out


def _fmt_complex(z: complex, digits: int = 12) -> str:
    if abs(z.imag) <= 1e-12 * (1.0 + abs(z)):
        return f"{z.real:.{digits}g}"
    return f"{z.real:.{digits}g}{z.imag:+.{digits}g}j"


def _analysis_document(model, report, tol: ToleranceConfig) -> dict:
    return {
        "tool": "strobe-tomo",
        "version": __version__,
        "tolerances": {
            "rank_rtol": tol.rank_rtol,
            "eig_cluster_rtol": tol.eig_cluster_rtol,
            "hermiticity_atol": HERMITICITY_ATOL,
        },
        "model": model_to_json(model),
        "analysis": {
            "dim": report.dim,
            "distinct_eigenvalues": [
                {
                    **_entry_to_json(c.value),
                    "algebraic_multiplicity": c.algebraic_multiplicity,
                    "geometric_multiplicity": c.geometric_multiplicity,
                    "index": c.index,
                }
                for c in report.distinct_eigenvalues
            ],
            "eta": report.eta,
            "mu": report.mu,
            "min_poly": [_entry_to_json(c) for c in report.min_poly],
            "static_observable_count": report.static_observable_count,
            "measurement_budget": report.measurement_budget,
        },
    }


def _print_analysis_text(report) -> None:
    print(f"strobe-tomo {__version__} analysis (dim {report.dim})")
    print("distinct eigenvalues of the generator:")
    for c in report.distinct_eigenvalues:
        print(
            f"  lambda = {_fmt_complex(c.value):<24} "
            f"algebraic {c.algebraic_multiplicity:>2}   geometric {c.geometric_multiplicity:>2}"
            f"   index {c.index:>2}"
        )
    poly = "[" + ", ".join(_fmt_complex(c, 12) for c in report.min_poly) + "]"
    print(f"eta  (minimal distinct observables)   : {report.eta}")
    print(f"mu   (instants bound per observable)  : {report.mu}")
    print(f"measurement budget eta*mu             : {report.measurement_budget}")
    print(f"static tomography observable count    : {report.static_observable_count}")
    print(f"minimal polynomial (ascending, monic) : {poly}")


def _resolve_model(args) -> LindbladModel:
    has_gammas = args.gamma1 is not None or args.gamma2 is not None
    if args.model_file and has_gammas:
        raise ValidationError("give either a model file or --gamma1/--gamma2, not both")
    if args.model_file:
        return _load_model(args.model_file)
    if args.gamma1 is None or args.gamma2 is None:
        raise ValidationError("provide a model file, or both --gamma1 and --gamma2")
    return laser_cooling_model(args.gamma1, args.gamma2)


def _cmd_analyze(args, tol: ToleranceConfig) -> None:
    model = _resolve_model(args)
    report = spectral_report(build_generator(model), tol)
    if args.json:
        print(json.dumps(_analysis_document(model, report, tol), indent=2))
    else:
        _print_analysis_text(report)


def _cmd_find_observables(args, tol: ToleranceConfig) -> None:
    model = _load_model(args.model_file)
    gen = build_generator(model)
    observables = find_observables(gen, tol, seed=args.seed, max_attempts=args.max_attempts)
    ok, achieved = verify_observables(gen, observables, tol)
    text = json.dumps([matrix_to_json(q) for q in observables], indent=2) + "\n"
    _write_file(args.out, lambda path: pathlib.Path(path).write_text(text))
    needed = model.dim * model.dim
    print(f"wrote {len(observables)} observables to {args.out} "
          f"(spanning rank {achieved}/{needed}, verified={ok})")


def _cmd_simulate(args, tol: ToleranceConfig) -> None:
    model = _load_model(args.model_file)
    observables = _load_observables(args.observables_file)
    rho0 = _load_state(args.state_file, model.dim, "state")
    report = spectral_report(build_generator(model), tol)
    record = simulate_measurements(
        model, rho0, observables, default_time_grid(report), noise_sigma=args.sigma, seed=args.seed
    )
    _write_file(args.out, lambda path: write_record_csv(record, path))
    print(f"wrote {len(record.entries)} measurements "
          f"({record.observable_count} observables x {record.grid.size} instants, "
          f"sigma={args.sigma:g}, seed={args.seed}) to {args.out}")


def _reconstruction_document(result, projected: bool) -> dict:
    doc = {
        "tool": "strobe-tomo",
        "version": __version__,
        "result": {
            "rho_hat": matrix_to_json(result.rho_hat),
            "residual_norm": result.residual_norm,
            "design_rank": result.design_rank,
            "design_condition": result.design_condition,
            "projected": projected,
        },
    }
    if result.frobenius_error is not None:
        doc["result"]["frobenius_error"] = result.frobenius_error
    return doc


def _cmd_reconstruct(args, tol: ToleranceConfig) -> None:
    model = _load_model(args.model_file)
    observables = _load_observables(args.observables_file)
    record = read_record_csv(args.record_csv)
    truth = _load_state(args.truth, model.dim, "truth") if args.truth else None
    result = reconstruct(model, observables, record, tol=tol, project=not args.no_project, truth=truth)

    if args.json:
        doc = _reconstruction_document(result, projected=not args.no_project)
        if truth is not None:
            _, trace_dist = state_distance(result.rho_hat, truth)
            doc["result"]["trace_distance"] = trace_dist
        print(json.dumps(doc, indent=2))
        return

    print("reconstructed initial state:")
    for row in result.rho_hat:
        print("  [" + ", ".join(_fmt_complex(z, 6) for z in row) + "]")
    print(f"residual norm    : {result.residual_norm:.6e}")
    print(f"design rank      : {result.design_rank}")
    print(f"design condition : {result.design_condition:.6e}")
    if not args.no_project:
        print("projection       : eigenvalues clipped to >= 0, trace renormalized")
    else:
        print("projection       : skipped (raw least-squares estimate)")
    if truth is not None:
        frob, trace_dist = state_distance(result.rho_hat, truth)
        print(f"frobenius error  : {frob:.6e}")
        print(f"trace distance   : {trace_dist:.6e}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strobe-tomo",
        description="Stroboscopic tomography resources and reconstruction for Lindblad dynamics.",
    )
    parser.add_argument("--version", action="version", version=f"strobe-tomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="eigenvalue structure and measurement bounds of a generator")
    p.add_argument("model_file", nargs="?", help="model JSON (or use --gamma1/--gamma2)")
    p.add_argument("--gamma1", type=float, help="decay rate of the |2> -> |1> channel")
    p.add_argument("--gamma2", type=float, help="decay rate of the |2> -> |3> channel")
    p.add_argument("--json", action="store_true", help="emit a JSON report document (default: text)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("find-observables", help="search for a minimal verified observable set")
    p.add_argument("model_file")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed, >= 0 (default 0)")
    p.add_argument("--max-attempts", type=_int_at_least(1), default=100,
                   help="sampling attempts before giving up (>= 1)")
    p.add_argument("--out", required=True, help="output observables JSON path")
    p.set_defaults(func=_cmd_find_observables)

    p = sub.add_parser("simulate", help="simulate stroboscopic measurements of a known state")
    p.add_argument("model_file")
    p.add_argument("state_file", help="initial density matrix JSON")
    p.add_argument("observables_file")
    p.add_argument("--sigma", type=_nonnegative_float, default=0.0,
                   help="additive Gaussian noise level, finite and >= 0 (default 0)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed, >= 0 (default 0)")
    p.add_argument("--out", required=True, help="output record CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="recover the initial state from a measurement record")
    p.add_argument("model_file")
    p.add_argument("observables_file")
    p.add_argument("record_csv")
    p.add_argument("--truth", help="known initial state JSON for error reporting")
    p.add_argument("--no-project", action="store_true",
                   help="report the raw least-squares estimate without the physicality projection")
    p.add_argument("--json", action="store_true", help="emit a JSON result document")
    p.set_defaults(func=_cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    """Run one command; return 0, argparse's own code, or the :data:`EXIT_CODES` code of the error."""
    try:
        args = build_parser().parse_args(argv)
        args.func(args, _tolerances_from_env())
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except tuple(kind for kind, _code in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
