"""Stroboscopic tomography resources for Lindblad dynamics.

Build a vectorized generator from a master-equation model, read off how
many distinct observables and measurement instants suffice to reconstruct
an unknown initial state, verify or search for concrete observable sets,
and close the loop with simulated measurements plus linear-inversion
reconstruction.
"""

__version__ = "0.1.0"

from .errors import (
    NumericalFailure,
    RankDeficiencyError,
    SearchExhausted,
    StroboscopicTomographyError,
    ValidationError,
)
from .operator_algebra import (
    DEFAULT_TOLERANCES,
    EigenvalueCluster,
    ToleranceConfig,
    eigen_structure,
    eigenvalues,
    expm,
    hermitian_basis,
    hs_inner,
    is_hermitian,
    minimal_polynomial,
    random_hermitian,
    rank,
    unvec,
    vec,
)
from .lindblad import (
    LindbladModel,
    Superoperator,
    build_generator,
    evolve,
    laser_cooling_model,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    propagator,
    trace_functional_residual,
    validate_density_matrix,
)
from .analysis import (
    SpectralReport,
    VerificationResult,
    find_observables,
    krylov_subspace,
    spectral_report,
    verify_observables,
)
from .tomography import (
    Measurement,
    MeasurementRecord,
    ReconstructionResult,
    default_time_grid,
    read_record_csv,
    reconstruct,
    simulate_measurements,
    state_distance,
    validate_time_grid,
    write_record_csv,
)

__all__ = [
    "__version__",
    "StroboscopicTomographyError",
    "ValidationError",
    "NumericalFailure",
    "SearchExhausted",
    "RankDeficiencyError",
    "ToleranceConfig",
    "DEFAULT_TOLERANCES",
    "vec",
    "unvec",
    "hs_inner",
    "rank",
    "eigenvalues",
    "eigen_structure",
    "expm",
    "minimal_polynomial",
    "hermitian_basis",
    "random_hermitian",
    "is_hermitian",
    "LindbladModel",
    "Superoperator",
    "laser_cooling_model",
    "build_generator",
    "propagator",
    "evolve",
    "validate_density_matrix",
    "trace_functional_residual",
    "matrix_to_json",
    "matrix_from_json",
    "model_to_json",
    "model_from_json",
    "EigenvalueCluster",
    "SpectralReport",
    "VerificationResult",
    "spectral_report",
    "krylov_subspace",
    "verify_observables",
    "find_observables",
    "Measurement",
    "MeasurementRecord",
    "ReconstructionResult",
    "validate_time_grid",
    "default_time_grid",
    "simulate_measurements",
    "reconstruct",
    "state_distance",
    "write_record_csv",
    "read_record_csv",
]
