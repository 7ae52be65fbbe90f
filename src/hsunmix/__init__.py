"""Hyperspectral unmixing with neighborhood-coupled, sparsity-aware updates.

The package estimates endmember signatures and per-pixel abundance maps from
a hyperspectral image under the linear mixing model. Abundances live on the
unit simplex; estimation couples neighboring pixels through spectral-
similarity weights, optionally gated by a fuzzy clustering of the scene, and,
for an exponent q < 1, shrinks abundances with a data-driven Lq sparsity
penalty.
"""

from .clustering import fcm, fcm_objective
from .errors import (
    CubeFormatError,
    DegenerateDataError,
    LibraryParseError,
    NumericalFailureError,
)
from .experiment import (
    ExperimentSpec,
    parse_experiment_spec,
    run_experiment,
    write_aggregate_csv,
    write_rows_csv,
)
from .fileio import (
    read_cube,
    read_spectral_library,
    write_cube,
    write_report,
    write_spectral_library,
)
from .initialize import fcls_abundances, random_init, vca
from .metrics import EvaluationReport, aad, evaluate, evaluate_matrices, match_endmembers, sad
from .regularizers import (
    build_neighborhood,
    estimate_sparsity_weight,
    neighbor_weights,
    project_simplex,
    project_simplex_columns,
    sparsity_gradient,
    sparsity_norm,
)
from .synth import SyntheticScene, bundled_library, generate_synthetic
from .types import (
    AbundanceMatrix,
    AlgorithmVariant,
    ClusterAssignment,
    HyperspectralImage,
    SignatureMatrix,
    UnmixingConfig,
    resolve_variant,
    validate_abundances,
)
from .unmix import (
    StopReason,
    UnmixingResult,
    global_cost,
    run_unmixing,
    update_abundance_multiplicative,
    update_signatures,
)

__version__ = "0.1.0"

__all__ = [
    "AbundanceMatrix",
    "AlgorithmVariant",
    "ClusterAssignment",
    "CubeFormatError",
    "DegenerateDataError",
    "EvaluationReport",
    "ExperimentSpec",
    "HyperspectralImage",
    "LibraryParseError",
    "NumericalFailureError",
    "SignatureMatrix",
    "StopReason",
    "SyntheticScene",
    "UnmixingConfig",
    "UnmixingResult",
    "aad",
    "build_neighborhood",
    "bundled_library",
    "estimate_sparsity_weight",
    "evaluate",
    "evaluate_matrices",
    "fcls_abundances",
    "fcm",
    "fcm_objective",
    "generate_synthetic",
    "global_cost",
    "match_endmembers",
    "neighbor_weights",
    "parse_experiment_spec",
    "project_simplex",
    "project_simplex_columns",
    "random_init",
    "read_cube",
    "read_spectral_library",
    "resolve_variant",
    "run_experiment",
    "run_unmixing",
    "sad",
    "sparsity_gradient",
    "sparsity_norm",
    "update_abundance_multiplicative",
    "update_signatures",
    "validate_abundances",
    "vca",
    "write_aggregate_csv",
    "write_cube",
    "write_report",
    "write_rows_csv",
    "write_spectral_library",
]
