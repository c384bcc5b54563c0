"""Tools for a three-outcome two-observer Bell-type experiment.

The package computes exact outcome statistics for two entangled qutrits
measured behind phase-shifted tritters, evaluates a Clauser-Horne-type
functional on them, expands that functional over the 81 deterministic local
strategies, decides local-model membership by linear programming, and
searches phase space for settings that tolerate the most noise.
"""

from .atoms import ATOMS, N_ATOMS, atom_at, atom_index
from .engine import (
    CUBE_ROOT_OF_UNITY,
    IDENTITY_RELABELING,
    PERMUTATIONS,
    ExperimentProbabilities,
    PhaseSettings,
    apply_relabeling,
    experiment_probabilities,
    find_matching_relabeling,
    is_unitary,
    joint_table,
    mix_with_noise,
    observable_unitary,
    singles,
    tritter_matrix,
)
from .inequality import (
    JOINT_TERMS,
    SINGLE_TERMS,
    ThresholdResult,
    analytic_threshold,
    ch_coefficients,
    ch_decomposition,
    ch_lhs,
    deterministic_value,
)
from .lhv import (
    NoiseBound,
    lhv_feasible,
    lhv_weights,
    marginals_of,
    min_noise_bisection,
    min_noise_lp,
)
from .optimizer import OptimizationResult, optimize, threshold_objective
from .presets import (
    REFERENCE_ALICE_PHASES,
    REFERENCE_BOB_PHASES,
    REFERENCE_NOISE_THRESHOLD,
    REFERENCE_RELABELING,
    reference_joint_tables,
    reference_settings,
)
from .simplex import LpSolution, SimplexFailure, simplex_solve

__version__ = "0.1.0"

__all__ = [
    "ATOMS",
    "N_ATOMS",
    "atom_at",
    "atom_index",
    "CUBE_ROOT_OF_UNITY",
    "IDENTITY_RELABELING",
    "PERMUTATIONS",
    "ExperimentProbabilities",
    "PhaseSettings",
    "apply_relabeling",
    "experiment_probabilities",
    "find_matching_relabeling",
    "is_unitary",
    "joint_table",
    "mix_with_noise",
    "observable_unitary",
    "singles",
    "tritter_matrix",
    "JOINT_TERMS",
    "SINGLE_TERMS",
    "ThresholdResult",
    "analytic_threshold",
    "ch_coefficients",
    "ch_decomposition",
    "ch_lhs",
    "deterministic_value",
    "NoiseBound",
    "lhv_feasible",
    "lhv_weights",
    "marginals_of",
    "min_noise_bisection",
    "min_noise_lp",
    "OptimizationResult",
    "optimize",
    "threshold_objective",
    "REFERENCE_ALICE_PHASES",
    "REFERENCE_BOB_PHASES",
    "REFERENCE_NOISE_THRESHOLD",
    "REFERENCE_RELABELING",
    "reference_joint_tables",
    "reference_settings",
    "LpSolution",
    "SimplexFailure",
    "simplex_solve",
    "__version__",
]
