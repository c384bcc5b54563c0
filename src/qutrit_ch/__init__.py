"""Tools for a three-outcome two-observer Bell-type experiment.

The package computes exact outcome statistics for two entangled qutrits
measured behind phase-shifted tritters, evaluates a Clauser-Horne-type
functional on them, expands that functional over the 81 deterministic local
strategies, decides local-model membership by linear programming, and
searches phase space for settings that tolerate the most noise.

Each submodule runs on first use: importing the package puts them all in
``sys.modules`` unexecuted, so a process runs only the layers it calls.
"""

import importlib.util
import sys

# every public name, by the submodule that defines it
_EXPORTS = {
    "atoms": ("ATOMS", "N_ATOMS", "atom_at", "atom_index"),
    "engine": (
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
    ),
    "inequality": (
        "JOINT_TERMS",
        "SINGLE_TERMS",
        "ThresholdResult",
        "analytic_threshold",
        "ch_coefficients",
        "ch_decomposition",
        "ch_lhs",
        "deterministic_value",
    ),
    "lhv": (
        "NoiseBound",
        "lhv_feasible",
        "lhv_weights",
        "marginals_of",
        "min_noise_bisection",
        "min_noise_lp",
    ),
    "optimizer": ("OptimizationResult", "optimize", "threshold_objective"),
    "presets": (
        "REFERENCE_ALICE_PHASES",
        "REFERENCE_BOB_PHASES",
        "REFERENCE_NOISE_THRESHOLD",
        "REFERENCE_RELABELING",
        "reference_joint_tables",
        "reference_settings",
    ),
    "simplex": ("LpSolution", "SimplexFailure", "simplex_solve"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_HOME, "__version__"]


def _register(module: str):
    """Put a submodule in ``sys.modules`` unexecuted; it runs on the first
    attribute access, as any later import of it or from it makes."""
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


for _module in _EXPORTS:
    globals()[_module] = _register(_module)
del _module


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
