"""Local realistic models as linear programs over deterministic strategies.

A local model is a probability distribution over the 81 deterministic
strategies. Whether given joint tables admit such a model is a feasibility
LP; the least uniform-noise admixture that makes them admit one is a single
small LP in 83 variables (81 weights, the noise fraction, one slack), because
mixing moves every joint probability linearly toward 1/9.

Single-detector probabilities never appear as constraints: they are row and
column sums of the joint tables, so once the joints match, the singles of
any no-signaling experiment match for free. Every LP entry point first checks
its input with ``ExperimentProbabilities.validate()``, which raises
ValueError naming the cause: non-finite entries, bad normalization or
signaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import ALICE_INDICATOR, BOB_INDICATOR, JOINT_INDICATOR, MARGINAL_MATRIX, N_ATOMS
from .engine import ExperimentProbabilities, mix_with_noise
from .simplex import LpProblem, SimplexFailure, simplex_solve

BISECTION_STEPS = 40


@dataclass(frozen=True)
class NoiseBound:
    """Least noise fraction admitting a local model, with its certificate.

    ``certificate`` holds the 81 strategy weights of a local model at
    ``f_min``; ``method`` records whether the bound came from the direct
    LP ("simplex") or from bisection over feasibility problems.
    """

    f_min: float
    certificate: np.ndarray
    iterations: int
    method: str


def marginals_of(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint tables and both singles generated by strategy weights."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_ATOMS,):
        raise ValueError(f"weights must have shape ({N_ATOMS},), got {w.shape}")
    return JOINT_INDICATOR @ w, ALICE_INDICATOR @ w, BOB_INDICATOR @ w


def _feasibility(exp: ExperimentProbabilities, tol: float):
    target = np.concatenate([exp.tables.reshape(36), [1.0]])
    matrix = np.vstack([MARGINAL_MATRIX, np.ones((1, N_ATOMS))])
    problem = LpProblem(np.zeros(N_ATOMS), matrix, target)
    return simplex_solve(problem, infeasibility_tol=tol)


def lhv_weights(exp: ExperimentProbabilities, tol: float = 1e-9) -> np.ndarray | None:
    """Strategy weights reproducing the joint tables, or None if impossible."""
    exp.validate()
    solution = _feasibility(exp, tol)
    if solution.status != "optimal":
        return None
    return solution.x


def lhv_feasible(exp: ExperimentProbabilities, tol: float = 1e-9) -> bool:
    """Whether the joint tables admit a local realistic model."""
    return lhv_weights(exp, tol) is not None


def min_noise_lp(
    exp0: ExperimentProbabilities, residual_tol: float = 1e-7
) -> NoiseBound:
    """Least f so that mixing exp0's tables with uniform noise f is local.

    Minimizes f subject to  M w + f (t0 - 1/9) = t0,  sum w = 1,
    f + slack = 1,  all variables nonnegative, where M maps strategy weights
    to joint probabilities and t0 is the noise-free table vector. Falls back
    to bisection if the solver gives up. The returned certificate always
    reproduces the noisy tables to within residual_tol.
    """
    exp0.validate()
    t0 = exp0.tables.reshape(36)
    matrix = np.zeros((38, N_ATOMS + 2))
    matrix[:36, :N_ATOMS] = MARGINAL_MATRIX
    matrix[:36, N_ATOMS] = t0 - 1.0 / 9.0
    matrix[36, :N_ATOMS] = 1.0
    matrix[37, N_ATOMS] = 1.0
    matrix[37, N_ATOMS + 1] = 1.0
    rhs = np.concatenate([t0, [1.0, 1.0]])
    cost = np.zeros(N_ATOMS + 2)
    cost[N_ATOMS] = 1.0
    try:
        solution = simplex_solve(LpProblem(cost, matrix, rhs))
    except SimplexFailure:
        return min_noise_bisection(exp0, residual_tol=residual_tol)
    if solution.status != "optimal":
        # at f = 1 the tables are uniform, which is always local, so an
        # infeasible report means the input tables were not probabilities
        raise RuntimeError("noise minimization LP reported infeasible")
    f_min = float(min(max(solution.objective_value, 0.0), 1.0))
    weights = solution.x[:N_ATOMS]
    _check_certificate(exp0, f_min, weights, residual_tol)
    return NoiseBound(f_min, weights, solution.iterations, "simplex")


def min_noise_bisection(
    exp0: ExperimentProbabilities,
    steps: int = BISECTION_STEPS,
    residual_tol: float = 1e-7,
) -> NoiseBound:
    """Same bound as min_noise_lp via bisection on feasibility problems.

    Slower but independent of the parametric formulation; used as the
    fallback path and as a cross-check in tests. The answer is exact to
    2**-steps since feasibility is monotone in the noise fraction.
    """
    exp0.validate()
    iterations = 0
    base = _feasibility(exp0, 1e-9)
    iterations += base.iterations
    if base.status == "optimal":
        _check_certificate(exp0, 0.0, base.x, residual_tol)
        return NoiseBound(0.0, base.x, iterations, "bisection")
    lo, hi = 0.0, 1.0
    best: np.ndarray | None = None
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        solution = _feasibility(mix_with_noise(exp0, mid), 1e-9)
        iterations += solution.iterations
        if solution.status == "optimal":
            hi, best = mid, solution.x
        else:
            lo = mid
    if best is None:
        solution = _feasibility(mix_with_noise(exp0, hi), 1e-9)
        iterations += solution.iterations
        best = solution.x
    _check_certificate(exp0, hi, best, residual_tol)
    return NoiseBound(hi, best, iterations, "bisection")


def _check_certificate(
    exp0: ExperimentProbabilities,
    noise: float,
    weights: np.ndarray,
    residual_tol: float,
) -> None:
    tables, _, _ = marginals_of(weights)
    target = (1.0 - noise) * exp0.tables + noise / 9.0
    residual = float(np.max(np.abs(tables - target)))
    residual = max(residual, abs(float(weights.sum()) - 1.0))
    if residual > residual_tol or weights.min() < -residual_tol:
        raise RuntimeError(
            f"local model certificate residual {residual:.3e} exceeds "
            f"{residual_tol:.1e}"
        )
