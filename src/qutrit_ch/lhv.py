"""Local realistic models as linear programs over deterministic strategies.

A local model is a probability distribution over the 81 deterministic
strategies. Whether given joint tables admit such a model is a feasibility
LP (25 rows, 81 weights). The least uniform-noise admixture that makes
them admit one is a single LP over the same 25 rows, because mixing moves
every joint probability linearly toward 1/9. ``min_noise_lp`` writes it in
scaled weights and g = f / (1 - f), 82 variables, so that its matrix and
cost are constants and only the right-hand side depends on the experiment.

The rows are the 25 independent joint probabilities of the 2-setting,
3-outcome scenario (Collins & Gisin, J. Phys. A 37, 1775 (2004)): entry
(a, b) of table (k, l) is kept unless k = 1 and a = 2, or l = 1 and b = 2
(0-based). The 11 dropped entries and the normalization of the weights
follow from the kept ones by normalization and no-signaling, which every
entry point first checks with ``ExperimentProbabilities.validate()`` (it
raises ValueError naming the cause: non-finite entries, bad normalization
or signaling). Single-detector probabilities are row and column sums of the
joint tables, so they match for free as well. Every returned model is still
checked against all 36 joint entries and a weight sum of 1, to within
``CERTIFICATE_TOL``. Bisection halves the noise interval ``BISECTION_STEPS``
times.

The noise point is ``engine.FLAT_VECTOR``: the LP's g column and the
certificate check read it, and bisection mixes it in with
``mix_with_noise``.

``min_noise_lp`` accepts the bound of a nearby experiment as ``start``:
its optimal basis and basis inverse seed the simplex, which reports the
outcome as the bound's ``start``. Since the matrix and cost are the same
for every experiment, an optimal basis stays dual feasible for all of
them. The start is "accepted" when the basis is still primal feasible,
which then costs a few products with the carried inverse and no
factorization; "repaired" when dual simplex pivots on that inverse first
restore primal feasibility; and "cold" when the LP is solved from scratch
(no usable start, a bisection bound, or a numerical failure on the way).
The result does not depend on the start. If the cold solve fails too,
``min_noise_lp`` raises SimplexFailure naming the cause; it never falls
back to bisection silently. Within one restart the optimizer passes the
bound of the same grid slot in the previous sweep, or else the previous
evaluation's bound, this way through ``_min_noise_lp``, which skips the
input check because its tables come from ``experiment_probabilities``
and are valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import ALICE_INDICATOR, BOB_INDICATOR, JOINT_INDICATOR, MARGINAL_MATRIX, N_ATOMS
from .engine import FLAT_VECTOR, ExperimentProbabilities, mix_with_noise
from .simplex import LpProblem, SimplexFailure, simplex_solve

BISECTION_STEPS = 40
CERTIFICATE_TOL = 1e-7

# the 25 independent rows of MARGINAL_MATRIX, see the module docstring
_K, _L, _A, _B = np.indices((2, 2, 3, 3)).reshape(4, 36)
INDEPENDENT_ROWS = np.flatnonzero(~(((_K == 1) & (_A == 2)) | ((_L == 1) & (_B == 2))))
INDEPENDENT_ROWS.setflags(write=False)
_ROW_MATRIX = MARGINAL_MATRIX[INDEPENDENT_ROWS]
# the noise LP over (u, g), see min_noise_lp: only its right-hand side
# depends on the experiment
_NOISE_MATRIX = np.column_stack([_ROW_MATRIX, -FLAT_VECTOR[INDEPENDENT_ROWS]])
_NOISE_MATRIX.setflags(write=False)
_NOISE_COST = np.zeros(N_ATOMS + 1)
_NOISE_COST[N_ATOMS] = 1.0
_NOISE_COST.setflags(write=False)


@dataclass(frozen=True)
class NoiseBound:
    """Least noise fraction admitting a local model, with its certificate.

    ``certificate`` holds the 81 strategy weights of a local model at
    ``f_min``; ``method`` is "simplex" for ``min_noise_lp`` and "bisection"
    for ``min_noise_bisection`` (``min_noise_lp`` never falls back to
    bisection: a solver failure raises SimplexFailure). ``basis``
    is the LP's optimal basis and ``inverse`` its read-only basis inverse;
    together they seed the next ``min_noise_lp`` call, and both are None
    for bisection. ``start`` is what became of the start basis:
    "accepted", "repaired" or "cold" (always "cold" for bisection).
    """

    f_min: float
    certificate: np.ndarray
    iterations: int
    method: str
    basis: tuple[int, ...] | None = None
    start: str = "cold"
    inverse: np.ndarray | None = None


def marginals_of(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint tables and both singles generated by strategy weights."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_ATOMS,):
        raise ValueError(f"weights must have shape ({N_ATOMS},), got {w.shape}")
    return JOINT_INDICATOR @ w, ALICE_INDICATOR @ w, BOB_INDICATOR @ w


def _feasibility(exp: ExperimentProbabilities):
    target = exp.tables.reshape(36)[INDEPENDENT_ROWS]
    return simplex_solve(LpProblem(np.zeros(N_ATOMS), _ROW_MATRIX, target))


def lhv_weights(exp: ExperimentProbabilities) -> np.ndarray | None:
    """Strategy weights reproducing the joint tables, or None if impossible.

    The weights are checked against all 36 joint entries and a sum of 1 to
    within ``CERTIFICATE_TOL`` before they are returned.
    """
    exp.validate()
    solution = _feasibility(exp)
    if solution.status != "optimal":
        return None
    _check_certificate(exp, 0.0, solution.x)
    return solution.x


def lhv_feasible(exp: ExperimentProbabilities) -> bool:
    """Whether the joint tables admit a local realistic model."""
    return lhv_weights(exp) is not None


def min_noise_lp(
    exp0: ExperimentProbabilities, start: NoiseBound | None = None
) -> NoiseBound:
    """Least f so that mixing exp0's tables with uniform noise f is local.

    A local model w at noise f satisfies M w + f (t0 - flat) = t0, where M
    maps strategy weights to the 25 independent joint probabilities, t0
    holds those of the noise-free tables and flat those of ``FLAT_VECTOR``.
    In u = w / (1 - f) and g = f / (1 - f) this reads M u - g flat = t0,
    so the LP minimizes g over u, g >= 0 with a constant matrix, and
    f_min = g / (1 + g) with weights u / (1 + g) (their sum of 1 follows
    from the rows of table (0, 0)). ``start``, the bound of a nearby
    experiment, lends its optimal basis and basis inverse to the simplex;
    the result is the same either way. If the solver gives up, this raises
    SimplexFailure naming the cause; ``min_noise_bisection`` stays the
    independent cross-check. The returned certificate always reproduces
    all 36 noisy joint entries to within ``CERTIFICATE_TOL``.
    """
    exp0.validate()
    return _min_noise_lp(exp0, start)


def _min_noise_lp(
    exp0: ExperimentProbabilities, start: NoiseBound | None = None
) -> NoiseBound:
    """``min_noise_lp`` for tables already known to be valid."""
    t0 = exp0.tables.reshape(36)[INDEPENDENT_ROWS]
    try:
        solution = simplex_solve(
            LpProblem(_NOISE_COST, _NOISE_MATRIX, t0),
            start=None if start is None else start.basis,
            inverse=None if start is None else start.inverse,
        )
    except SimplexFailure as exc:
        raise SimplexFailure(f"noise minimization LP failed: {exc}") from exc
    if solution.status != "optimal":
        # g = f / (1 - f) is finite for valid tables, since the flat box is
        # interior to the local polytope, so the input was not probabilities
        raise RuntimeError("noise minimization LP reported infeasible")
    g = solution.objective_value
    weights = solution.x[:N_ATOMS] / (1.0 + g)
    f_min = g / (1.0 + g)
    _check_certificate(exp0, f_min, weights)
    return NoiseBound(
        f_min, weights, solution.iterations, "simplex", solution.basis,
        solution.start, solution.inverse,
    )


def min_noise_bisection(exp0: ExperimentProbabilities) -> NoiseBound:
    """Same bound as min_noise_lp via bisection on feasibility problems.

    Slower but independent of the parametric formulation; used as a
    cross-check in tests, demos and the benchmark. The answer is exact to
    2**-BISECTION_STEPS since feasibility is monotone in the noise fraction.
    """
    exp0.validate()
    iterations = 0
    base = _feasibility(exp0)
    iterations += base.iterations
    if base.status == "optimal":
        _check_certificate(exp0, 0.0, base.x)
        return NoiseBound(0.0, base.x, iterations, "bisection")
    lo, hi = 0.0, 1.0
    best: np.ndarray | None = None
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        solution = _feasibility(mix_with_noise(exp0, mid))
        iterations += solution.iterations
        if solution.status == "optimal":
            hi, best = mid, solution.x
        else:
            lo = mid
    if best is None:
        solution = _feasibility(mix_with_noise(exp0, hi))
        iterations += solution.iterations
        best = solution.x
    _check_certificate(exp0, hi, best)
    return NoiseBound(hi, best, iterations, "bisection")


def _check_certificate(
    exp0: ExperimentProbabilities, noise: float, weights: np.ndarray
) -> None:
    gap = MARGINAL_MATRIX @ weights - (1.0 - noise) * exp0.tables.ravel()
    gap -= noise * FLAT_VECTOR[:36]
    residual = max(np.abs(gap).max(), abs(weights.sum() - 1.0))
    # NaN fails the comparison and raises too
    if not residual <= CERTIFICATE_TOL or weights.min() < -CERTIFICATE_TOL:
        raise RuntimeError(
            f"local model certificate residual {residual:.3e} exceeds "
            f"{CERTIFICATE_TOL:.1e}"
        )
