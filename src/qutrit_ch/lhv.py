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
raises ValueError naming the cause, in this order: a non-finite entry, a
negative joint, a table that does not sum to 1, alice's or bob's singles
that do not, or row or column sums that differ from the singles).
Single-detector probabilities are row and column sums of the joint
tables, so they match for free as well. Every returned model is still
checked against all 36 joint entries and a weight sum of 1, to within
``CERTIFICATE_TOL``. Bisection halves the noise interval ``BISECTION_STEPS``
times.

``lhv_weights`` answers None by one of two certificates. A box whose
largest CGLMP class value (``inequality.CLASS_CH``) exceeds
``VIOLATION_MARGIN`` violates a Bell inequality by more than any model that
passes the certificate check could, so no LP runs. Every other box gets the
cold feasibility LP, and None means that LP is infeasible.
``min_noise_bisection`` calls that LP directly, unscreened, so it stays
independent of the screen.

The noise point is ``engine.FLAT_VECTOR``: the LP's g column and the
certificate check read it, and bisection mixes it in with
``mix_with_noise``.

``min_noise_lp`` accepts the bound of a nearby experiment as ``start``:
its optimal basis and inverse seed the simplex, which reports what became
of them ("accepted", "repaired" or "cold", see ``simplex``). The matrix
and cost are the same for every experiment, so an optimal basis stays
dual feasible for all of them. A solve without one starts from the
``_witness_basis`` of the box's top CGLMP class, the one whose relabeling
class value (``inequality.CLASS_CH``) is largest, whatever its sign: the
noise LP's optimal basis at the paper's box, its atom columns relabeled
as that class's witness box relabels the paper's box, so no LP is solved
to find it. The result does not depend on the start. If a solve fails,
and its cold fallback too, ``min_noise_lp`` raises SimplexFailure naming
the cause. The optimizer passes its bounds through
``_min_noise_lp``, which skips the input check: its boxes are
``engine._fourier_kernel``'s range-checked joints with singles of exactly
1/3, valid by construction.

The carried inverse also gives the LP's dual, and with it the exact
gradient of f_min with respect to the joint tables
(``threshold_gradient``), on which the optimizer's LP search climbs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .atoms import INDICATOR_MATRIX, MARGINAL_MATRIX, N_ATOMS
from .engine import (
    FLAT_VECTOR,
    RELABEL_DESTINATIONS,
    VALIDATION_TOL,
    ExperimentProbabilities,
    _views,
    mix_with_noise,
)
from .inequality import CLASS_CH, CLASS_FIRSTS
from .simplex import SimplexFailure, _solve, simplex_solve

BISECTION_STEPS = 40
CERTIFICATE_TOL = 1e-7
# the most weights passing _check_certificate can raise a CGLMP class value:
# weights down to -CERTIFICATE_TOL on all 81 atoms, whose class values reach
# -2, then the entry residuals through a column's 12 joint signs and its 4
# single signs, each single a sum of 3 joint entries that validate() lets
# stray by VALIDATION_TOL; about 1.9e-5
VIOLATION_MARGIN = (2 * N_ATOMS + 12 + 4 * 3) * CERTIFICATE_TOL + 4 * VALIDATION_TOL

# the 25 independent rows of MARGINAL_MATRIX, see the module docstring
INDEPENDENT_ROWS = np.flatnonzero(
    [not (k == 1 and a == 2 or l == 1 and b == 2) for k, l, a, b in np.ndindex(2, 2, 3, 3)]
)
INDEPENDENT_ROWS.setflags(write=False)
_ROW_MATRIX = MARGINAL_MATRIX[INDEPENDENT_ROWS]
_ROW_MATRIX.setflags(write=False)
# the noise LP over (u, g), see min_noise_lp: only its right-hand side
# depends on the experiment
_NOISE_MATRIX = np.column_stack([_ROW_MATRIX, -FLAT_VECTOR[INDEPENDENT_ROWS]])
_NOISE_MATRIX.setflags(write=False)
_NOISE_COST = np.zeros(N_ATOMS + 1)
_NOISE_COST[N_ATOMS] = 1.0
_NOISE_COST.setflags(write=False)
# the noise LP's optimal basis at the paper's box
# (``presets.reference_joint_tables``), class 0's witness box; every
# _witness_basis is a relabeling of it
_PAPER_BASIS = (13, 1, 36, 28, 77, 81, 39, 74, 12, 7, 15, 62, 42, 47, 22, 69,
                29, 80, 27, 71, 4, 48, 70, 23, 50)


@functools.cache
def _basis_inverse(basis: tuple[int, ...]) -> np.ndarray:
    """The read-only inverse of the noise LP's basis matrix at ``basis``,
    factorized on first use as a solve without one would factorize it."""
    inverse = np.linalg.inv(_NOISE_MATRIX[:, basis])
    inverse.setflags(write=False)
    return inverse


@functools.cache
def _witness_basis(top: int) -> tuple[int, ...]:
    """An optimal basis of the noise LP at class ``top``'s witness box, the
    paper's box read through the first relabeling of that class, where that
    class alone is largest; no LP is solved.

    The witness box is the paper's vector gathered at that relabeling's
    ``RELABEL_DESTINATIONS`` row D. Column j of ``INDICATOR_MATRIX[D]`` is
    the indicator column of one atom, which gives each observable o the
    outcome a where row 36 + 3o + a of that column is 1. So the gather
    carries the paper's local model on atom j to that atom, and
    ``_PAPER_BASIS`` to the basis returned here; g keeps its column. Every
    solve it starts borrows its cached ``_basis_inverse``."""
    singles = INDICATOR_MATRIX[RELABEL_DESTINATIONS[CLASS_FIRSTS[top], 36:]]
    atoms = 3 ** np.arange(4) @ singles.reshape(4, 3, N_ATOMS).argmax(axis=1)
    return tuple(int(atoms[j]) if j < N_ATOMS else j for j in _PAPER_BASIS)


@dataclass(frozen=True, eq=False)
class NoiseBound:
    """Least noise fraction admitting a local model, with its certificate.

    ``certificate`` holds the 81 strategy weights of a local model at
    ``f_min``; ``method`` is "simplex" for ``min_noise_lp`` and "bisection"
    for ``min_noise_bisection`` (``min_noise_lp`` never falls back to
    bisection: a solver failure raises SimplexFailure). ``basis``
    is the LP's optimal basis and ``inverse`` its read-only basis inverse;
    together they seed the next ``min_noise_lp`` call, and both are None
    for bisection. ``start`` is what became of the start basis (by default
    the witness basis of the box's top CGLMP class): "accepted",
    "repaired" or "cold" (always "cold" for bisection).
    """

    f_min: float
    certificate: np.ndarray
    iterations: int
    method: str
    basis: tuple[int, ...] | None = None
    start: str = "cold"
    inverse: np.ndarray | None = None


def marginals_of(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint tables and both singles generated by strategy weights, as
    views of the one probability vector ``INDICATOR_MATRIX @ weights``."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_ATOMS,):
        raise ValueError(f"weights must have shape ({N_ATOMS},), got {w.shape}")
    return _views(INDICATOR_MATRIX @ w)


def _feasibility(exp: ExperimentProbabilities):
    target = exp.tables.reshape(36)[INDEPENDENT_ROWS]
    return simplex_solve(np.zeros(N_ATOMS), _ROW_MATRIX, target)


def lhv_weights(exp: ExperimentProbabilities) -> np.ndarray | None:
    """Strategy weights reproducing the joint tables, or None if impossible.

    None is certified either by a CGLMP class value above
    ``VIOLATION_MARGIN``, found without an LP, or by the infeasible
    feasibility LP (see the module docstring). The weights are checked
    against all 36 joint entries and a sum of 1 to within
    ``CERTIFICATE_TOL`` before they are returned.
    """
    exp.validate()
    if (exp.vector() @ CLASS_CH).max() > VIOLATION_MARGIN:
        return None
    solution = _feasibility(exp)
    if solution.status != "optimal":
        return None
    _check_certificate(exp, 0.0, solution.x)
    return solution.x


def lhv_feasible(exp: ExperimentProbabilities) -> bool:
    """Whether the joint tables admit a local realistic model; False is
    certified by a violated CGLMP inequality or an infeasible LP, as in
    ``lhv_weights``."""
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
    experiment, lends its basis and inverse to the simplex in place of the
    witness basis of exp0's top CGLMP class (see the module docstring); the
    result is the same either way. If the solver gives up,
    this raises SimplexFailure naming the cause; ``min_noise_bisection``
    stays the independent cross-check. The returned certificate always
    reproduces all 36 noisy joint entries to within ``CERTIFICATE_TOL``.
    """
    exp0.validate()
    return _min_noise_lp(exp0, start)


def _min_noise_lp(
    exp0: ExperimentProbabilities, start: NoiseBound | None = None
) -> NoiseBound:
    """``min_noise_lp`` for tables already known to be valid."""
    t0 = exp0.tables.reshape(36)[INDEPENDENT_ROWS]
    try:
        if start is not None and start.basis is not None:
            basis, inverse = start.basis, start.inverse
        else:
            basis = _witness_basis(int((exp0.vector() @ CLASS_CH).argmax()))
            inverse = _basis_inverse(basis)
        solution = _solve(_NOISE_COST, _NOISE_MATRIX, t0, start=basis, inverse=inverse)
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


def threshold_gradient(bound: NoiseBound) -> np.ndarray:
    """Gradient of ``bound.f_min`` with respect to the noise-free joint
    tables, as 36 entries in ``tables.ravel()`` order.

    While the optimal basis stays optimal, the LP value g moves with its
    right-hand side t0 as the dual y = c_B B^-1, and since only g has a
    cost, y is the row of the carried B^-1 at the basis position of g
    (the envelope theorem; Bertsimas & Tsitsiklis, ch. 5). With
    f = g / (1 + g) the gradient is y / (1 + g)^2 = y (1 - f)^2 on the 25
    rows the LP reads and 0 on the 11 it does not, which follow from them
    for every valid box. It is zero when g is nonbasic (f_min = 0) and for
    a bound that carries no basis.
    """
    gradient = np.zeros(36)
    if bound.basis is not None and N_ATOMS in bound.basis:
        dual = bound.inverse[bound.basis.index(N_ATOMS)]
        gradient[INDEPENDENT_ROWS] = dual * (1.0 - bound.f_min) ** 2
    return gradient


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
    # the flat box is interior to the local polytope, so some midpoint is
    # local and sets best
    _check_certificate(exp0, hi, best)
    return NoiseBound(hi, best, iterations, "bisection")


def _check_certificate(
    exp0: ExperimentProbabilities, noise: float, weights: np.ndarray
) -> None:
    gap = MARGINAL_MATRIX @ weights - (1.0 - noise) * exp0.tables.ravel()
    gap -= noise * FLAT_VECTOR[:36]
    residual = max(np.abs(gap).max(), abs(weights.sum() - 1.0))
    # NaN fails the comparison and raises too
    if not residual <= CERTIFICATE_TOL:
        raise RuntimeError(
            f"local model certificate residual {residual:.3e} exceeds "
            f"{CERTIFICATE_TOL:.1e}"
        )
    lowest = weights.min()
    if lowest < -CERTIFICATE_TOL:
        raise RuntimeError(
            f"local model certificate has a negative weight {lowest:.3e} below "
            f"-{CERTIFICATE_TOL:.1e}"
        )
