"""Dense two-phase simplex for small equality-form linear programs.

Solves min c @ x subject to A x = b, x >= 0. Variable selection is Bland's
rule with two numerical concessions: the ratio test only accepts pivot
elements above ``PIVOT_TOL`` (elements near 1e-10 on degenerate rows left
nearly singular bases behind), and among rows essentially tied in it the
largest pivot element wins. Accumulated roundoff is flushed by
refactorizing the tableau from the original data every few pivots and again
whenever the solver believes it is optimal on a tableau that has been
pivoted since it was computed, so a claimed optimum is always confirmed on
a freshly computed tableau. A problem is infeasible when phase 1 cannot
bring the sum of the artificial variables below ``INFEASIBILITY_TOL``. The
intended problems are tiny (tens of rows, around a hundred columns);
everything is dense.

A solve can start from a given basis, such as the optimal basis of a nearby
problem. That basis is factorized once, and the solution reports one of
three start outcomes:

- "accepted": the basis is primal feasible for the new data, so phase 1 is
  skipped and phase 2 runs from its tableau.
- "repaired": the basis is primal infeasible but dual feasible (no reduced
  cost below ``-PIVOT_TOL``), as an optimal basis stays when only the
  right-hand side moves. Dual simplex pivots restore primal
  feasibility: the most negative basic value leaves, and the entering column
  minimizes |d_j / a_rj| over a_rj < -PIVOT_TOL, ties to the lowest index.
  Phase 2 then refactorizes and confirms the optimum.
- "cold": any other start (wrong shape, singular, dual infeasible, no
  entering column, or a failure on the way) and no start at all give the
  cold two-phase solve, with the same result as if no start were given.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

REFACTOR_EVERY = 30
PIVOT_TOL = 1e-8
INFEASIBILITY_TOL = 1e-9
_RATIO_WINDOW = 1e-9
_REDUNDANT_TOL = 1e-7
_FEASIBILITY_DRIFT = 1e-7
_START_FEASIBILITY = 1e-12


class SimplexFailure(RuntimeError):
    """The solver could not certify a result (cap, unbounded, bad basis)."""


@dataclass(frozen=True)
class LpProblem:
    """min objective @ x subject to eq_matrix @ x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; x and objective_value are None when infeasible.

    ``start`` is "accepted", "repaired" or "cold": what became of the given
    start basis (see the module docstring). Without a start it is "cold".
    """

    status: str
    x: np.ndarray | None
    objective_value: float | None
    iterations: int
    basis: tuple[int, ...] | None = None
    start: str = "cold"


def _tableau(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: list[int]
) -> np.ndarray:
    """The tableau B^-1 [A | b] plus a priced-out cost row.

    Computing from the original data resets all accumulated pivot roundoff;
    only the basis, which is combinatorial, is carried over.
    """
    footprint = matrix[:, basis]
    try:
        body = np.linalg.solve(footprint, np.column_stack([matrix, rhs]))
    except np.linalg.LinAlgError:
        raise SimplexFailure("basis matrix is singular")
    bottom = np.concatenate([cost, [0.0]]) - cost[basis] @ body
    return np.vstack([body, bottom])


def _primal_feasible(tableau: np.ndarray, tol: float) -> bool:
    """Whether no basic value is below -tol; if so, zeroes the negative ones."""
    values = tableau[:-1, -1]
    drifted = values < 0.0
    if np.any(values[drifted] < -tol):
        return False
    values[drifted] = 0.0
    return True


def _refactorize(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: list[int]
) -> np.ndarray:
    """A fresh tableau for a basis that must still be primal feasible."""
    tableau = _tableau(matrix, rhs, cost, basis)
    if not _primal_feasible(tableau, _FEASIBILITY_DRIFT):
        raise SimplexFailure("basis lost feasibility")
    return tableau


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _bland_step(tableau: np.ndarray, basis: list[int], n_cols: int) -> bool:
    """Perform one pivot; False when the current tableau looks optimal."""
    reduced = tableau[-1, :n_cols]
    improving = np.flatnonzero(reduced < -PIVOT_TOL)
    if improving.size == 0:
        return False
    entering = int(improving[0])
    column = tableau[:-1, entering]
    candidates = np.flatnonzero(column > PIVOT_TOL)
    if candidates.size == 0:
        raise SimplexFailure("objective is unbounded below")
    ratios = tableau[:-1, -1][candidates] / column[candidates]
    window = ratios.min() + _RATIO_WINDOW * (1.0 + abs(ratios.min()))
    tied = candidates[ratios <= window]
    # prefer the numerically largest pivot among the tied rows, then the
    # lowest basis index so the choice is deterministic
    strength = column[tied]
    best = strength.max()
    strongest = tied[strength >= best * (1.0 - 1e-12)]
    leaving = int(min(strongest, key=lambda i: basis[i]))
    _pivot(tableau, leaving, entering)
    basis[leaving] = entering
    return True


def _dual_step(tableau: np.ndarray, basis: list[int], n_cols: int) -> bool:
    """Perform one dual simplex pivot; False once the basis is primal
    feasible. Raises SimplexFailure if no column can enter."""
    values = tableau[:-1, -1]
    leaving = int(np.argmin(values))
    if values[leaving] >= -_START_FEASIBILITY:
        return False
    row = tableau[leaving, :n_cols]
    candidates = np.flatnonzero(row < -PIVOT_TOL)
    if candidates.size == 0:
        raise SimplexFailure("no column can enter the dual ratio test")
    ratios = np.abs(tableau[-1, candidates] / row[candidates])
    entering = int(candidates[np.argmin(ratios)])
    _pivot(tableau, leaving, entering)
    basis[leaving] = entering
    return True


def _start_basis(start: Sequence[int], n_rows: int, n_vars: int) -> list[int] | None:
    """``start`` as a list if it is one distinct in-range column per row."""
    basis = [int(j) for j in start]
    if (
        len(basis) != n_rows
        or len(set(basis)) != n_rows
        or min(basis) < 0
        or max(basis) >= n_vars
    ):
        return None
    return basis


def simplex_solve(
    problem: LpProblem,
    max_iterations: int | None = None,
    start: Sequence[int] | None = None,
) -> LpSolution:
    """Solve an equality-form LP; raises SimplexFailure if uncertifiable.

    Status is "optimal" or "infeasible". Unboundedness, a numerically broken
    basis, and running past the iteration cap (default 10 * (rows + columns))
    all raise instead of returning, since none of them carries a usable
    certificate.

    ``start`` is an optional basis, one column index per row, typically the
    ``basis`` of an earlier solution of a nearby problem. It is factorized
    once: a primal feasible start goes straight to phase 2, a dual feasible
    one is first repaired by dual simplex pivots, and any other start, or
    one whose warm solve fails, gives the cold two-phase solve. The returned
    ``start`` says which happened; ``iterations`` counts the pivots of the
    path that produced the result. The returned ``basis`` (one column per
    row) is None when phase 1 dropped redundant rows.
    """
    matrix = np.array(problem.eq_matrix, dtype=float)
    rhs = np.array(problem.eq_rhs, dtype=float)
    cost = np.asarray(problem.objective, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("eq_matrix must be two dimensional")
    n_rows, n_vars = matrix.shape
    if rhs.shape != (n_rows,):
        raise ValueError("eq_rhs length does not match eq_matrix rows")
    if cost.shape != (n_vars,):
        raise ValueError("objective length does not match eq_matrix columns")
    if max_iterations is None:
        max_iterations = 10 * (n_rows + n_vars)

    flip = rhs < 0.0
    matrix[flip] *= -1.0
    rhs[flip] *= -1.0

    iterations = 0

    def pivot_until_done(step, factorize, tableau: np.ndarray, basis: list[int]):
        """Pivot with ``step`` until it reports nothing left to do.

        Returns the last tableau and whether it was computed from the
        original data after the last pivot.
        """
        nonlocal iterations
        since_refactor = 0
        while step(tableau, basis):
            iterations += 1
            since_refactor += 1
            if iterations >= max_iterations:
                raise SimplexFailure(
                    f"no certified optimum within {max_iterations} pivots"
                )
            if since_refactor >= REFACTOR_EVERY:
                tableau = factorize(basis)
                since_refactor = 0
        return tableau, since_refactor == 0

    def run(full: np.ndarray, full_rhs: np.ndarray, full_cost: np.ndarray,
            basis: list[int], n_cols: int,
            tableau: np.ndarray | None = None) -> np.ndarray:
        def factorize(b: list[int]) -> np.ndarray:
            return _refactorize(full, full_rhs, full_cost, b)

        def step(t: np.ndarray, b: list[int]) -> bool:
            return _bland_step(t, b, n_cols)

        if tableau is None:
            tableau = factorize(basis)
        while True:
            tableau, fresh = pivot_until_done(step, factorize, tableau, basis)
            if fresh:
                return tableau
            # confirm optimality on a drift-free tableau
            tableau = factorize(basis)

    def optimum(basis: list[int], tableau: np.ndarray, outcome: str) -> LpSolution:
        x = np.zeros(n_vars)
        x[basis] = tableau[:-1, -1]
        full = len(basis) == n_rows
        return LpSolution(
            "optimal", x, float(cost @ x), iterations,
            tuple(basis) if full else None, outcome,
        )

    def warm(basis: list[int]) -> LpSolution | None:
        tableau = _tableau(matrix, rhs, cost, basis)
        if _primal_feasible(tableau, _START_FEASIBILITY):
            return optimum(basis, run(matrix, rhs, cost, basis, n_vars, tableau), "accepted")
        if tableau[-1, :n_vars].min() < -PIVOT_TOL:
            return None  # neither primal nor dual feasible

        def step(t: np.ndarray, b: list[int]) -> bool:
            return _dual_step(t, b, n_vars)

        def factorize(b: list[int]) -> np.ndarray:
            return _tableau(matrix, rhs, cost, b)

        pivot_until_done(step, factorize, tableau, basis)
        return optimum(basis, run(matrix, rhs, cost, basis, n_vars), "repaired")

    if start is not None:
        basis = _start_basis(start, n_rows, n_vars)
        if basis is not None:
            try:
                solution = warm(basis)
            except SimplexFailure:
                solution = None  # pivots from a borrowed basis can go bad
            if solution is not None:
                return solution
            iterations = 0

    # phase 1: minimize the sum of one artificial variable per row
    phase1_matrix = np.column_stack([matrix, np.eye(n_rows)])
    phase1_cost = np.concatenate([np.zeros(n_vars), np.ones(n_rows)])
    basis = list(range(n_vars, n_vars + n_rows))
    tableau = run(phase1_matrix, rhs, phase1_cost, basis, n_vars + n_rows)

    if -tableau[-1, -1] > INFEASIBILITY_TOL:
        return LpSolution("infeasible", None, None, iterations)

    # drive leftover artificials out of the basis; a row whose structural
    # entries have all been eliminated is redundant and gets dropped
    in_basis = np.zeros(n_vars, dtype=bool)
    for var in basis:
        if var < n_vars:
            in_basis[var] = True
    kept: list[int] = []
    for i in range(n_rows):
        if basis[i] < n_vars:
            kept.append(i)
            continue
        row = np.abs(tableau[i, :n_vars].copy())
        row[in_basis] = 0.0
        j = int(np.argmax(row))
        if row[j] <= _REDUNDANT_TOL:
            continue
        _pivot(tableau, i, j)
        basis[i] = j
        in_basis[j] = True
        kept.append(i)

    # phase 2 on the surviving rows, original objective
    basis = [basis[i] for i in kept]
    tableau = run(matrix[kept], rhs[kept], cost, basis, n_vars)
    return optimum(basis, tableau, "cold")
