"""Dense two-phase simplex for small equality-form linear programs.

Solves min c @ x subject to A x = b, x >= 0. Variable selection is Bland's
rule with two numerical concessions: the ratio test only accepts pivot
elements above ``pivot_tol`` (1e-8 by default; elements near 1e-10 on
degenerate rows left nearly singular bases behind), and among rows
essentially tied in it the largest pivot element wins. Accumulated roundoff
is flushed by refactorizing the tableau from the original data every few
pivots and again whenever the solver believes it is optimal, so a claimed
optimum is always confirmed on a freshly computed tableau. The intended
problems are tiny (tens of rows, around a hundred columns); everything is
dense.

A solve can start from a given basis, such as the optimal basis of a nearby
problem. Phase 1 is then skipped if that basis is nonsingular and primal
feasible for the new data; otherwise the solve is the cold two-phase one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

REFACTOR_EVERY = 30
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
    """Solver outcome; x and objective_value are None when infeasible."""

    status: str
    x: np.ndarray | None
    objective_value: float | None
    iterations: int
    basis: tuple[int, ...] | None = None


def _refactorize(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: list[int]
) -> np.ndarray:
    """Rebuild the tableau as B^-1 [A | b] plus a priced-out cost row.

    Computing from the original data resets all accumulated pivot roundoff;
    only the basis, which is combinatorial, is carried over.
    """
    footprint = matrix[:, basis]
    try:
        body = np.linalg.solve(footprint, np.column_stack([matrix, rhs]))
    except np.linalg.LinAlgError:
        raise SimplexFailure("basis matrix is singular")
    bottom = np.concatenate([cost, [0.0]]) - cost[basis] @ body
    values = body[:, -1]
    drifted = values < 0.0
    if np.any(values[drifted] < -_FEASIBILITY_DRIFT):
        raise SimplexFailure("basis lost feasibility")
    values[drifted] = 0.0
    return np.vstack([body, bottom])


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    column = tableau[:, col].copy()
    column[row] = 0.0
    tableau -= np.outer(column, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _bland_step(
    tableau: np.ndarray, basis: list[int], n_cols: int, pivot_tol: float
) -> bool:
    """Perform one pivot; False when the current tableau looks optimal."""
    reduced = tableau[-1, :n_cols]
    improving = np.flatnonzero(reduced < -pivot_tol)
    if improving.size == 0:
        return False
    entering = int(improving[0])
    column = tableau[:-1, entering]
    candidates = np.flatnonzero(column > pivot_tol)
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


def _feasible_start(
    matrix: np.ndarray, rhs: np.ndarray, start: Sequence[int]
) -> list[int] | None:
    """``start`` as a basis if it is one column per row, nonsingular and
    primal feasible (B^-1 b >= -1e-12), else None."""
    n_rows, n_vars = matrix.shape
    basis = [int(j) for j in start]
    if (
        len(basis) != n_rows
        or len(set(basis)) != n_rows
        or min(basis) < 0
        or max(basis) >= n_vars
    ):
        return None
    try:
        values = np.linalg.solve(matrix[:, basis], rhs)
    except np.linalg.LinAlgError:
        return None
    if not np.all(values >= -_START_FEASIBILITY):
        return None
    return basis


def simplex_solve(
    problem: LpProblem,
    pivot_tol: float = 1e-8,
    infeasibility_tol: float = 1e-9,
    max_iterations: int | None = None,
    start: Sequence[int] | None = None,
) -> LpSolution:
    """Solve an equality-form LP; raises SimplexFailure if uncertifiable.

    Status is "optimal" or "infeasible". Unboundedness, a numerically broken
    basis, and running past the iteration cap (default 10 * (rows + columns))
    all raise instead of returning, since none of them carries a usable
    certificate.

    ``start`` is an optional basis, one column index per row, typically the
    ``basis`` of an earlier solution of a nearby problem. If it is
    nonsingular and primal feasible for this problem, phase 1 is skipped and
    phase 2 starts from it; otherwise, or if phase 2 from it fails, the solve
    is the cold two-phase one. The returned ``basis`` (one column per row)
    is None when phase 1 dropped redundant rows.
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

    def run(full: np.ndarray, full_rhs: np.ndarray, full_cost: np.ndarray,
            basis: list[int], n_cols: int) -> np.ndarray:
        nonlocal iterations
        tableau = _refactorize(full, full_rhs, full_cost, basis)
        since_refactor = 0
        while True:
            if not _bland_step(tableau, basis, n_cols, pivot_tol):
                # confirm optimality on a drift-free tableau
                tableau = _refactorize(full, full_rhs, full_cost, basis)
                since_refactor = 0
                if not _bland_step(tableau, basis, n_cols, pivot_tol):
                    return tableau
            iterations += 1
            since_refactor += 1
            if iterations >= max_iterations:
                raise SimplexFailure(
                    f"no certified optimum within {max_iterations} pivots"
                )
            if since_refactor >= REFACTOR_EVERY:
                tableau = _refactorize(full, full_rhs, full_cost, basis)
                since_refactor = 0

    def optimum(basis: list[int], tableau: np.ndarray) -> LpSolution:
        x = np.zeros(n_vars)
        x[basis] = tableau[:-1, -1]
        full = len(basis) == n_rows
        return LpSolution(
            "optimal", x, float(cost @ x), iterations, tuple(basis) if full else None
        )

    if start is not None:
        basis = _feasible_start(matrix, rhs, start)
        if basis is not None:
            try:
                return optimum(basis, run(matrix, rhs, cost, basis, n_vars))
            except SimplexFailure:
                pass  # pivots from a borrowed basis can go bad; solve cold

    # phase 1: minimize the sum of one artificial variable per row
    phase1_matrix = np.column_stack([matrix, np.eye(n_rows)])
    phase1_cost = np.concatenate([np.zeros(n_vars), np.ones(n_rows)])
    basis = list(range(n_vars, n_vars + n_rows))
    tableau = run(phase1_matrix, rhs, phase1_cost, basis, n_vars + n_rows)

    if -tableau[-1, -1] > infeasibility_tol:
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
    return optimum(basis, tableau)
