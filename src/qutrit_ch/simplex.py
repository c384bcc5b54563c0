"""Dense two-phase simplex for small equality-form linear programs.

Solves min c @ x subject to A x = b, x >= 0. Variable selection is Bland's
rule with two numerical concessions: the ratio test only accepts pivot
elements above ``PIVOT_TOL`` (elements near 1e-10 on degenerate rows left
nearly singular bases behind), and among rows essentially tied in it the
largest pivot element wins. Accumulated roundoff is flushed by
refactorizing the tableau from the original data every few pivots and again
whenever the solver believes it is optimal on a tableau that has been
pivoted since it was computed, so a claimed optimum is always confirmed on
a freshly computed tableau. A factorization is the explicit inverse B^-1
of the basis matrix, and the tableau is B^-1 times the original data. A
problem is infeasible when phase 1 cannot bring the sum of the artificial
variables below ``INFEASIBILITY_TOL``. The intended problems are tiny (tens
of rows, around a hundred columns); everything is dense.

A solution carries its optimal basis and B^-1, and a solve can start from
such a basis, for instance that of a nearby problem. A given inverse is
used only if max |B^-1 B - I| <= ``INVERSE_TOL`` on the new matrix;
otherwise, or when only the basis is given, the basis is factorized once.
The basic values B^-1 b and the reduced costs c - c_B B^-1 A are then
computed from the original data, and the solution reports one of three
start outcomes:

- "accepted": the basis is primal feasible. If no reduced cost is below
  ``-PIVOT_TOL`` it is optimal as it stands, and the solve costs a few
  products with B^-1 and no factorization; otherwise phase 2 runs from it.
- "repaired": the basis is primal infeasible but dual feasible, as an
  optimal basis stays when only the right-hand side moves. Dual simplex
  pivots on B^-1 restore primal feasibility: the most negative basic value
  leaves, the entering column minimizes |d_j / a_rj| over
  a_rj < -PIVOT_TOL (ties to the lowest index), and each pivot computes the
  row B^-1_r A and the column B^-1 a_j and updates B^-1 by row operations.
  The result is confirmed like a start: B^-1 is checked again (and
  refactorized if it drifted), and the basic values and reduced costs are
  recomputed from the original data. A basis that fails that check goes on
  to phase 2.
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
INVERSE_TOL = 1e-9  # max |B^-1 B - I| of an inverse carried into a solve
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
    ``inverse`` is the read-only B^-1 of ``basis`` that confirmed the
    optimum, for the next solve's ``inverse``; both are None when phase 1
    dropped redundant rows.
    """

    status: str
    x: np.ndarray | None
    objective_value: float | None
    iterations: int
    basis: tuple[int, ...] | None = None
    start: str = "cold"
    inverse: np.ndarray | None = None


def _factorize(footprint: np.ndarray) -> np.ndarray:
    """B^-1 of the basis matrix ``footprint``."""
    try:
        return np.linalg.inv(footprint)
    except np.linalg.LinAlgError:
        raise SimplexFailure("basis matrix is singular")


def _checked_inverse(
    matrix: np.ndarray, basis: list[int], inverse: np.ndarray | None
) -> np.ndarray:
    """``inverse`` if it inverts the basis matrix to within ``INVERSE_TOL``,
    else a fresh factorization."""
    footprint = matrix[:, basis]
    # NaN fails the comparison and is refactorized too
    if inverse is not None and (
        np.max(np.abs(inverse @ footprint - np.eye(len(basis)))) <= INVERSE_TOL
    ):
        return inverse
    return _factorize(footprint)


def _extended(inverse: np.ndarray, basic_cost: np.ndarray) -> np.ndarray:
    """[B^-1; -c_B B^-1]: the row operations that take the rows of the
    original data [A | b] and the cost row [c | 0] to the tableau."""
    return np.vstack([inverse, -basic_cost @ inverse])


def _tableau(
    extended: np.ndarray, matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray
) -> np.ndarray:
    """The tableau B^-1 [A | b] plus a priced-out cost row.

    Computing from the original data resets all accumulated pivot roundoff;
    only the basis, which is combinatorial, is carried over.
    """
    # the rhs column is the same product as in the warm start's check, so
    # both give the same basic values to the bit
    tableau = np.column_stack([extended @ matrix, extended @ rhs])
    tableau[-1, :-1] += cost
    return tableau


def _primal_feasible(values: np.ndarray, tol: float) -> bool:
    """Whether no basic value is below -tol; if so, zeroes the negative ones."""
    drifted = values < 0.0
    if np.any(values[drifted] < -tol):
        return False
    values[drifted] = 0.0
    return True


def _refactorize(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: list[int],
    inverse: np.ndarray,
) -> np.ndarray:
    """A fresh tableau for a basis that must still be primal feasible."""
    tableau = _tableau(_extended(inverse, cost[basis]), matrix, rhs, cost)
    if not _primal_feasible(tableau[:-1, -1], _FEASIBILITY_DRIFT):
        raise SimplexFailure("basis lost feasibility")
    return tableau


def _eta(array: np.ndarray, row: int, column: np.ndarray) -> None:
    """Apply to ``array`` the row operations that turn ``column``, the pivot
    column over its rows, into the unit vector of ``row``; overwrites
    ``column``."""
    array[row] /= column[row]
    column[row] = 0.0
    array -= np.outer(column, array[row])


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    _eta(tableau, row, tableau[:, col].copy())
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


def _dual_step(
    extended: np.ndarray, basis: list[int], matrix: np.ndarray,
    rhs: np.ndarray, cost: np.ndarray,
) -> bool:
    """Perform one dual simplex pivot on ``_extended`` rows; False once the
    basis is primal feasible. Raises SimplexFailure if no column can enter."""
    values = extended[:-1] @ rhs
    leaving = int(np.argmin(values))
    if values[leaving] >= -_START_FEASIBILITY:
        return False
    row, reduced = extended[[leaving, -1]] @ matrix
    reduced += cost
    candidates = np.flatnonzero(row < -PIVOT_TOL)
    if candidates.size == 0:
        raise SimplexFailure("no column can enter the dual ratio test")
    ratios = np.abs(reduced[candidates] / row[candidates])
    entering = int(candidates[np.argmin(ratios)])
    column = extended @ matrix[:, entering]
    column[-1] += cost[entering]
    _eta(extended, leaving, column)
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
    inverse: np.ndarray | None = None,
) -> LpSolution:
    """Solve an equality-form LP; raises SimplexFailure if uncertifiable.

    Status is "optimal" or "infeasible". Unboundedness, a numerically broken
    basis, and running past the iteration cap (default 10 * (rows + columns))
    all raise instead of returning, since none of them carries a usable
    certificate.

    ``start`` is an optional basis, one column index per row, typically the
    ``basis`` of an earlier solution of a nearby problem, and ``inverse``
    that solution's ``inverse``; it is used only if it still inverts the
    basis matrix, and ignored without a ``start``. A primal feasible start
    is accepted, a dual feasible one is first repaired by dual simplex
    pivots, and any other start, or one whose warm solve fails, gives the
    cold two-phase solve. The returned ``start`` says which happened;
    ``iterations`` counts the pivots of the path that produced the result.
    The returned ``basis`` (one column per row) and ``inverse`` are None
    when phase 1 dropped redundant rows.
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

    # rows with a negative right-hand side are negated; B^-1 of the negated
    # rows is B^-1 of the given ones with the same columns negated
    sign = np.where(rhs < 0.0, -1.0, 1.0)
    matrix *= sign[:, None]
    rhs *= sign
    if inverse is not None:
        inverse = np.asarray(inverse, dtype=float)
        inverse = inverse * sign if inverse.shape == (n_rows, n_rows) else None

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
            inverse: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Bland pivots from ``basis`` (B^-1 ``inverse``, if known) to an
        optimum confirmed on a fresh tableau; returns it and its B^-1."""
        def factorize(b: list[int]) -> np.ndarray:
            nonlocal inverse
            inverse = _factorize(full[:, b])
            return _refactorize(full, full_rhs, full_cost, b, inverse)

        def step(t: np.ndarray, b: list[int]) -> bool:
            return _bland_step(t, b, n_cols)

        if inverse is None:
            tableau = factorize(basis)
        else:
            tableau = _refactorize(full, full_rhs, full_cost, basis, inverse)
        while True:
            tableau, fresh = pivot_until_done(step, factorize, tableau, basis)
            if fresh:
                return tableau, inverse
            # confirm optimality on a drift-free tableau
            tableau = factorize(basis)

    def optimum(basis: list[int], values: np.ndarray, inverse: np.ndarray,
                outcome: str) -> LpSolution:
        x = np.zeros(n_vars)
        x[basis] = values
        if len(basis) != n_rows:
            return LpSolution("optimal", x, float(cost @ x), iterations, None, outcome)
        inverse = inverse * sign
        inverse.setflags(write=False)
        return LpSolution(
            "optimal", x, float(cost @ x), iterations, tuple(basis), outcome, inverse
        )

    def priced(basis: list[int], inverse: np.ndarray):
        """``_extended`` rows, the basic values, and whether the reduced
        costs show the basis dual feasible; all from the original data."""
        extended = _extended(inverse, cost[basis])
        reduced = extended[-1] @ matrix + cost
        return extended, (extended @ rhs)[:-1], reduced.min() >= -PIVOT_TOL

    def warm(basis: list[int], inverse: np.ndarray | None) -> LpSolution | None:
        inverse = _checked_inverse(matrix, basis, inverse)
        extended, values, dual_feasible = priced(basis, inverse)
        if _primal_feasible(values, _START_FEASIBILITY):
            outcome = "accepted"
        elif not dual_feasible:
            return None  # neither primal nor dual feasible
        else:
            outcome = "repaired"

            def step(e: np.ndarray, b: list[int]) -> bool:
                return _dual_step(e, b, matrix, rhs, cost)

            def factorize(b: list[int]) -> np.ndarray:
                return _extended(_factorize(matrix[:, b]), cost[b])

            extended, _ = pivot_until_done(step, factorize, extended, basis)
            inverse = _checked_inverse(matrix, basis, extended[:-1])
            _, values, dual_feasible = priced(basis, inverse)
            if not _primal_feasible(values, _FEASIBILITY_DRIFT):
                raise SimplexFailure("basis lost feasibility")
        if dual_feasible:
            return optimum(basis, values, inverse, outcome)
        tableau, inverse = run(matrix, rhs, cost, basis, n_vars, inverse)
        return optimum(basis, tableau[:-1, -1], inverse, outcome)

    if start is not None:
        basis = _start_basis(start, n_rows, n_vars)
        if basis is not None:
            try:
                solution = warm(basis, inverse)
            except SimplexFailure:
                solution = None  # pivots from a borrowed basis can go bad
            if solution is not None:
                return solution
            iterations = 0

    # phase 1: minimize the sum of one artificial variable per row
    phase1_matrix = np.column_stack([matrix, np.eye(n_rows)])
    phase1_cost = np.concatenate([np.zeros(n_vars), np.ones(n_rows)])
    basis = list(range(n_vars, n_vars + n_rows))
    tableau, _ = run(phase1_matrix, rhs, phase1_cost, basis, n_vars + n_rows)

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
    tableau, inverse = run(matrix[kept], rhs[kept], cost, basis, n_vars)
    return optimum(basis, tableau[:-1, -1], inverse, "cold")
