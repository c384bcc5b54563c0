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


def _confirmed(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: np.ndarray,
    inverse: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """B^-1 (``inverse`` if it inverts the basis matrix to within
    ``INVERSE_TOL``, else a fresh factorization), the basic values B^-1 b,
    and whether the reduced costs c - c_B B^-1 A show the basis dual
    feasible; all checked against the original data."""
    footprint = matrix[:, basis]
    if inverse is not None:
        gap = inverse @ footprint
        gap.ravel()[:: len(basis) + 1] -= 1.0  # minus the identity
        # NaN fails the comparison and is refactorized too
        if not np.abs(gap).max() <= INVERSE_TOL:
            inverse = None
    if inverse is None:
        inverse = _factorize(footprint)
    reduced = cost - (cost[basis] @ inverse) @ matrix
    return inverse, inverse @ rhs, bool(reduced.min() >= -PIVOT_TOL)


def _extended(inverse: np.ndarray, basic_cost: np.ndarray) -> np.ndarray:
    """[B^-1; -c_B B^-1]: the row operations that take the rows of the
    original data [A | b] and the cost row [c | 0] to the tableau."""
    return np.vstack([inverse, -basic_cost @ inverse])


def _primal_feasible(values: np.ndarray, tol: float) -> bool:
    """Whether no basic value is below -tol; if so, zeroes the negative ones."""
    low = values.min()
    if low < 0.0:
        if low < -tol:
            return False
        values[values < 0.0] = 0.0
    return True


def _refactorize(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: np.ndarray,
    inverse: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The tableau B^-1 [A | b] plus a priced-out cost row, for a basis that
    must still be primal feasible, and B^-1 (factorized unless given).

    Computing from the original data resets all accumulated pivot roundoff;
    only the basis, which is combinatorial, is carried over.
    """
    if inverse is None:
        inverse = _factorize(matrix[:, basis])
    extended = _extended(inverse, cost[basis])
    tableau = np.column_stack([extended @ matrix, extended @ rhs])
    tableau[-1, :-1] += cost
    if not _primal_feasible(tableau[:-1, -1], _FEASIBILITY_DRIFT):
        raise SimplexFailure("basis lost feasibility")
    return tableau, inverse


def _eta(array: np.ndarray, row: int, column: np.ndarray) -> None:
    """Apply to ``array`` the row operations that turn ``column``, the pivot
    column over its rows, into the unit vector of ``row``; overwrites
    ``column``."""
    array[row] /= column[row]
    column[row] = 0.0
    array -= column[:, None] * array[row]


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    _eta(tableau, row, tableau[:, col].copy())
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _bland_step(tableau: np.ndarray, basis: np.ndarray, n_cols: int) -> bool:
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
    extended: np.ndarray, basis: np.ndarray, matrix: np.ndarray,
    rhs: np.ndarray, cost: np.ndarray,
) -> bool:
    """Perform one dual simplex pivot on ``_extended`` rows; False once the
    basis is primal feasible. Raises SimplexFailure if no column can enter."""
    values = extended[:-1] @ rhs
    leaving = int(values.argmin())
    if values[leaving] >= -_START_FEASIBILITY:
        return False
    row, reduced = extended[[leaving, -1]] @ matrix
    reduced += cost
    (candidates,) = (row < -PIVOT_TOL).nonzero()
    if candidates.size == 0:
        raise SimplexFailure("no column can enter the dual ratio test")
    ratios = np.abs(reduced[candidates] / row[candidates])
    entering = int(candidates[ratios.argmin()])
    column = extended @ matrix[:, entering]
    column[-1] += cost[entering]
    _eta(extended, leaving, column)
    basis[leaving] = entering
    return True


def _primal(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: np.ndarray,
    n_cols: int, inverse: np.ndarray | None, iterations: int, max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Bland pivots from ``basis`` (B^-1 ``inverse``, if known) to an optimum
    confirmed on a fresh tableau; returns it, its B^-1 and the pivot count."""
    tableau, inverse = _refactorize(matrix, rhs, cost, basis, inverse)
    since_refactor = 0
    while True:
        if _bland_step(tableau, basis, n_cols):
            iterations += 1
            if iterations > max_iterations:
                raise SimplexFailure(f"no certified optimum within {max_iterations} pivots")
            since_refactor += 1
            if since_refactor < REFACTOR_EVERY:
                continue
        elif since_refactor == 0:
            return tableau, inverse, iterations
        # refactorize every REFACTOR_EVERY pivots, and confirm a claimed
        # optimum on a drift-free tableau
        tableau, inverse = _refactorize(matrix, rhs, cost, basis)
        since_refactor = 0


def _warm(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, start: Sequence[int],
    inverse: np.ndarray | None, max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, str, int] | None:
    """The solve from a start basis: the optimal basis, its basic values,
    B^-1, the start outcome and the pivot count; None when the start is not
    one distinct in-range column per row, or is neither primal nor dual
    feasible (see the module docstring)."""
    n_rows, n_vars = matrix.shape
    basis = np.array(start, dtype=np.intp)
    if (
        basis.shape != (n_rows,)
        or len(set(basis.tolist())) != n_rows
        or basis.min() < 0
        or basis.max() >= n_vars
    ):
        return None
    inverse, values, dual_feasible = _confirmed(matrix, rhs, cost, basis, inverse)
    iterations = 0
    if _primal_feasible(values, _START_FEASIBILITY):
        outcome = "accepted"
    elif not dual_feasible:
        return None
    else:
        outcome = "repaired"
        extended = _extended(inverse, cost[basis])
        while _dual_step(extended, basis, matrix, rhs, cost):
            iterations += 1
            if iterations > max_iterations:
                raise SimplexFailure(f"no certified optimum within {max_iterations} pivots")
            if iterations % REFACTOR_EVERY == 0:
                extended = _extended(_factorize(matrix[:, basis]), cost[basis])
        inverse, values, dual_feasible = _confirmed(
            matrix, rhs, cost, basis, extended[:-1]
        )
        if not _primal_feasible(values, _FEASIBILITY_DRIFT):
            raise SimplexFailure("basis lost feasibility")
    if not dual_feasible:
        tableau, inverse, iterations = _primal(
            matrix, rhs, cost, basis, n_vars, inverse, iterations, max_iterations
        )
        values = tableau[:-1, -1]
    return basis, values, inverse, outcome, iterations


def _optimum(
    cost: np.ndarray, basis: np.ndarray, values: np.ndarray,
    inverse: np.ndarray | None, outcome: str, iterations: int,
    sign: np.ndarray | None,
) -> LpSolution:
    """The optimal solution; without ``inverse`` it carries no basis."""
    x = np.zeros(len(cost))
    x[basis] = values
    if inverse is not None:
        if sign is not None:
            inverse = inverse * sign
        inverse.setflags(write=False)
        basis = tuple(basis.tolist())
    else:
        basis = None
    return LpSolution("optimal", x, float(cost @ x), iterations, basis, outcome, inverse)


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
    that solution's ``inverse``, used only if it still inverts the basis
    matrix. The returned ``start`` says what became of the start (see the
    module docstring); ``iterations`` counts the pivots of the path that
    produced the result. The returned ``basis`` and ``inverse`` are None
    when phase 1 dropped redundant rows. An accepted optimal start hands
    back a read-only ``inverse`` as it was given, not a copy.
    """
    matrix = np.asarray(problem.eq_matrix, dtype=float)
    rhs = np.asarray(problem.eq_rhs, dtype=float)
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
    # rows is B^-1 of the given ones with the same columns negated. The
    # given arrays are only read, never written.
    sign = None
    if rhs.min(initial=0.0) < 0.0:
        sign = np.where(rhs < 0.0, -1.0, 1.0)
        matrix = matrix * sign[:, None]
        rhs = rhs * sign
    if inverse is not None:
        inverse = np.asarray(inverse, dtype=float)
        if inverse.shape != (n_rows, n_rows):
            inverse = None
        elif sign is not None:
            inverse = inverse * sign
        elif inverse.flags.writeable:
            inverse = inverse.copy()  # the solution's inverse is frozen

    if start is not None:
        try:
            warm = _warm(matrix, rhs, cost, start, inverse, max_iterations)
        except SimplexFailure:
            warm = None  # pivots from a borrowed basis can go bad
        if warm is not None:
            return _optimum(cost, *warm, sign)

    # phase 1: minimize the sum of one artificial variable per row
    phase1_matrix = np.column_stack([matrix, np.eye(n_rows)])
    phase1_cost = np.concatenate([np.zeros(n_vars), np.ones(n_rows)])
    basis = np.arange(n_vars, n_vars + n_rows)
    tableau, _, iterations = _primal(
        phase1_matrix, rhs, phase1_cost, basis, n_vars + n_rows, None, 0,
        max_iterations,
    )

    if -tableau[-1, -1] > INFEASIBILITY_TOL:
        return LpSolution("infeasible", None, None, iterations)

    # drive leftover artificials out of the basis; a row whose structural
    # entries have all been eliminated is redundant and gets dropped
    in_basis = np.zeros(n_vars, dtype=bool)
    in_basis[basis[basis < n_vars]] = True
    kept: list[int] = []
    for i in range(n_rows):
        if basis[i] < n_vars:
            kept.append(i)
            continue
        row = np.abs(tableau[i, :n_vars])
        row[in_basis] = 0.0
        j = int(np.argmax(row))
        if row[j] <= _REDUNDANT_TOL:
            continue
        _pivot(tableau, i, j)
        basis[i] = j
        in_basis[j] = True
        kept.append(i)

    # phase 2 on the surviving rows, original objective
    basis = basis[kept]
    tableau, inverse, iterations = _primal(
        matrix[kept], rhs[kept], cost, basis, n_vars, None, iterations, max_iterations
    )
    if len(kept) < n_rows:
        inverse = None  # no basis with one column per row to hand on
    return _optimum(cost, basis, tableau[:-1, -1], inverse, "cold", iterations, sign)
