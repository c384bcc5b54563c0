"""Dense two-phase simplex for small equality-form linear programs.

Solves min c @ x subject to A x = b, x >= 0. Every phase pivots one state:
the basis, [B^-1 | B^-1 b] (the explicit inverse of the basis matrix
beside the basic values) and the reduced costs c - c_B B^-1 A. A pivot
applies row operations to [B^-1 | B^-1 b] by the pivot column B^-1 a_j,
and subtracts from the reduced costs the multiple of the pivot row
B^-1_r A that zeroes their entry j. Primal variable selection is Bland's
rule with two numerical concessions: the ratio test only accepts pivot
elements above ``PIVOT_TOL`` (elements near 1e-10 on degenerate rows left
nearly singular bases behind), and among rows essentially tied in it the
largest pivot element wins. One loop makes all pivots: it raises
SimplexFailure past the iteration cap and refactorizes every
``REFACTOR_EVERY`` pivots. The basis is also factorized afresh whenever
the primal pivots believe it optimal, so a claimed optimum is always
confirmed from the original data, free of accumulated roundoff; non-finite
reduced costs there raise SimplexFailure.
Phase 1 gives each row an artificial column signed like its right-hand
side, so the artificial basis is feasible for the rows as given and is its
own inverse; no row is negated. A problem is infeasible when phase 1
cannot bring the sum of the artificials below ``INFEASIBILITY_TOL``.
Leftover artificials are pivoted out, each on its row's largest structural
entry outside the basis; a row with none above ``_DEPENDENT_TOL`` is a
combination of the others, and the solve raises SimplexFailure, as the
rows of the intended problems are linearly independent. Phase 2 starts
from phase 1's B^-1, checked like any carried inverse (below). The
intended problems are tiny (tens of rows, around a hundred columns); all
is dense.

Every optimal solution carries its basis and B^-1, and a solve can start from
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
  pivots on the same state restore primal feasibility: the most negative
  basic value leaves, read from B^-1 b computed afresh rather than from
  the carried values (whose roundoff would change the pivot paths), and
  the entering column minimizes |d_j / a_rj| over nonbasic j with
  a_rj < -PIVOT_TOL (ties to the lowest index). The result is confirmed
  like a start: the carried B^-1 is checked again (and refactorized if it
  drifted), and the basic values and reduced costs are recomputed from the
  original data. A basis that fails that check goes on to phase 2.
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
_DEPENDENT_TOL = 1e-7
_FEASIBILITY_DRIFT = 1e-7
_START_FEASIBILITY = 1e-12

# what a pivot updates: [B^-1 | B^-1 b] and the reduced costs
State = tuple[np.ndarray, np.ndarray]


class SimplexFailure(RuntimeError):
    """The solver could not certify a result (cap, unbounded, bad basis,
    linearly dependent rows)."""


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; x, objective_value, basis and inverse are None when
    infeasible.

    ``start`` is "accepted", "repaired" or "cold": what became of the given
    start basis (see the module docstring). Without a start it is "cold".
    An optimal solution's ``basis`` holds one column per row, and
    ``inverse`` is its read-only B^-1 that confirmed the optimum, for the
    next solve's ``start`` and ``inverse``.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B^-1 (``inverse`` if it inverts the basis matrix to within
    ``INVERSE_TOL``, else a fresh factorization), the basic values B^-1 b
    and the reduced costs c - c_B B^-1 A, all from the original data."""
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
    # NaN compares false, so no column would enter and NaN be claimed optimal
    if not np.isfinite(reduced).all():
        raise SimplexFailure("reduced costs are not finite")
    return inverse, inverse @ rhs, reduced


def _primal_feasible(values: np.ndarray, tol: float) -> bool:
    """Whether no basic value is below -tol; if so, zeroes the negative ones."""
    low = values.min()
    if low < 0.0:
        if low < -tol:
            return False
        values[values < 0.0] = 0.0
    return True


def _pivot(
    state: State, basis: np.ndarray, leaving: int, entering: int,
    column: np.ndarray, row: np.ndarray,
) -> None:
    """Pivot column ``entering`` into ``basis`` at row ``leaving``, given the
    old basis's tableau column B^-1 a_entering (``column``, overwritten),
    whose ``leaving`` entry is the pivot, and tableau row B^-1_leaving A."""
    tableau, reduced = state
    pivot = column[leaving]
    reduced -= (reduced[entering] / pivot) * row
    pivot_row = tableau[leaving]
    pivot_row /= pivot
    column[leaving] = 0.0
    tableau -= column[:, None] * pivot_row
    basis[leaving] = entering


def _bland_step(state: State, basis: np.ndarray, matrix: np.ndarray, _rhs: np.ndarray) -> bool:
    """Perform one primal pivot, with the ratio test on the carried basic
    values; False when no reduced cost is below -PIVOT_TOL."""
    tableau, reduced = state
    improving = reduced < -PIVOT_TOL
    entering = int(improving.argmax())  # the lowest improving index, if any
    if not improving[entering]:
        return False
    column = tableau[:, :-1] @ matrix[:, entering]
    (candidates,) = (column > PIVOT_TOL).nonzero()
    if candidates.size == 0:
        raise SimplexFailure("objective is unbounded below")
    ratios = tableau[candidates, -1] / column[candidates]
    least = ratios.min()
    tied = candidates[ratios <= least + _RATIO_WINDOW * (1.0 + abs(least))]
    if tied.size == 1:
        leaving = int(tied[0])
    else:
        # prefer the numerically largest pivot among the tied rows, then the
        # lowest basis index so the choice is deterministic
        strength = column[tied]
        strongest = tied[strength >= strength.max() * (1.0 - 1e-12)]
        leaving = int(strongest[basis[strongest].argmin()])
    _pivot(state, basis, leaving, entering, column, tableau[leaving, :-1] @ matrix)
    return True


def _dual_step(state: State, basis: np.ndarray, matrix: np.ndarray, rhs: np.ndarray) -> bool:
    """Perform one dual simplex pivot, its leaving row read from B^-1 b
    computed afresh; False once the basis is primal feasible. Raises
    SimplexFailure if no column can enter."""
    inverse, reduced = state[0][:, :-1], state[1]
    values = inverse @ rhs
    leaving = int(values.argmin())
    if values[leaving] >= -_START_FEASIBILITY:
        return False
    row = inverse[leaving] @ matrix
    eligible = row < -PIVOT_TOL
    eligible[basis] = False
    (candidates,) = eligible.nonzero()
    if candidates.size == 0:
        raise SimplexFailure("no column can enter the dual ratio test")
    ratios = np.abs(reduced[candidates] / row[candidates])
    entering = int(candidates[ratios.argmin()])
    column = inverse @ matrix[:, entering]
    column[leaving] = row[entering]
    _pivot(state, basis, leaving, entering, column, row)
    return True


def _state(inverse: np.ndarray, values: np.ndarray, reduced: np.ndarray) -> State:
    """A new [B^-1 | B^-1 b] and the reduced costs: the state a run pivots."""
    tableau = np.empty((len(values), len(values) + 1))
    tableau[:, :-1] = inverse
    tableau[:, -1] = values
    return tableau, reduced


def _run(
    step, matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: np.ndarray,
    confirmed: tuple[np.ndarray, np.ndarray, np.ndarray], iterations: int,
    max_iterations: int,
) -> tuple[np.ndarray, int]:
    """Pivot by ``step`` from ``confirmed`` (B^-1, basic values and reduced
    costs of ``basis``) until the step stops, refactorizing every
    ``REFACTOR_EVERY`` pivots. Returns the last B^-1 (a view into the
    state) and the pivot count. Raises SimplexFailure past
    ``max_iterations`` pivots."""
    start = iterations
    state = _state(*confirmed)
    while step(state, basis, matrix, rhs):
        iterations += 1
        if iterations > max_iterations:
            raise SimplexFailure(f"no certified optimum within {max_iterations} pivots")
        if (iterations - start) % REFACTOR_EVERY == 0:
            state = _state(*_confirmed(matrix, rhs, cost, basis, None))
    return state[0][:, :-1], iterations


def _primal(
    matrix: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: np.ndarray,
    inverse: np.ndarray | None, iterations: int, max_iterations: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], int]:
    """Bland pivots from ``basis`` (B^-1 ``inverse``, if known) to an optimum
    confirmed by ``_confirmed``; returns the confirmation and the pivot
    count."""
    confirmed = _confirmed(matrix, rhs, cost, basis, inverse)
    while True:
        if not _primal_feasible(confirmed[1], _FEASIBILITY_DRIFT):
            raise SimplexFailure("basis lost feasibility")
        if confirmed[2].min() >= -PIVOT_TOL:
            return confirmed, iterations
        _, iterations = _run(
            _bland_step, matrix, rhs, cost, basis, confirmed, iterations, max_iterations
        )
        # confirm a claimed optimum on a fresh factorization
        confirmed = _confirmed(matrix, rhs, cost, basis, None)


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
    confirmed = _confirmed(matrix, rhs, cost, basis, inverse)
    inverse, values, reduced = confirmed
    dual_feasible = reduced.min() >= -PIVOT_TOL
    iterations = 0
    if _primal_feasible(values, _START_FEASIBILITY):
        outcome = "accepted"
        if dual_feasible:
            return basis, values, inverse, outcome, iterations
    elif not dual_feasible:
        return None
    else:
        outcome = "repaired"
        inverse, iterations = _run(
            _dual_step, matrix, rhs, cost, basis, confirmed, iterations, max_iterations
        )
    # Bland pivots from here if needed; a repaired basis is confirmed on its
    # carried inverse
    (inverse, values, _), iterations = _primal(
        matrix, rhs, cost, basis, inverse, iterations, max_iterations
    )
    return basis, values, inverse, outcome, iterations


def _optimum(
    cost: np.ndarray, basis: np.ndarray, values: np.ndarray,
    inverse: np.ndarray, outcome: str, iterations: int,
) -> LpSolution:
    """The optimal solution, carrying ``basis`` and its frozen ``inverse``."""
    x = np.zeros(len(cost))
    x[basis] = values
    inverse.setflags(write=False)
    return LpSolution(
        "optimal", x, float(cost @ x), iterations, tuple(basis.tolist()), outcome, inverse
    )


def simplex_solve(
    objective: np.ndarray,
    eq_matrix: np.ndarray,
    eq_rhs: np.ndarray,
    max_iterations: int | None = None,
    start: Sequence[int] | None = None,
    inverse: np.ndarray | None = None,
) -> LpSolution:
    """Solve min objective @ x subject to eq_matrix @ x = eq_rhs, x >= 0;
    raises SimplexFailure if uncertifiable.

    Status is "optimal" or "infeasible". Unboundedness, a numerically broken
    basis, consistent but linearly dependent rows ("equality rows are
    linearly dependent") and running past the iteration cap (default
    10 * (rows + columns)) all raise instead of returning, since none of
    them carries a usable certificate. Data of the wrong shape or with a
    non-finite entry raises ValueError naming the array.

    ``start`` is an optional basis, one column index per row, typically the
    ``basis`` of an earlier solution of a nearby problem, and ``inverse``
    that solution's ``inverse``, used only if it still inverts the basis
    matrix. The returned ``start`` says what became of the start (see the
    module docstring); ``iterations`` counts the pivots of the path that
    produced the result. An accepted optimal start hands back a read-only
    ``inverse`` as it was given, not a copy.
    """
    matrix = np.asarray(eq_matrix, dtype=float)
    rhs = np.asarray(eq_rhs, dtype=float)
    cost = np.asarray(objective, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("eq_matrix must be two dimensional")
    n_rows, n_vars = matrix.shape
    if rhs.shape != (n_rows,):
        raise ValueError("eq_rhs length does not match eq_matrix rows")
    if cost.shape != (n_vars,):
        raise ValueError("objective length does not match eq_matrix columns")
    _check_finite(eq_matrix=matrix, eq_rhs=rhs, objective=cost)
    return _solve(cost, matrix, rhs, max_iterations, start, inverse)


def _check_finite(**arrays: np.ndarray) -> None:
    """Raise ValueError naming the first array with a non-finite entry."""
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must be finite")


def _solve(
    cost: np.ndarray, matrix: np.ndarray, rhs: np.ndarray,
    max_iterations: int | None = None, start: Sequence[int] | None = None,
    inverse: np.ndarray | None = None,
) -> LpSolution:
    """``simplex_solve`` of float data with matching shapes, known finite."""
    n_rows, n_vars = matrix.shape
    if max_iterations is None:
        max_iterations = 10 * (n_rows + n_vars)

    # the given arrays are only read, never written
    if inverse is not None:
        inverse = np.asarray(inverse, dtype=float)
        if inverse.shape != (n_rows, n_rows):
            inverse = None
        elif inverse.flags.writeable:
            inverse = inverse.copy()  # the solution's inverse is frozen

    if start is not None:
        try:
            warm = _warm(matrix, rhs, cost, start, inverse, max_iterations)
        except SimplexFailure:
            warm = None  # pivots from a borrowed basis can go bad
        if warm is not None:
            return _optimum(cost, *warm)

    # phase 1: minimize the sum of one artificial variable per row; each
    # artificial column is signed like its row's right-hand side, so the
    # artificial basis is feasible and is its own inverse
    artificials = np.diag(np.where(rhs < 0.0, -1.0, 1.0))
    phase1_matrix = np.column_stack([matrix, artificials])
    phase1_cost = np.concatenate([np.zeros(n_vars), np.ones(n_rows)])
    basis = np.arange(n_vars, n_vars + n_rows)
    (inverse, values, reduced), iterations = _primal(
        phase1_matrix, rhs, phase1_cost, basis, artificials, 0, max_iterations
    )

    if phase1_cost[basis] @ values > INFEASIBILITY_TOL:
        return LpSolution("infeasible", None, None, iterations)

    # drive leftover artificials out of the basis by pivots on phase 1's
    # state; a row whose structural entries have all been eliminated is a
    # combination of the others
    state = _state(inverse, values, reduced)
    tableau = state[0]
    in_basis = np.zeros(n_vars, dtype=bool)
    in_basis[basis[basis < n_vars]] = True
    for i in np.flatnonzero(basis >= n_vars):
        row = tableau[i, :-1] @ phase1_matrix
        magnitude = np.where(in_basis, 0.0, np.abs(row[:n_vars]))
        j = int(np.argmax(magnitude))
        if magnitude[j] <= _DEPENDENT_TOL:
            raise SimplexFailure("equality rows are linearly dependent")
        _pivot(state, basis, i, j, tableau[:, :-1] @ matrix[:, j], row)
        in_basis[j] = True

    # phase 2 with the original objective from phase 1's B^-1
    (inverse, values, _), iterations = _primal(
        matrix, rhs, cost, basis, tableau[:, :-1].copy(), iterations, max_iterations
    )
    return _optimum(cost, basis, values, inverse, "cold", iterations)
