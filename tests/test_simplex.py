import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

import qutrit_ch.simplex as simplex_module
from qutrit_ch.simplex import INVERSE_TOL, LpSolution, SimplexFailure
from qutrit_ch.simplex import simplex_solve as solve  # solve(c, a, b, **kw)


def test_simple_bounded_problem():
    # min -x1 - x2 with x1 + x2 + slack = 1
    sol = solve([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 1.0) < 1e-12
    assert abs(sol.x[:2].sum() - 1.0) < 1e-12


def test_unique_feasible_point_is_returned_for_any_objective():
    a = [[1.0, 2.0], [3.0, 1.0]]
    b = [4.0, 7.0]
    for c in ([0.0, 0.0], [1.0, -5.0], [-2.0, 3.0]):
        sol = solve(c, a, b)
        assert sol.status == "optimal"
        assert np.max(np.abs(sol.x - [2.0, 1.0])) < 1e-10


def test_negative_rhs_rows_are_handled():
    sol = solve([1.0, 1.0], [[-1.0, -2.0], [-3.0, -1.0]], [-4.0, -7.0])
    assert sol.status == "optimal"
    assert np.max(np.abs(sol.x - [2.0, 1.0])) < 1e-10


def test_infeasible_system_is_reported_not_raised():
    sol = solve([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert sol.status == "infeasible"
    assert sol.x is None
    assert sol.objective_value is None


def test_sign_infeasibility_is_detected():
    # x1 + x2 = -1 has no nonnegative solution
    sol = solve([0.0, 0.0], [[1.0, 1.0]], [-1.0])
    assert sol.status == "infeasible"


def test_unbounded_problem_raises():
    with pytest.raises(SimplexFailure):
        solve([-1.0, 0.0], [[1.0, -1.0]], [0.0])


def test_iteration_cap_raises_instead_of_returning_garbage():
    rng = np.random.default_rng(71)
    a = rng.uniform(0, 1, (6, 14))
    x0 = rng.uniform(0, 1, 14)
    b = a @ x0
    c = np.abs(rng.normal(size=14))  # bounded below, so only the cap bites
    with pytest.raises(SimplexFailure):
        solve(c, a, b, max_iterations=1)
    sol = solve(c, a, b)
    assert sol.status == "optimal"


def test_consistent_dependent_rows_raise():
    # the third row is the sum of the first two, and b agrees, so phase 1
    # succeeds but leaves an artificial with no structural entry to pivot on
    a = [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 2.0, 1.0]]
    b = [1.0, 1.0, 2.0]
    with pytest.raises(SimplexFailure, match="equality rows are linearly dependent"):
        solve([1.0, -1.0, 2.0], a, b)


def test_degenerate_rhs_is_handled():
    a = [[1.0, 1.0, 1.0, 0.0], [1.0, -1.0, 0.0, 1.0]]
    b = [1.0, 0.0]
    sol = solve([-2.0, -1.0, 0.0, 0.0], a, b)
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 1.5) < 1e-10


def test_solution_dataclass_round_trip():
    sol = LpSolution("optimal", np.zeros(2), 0.0, 3)
    assert sol.status == "optimal"
    assert sol.iterations == 3
    assert sol.start == "cold"


def test_shape_validation():
    with pytest.raises(ValueError):
        solve([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        solve([1.0, 2.0], [[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ValueError, match="eq_matrix must be two dimensional"):
        solve([1.0, 2.0], [1.0, 2.0], [1.0])


def test_agrees_with_reference_solver_on_random_problems():
    rng = np.random.default_rng(73)
    solved = 0
    for trial in range(60):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(m + 1, 20))
        a = rng.normal(size=(m, n))
        # force feasibility half the time
        if trial % 2 == 0:
            b = a @ np.abs(rng.normal(size=n))
        else:
            b = rng.normal(size=m)
        c = rng.normal(size=n)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
        try:
            sol = solve(c, a, b)
        except SimplexFailure:
            # reference must agree the problem is unbounded
            assert ref.status == 3
            continue
        if sol.status == "infeasible":
            assert ref.status == 2
            continue
        assert ref.status == 0
        assert abs(sol.objective_value - ref.fun) < 1e-7
        assert np.max(np.abs(a @ sol.x - b)) < 1e-8
        assert sol.x.min() > -1e-9
        # every optimum hands on its basis and an inverse of it
        gap = sol.inverse @ a[:, list(sol.basis)] - np.eye(m)
        assert np.abs(gap).max() <= INVERSE_TOL
        solved += 1
    assert solved >= 20


def _random_feasible_problem(seed, m=8, n=20):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    b = a @ np.abs(rng.normal(size=n))
    c = np.abs(rng.normal(size=n))
    return c, a, b


def test_warm_start_on_an_unchanged_problem_takes_no_pivots():
    for seed in range(5):
        c, a, b = _random_feasible_problem(seed)
        cold = solve(c, a, b)
        assert cold.iterations > 0
        assert len(cold.basis) == len(b)
        warm = solve(c, a, b, start=cold.basis)
        assert warm.iterations == 0
        assert np.array_equal(warm.x, cold.x)
        assert warm.basis == cold.basis
        assert cold.start == "cold"
        assert warm.start == "accepted"


def test_an_accepted_optimal_start_is_factorized_once(monkeypatch):
    # a freshly computed tableau with no improving column needs no
    # confirmation on a second one, and a carried inverse needs none at all
    c, a, b = _random_feasible_problem(0)
    cold = solve(c, a, b)
    calls = []
    factorize = simplex_module._factorize

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    monkeypatch.setattr(simplex_module, "_factorize", counted)
    warm = solve(c, a, b, start=cold.basis)
    assert warm.start == "accepted"
    assert len(calls) == 1
    carried = solve(c, a, b, start=cold.basis, inverse=cold.inverse)
    assert carried.start == "accepted"
    assert len(calls) == 1
    assert np.array_equal(carried.inverse, cold.inverse)
    assert np.array_equal(carried.x, cold.x)


def test_an_unchanged_carried_inverse_is_handed_on_uncopied():
    c, a, b = _random_feasible_problem(0)
    sign = np.where(b < 0.0, -1.0, 1.0)
    a, b = a * sign[:, None], b * sign  # no row to negate inside the solve
    cold = solve(c, a, b)
    carried = solve(c, a, b, start=cold.basis, inverse=cold.inverse)
    assert carried.start == "accepted"
    assert carried.inverse is cold.inverse
    # a caller's writable inverse is never frozen in place
    own = cold.inverse.copy()
    again = solve(c, a, b, start=cold.basis, inverse=own)
    assert own.flags.writeable and not again.inverse.flags.writeable
    assert np.array_equal(again.inverse, own)


def test_warm_start_on_a_nearby_problem_matches_the_cold_solve():
    rng = np.random.default_rng(41)
    c, a, b = _random_feasible_problem(41)
    start = solve(c, a, b).basis
    for _ in range(10):
        moved_a = a + 1e-3 * rng.normal(size=a.shape)
        moved_b = moved_a @ np.abs(rng.normal(size=a.shape[1]))
        cold = solve(c, moved_a, moved_b)
        warm = solve(c, moved_a, moved_b, start=start)
        assert abs(warm.objective_value - cold.objective_value) < 1e-10
        assert np.max(np.abs(moved_a @ warm.x - moved_b)) < 1e-9
        assert warm.x.min() >= 0.0


def test_unusable_starts_fall_back_to_the_cold_solve():
    c, a, b = _random_feasible_problem(43)
    cold = solve(c, a, b)
    m, n = a.shape
    # an infeasible basis: some basic variable comes out negative
    infeasible = None
    for cols in (list(range(k, k + m)) for k in range(n - m + 1)):
        values = np.linalg.solve(a[:, cols], b)
        if values.min() < -1e-3:
            infeasible = cols
            break
    assert infeasible is not None
    singular_a = a.copy()
    singular_a[:, 1] = 2.0 * singular_a[:, 0]
    starts = [
        cold.basis[:-1],  # wrong length
        (0,) * m,  # repeated column
        tuple(range(n - m + 1, n + 1)),  # column out of range
        infeasible,
    ]
    # columns 0 and 1 are parallel, so a basis holding both is singular
    cases = [(a, b, start, cold) for start in starts]
    singular_b = singular_a @ np.full(n, 0.5)
    cases.append(
        (singular_a, singular_b, tuple(range(m)), solve(c, singular_a, singular_b))
    )
    for matrix, rhs, start, reference in cases:
        sol = solve(c, matrix, rhs, start=start)
        assert sol.status == "optimal"
        assert np.array_equal(sol.x, reference.x)
        assert sol.iterations == reference.iterations
        assert sol.basis == reference.basis
        assert sol.start == "cold"


def test_a_start_that_lost_primal_feasibility_is_repaired():
    # the optimal basis of a problem stays dual feasible when only its
    # right-hand side moves, so dual pivots repair it
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c, a, b = _random_feasible_problem(seed)
        start = solve(c, a, b).basis
        moved_b = a @ np.abs(rng.normal(size=a.shape[1]))
        assert np.linalg.solve(a[:, list(start)], moved_b).min() < 0.0
        cold = solve(c, a, moved_b)
        warm = solve(c, a, moved_b, start=start)
        assert warm.status == "optimal"
        assert warm.start == "repaired"
        assert abs(warm.objective_value - cold.objective_value) < 1e-12
        assert np.max(np.abs(a @ warm.x - moved_b)) < 1e-9
        assert warm.x.min() >= 0.0
        assert warm.iterations < cold.iterations


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 10), st.integers(2, 20))
def test_a_repaired_solve_matches_the_cold_solve(seed, m, extra):
    # the dual pivots carry their reduced costs; the optimum they reach is
    # still the cold solve's
    c, a, b = _random_feasible_problem(seed, m, m + extra)
    first = solve(c, a, b)
    moved_b = a @ np.abs(np.random.default_rng([seed, 1]).normal(size=m + extra))
    warm = solve(c, a, moved_b, start=first.basis, inverse=first.inverse)
    assume(warm.start == "repaired")
    assert abs(warm.objective_value - solve(c, a, moved_b).objective_value) < 1e-12


def test_a_non_finite_inverse_raises_instead_of_claiming_an_optimum(monkeypatch):
    # NaN reduced costs compare false, so unchecked no column would enter
    # and a NaN optimum would be confirmed
    c, a, b = _random_feasible_problem(0)
    first = solve(c, a, b)
    monkeypatch.setattr(
        simplex_module, "_factorize", lambda footprint: np.full(footprint.shape, np.nan)
    )
    for start in (None, first.basis):
        with pytest.raises(SimplexFailure, match="reduced costs are not finite"):
            solve(c, a, b, start=start)


def test_a_carried_inverse_is_repaired_without_refactorizing(monkeypatch):
    calls = []
    factorize = simplex_module._factorize

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    monkeypatch.setattr(simplex_module, "_factorize", counted)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c, a, b = _random_feasible_problem(seed)
        first = solve(c, a, b)
        moved_b = a @ np.abs(rng.normal(size=a.shape[1]))
        cold = solve(c, a, moved_b)
        bare = solve(c, a, moved_b, start=first.basis)
        calls.clear()
        warm = solve(c, a, moved_b, start=first.basis, inverse=first.inverse)
        assert warm.start == bare.start == "repaired"
        assert not calls  # dual pivots update the carried inverse
        assert abs(warm.objective_value - cold.objective_value) < 1e-12
        assert np.max(np.abs(a @ warm.x - moved_b)) < 1e-9
        assert warm.x.min() >= 0.0
        m = len(b)
        assert np.max(np.abs(warm.inverse @ a[:, list(warm.basis)] - np.eye(m))) <= 1e-9
        # an inverse of another basis, or a perturbed one, is detected and
        # refactorized: the solve is then the one a bare basis gives
        bad_inverses = (
            cold.inverse,  # of another basis
            first.inverse + 1e-6,
            np.full((m, m), np.nan),
            first.inverse[:, :-1],
        )
        for inverse in bad_inverses:
            calls.clear()
            got = solve(c, a, moved_b, start=first.basis, inverse=inverse)
            assert len(calls) == 1
            assert np.array_equal(got.x, bare.x)
            assert got.iterations == bare.iterations


def test_drift_in_a_repaired_inverse_is_refactorized_away(monkeypatch):
    # roundoff in the updated inverse far beyond INVERSE_TOL must not reach
    # the result: the repaired basis is confirmed from the original data
    calls = []
    factorize, pivot = simplex_module._factorize, simplex_module._pivot

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    def drifting(state, *args):
        pivot(state, *args)
        tableau, _ = state
        tableau[:, :-1] += 1e-8  # B^-1

    for seed in range(5):
        rng = np.random.default_rng(seed)
        c, a, b = _random_feasible_problem(seed)
        first = solve(c, a, b)
        moved_b = a @ np.abs(rng.normal(size=a.shape[1]))
        cold = solve(c, a, moved_b)
        with monkeypatch.context() as patch:
            patch.setattr(simplex_module, "_factorize", counted)
            patch.setattr(simplex_module, "_pivot", drifting)
            calls.clear()
            warm = solve(c, a, moved_b, start=first.basis, inverse=first.inverse)
        assert warm.start == "repaired"
        assert len(calls) == 1
        assert abs(warm.objective_value - cold.objective_value) < 1e-12
        assert np.max(np.abs(a @ warm.x - moved_b)) < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(3, 10), st.integers(2, 20))
def test_every_pivot_carries_the_state_of_its_basis(seed, m, extra):
    # after each pivot of a cold solve (phase 1, the drive-out, phase 2) and
    # of a repair, the carried basic values and reduced costs are those the
    # original data give for the new basis
    c, a, b = _random_feasible_problem(seed, m, m + extra)
    n = m + extra
    phase1 = (
        np.column_stack([a, np.diag(np.where(b < 0.0, -1.0, 1.0))]),
        np.concatenate([np.zeros(n), np.ones(m)]),
    )
    pivot = simplex_module._pivot
    after = []

    def recorded(state, basis, *args):
        pivot(state, basis, *args)
        tableau, reduced = state  # [B^-1 | B^-1 b] and the reduced costs
        after.append((basis.copy(), tableau[:, -1].copy(), reduced.copy()))

    moved_b = a @ np.abs(np.random.default_rng([seed, 1]).normal(size=n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex_module, "_pivot", recorded)
        first = solve(c, a, b)
        cold_pivots = len(after)
        warm = solve(c, a, moved_b, start=first.basis, inverse=first.inverse)
    assert first.status == "optimal" and cold_pivots > 0
    for k, (basis, values, reduced) in enumerate(after):
        matrix, cost = phase1 if len(reduced) == n + m else (a, c)
        rhs = b if k < cold_pivots else moved_b
        _, fresh_values, fresh_reduced = simplex_module._confirmed(matrix, rhs, cost, basis, None)
        assert np.abs(values - fresh_values).max() <= 1e-9
        assert np.abs(reduced - fresh_reduced).max() <= 1e-9
    if warm.start == "repaired":
        assert len(after) > cold_pivots


def test_a_dual_feasible_start_on_an_infeasible_problem_reports_infeasible(monkeypatch):
    rng = np.random.default_rng(45)
    c, a, _ = _random_feasible_problem(45)
    a[0] = np.abs(a[0]) + 0.1
    start = solve(c, a, a @ np.abs(rng.normal(size=a.shape[1]))).basis
    # a positive row with a negative right-hand side: no x >= 0 fits, and
    # with the matrix unchanged the start stays dual feasible
    b = a @ np.abs(rng.normal(size=a.shape[1]))
    b[0] = -1.0
    dual_steps = []
    step = simplex_module._dual_step

    def counted(*args):
        dual_steps.append(args)
        return step(*args)

    monkeypatch.setattr(simplex_module, "_dual_step", counted)
    warm = solve(c, a, b, start=start)
    assert dual_steps  # the start was taken into the repair branch
    cold = solve(c, a, b)
    assert cold.status == warm.status == "infeasible"
    assert warm.x is None and warm.objective_value is None
    assert warm.iterations == cold.iterations
    assert warm.start == cold.start == "cold"


def test_non_finite_data_is_rejected_naming_the_array():
    cases = (
        ("eq_matrix", [0.0, 0.0], [[np.inf, 1.0]], [1.0]),
        ("objective", [np.nan, 0.0], [[1.0, 1.0]], [1.0]),
        ("eq_rhs", [0.0, 0.0], [[1.0, 1.0]], [np.nan]),
    )
    for name, c, a, b in cases:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve(c, a, b)


def test_a_short_cold_solve_factorizes_at_most_twice(monkeypatch):
    # phase 1 starts from the artificial basis, its own inverse, and phase 2
    # from phase 1's B^-1, so only the confirmation of each optimum factorizes
    c, a, b = _random_feasible_problem(0)
    calls = []
    factorize = simplex_module._factorize

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    monkeypatch.setattr(simplex_module, "_factorize", counted)
    sol = solve(c, a, b)
    assert sol.status == "optimal"
    # so neither phase reaches a periodic refactorization
    assert 0 < sol.iterations < simplex_module.REFACTOR_EVERY
    assert len(calls) <= 2


def test_a_run_that_stops_at_its_periodic_refactorization_is_confirmed_afresh(monkeypatch):
    # phase 2 of this problem stops right after its REFACTOR_EVERY-th pivot;
    # its optimum is still confirmed on a factorization of its own, as every
    # claimed optimum is: one factorization confirms phase 1, one is the
    # periodic one and one confirms phase 2
    c, a, b = _random_feasible_problem(51, 10, 30)
    calls, pivots = [], []
    factorize, run = simplex_module._factorize, simplex_module._run

    def counted(*args):
        calls.append(args)
        return factorize(*args)

    def recorded(step, matrix, rhs, cost, basis, confirmed, iterations, max_iterations):
        result = run(step, matrix, rhs, cost, basis, confirmed, iterations, max_iterations)
        pivots.append(result[-1] - iterations)
        return result

    monkeypatch.setattr(simplex_module, "_factorize", counted)
    monkeypatch.setattr(simplex_module, "_run", recorded)
    sol = solve(c, a, b)
    assert sol.status == "optimal"
    assert pivots[-1] == simplex_module.REFACTOR_EVERY
    assert len(calls) == 3
    # the confirmation factorizes the periodic one's basis matrix again
    assert np.array_equal(calls[1][0], calls[2][0])
    # the same x and B^-1, to the bit, as a fresh factorization gives
    basis = np.array(sol.basis)
    inverse, values, _ = simplex_module._confirmed(a, b, c, basis, None)
    assert simplex_module._primal_feasible(values, simplex_module._FEASIBILITY_DRIFT)
    x = np.zeros(len(c))
    x[basis] = values
    assert np.array_equal(sol.x, x)
    assert np.array_equal(sol.inverse, inverse)


def _bland_reference(tableau, reduced, basis, matrix):
    """Bland's rule as the module docstring states it, one entry at a time:
    (entering, leaving, rows in the ratio window), (entering, None, 0) when
    no row limits the step, None when no reduced cost is below -PIVOT_TOL."""
    improving = [j for j in range(len(reduced)) if reduced[j] < -simplex_module.PIVOT_TOL]
    if not improving:
        return None
    entering = improving[0]
    column = tableau[:, :-1] @ matrix[:, entering]
    rows = [i for i in range(len(column)) if column[i] > simplex_module.PIVOT_TOL]
    if not rows:
        return entering, None, 0
    ratios = {i: tableau[i, -1] / column[i] for i in rows}
    least = min(ratios.values())
    window = least + simplex_module._RATIO_WINDOW * (1.0 + abs(least))
    tied = [i for i in rows if ratios[i] <= window]
    largest = max(column[i] for i in tied)
    strongest = [i for i in tied if column[i] >= largest * (1.0 - 1e-12)]
    return entering, min(strongest, key=lambda i: basis[i]), len(tied)


def test_the_bland_step_keeps_blands_rule():
    # random states, half of them with a unit B^-1 and small integer data so
    # that ratios and pivot strengths tie exactly
    windows = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 10), st.booleans())
    def check(seed, m, extra, integral):
        rng = np.random.default_rng(seed)
        n = m + extra
        if integral:
            matrix = rng.integers(-2, 3, size=(m, n)).astype(float)
            tableau = np.column_stack([np.eye(m), rng.integers(0, 3, size=m).astype(float)])
            reduced = rng.integers(-2, 3, size=n).astype(float)
        else:
            matrix = rng.normal(size=(m, n))
            tableau = np.column_stack([rng.normal(size=(m, m)), np.abs(rng.normal(size=m))])
            reduced = rng.normal(size=n)
        basis = rng.permutation(n)[:m]
        reduced[basis] = 0.0
        expected = _bland_reference(tableau, reduced, basis, matrix)
        made = []

        def recorded(state, basis, leaving, entering, *_):
            made.append((entering, leaving))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex_module, "_pivot", recorded)
            if expected is not None and expected[1] is None:
                with pytest.raises(SimplexFailure, match="unbounded"):
                    simplex_module._bland_step((tableau, reduced), basis, matrix, None)
                return
            pivoted = simplex_module._bland_step((tableau, reduced), basis, matrix, None)
        if expected is None:
            assert not pivoted and not made
            return
        assert pivoted and made == [expected[:2]]
        windows.append(expected[2])

    check()
    assert 1 in windows  # exactly one row in the ratio window leaves
    assert max(windows) > 1  # the tie-break chose among several


def test_a_cold_solve_with_negative_rhs_hands_on_an_inverse_of_the_given_rows():
    c, a, b = _random_feasible_problem(1)
    a[::2], b[::2] = -a[::2], -b[::2]
    assert b.min() < 0.0
    cold = solve(c, a, b)
    assert cold.status == "optimal"
    m = len(b)
    gap = cold.inverse @ a[:, list(cold.basis)] - np.eye(m)
    assert np.abs(gap).max() <= simplex_module.INVERSE_TOL
    warm = solve(c, a, b, start=cold.basis, inverse=cold.inverse)
    assert warm.start == "accepted"
    assert warm.iterations == 0
    assert np.array_equal(warm.x, cold.x)
