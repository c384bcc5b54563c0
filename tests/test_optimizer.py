import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qutrit_ch.engine as engine_module
import qutrit_ch.lhv as lhv_module
import qutrit_ch.optimizer as optimizer_module
from qutrit_ch.atoms import INDICATOR_MATRIX, N_ATOMS
from qutrit_ch.engine import (
    PERMUTATIONS,
    RELABEL_DESTINATIONS,
    ExperimentProbabilities,
    PhaseSettings,
    _fourier_kernel,
    _fourier_table,
    _kernel_box,
    apply_relabeling,
    experiment_probabilities,
)
from qutrit_ch.inequality import (
    CH_VECTOR,
    CLASS_CH,
    CLASS_FIRSTS,
    analytic_threshold,
    noise_crossing,
)
from qutrit_ch.lhv import marginals_of, min_noise_lp, threshold_gradient
from qutrit_ch.optimizer import (
    FREE_INDICES,
    GRADIENT_TOL,
    LP_ROUNDOFF_ULPS,
    OptimizationResult,
    _class_product,
    _relabel_maxed_scores,
    optimize,
    threshold_objective,
)
from qutrit_ch.presets import REFERENCE_NOISE_THRESHOLD, reference_settings
from qutrit_ch.simplex import SimplexFailure


def test_objective_validates_method():
    with pytest.raises(ValueError):
        threshold_objective(reference_settings(), method="nope")


def test_lp_objective_reproduces_the_reference_threshold():
    assert (
        abs(threshold_objective(reference_settings(), "lp") - REFERENCE_NOISE_THRESHOLD)
        < 1e-9
    )


def test_analytic_objective_uses_the_settings_relabeling():
    with_relabel = threshold_objective(reference_settings(), "analytic")
    without = threshold_objective(reference_settings(relabeled=False), "analytic")
    assert abs(with_relabel - REFERENCE_NOISE_THRESHOLD) < 1e-12
    assert without == 0.0


def _class_of_each_relabeling() -> list[int]:
    """Column of CLASS_CH whose values on the 81 atoms equal those of each
    of the 1296 relabelings, found by brute force."""
    every = CH_VECTOR[RELABEL_DESTINATIONS] @ INDICATOR_MATRIX
    firsts = CLASS_CH.T @ INDICATOR_MATRIX
    column_of = {tuple(values): k for k, values in enumerate(firsts)}
    return [column_of[tuple(values)] for values in every]


def test_relabeling_classes_are_the_distinct_atom_values():
    # every relabeling lands in the class whose first member reads the same
    # on all 81 atoms, and the 432 first members all read differently there
    classes = _class_of_each_relabeling()
    firsts = CLASS_CH.T @ INDICATOR_MATRIX
    assert CLASS_CH.shape == (48, 432) == (48, len(CLASS_FIRSTS))
    assert len({tuple(values) for values in firsts}) == 432
    for row, k in enumerate(classes):
        assert CLASS_FIRSTS[k] <= row
    for k, first in enumerate(CLASS_FIRSTS):
        assert classes[first] == k
        assert np.array_equal(CLASS_CH[:, k], CH_VECTOR[RELABEL_DESTINATIONS[first]])
    assert sorted(classes) == sorted(list(range(432)) * 3)


def test_relabel_scores_match_explicit_relabelings():
    # every relabeling's explicitly permuted experiment must score as its
    # class does, and no relabeling may claim more noise tolerance than the
    # LP certifies
    combos = list(itertools.product(PERMUTATIONS, repeat=4))
    classes = _class_of_each_relabeling()
    rng = np.random.default_rng(97)
    cases = [reference_settings(relabeled=False)] + [
        PhaseSettings(rng.uniform(0, 2 * np.pi, (2, 3)), rng.uniform(0, 2 * np.pi, (2, 3)))
        for _ in range(5)
    ]
    boxes = [experiment_probabilities(settings) for settings in cases]
    # and a box with biased singles: the reference settings mixed with a
    # Dirichlet mixture of deterministic strategies
    tables, alice, bob = marginals_of(rng.dirichlet(np.full(N_ATOMS, 0.3)))
    quantum = boxes[0]
    boxes.append(
        ExperimentProbabilities(
            0.8 * quantum.tables + 0.2 * tables,
            0.8 * quantum.alice_singles + 0.2 * alice,
            0.8 * quantum.bob_singles + 0.2 * bob,
        )
    )
    for exp0 in boxes:
        scores = _relabel_maxed_scores(exp0)
        assert len(combos) == 6 ** 4 == len(classes)
        assert len(scores) == 432
        for combo, k in zip(combos, classes):
            direct = analytic_threshold(apply_relabeling(exp0, combo)).value
            assert abs(scores[k] - direct) < 1e-12
        assert scores.max() <= min_noise_lp(exp0).f_min + 1e-9


def test_one_crossing_of_the_largest_class_value_is_the_best_score():
    # the crossing rises with the functional, so crossing only the largest
    # of the 432 values gives the largest of their crossings, bit for bit
    rng = np.random.default_rng(41)
    for _ in range(300):
        exp0 = _kernel_box(_fourier_kernel(rng.uniform(0, 2 * np.pi, 12))[0])
        best = noise_crossing((exp0.vector() @ CLASS_CH).max())
        assert isinstance(best, float)
        assert best == _relabel_maxed_scores(exp0).max()


def test_the_class_product_is_gathered_per_phase_at_the_kernels_rows():
    # entry i is C @ CLASS_CH[:36] at the 4 rows the kernel's harmonic
    # reads for phase i, to the bit, with the real and imaginary parts each
    # taken by a real product
    frequencies, coefficients, rows, _ = _fourier_table()
    product = coefficients.real @ CLASS_CH[:36] + 1j * (coefficients.imag @ CLASS_CH[:36])
    table = _class_product()
    assert table.shape == (12, 4, 432) and table.dtype == complex
    assert not table.flags.writeable
    assert _class_product() is table  # built once per process
    for index in range(12):
        assert np.array_equal(table[index], product[rows[index]])
        # the 4 rows are those whose frequency is 1 at this phase
        assert np.array_equal(np.flatnonzero(frequencies[:, index] == 1.0), rows[index])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-10.0, 10.0), min_size=12, max_size=12),
    st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
)
def test_the_kernels_harmonic_gives_every_value_along_a_phase(phases, offsets):
    # along raw phase i every class value is A + Re(H e^{it}), with H the
    # Fourier kernel's harmonic(i, table[i]) on the per-phase class product
    # and A = value - Re H; so the largest peak max_c A_c + |H_c| is the
    # line's maximum, at t = -arg H_c. The Born rule's values along the line
    # are the oracle
    grid = np.arange(720) * (2.0 * np.pi / 720)
    x = np.array(phases)
    harmonic = _fourier_kernel(x)[2]
    table = _class_product()
    values = experiment_probabilities(_phase_settings(x)).vector() @ CLASS_CH
    for index in range(12):
        line = x.copy()

        def at(t):
            line[index] = x[index] + t
            return experiment_probabilities(_phase_settings(line)).vector() @ CLASS_CH

        classes = harmonic(index, table[index])
        assert classes.shape == (432,)
        constant = values - classes.real
        for t in offsets:
            assert np.abs(at(t) - (constant + (classes * np.exp(1j * t)).real)).max() <= 1e-13
        peaks = constant + np.abs(classes)
        best = int(peaks.argmax())
        scanned = np.array([at(t) for t in grid]).max()
        assert peaks[best] >= scanned - 1e-13
        assert at(-np.angle(classes[best])).max() >= scanned - 1e-13


def test_relabel_maxed_score_recovers_the_lp_value_at_reference():
    exp0 = experiment_probabilities(reference_settings(relabeled=False))
    best = float(_relabel_maxed_scores(exp0).max())
    assert abs(best - REFERENCE_NOISE_THRESHOLD) < 1e-6


def test_optimize_validates_arguments():
    with pytest.raises(ValueError):
        optimize(0, seed=1)
    with pytest.raises(ValueError):
        optimize(1, seed=-1)
    with pytest.raises(ValueError):
        optimize(1, seed=1, method="bogus")
    # booleans are no counts or seeds, although True == 1
    for restarts, seed in ((True, 1), (1, True), (1, False), (np.True_, 0)):
        with pytest.raises(ValueError, match="must be .*integer"):
            optimize(restarts, seed)
    # nor is anything operator.index refuses, however integral its value
    for bad in (1.5, 2.0, "3", float("nan"), np.float64(3.0)):
        with pytest.raises(ValueError, match="restarts must be an integer of at least 1"):
            optimize(bad, 1)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            optimize(1, bad)
    # numpy integers are integers
    result = optimize(np.int64(1), np.int64(2), "analytic")
    assert result.seed == 2 and type(result.seed) is int
    assert result.evaluations == ANALYTIC_SEARCH_EVALUATIONS[2]


def test_optimize_is_deterministic_and_self_consistent():
    first = optimize(2, seed=3, method="analytic")
    second = optimize(2, seed=3, method="analytic")
    assert isinstance(first, OptimizationResult)
    assert first.best_threshold == second.best_threshold
    assert np.array_equal(first.best_settings.alice, second.best_settings.alice)
    assert np.array_equal(first.best_settings.bob, second.best_settings.bob)
    assert first.best_settings.relabel == second.best_settings.relabel
    assert first.evaluations == second.evaluations
    assert first.seed == 3
    assert first.failed_restarts == 0
    assert first.lp_starts == {}  # no LP is solved by the analytic method
    assert first.lp_pivots == 0
    assert first.gradient_norm is None
    assert 0.0 <= first.best_threshold <= 1.0
    # re-evaluating the returned settings reproduces the reported score
    replay = threshold_objective(first.best_settings, "analytic")
    assert abs(replay - first.best_threshold) < 1e-9


def test_restarts_that_tie_to_roundoff_keep_the_earliest():
    # at seed 7 the analytic restart 10 ends 2 ulps above restart 0, and the
    # lp restarts 1 and 12 end 4 ulps above it: roundoff, not a better optimum
    for method in ("analytic", "lp"):
        first = optimize(1, seed=7, method=method)
        result = optimize(20, seed=7, method=method)
        assert np.array_equal(result.best_settings.alice, first.best_settings.alice)
        assert np.array_equal(result.best_settings.bob, first.best_settings.bob)
        assert result.best_settings.relabel == first.best_settings.relabel
        assert result.best_threshold == first.best_threshold


def test_a_later_restart_is_kept_once_it_beats_the_roundoff(monkeypatch):
    # restarts 1 and 3 tie with the one kept before them, restart 2 beats it
    value = 0.3
    ulp = np.spacing(value)
    beats = 2 * LP_ROUNDOFF_ULPS + 1
    ends = iter([value + k * ulp for k in (0, LP_ROUNDOFF_ULPS, beats, beats + LP_ROUNDOFF_ULPS)])

    def ascent(fn, x):
        # each restart's end value
        return next(ends), np.zeros(len(FREE_INDICES))

    monkeypatch.setattr(optimizer_module, "_newton_ascent", ascent)
    result = optimize(4, seed=5, method="lp")
    kept = optimizer_module._pin_gauge(np.random.default_rng([5, 2]).uniform(0.0, 2.0 * np.pi, size=12))
    assert result.best_threshold == value + beats * ulp
    assert np.array_equal(np.concatenate([result.best_settings.alice.ravel(),
                                          result.best_settings.bob.ravel()]), kept)


def test_results_and_their_settings_carry_no_instance_dict():
    # slotted, so that each retained result stays small
    for method in ("lp", "analytic"):
        result = optimize(1, seed=2, method=method)
        for kept in (result, result.best_settings):
            assert not hasattr(kept, "__dict__")
        with pytest.raises(AttributeError):
            result.best_settings.relabel = None


def test_lp_search_is_deterministic_with_warm_started_solves():
    # each restart starts its chain of warm-started LPs afresh, so repeated
    # searches take the same path to the last bit
    first = optimize(1, seed=9, method="lp")
    second = optimize(1, seed=9, method="lp")
    assert first.best_threshold == second.best_threshold
    assert first.evaluations == second.evaluations
    assert np.array_equal(first.best_settings.alice, second.best_settings.alice)
    assert np.array_equal(first.best_settings.bob, second.best_settings.bob)
    replay = threshold_objective(first.best_settings, "lp")
    assert abs(replay - first.best_threshold) < 1e-12


# evaluations and LP evaluations of optimize(1, seed, "lp"), the restarts
# of the search-lp benchmark; a box that violates no CGLMP inequality, such
# as seed 2's three rejected trials, is scored by its top class value without
# an LP. A separate ascent of that value to the first violating box, which
# the LP ascent then evaluated again, took one more evaluation per restart
GRADIENT_SEARCH_FIXTURES = {2: (11, 8), 9: (7, 6)}


def test_gradient_search_reaches_the_paper_threshold_in_few_evaluations():
    for seed, (evaluations, lp_evaluations) in GRADIENT_SEARCH_FIXTURES.items():
        result = optimize(1, seed=seed, method="lp")
        assert result.evaluations == evaluations
        assert sum(result.lp_starts.values()) == lp_evaluations <= evaluations
        assert set(result.lp_starts) <= {"accepted", "repaired", "cold"}
        assert "cold" not in result.lp_starts
        assert result.failed_restarts == 0
        assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-12
        assert isinstance(result.gradient_norm, float)
        assert result.gradient_norm < 1e-6


# the simplex pivots of those LP evaluations; seeding each solve from the
# last evaluation's bound, rejected trials included, took 161, starting
# each restart from the flat box's basis instead of its class's took 122,
# solving the LPs of the trials that violate no CGLMP inequality took 77,
# and starting from a class's solved witness basis instead of the relabeled
# paper basis took 19
GRADIENT_SEARCH_PIVOTS = {2: 17, 9: 5}


def test_gradient_search_pivots_are_pinned():
    assert sum(GRADIENT_SEARCH_PIVOTS.values()) <= 25
    for seed, pivots in GRADIENT_SEARCH_PIVOTS.items():
        assert optimize(1, seed=seed, method="lp").lp_pivots == pivots


def test_each_lp_solve_starts_from_its_restarts_best_bound(monkeypatch):
    calls = []
    solve = lhv_module._min_noise_lp

    def recorded(exp0, start=None):
        bound = solve(exp0, start=start)
        calls.append((start, bound.f_min))
        return bound

    monkeypatch.setattr(lhv_module, "_min_noise_lp", recorded)
    optimize(3, seed=2, method="lp")
    restarts = rejected = 0
    for start, f_min in calls:
        if start is None:  # each restart brings no start of its own
            restarts, best = restarts + 1, f_min
            continue
        assert start.f_min == best
        rejected += f_min < best
        best = max(best, f_min)
    assert restarts == 3
    assert rejected > 0  # trials below the best so far seeded nothing


def test_trials_rejected_without_an_lp_are_local(monkeypatch):
    # every kernel box that reaches no LP, a rejected trial or a step on the
    # plateau, is scored by its top class value: each violates no CGLMP
    # inequality, and the LP certifies it local
    joints, solved = [], []
    kernel, solve = optimizer_module._fourier_kernel, lhv_module._min_noise_lp

    def recorded_kernel(x):
        evaluation = kernel(x)
        joints.append(evaluation[0])
        return evaluation

    def recorded_solve(exp0, start=None):
        # a solve reads the box of the kernel evaluation just before it; an
        # index, not a value, so that a repeated box is counted once
        assert np.array_equal(exp0.tables.ravel(), joints[-1])
        solved.append(len(joints) - 1)
        return solve(exp0, start=start)

    monkeypatch.setattr(optimizer_module, "_fourier_kernel", recorded_kernel)
    monkeypatch.setattr(lhv_module, "_min_noise_lp", recorded_solve)
    unsolved = []
    for seed in range(50):
        joints.clear()
        solved.clear()
        result = optimize(1, seed=seed, method="lp")
        assert len(set(solved)) == len(solved) == sum(result.lp_starts.values())
        assert len(joints) == result.evaluations
        unsolved += [_kernel_box(joints[i]) for i in range(len(joints)) if i not in solved]
        if seed == 2:
            # its start violates a CGLMP inequality, and 3 trials do not
            assert solved[0] == 0
            assert result.evaluations - len(solved) == 3
    assert len(unsolved) > 0
    # unrecorded, since min_noise_lp solves through _min_noise_lp too
    monkeypatch.undo()
    for box in unsolved:
        assert (box.vector() @ CLASS_CH).max() <= 0.0
        assert min_noise_lp(box).f_min == 0.0


def test_a_local_box_at_the_first_lp_is_still_scored_by_the_lp(monkeypatch):
    # one setting per side makes the start local; with the ascent stopped at
    # its first evaluation, the restart ends on a box with no positive class
    # value, and its reported score and gradient are the LP's
    calls = []
    solve = lhv_module._min_noise_lp

    def stopped(fn, x):
        value, gradient, _ = fn(x)
        return value, gradient[FREE_INDICES]

    def recorded(exp0, start=None):
        bound = solve(exp0, start=start)
        calls.append((start, bound.f_min))
        return bound

    monkeypatch.setattr(optimizer_module, "_newton_ascent", stopped)
    monkeypatch.setattr(lhv_module, "_min_noise_lp", recorded)
    rng = np.random.default_rng(37)
    alice, bob = rng.uniform(0, 2 * np.pi, (2, 3))
    local = PhaseSettings([alice, alice], [bob, bob])
    assert (experiment_probabilities(local).vector() @ CLASS_CH).max() <= 0.0
    result = optimize(1, seed=37, method="lp", initial_phases=local)
    assert calls == [(None, 0.0)]
    assert result.best_threshold == 0.0
    # the class value's evaluation, then the LP's at the same box
    assert result.evaluations == 2
    assert sum(result.lp_starts.values()) == 1
    assert result.gradient_norm == 0.0


def test_every_lp_restart_ends_at_the_paper_threshold_with_a_small_gradient():
    # seed 131's Newton step reaches the optimum, but the LP reads its value
    # 1.2e-15 low; unless such a trial is accepted, the restart ends at a
    # gradient norm of 3.5e-9
    for seed in range(200):
        result = optimize(1, seed=seed, method="lp")
        assert result.failed_restarts == 0
        assert result.gradient_norm <= GRADIENT_TOL
        assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-9


# evaluations of optimize(1, seed, "analytic"), the restarts of the
# search-analytic benchmark: one kernel call per coordinate step, where
# sampling each line at three points and confirming the move took 289 each.
# A restart ends on a sweep that gains at most ROUNDOFF_ULPS, a test on
# values that agree only to roundoff, so the count moves by whole sweeps
# when the values change in their last bits. Seed 2's twelfth sweep gains
# 4 ulps with class values read from the Fourier kernel's joints, which ends
# the restart; with the Born rule's values it gained 6, and a thirteenth
# sweep of 8 evaluations ran (105)
ANALYTIC_SEARCH_EVALUATIONS = {2: 97, 9: 89}


def test_analytic_search_evaluations_are_pinned():
    for seed, evaluations in ANALYTIC_SEARCH_EVALUATIONS.items():
        result = optimize(1, seed=seed, method="analytic")
        assert result.evaluations == evaluations
        assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-12


def test_every_analytic_restart_ends_at_the_paper_threshold():
    # exact line maxima climb to the paper's value from every start, with
    # one evaluation at the start and one per coordinate step
    for seed in range(50):
        result = optimize(1, seed=seed, method="analytic")
        assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-12
        assert (result.evaluations - 1) % len(FREE_INDICES) == 0


def test_criterion_9_search_reaches_the_paper_threshold_to_1e_12():
    result = optimize(20, seed=7, method="lp")
    assert result.failed_restarts == 0
    assert "cold" not in result.lp_starts
    assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-12
    # Newton steps on the exact Hessian: 186 evaluations, where BFGS took 469
    assert result.evaluations <= 250
    # 331 pivots, where solving the trials that violate no CGLMP inequality
    # took 799, and starting each restart from the flat box's basis 1315
    assert result.lp_pivots <= 350
    assert result.gradient_norm <= GRADIENT_TOL


def _phase_settings(x):
    return PhaseSettings(x[:6].reshape(2, 3), x[6:].reshape(2, 3))


def test_lp_dual_gradient_matches_central_differences():
    # d f_min / d phases = (LP dual) @ (Born-rule Jacobian), at settings
    # that violate locality, where f_min > 0
    rng = np.random.default_rng(23)
    step = 1e-6
    checked = 0
    while checked < 20:
        phases = rng.uniform(0, 2 * np.pi, 12)
        settings = _phase_settings(phases)
        bound = min_noise_lp(experiment_probabilities(settings))
        if bound.f_min == 0.0:
            continue
        checked += 1
        gradient = threshold_gradient(bound) @ _fourier_kernel(phases)[1](np.eye(36))[0]
        central = np.array([
            threshold_objective(_phase_settings(phases + shift), "lp")
            - threshold_objective(_phase_settings(phases - shift), "lp")
            for shift in np.eye(12) * step
        ]) / (2 * step)
        assert np.linalg.norm(gradient - central) <= 1e-6 * np.linalg.norm(gradient)


def test_kernel_hessian_matches_central_differences_of_its_gradient():
    # the weights the search uses: the LP dual at a violating setting, and
    # the functional read through the relabeling that maximizes it there
    rng = np.random.default_rng(29)
    step = 1e-6
    checked = 0
    while checked < 10:
        phases = rng.uniform(0, 2 * np.pi, 12)
        joints, derivatives, _ = _fourier_kernel(phases)
        exp0 = _kernel_box(joints)
        bound = min_noise_lp(exp0)
        if bound.f_min == 0.0:
            continue
        checked += 1
        best = int((exp0.vector() @ CLASS_CH).argmax())
        for weights in (threshold_gradient(bound), CLASS_CH[:36, best]):
            gradient, hessian = derivatives(weights)
            central = np.array([
                _fourier_kernel(phases + shift)[1](weights)[0]
                - _fourier_kernel(phases - shift)[1](weights)[0]
                for shift in np.eye(12) * step
            ]) / (2 * step)
            scale = np.abs(hessian).max()
            assert np.abs(hessian - hessian.T).max() <= 1e-14 * scale
            assert np.abs(hessian - central).max() <= 1e-8 * scale
            # a stack of weights gives each one's derivatives
            stacked = derivatives(np.stack([weights, 2.0 * weights]))
            assert np.allclose(stacked[0], [gradient, 2.0 * gradient], rtol=1e-14, atol=0)
            assert np.allclose(stacked[1], [hessian, 2.0 * hessian], rtol=1e-14, atol=0)
        # the threshold's own Hessian while its basis stays optimal: the
        # dual-weighted one minus 2 / (1 - f) grad grad^T, against central
        # differences of the LP gradient
        gradient, hessian = derivatives(threshold_gradient(bound))
        hessian -= 2.0 / (1.0 - bound.f_min) * np.outer(gradient, gradient)

        def lp_gradient(x):
            joints, kernel_derivatives, _ = _fourier_kernel(x)
            bound_at_x = min_noise_lp(_kernel_box(joints), start=bound)
            return kernel_derivatives(threshold_gradient(bound_at_x))[0]

        central = np.array([
            lp_gradient(phases + shift) - lp_gradient(phases - shift)
            for shift in np.eye(12) * step
        ]) / (2 * step)
        assert np.abs(hessian - central).max() <= 1e-8 * np.abs(hessian).max()


def test_lp_dual_gradient_is_zero_at_a_local_box():
    # with one setting per side every box is local, and f_min is flat at 0
    rng = np.random.default_rng(31)
    for _ in range(5):
        alice, bob = rng.uniform(0, 2 * np.pi, (2, 3))
        bound = min_noise_lp(
            experiment_probabilities(PhaseSettings([alice, alice], [bob, bob]))
        )
        assert bound.f_min == 0.0
        assert not threshold_gradient(bound).any()


def test_analytic_search_never_over_reports_the_lp_threshold():
    result = optimize(2, seed=5, method="analytic")
    lp_value = threshold_objective(result.best_settings, "lp")
    assert result.best_threshold <= lp_value + 1e-6


def test_objective_is_gauge_invariant_under_pinning():
    rng = np.random.default_rng(101)
    ref = reference_settings()
    cases = [
        (ref.alice, ref.bob, ref.relabel),
        (
            rng.uniform(0, 2 * np.pi, (2, 3)),
            rng.uniform(0, 2 * np.pi, (2, 3)),
            ((1, 2, 3),) * 4,
        ),
    ]
    for alice, bob, relabel in cases:
        shifts = rng.uniform(-3, 3, size=4)
        base = PhaseSettings(alice, bob, relabel)
        shifted = PhaseSettings(
            alice + np.array([[shifts[0]], [shifts[1]]]),
            bob + np.array([[shifts[2]], [shifts[3]]]),
            relabel,
        )
        for method, tol in (("analytic", 1e-12), ("lp", 1e-9)):
            a = threshold_objective(base, method)
            b = threshold_objective(shifted, method)
            assert abs(a - b) < tol


def test_search_from_the_reference_start_keeps_the_optimum():
    result = optimize(
        1, seed=7, method="lp", initial_phases=reference_settings(relabeled=False)
    )
    assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-6
    assert result.evaluations > 0


@pytest.mark.parametrize("method", ["lp", "analytic"])
def test_a_huge_finite_start_is_searched_from_its_phases_mod_2_pi(method):
    # phases near the largest double are valid settings; the search reduces
    # them mod 2 pi before pinning the gauge, so nothing overflows
    alice = np.array([[1e308, -1e308, 3.0], [2e300, -5.5e200, 1.0]])
    bob = np.array([[-1e308, 7.0, 1e308], [0.5, 1e307, -1e306]])
    huge = PhaseSettings(alice, bob)
    reduced = PhaseSettings(np.mod(alice, 2 * np.pi), np.mod(bob, 2 * np.pi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = optimize(1, seed=3, method=method, initial_phases=huge)
    expected = optimize(1, seed=3, method=method, initial_phases=reduced)
    assert np.array_equal(result.best_settings.alice, expected.best_settings.alice)
    assert np.array_equal(result.best_settings.bob, expected.best_settings.bob)
    assert result.best_settings.relabel == expected.best_settings.relabel
    assert (result.best_threshold, result.evaluations, result.lp_pivots) == (
        expected.best_threshold, expected.evaluations, expected.lp_pivots
    )
    assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-12


def test_analytic_restart_rediscovers_a_near_optimal_setting():
    result = optimize(1, seed=7, method="analytic")
    assert result.best_threshold >= REFERENCE_NOISE_THRESHOLD - 1e-12
    # the winning relabeling is baked in, so the plain objective agrees
    replay = threshold_objective(result.best_settings, "analytic")
    assert abs(replay - result.best_threshold) < 1e-9


def test_failed_restarts_are_skipped(monkeypatch):
    # restart 0 dies on its first evaluation; restart 1 runs on a cheap
    # surrogate objective, so the search still returns a result
    calls = {"n": 0}

    class _Stub:
        basis = None
        inverse = None
        start = "cold"
        iterations = 0

        def __init__(self, f):
            self.f_min = f

    def flaky(exp0, start=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SimplexFailure("synthetic failure")
        return _Stub(float(_relabel_maxed_scores(exp0).max()))

    monkeypatch.setattr(lhv_module, "_min_noise_lp", flaky)
    result = optimize(2, seed=11, method="lp")
    assert 0.0 <= result.best_threshold <= 1.0
    assert calls["n"] > 1
    assert result.failed_restarts == 1


def test_raises_when_every_restart_fails(monkeypatch):
    def broken(exp0, start=None):
        raise SimplexFailure("synthetic failure")

    monkeypatch.setattr(lhv_module, "_min_noise_lp", broken)
    with pytest.raises(RuntimeError):
        optimize(2, seed=13, method="lp")


def test_programming_errors_in_a_restart_propagate(monkeypatch):
    # only solver failures skip a restart; any other error is a bug to surface
    def broken(phases):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(optimizer_module, "_fourier_kernel", broken)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        optimize(2, seed=17, method="analytic")


def test_neither_search_calls_the_born_rule(monkeypatch):
    # every evaluation, the final relabeling pick included, reads the box
    # from the Fourier table
    def refused(*args):
        raise AssertionError("the search called the Born rule")

    monkeypatch.setattr(engine_module, "_born_rule", refused)
    with pytest.raises(AssertionError, match="Born rule"):
        threshold_objective(reference_settings(), "lp")
    for seed in (2, 9):
        lp = optimize(1, seed=seed, method="lp")
        assert (lp.evaluations, sum(lp.lp_starts.values())) == GRADIENT_SEARCH_FIXTURES[seed]
        assert lp.lp_pivots == GRADIENT_SEARCH_PIVOTS[seed]
        analytic = optimize(1, seed=seed, method="analytic")
        assert analytic.evaluations == ANALYTIC_SEARCH_EVALUATIONS[seed]
        for result in (lp, analytic):
            assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-12


def test_the_ascent_gives_up_where_every_trial_falls():
    # the claimed gradient points uphill, but every move from x0 falls
    x0 = np.zeros(12)
    x0[[0, 3, 6, 9]] = [0.1, 0.2, 0.3, 0.4]
    trials = []

    def falling(x):
        trials.append(x.copy())
        return -np.sum((x - x0) ** 2), np.ones(12), -2.0 * np.eye(12)

    x = x0.copy()
    value, gradient = optimizer_module._newton_ascent(falling, x)
    # x is restored and the starting value and gradient are returned
    assert np.array_equal(x, x0)
    assert value == 0.0 and np.array_equal(gradient, np.ones(8))
    # the Newton direction is 0.5 per free phase, and each trial halves the
    # step until it is shorter than STEP_TOL
    for k, trial in enumerate(trials[1:]):
        expected = x0.copy()
        expected[FREE_INDICES] = 0.5 * 0.5**k
        assert np.array_equal(trial, expected)
    shortest = 0.5 ** (len(trials) - 2) * np.linalg.norm(np.full(8, 0.5))
    assert shortest >= optimizer_module.STEP_TOL > shortest / 2


def test_the_ascent_follows_the_gradient_where_the_hessian_is_zero():
    slopes = np.arange(1.0, 13.0)
    trials = []

    def linear(x):
        trials.append(x.copy())
        value = slopes @ x
        # flat from 1000 on, where the gradient test stops the ascent
        return value, slopes * (value < 1000.0), np.zeros((12, 12))

    x = np.zeros(12)
    value, gradient = optimizer_module._newton_ascent(linear, x)
    # each full step along the free gradient gains |slopes[FREE_INDICES]|^2 = 484,
    # so the third reaches the flat top
    assert [trial @ slopes for trial in trials] == [0.0, 484.0, 968.0, 1452.0]
    assert value == 1452.0 and np.array_equal(gradient, np.zeros(8))
    expected = np.zeros(12)
    expected[FREE_INDICES] = 3 * slopes[FREE_INDICES]
    assert np.array_equal(x, expected)
