import itertools

import numpy as np
import pytest

import qutrit_ch.optimizer as optimizer_module
from qutrit_ch.atoms import N_ATOMS
from qutrit_ch.engine import (
    PERMUTATIONS,
    ExperimentProbabilities,
    PhaseSettings,
    _born_kernel,
    apply_relabeling,
    experiment_probabilities,
)
from qutrit_ch.inequality import analytic_threshold
from qutrit_ch.lhv import marginals_of, min_noise_lp, threshold_gradient
from qutrit_ch.optimizer import (
    GRADIENT_TOL,
    OptimizationResult,
    _RELABELED_CH,
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


def test_relabel_scores_match_explicit_relabelings():
    # every score must agree with actually permuting the experiment, and no
    # relabeling may claim more noise tolerance than the LP certifies
    combos = list(itertools.product(PERMUTATIONS, repeat=4))
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
        assert len(combos) == 6 ** 4 == len(scores)
        for combo, score in zip(combos, scores):
            direct = analytic_threshold(apply_relabeling(exp0, combo)).value
            assert abs(score - direct) < 1e-12
        assert scores.max() <= min_noise_lp(exp0).f_min + 1e-9


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
    assert first.gradient_norm is None
    assert 0.0 <= first.best_threshold <= 1.0
    # re-evaluating the returned settings reproduces the reported score
    replay = threshold_objective(first.best_settings, "analytic")
    assert abs(replay - first.best_threshold) < 1e-9


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
# of the search-lp benchmark; the first evaluations of a restart ascend the
# relabeled functional and solve no LP
GRADIENT_SEARCH_FIXTURES = {2: (12, 11), 9: (8, 6)}


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


def test_every_lp_restart_ends_at_the_paper_threshold_with_a_small_gradient():
    for seed in range(50):
        result = optimize(1, seed=seed, method="lp")
        assert result.failed_restarts == 0
        assert result.gradient_norm <= GRADIENT_TOL
        assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-9


def test_criterion_9_search_reaches_the_paper_threshold_to_1e_12():
    result = optimize(20, seed=7, method="lp")
    assert result.failed_restarts == 0
    assert "cold" not in result.lp_starts
    assert abs(result.best_threshold - REFERENCE_NOISE_THRESHOLD) < 1e-12
    # Newton steps on the exact Hessian: 206 evaluations, where BFGS took 469
    assert result.evaluations <= 250
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
        gradient = threshold_gradient(bound) @ _born_kernel(phases)[1](np.eye(36))[0]
        central = np.array([
            threshold_objective(_phase_settings(phases + shift), "lp")
            - threshold_objective(_phase_settings(phases - shift), "lp")
            for shift in np.eye(12) * step
        ]) / (2 * step)
        assert np.linalg.norm(gradient - central) <= 1e-6 * np.linalg.norm(gradient)


def test_born_kernel_hessian_matches_central_differences_of_its_gradient():
    # the weights the search uses: the LP dual at a violating setting, and
    # the functional read through the relabeling that maximizes it there
    rng = np.random.default_rng(29)
    step = 1e-6
    checked = 0
    while checked < 10:
        phases = rng.uniform(0, 2 * np.pi, 12)
        exp0, derivatives = _born_kernel(phases)
        bound = min_noise_lp(exp0)
        if bound.f_min == 0.0:
            continue
        checked += 1
        best = int((exp0.vector() @ _RELABELED_CH).argmax())
        for weights in (threshold_gradient(bound), _RELABELED_CH[:36, best]):
            gradient, hessian = derivatives(weights)
            central = np.array([
                _born_kernel(phases + shift)[1](weights)[0]
                - _born_kernel(phases - shift)[1](weights)[0]
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
            exp, kernel_derivatives = _born_kernel(x)
            return kernel_derivatives(threshold_gradient(min_noise_lp(exp, start=bound)))[0]

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


def test_analytic_restart_rediscovers_a_near_optimal_setting():
    result = optimize(1, seed=7, method="analytic")
    assert result.best_threshold >= REFERENCE_NOISE_THRESHOLD - 1e-3
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

        def __init__(self, f):
            self.f_min = f

    def flaky(exp0, start=None):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SimplexFailure("synthetic failure")
        return _Stub(float(_relabel_maxed_scores(exp0).max()))

    monkeypatch.setattr(optimizer_module, "_min_noise_lp", flaky)
    result = optimize(2, seed=11, method="lp")
    assert 0.0 <= result.best_threshold <= 1.0
    assert calls["n"] > 1
    assert result.failed_restarts == 1


def test_raises_when_every_restart_fails(monkeypatch):
    def broken(exp0, start=None):
        raise SimplexFailure("synthetic failure")

    monkeypatch.setattr(optimizer_module, "_min_noise_lp", broken)
    with pytest.raises(RuntimeError):
        optimize(2, seed=13, method="lp")


def test_programming_errors_in_a_restart_propagate(monkeypatch):
    # only solver failures skip a restart; any other error is a bug to surface
    def broken(exp0):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(optimizer_module, "_relabel_maxed_scores", broken)
    with pytest.raises(RuntimeError, match="synthetic bug"):
        optimize(2, seed=17, method="analytic")
