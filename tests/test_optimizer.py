import itertools

import numpy as np
import pytest

import qutrit_ch.optimizer as optimizer_module
from qutrit_ch.atoms import N_ATOMS
from qutrit_ch.engine import (
    PERMUTATIONS,
    ExperimentProbabilities,
    PhaseSettings,
    apply_relabeling,
    experiment_probabilities,
)
from qutrit_ch.inequality import analytic_threshold
from qutrit_ch.lhv import marginals_of, min_noise_lp
from qutrit_ch.optimizer import (
    OptimizationResult,
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


# evaluations and best threshold of optimize(1, seed, "lp") from before
# grid points started from their own slot's bound
SLOT_START_FIXTURES = {2: (1585, 0.3038475768635756), 9: (1321, 0.30384757510115756)}


def test_grid_slot_starts_keep_the_search_and_repair_fewer_starts():
    repaired = 0
    for seed, (evaluations, best) in SLOT_START_FIXTURES.items():
        result = optimize(1, seed=seed, method="lp")
        assert result.evaluations == evaluations
        assert abs(result.best_threshold - best) < 1e-12
        assert result.failed_restarts == 0
        assert sum(result.lp_starts.values()) == evaluations
        assert set(result.lp_starts) <= {"accepted", "repaired", "cold"}
        repaired += result.lp_starts["repaired"]
    # 1183 were repaired when every grid point started from the previous
    # evaluation, 30 degrees away
    assert repaired <= 900


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
