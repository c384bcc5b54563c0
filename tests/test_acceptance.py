"""Release gate: one test per numbered acceptance criterion.

Each test checks a single externally meaningful claim about the package at
its stated tolerance, and prints one PASS line (visible with ``pytest -s``;
under plain ``pytest -v`` the per-test PASSED/FAILED line plays that role).
Frozen constants below were computed by independent oracles before the
implementation existed; they must never be regenerated from package code.
"""

import time
from collections import Counter

import numpy as np

from qutrit_ch.atoms import ATOMS, atom_index
from qutrit_ch.engine import (
    PERMUTATIONS,
    PhaseSettings,
    apply_relabeling,
    experiment_probabilities,
    mix_with_noise,
)
from qutrit_ch.inequality import (
    analytic_threshold,
    ch_coefficients,
    ch_decomposition,
    ch_lhs,
    deterministic_value,
)
from qutrit_ch.lhv import lhv_feasible, min_noise_lp
from qutrit_ch.optimizer import optimize, threshold_objective
from qutrit_ch.presets import (
    REFERENCE_NOISE_THRESHOLD,
    reference_joint_tables,
    reference_settings,
)

# Frozen oracle values (independent hand/symbolic computation, not package code).
LHS_NOISELESS = (8.0 * np.sqrt(3.0) - 6.0) / 27.0
LHS_FULLY_MIXED = -2.0 / 3.0
CENSUS = {0: 30, -1: 48, -2: 3}
COEFFICIENT_SUM = -54
WORST_ATOMS = {(1, 2, 1, 3), (2, 3, 3, 2), (3, 1, 2, 1)}


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def _preset_experiment(noise: float = 0.0):
    return experiment_probabilities(reference_settings(), noise)


def test_criterion_1_joint_tables_and_singles_match_closed_form():
    exp = _preset_experiment()
    table_err = float(np.abs(exp.tables - reference_joint_tables()).max())
    singles_err = float(
        max(np.abs(exp.alice_singles - 1.0 / 3.0).max(), np.abs(exp.bob_singles - 1.0 / 3.0).max())
    )
    assert table_err < 1e-12, f"joint tables off by {table_err:.3e}"
    assert singles_err < 1e-12, f"singles off by {singles_err:.3e}"
    _report(
        "criterion 1 closed-form tables",
        f"table err {table_err:.2e}, singles err {singles_err:.2e}, tol 1e-12",
    )


def test_criterion_2_functional_values_at_both_noise_extremes():
    err0 = abs(ch_lhs(_preset_experiment(0.0)) - LHS_NOISELESS)
    err1 = abs(ch_lhs(_preset_experiment(1.0)) - LHS_FULLY_MIXED)
    assert err0 < 1e-12, f"noise-free value off by {err0:.3e}"
    assert err1 < 1e-12, f"fully mixed value off by {err1:.3e}"
    _report(
        "criterion 2 functional values",
        f"noise-free err {err0:.2e}, fully-mixed err {err1:.2e}, tol 1e-12",
    )


def test_criterion_3_analytic_threshold_closed_form():
    result = analytic_threshold(_preset_experiment())
    err = abs(result.value - REFERENCE_NOISE_THRESHOLD)
    assert result.violated
    assert err < 1e-12, f"analytic threshold off by {err:.3e}"
    _report("criterion 3 analytic threshold", f"err {err:.2e}, tol 1e-12")


def test_criterion_4_lp_threshold_agrees_and_is_fast():
    exp0 = _preset_experiment()
    start = time.perf_counter()
    bound = min_noise_lp(exp0)
    elapsed = time.perf_counter() - start
    err = abs(bound.f_min - REFERENCE_NOISE_THRESHOLD)
    assert err < 1e-6, f"LP threshold off by {err:.3e}"
    assert elapsed < 1.0, f"LP threshold took {elapsed:.3f} s"
    _report(
        "criterion 4 LP threshold",
        f"err {err:.2e} (tol 1e-6), runtime {elapsed * 1e3:.1f} ms (limit 1 s)",
    )


def _recount_value(a1: int, a2: int, b1: int, b2: int) -> int:
    """Functional value on one strategy, written as explicit predicate algebra.

    Deliberately shares no code with the library's term tables so that a
    transcription error in either one makes the census comparison fail.
    """
    joints = (
        (a1 == 2 and b1 == 1)
        + (a1 == 2 and b2 == 1)
        - (a2 == 2 and b1 == 1)
        + (a2 == 2 and b2 == 1)
        + (a1 == 1 and b1 == 2)
        + (a1 == 1 and b2 == 2)
        - (a2 == 1 and b1 == 2)
        + (a2 == 1 and b2 == 2)
        + (a1 == 2 and b1 == 2)
        + (a1 == 1 and b2 == 1)
        - (a2 == 2 and b1 == 2)
        + (a2 == 2 and b2 == 2)
    )
    singles = (a1 == 1) + (a1 == 2) + (b2 == 1) + (b2 == 2)
    return int(joints) - int(singles)


def test_criterion_5_deterministic_expansion_fully_verified():
    coeffs = ch_coefficients()
    values = [int(v) for v in coeffs]

    assert all(v <= 0 for v in values), "a deterministic strategy exceeds the bound"
    assert set(values) <= {0, -1, -2}, f"unexpected coefficient values {sorted(set(values))}"
    assert sum(values) == COEFFICIENT_SUM

    recount = [_recount_value(*atom) for atom in ATOMS]
    assert recount == values, "independent recount disagrees with ch_coefficients"
    assert Counter(recount) == CENSUS
    assert {atom for atom in ATOMS if recount[atom_index(atom)] == -2} == WORST_ATOMS

    first, second, remainder = ch_decomposition()
    identity_err = float(np.abs(first + second + remainder - coeffs).max())
    assert identity_err < 1e-12, f"decomposition identity off by {identity_err:.3e}"

    worst = max(deterministic_value(atom) for atom in ATOMS)
    assert worst == 0
    _report(
        "criterion 5 deterministic expansion",
        f"census {dict(Counter(recount))}, sum {sum(values)}, "
        f"identity err {identity_err:.2e}, max value {worst}",
    )


def test_criterion_6_feasibility_brackets_the_threshold():
    exp0 = _preset_experiment()
    f_min = min_noise_lp(exp0).f_min
    below = lhv_feasible(mix_with_noise(exp0, f_min - 1e-4))
    above = lhv_feasible(mix_with_noise(exp0, f_min + 1e-4))
    assert not below, "local model found below the threshold"
    assert above, "no local model just above the threshold"
    _report(
        "criterion 6 feasibility bracketing",
        f"infeasible at f_min-1e-4, feasible at f_min+1e-4 around {f_min:.6f}",
    )


def test_criterion_7_threshold_is_relabeling_invariant():
    exp0 = _preset_experiment()
    reference = min_noise_lp(exp0).f_min
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10):
        relabel = tuple(PERMUTATIONS[i] for i in rng.integers(0, len(PERMUTATIONS), size=4))
        shuffled = apply_relabeling(exp0, relabel)
        worst = max(worst, abs(min_noise_lp(shuffled).f_min - reference))
    assert worst < 1e-7, f"relabeling moved the threshold by {worst:.3e}"
    _report("criterion 7 relabeling invariance", f"max deviation {worst:.2e}, tol 1e-7")


def test_criterion_8_normalization_and_no_signaling_on_random_draws():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        settings = PhaseSettings(
            alice=rng.uniform(0.0, 2.0 * np.pi, size=(2, 3)),
            bob=rng.uniform(0.0, 2.0 * np.pi, size=(2, 3)),
        )
        exp = experiment_probabilities(settings, float(rng.uniform(0.0, 1.0)))
        exp.validate()
        assert np.abs(exp.alice_singles - 1.0 / 3.0).max() < 1e-12
        assert np.abs(exp.bob_singles - 1.0 / 3.0).max() < 1e-12
    _report(
        "criterion 8 invariant suites",
        "normalization + no-signaling at 1e-10 and uniform singles at 1e-12 on 100 draws",
    )


def test_criterion_9_optimizer_rediscovers_the_best_settings():
    start = time.perf_counter()
    result = optimize(restarts=20, seed=7, method="lp")
    elapsed = time.perf_counter() - start
    assert result.best_threshold >= 0.3038 - 1e-3, (
        f"best threshold {result.best_threshold:.6f} below target"
    )
    assert elapsed < 300.0, f"optimizer took {elapsed:.1f} s"
    assert result.failed_restarts == 0, f"{result.failed_restarts} restarts failed"
    replay = threshold_objective(result.best_settings, method="lp")
    assert abs(replay - result.best_threshold) < 1e-9
    _report(
        "criterion 9 optimizer rediscovery",
        f"best {result.best_threshold:.10f} >= 0.3028, {result.evaluations} evaluations, "
        f"0 failed restarts, {elapsed:.1f} s (limit 300 s)",
    )
