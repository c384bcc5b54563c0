from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

import qutrit_ch.lhv as lhv_module

from qutrit_ch.atoms import INDICATOR_MATRIX, MARGINAL_MATRIX, N_ATOMS, atom_index
from qutrit_ch.engine import (
    ExperimentProbabilities,
    PERMUTATIONS,
    PhaseSettings,
    apply_relabeling,
    experiment_probabilities,
    mix_with_noise,
)
from qutrit_ch.inequality import CLASS_CH, CLASS_FIRSTS, FLAT_LHS, analytic_threshold
from qutrit_ch.lhv import (
    INDEPENDENT_ROWS,
    NoiseBound,
    lhv_feasible,
    lhv_weights,
    marginals_of,
    min_noise_bisection,
    min_noise_lp,
)
from qutrit_ch.optimizer import optimize
from qutrit_ch.presets import REFERENCE_NOISE_THRESHOLD, reference_settings
from qutrit_ch.simplex import INVERSE_TOL, LpSolution, SimplexFailure, simplex_solve


def random_settings(rng):
    return PhaseSettings(
        rng.uniform(0, 2 * np.pi, (2, 3)), rng.uniform(0, 2 * np.pi, (2, 3))
    )


def scipy_min_noise(exp0):
    t = exp0.tables.reshape(36)
    a = np.zeros((37, N_ATOMS + 1))
    a[:36, :N_ATOMS] = MARGINAL_MATRIX
    a[:36, N_ATOMS] = t - 1.0 / 9.0
    a[36, :N_ATOMS] = 1.0
    b = np.concatenate([t, [1.0]])
    c = np.zeros(N_ATOMS + 1)
    c[N_ATOMS] = 1.0
    bounds = [(0, None)] * N_ATOMS + [(0, 1)]
    out = linprog(c, A_eq=a, b_eq=b, bounds=bounds, method="highs")
    assert out.status == 0
    return float(out.fun)


def cold_min_noise(exp0):
    """f_min and weights of the noise LP solved by the two-phase path."""
    t0 = exp0.tables.reshape(36)[INDEPENDENT_ROWS]
    solution = simplex_solve(lhv_module._NOISE_COST, lhv_module._NOISE_MATRIX, t0)
    assert solution.start == "cold"
    g = solution.objective_value
    return g / (1.0 + g), solution.x[:N_ATOMS] / (1.0 + g)


def test_marginals_of_validates_shape():
    with pytest.raises(ValueError):
        marginals_of(np.zeros(80))


def test_marginals_of_point_mass():
    weights = np.zeros(N_ATOMS)
    weights[atom_index((2, 1, 3, 2))] = 1.0
    tables, alice, bob = marginals_of(weights)
    assert tables[0, 0, 1, 2] == 1.0
    assert tables[0, 1, 1, 1] == 1.0
    assert tables[1, 0, 0, 2] == 1.0
    assert tables[1, 1, 0, 1] == 1.0
    assert tables.sum() == 4.0
    assert np.array_equal(alice, [[0, 1, 0], [1, 0, 0]])
    assert np.array_equal(bob, [[0, 0, 1], [0, 1, 0]])


def test_uniform_weights_give_uniform_tables():
    tables, alice, bob = marginals_of(np.full(N_ATOMS, 1.0 / N_ATOMS))
    assert np.max(np.abs(tables - 1.0 / 9.0)) < 1e-15
    assert np.max(np.abs(alice - 1.0 / 3.0)) < 1e-15
    assert np.max(np.abs(bob - 1.0 / 3.0)) < 1e-15


def test_uniform_experiment_is_feasible_with_model_returned():
    uniform = ExperimentProbabilities(
        np.full((2, 2, 3, 3), 1.0 / 9.0),
        np.full((2, 3), 1.0 / 3.0),
        np.full((2, 3), 1.0 / 3.0),
    )
    weights = lhv_weights(uniform)
    assert weights is not None
    tables, _, _ = marginals_of(weights)
    assert np.max(np.abs(tables - 1.0 / 9.0)) < 1e-9


def test_reference_experiment_is_infeasible_at_zero_noise():
    exp0 = experiment_probabilities(reference_settings())
    assert not lhv_feasible(exp0)
    assert lhv_weights(exp0) is None


def test_min_noise_on_reference_matches_closed_form():
    exp0 = experiment_probabilities(reference_settings())
    bound = min_noise_lp(exp0)
    assert isinstance(bound, NoiseBound)
    assert bound.method == "simplex"
    assert abs(bound.f_min - REFERENCE_NOISE_THRESHOLD) < 1e-9


def test_feasibility_brackets_the_reported_threshold():
    exp0 = experiment_probabilities(reference_settings())
    f = min_noise_lp(exp0).f_min
    assert not lhv_feasible(mix_with_noise(exp0, f - 1e-4))
    assert lhv_feasible(mix_with_noise(exp0, f + 1e-4))


def test_certificate_reproduces_the_noisy_tables():
    exp0 = experiment_probabilities(reference_settings())
    bound = min_noise_lp(exp0)
    tables, alice, bob = marginals_of(bound.certificate)
    target = (1 - bound.f_min) * exp0.tables + bound.f_min / 9.0
    assert np.max(np.abs(tables - target)) <= 1e-7
    assert abs(bound.certificate.sum() - 1.0) <= 1e-7
    assert bound.certificate.min() >= -1e-7
    # singles were never constrained in the program, yet they come out
    # right because they are sums of matched joint probabilities
    assert np.max(np.abs(alice - exp0.alice_singles)) <= 1e-7
    assert np.max(np.abs(bob - exp0.bob_singles)) <= 1e-7


def test_min_noise_agrees_with_reference_solver_on_random_settings():
    rng = np.random.default_rng(79)
    for _ in range(20):
        exp0 = experiment_probabilities(random_settings(rng))
        mine = min_noise_lp(exp0).f_min
        assert abs(mine - scipy_min_noise(exp0)) < 1e-9


def test_bisection_and_direct_lp_agree():
    rng = np.random.default_rng(83)
    exp0 = experiment_probabilities(reference_settings())
    direct = min_noise_lp(exp0)
    bisect = min_noise_bisection(exp0)
    assert bisect.method == "bisection"
    # bisection accuracy is limited by the feasibility tolerance near the
    # boundary, not by the 2**-40 interval width
    assert abs(direct.f_min - bisect.f_min) < 1e-8
    for _ in range(3):
        exp0 = experiment_probabilities(random_settings(rng))
        assert abs(min_noise_lp(exp0).f_min - min_noise_bisection(exp0).f_min) < 1e-8


def test_a_solver_failure_raises_instead_of_falling_back(monkeypatch):
    def failing(*args, **kwargs):
        raise SimplexFailure("basis matrix is singular")

    def no_bisection(exp0):
        raise AssertionError("min_noise_lp fell back to bisection")

    exp0 = experiment_probabilities(reference_settings())
    start = min_noise_lp(exp0)
    monkeypatch.setattr(lhv_module, "simplex_solve", failing)
    monkeypatch.setattr(lhv_module, "_solve", failing)
    monkeypatch.setattr(lhv_module, "min_noise_bisection", no_bisection)
    for bound in (None, start):
        with pytest.raises(SimplexFailure, match="LP failed: basis matrix is singular"):
            min_noise_lp(exp0, start=bound)


def test_threshold_is_invariant_under_outcome_relabelings():
    rng = np.random.default_rng(89)
    exp0 = experiment_probabilities(reference_settings())
    f = min_noise_lp(exp0).f_min
    for _ in range(10):
        relabel = tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4))
        relabeled = apply_relabeling(exp0, relabel)
        assert abs(min_noise_lp(relabeled).f_min - f) < 1e-7


def test_all_zero_phases_admit_an_explicit_local_model():
    settings = PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)))
    exp0 = experiment_probabilities(settings)
    # three strategies on the diagonal outcome classes reproduce the tables
    weights = np.zeros(N_ATOMS)
    for atom in ((1, 1, 1, 1), (2, 2, 3, 3), (3, 3, 2, 2)):
        weights[atom_index(atom)] = 1.0 / 3.0
    tables, _, _ = marginals_of(weights)
    assert np.max(np.abs(tables - exp0.tables)) < 1e-12
    assert lhv_feasible(exp0)
    assert min_noise_lp(exp0).f_min <= 1e-12


def test_premixed_input_shifts_the_threshold_affinely():
    exp0 = experiment_probabilities(reference_settings())
    f = min_noise_lp(exp0).f_min
    premix = 0.1
    f_prime = min_noise_lp(mix_with_noise(exp0, premix)).f_min
    assert abs((1 - f_prime) - (1 - f) / (1 - premix)) < 1e-9


@pytest.mark.parametrize(
    "solve",
    [min_noise_lp, min_noise_bisection, lhv_weights, lhv_feasible],
)
def test_invalid_tables_are_rejected_before_solving(solve):
    exp = experiment_probabilities(reference_settings())
    doubled = ExperimentProbabilities(2 * exp.tables, exp.alice_singles, exp.bob_singles)
    with pytest.raises(ValueError, match="sum to 1"):
        solve(doubled)
    tables = exp.tables.copy()
    tables[1, 0, 0, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve(ExperimentProbabilities(tables, exp.alice_singles, exp.bob_singles))


def counted_validations(monkeypatch):
    """The boxes ExperimentProbabilities.validate runs on from here on."""
    boxes = []
    validate = ExperimentProbabilities.validate

    def counted(self):
        boxes.append(self)
        validate(self)

    monkeypatch.setattr(ExperimentProbabilities, "validate", counted)
    return boxes


@pytest.mark.parametrize(
    "entry",
    [min_noise_lp, min_noise_bisection, lhv_weights, lhv_feasible, analytic_threshold],
)
@pytest.mark.parametrize("noise", [0.2, 0.5])
def test_each_public_entry_point_validates_its_box_once(entry, noise, monkeypatch):
    # a non-local box, which lhv_weights answers without an LP, and a local one
    exp = mix_with_noise(experiment_probabilities(reference_settings()), noise)
    boxes = counted_validations(monkeypatch)
    entry(exp)
    assert len(boxes) == 1 and boxes[0] is exp


@pytest.mark.parametrize("method", ["lp", "analytic"])
def test_neither_search_validates_a_box(method, monkeypatch):
    # its boxes are valid by construction (engine._kernel_box), so no
    # inner-loop call checks one again
    boxes = counted_validations(monkeypatch)
    optimize(1, 2, method)
    assert boxes == []


def local_experiment(weights):
    tables, alice, bob = marginals_of(weights)
    return ExperimentProbabilities(tables, alice, bob)


def test_independent_rows_span_every_joint_equation():
    assert INDEPENDENT_ROWS.tolist() == (
        list(range(11)) + [12, 13, 15, 16] + list(range(18, 24)) + [27, 28, 30, 31]
    )
    full = np.vstack([MARGINAL_MATRIX, np.ones((1, N_ATOMS))])
    kept = MARGINAL_MATRIX[INDEPENDENT_ROWS]
    assert np.linalg.matrix_rank(kept) == 25 == np.linalg.matrix_rank(full)
    # full row rank is what the simplex needs: it raises on dependent rows
    for matrix in (lhv_module._ROW_MATRIX, lhv_module._NOISE_MATRIX):
        assert matrix.shape[0] == np.linalg.matrix_rank(matrix) == 25
    # every dropped row and the weight sum are combinations of the kept rows
    coeffs, *_ = np.linalg.lstsq(kept.T, full.T, rcond=None)
    assert np.max(np.abs(kept.T @ coeffs - full.T)) < 1e-12


def test_tiny_pivot_on_a_degenerate_row_no_longer_falls_back():
    # a ratio test that accepts pivot elements near 1e-10 made this basis
    # nearly singular and sent the solve to bisection
    settings = PhaseSettings(
        alice=[[0, -1.0269848162888966, -3.832063196283936],
               [0, 2.1149671508162617, -3.8319393225296046]],
        bob=[[0, 2.6020871131350294, 6.974640941585192],
             [0, -0.5468410411158257, 0.6893571747918238]],
    )
    exp0 = experiment_probabilities(settings)
    bound = min_noise_lp(exp0)
    assert bound.method == "simplex"
    assert abs(bound.f_min - 0.30385) < 1e-4
    assert abs(bound.f_min - min_noise_bisection(exp0).f_min) < 1e-7
    assert abs(bound.f_min - scipy_min_noise(exp0)) < 1e-7


def test_random_settings_solve_without_bisection():
    # two of these draws once hit a singular basis on the 38-row program
    rng = np.random.default_rng(1)
    for _ in range(300):
        alice = rng.uniform(0, 2 * np.pi, (2, 3))
        bob = rng.uniform(0, 2 * np.pi, (2, 3))
        bound = min_noise_lp(experiment_probabilities(PhaseSettings(alice, bob)))
        assert bound.method == "simplex"


def test_feasibility_just_above_zero_noise_does_not_hit_a_singular_basis():
    # a local setting on which the 37-row feasibility program raised
    # "basis matrix is singular"
    settings = PhaseSettings(
        alice=[[0.2159354844877986, 3.508777521379153, 0.35442755772124795],
               [6.007220499175199, 0.47311941806282537, 3.7962381745600977]],
        bob=[[0.14730651809099096, 4.128326981381122, 5.525087838833806],
             [0.08652086690081337, 1.5819047322574824, 2.0287902224689778]],
    )
    assert lhv_feasible(mix_with_noise(experiment_probabilities(settings), 1e-4))


def test_lhv_weights_reproduce_every_joint_entry_of_a_local_mixture():
    rng = np.random.default_rng(5)
    exp = local_experiment(rng.dirichlet(np.full(N_ATOMS, 0.3)))
    weights = lhv_weights(exp)
    assert weights is not None
    tables, alice, bob = marginals_of(weights)
    assert np.max(np.abs(tables - exp.tables)) < 1e-9
    assert np.max(np.abs(alice - exp.alice_singles)) < 1e-9
    assert np.max(np.abs(bob - exp.bob_singles)) < 1e-9
    assert abs(weights.sum() - 1.0) < 1e-9


def test_lhv_weights_are_checked_before_they_are_returned(monkeypatch):
    # weights that match none of the tables must raise, not be returned; the
    # box is local, so the CGLMP screen hands it on to the LP
    exp0 = experiment_probabilities(reference_settings())
    exp = mix_with_noise(exp0, min_noise_lp(exp0).f_min + 1e-4)
    assert (exp.vector() @ CLASS_CH).max() <= lhv_module.VIOLATION_MARGIN
    bad = np.zeros(N_ATOMS)
    bad[0] = 1.0
    monkeypatch.setattr(
        lhv_module, "_feasibility", lambda exp: LpSolution("optimal", bad, 0.0, 0)
    )
    with pytest.raises(RuntimeError, match="certificate residual"):
        lhv_weights(exp)


def test_a_negative_certificate_weight_is_named_as_the_cause(monkeypatch):
    # moving the reference model along a null direction of [M; 1] keeps
    # every joint entry and the weight sum but drives a weight negative
    exp = experiment_probabilities(reference_settings())
    bound = min_noise_lp(exp)
    constraints = np.vstack([MARGINAL_MATRIX, np.ones(N_ATOMS)])
    direction = np.linalg.svd(constraints)[2][-1]
    weights = bound.certificate - 1e-6 * direction / np.abs(direction).max()
    assert np.abs(constraints @ (weights - bound.certificate)).max() < 1e-12
    assert weights.min() < -lhv_module.CERTIFICATE_TOL
    monkeypatch.setattr(
        lhv_module, "_feasibility", lambda exp: LpSolution("optimal", weights, 0.0, 0)
    )
    with pytest.raises(RuntimeError, match=f"negative weight {weights.min():.3e}"):
        lhv_weights(mix_with_noise(exp, bound.f_min))


def scipy_feasible(exp):
    """Whether scipy finds weights for the 25 independent joint entries."""
    t = exp.tables.reshape(36)[INDEPENDENT_ROWS]
    out = linprog(np.zeros(N_ATOMS), A_eq=MARGINAL_MATRIX[INDEPENDENT_ROWS], b_eq=t,
                  bounds=(0, None), method="highs")
    assert out.status in (0, 2)
    return out.status == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["noisy", "relabeled", "local mixture"]),
    st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5, 1e-6]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_lhv_feasible_agrees_with_scipy_on_either_side_of_f_min(kind, delta, above, seed):
    rng = np.random.default_rng(seed)
    if kind == "local mixture":
        exp = local_experiment(rng.dirichlet(np.full(N_ATOMS, 0.3)))
    else:
        reference = reference_settings()
        exp0 = experiment_probabilities(PhaseSettings(
            reference.alice + rng.normal(0.0, 0.3, (2, 3)),
            reference.bob + rng.normal(0.0, 0.3, (2, 3)),
        ))
        if kind == "relabeled":
            exp0 = apply_relabeling(exp0, tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4)))
        f = min_noise_lp(exp0).f_min
        exp = mix_with_noise(exp0, min(max(f + (delta if above else -delta), 0.0), 1.0))
    assert lhv_feasible(exp) == scipy_feasible(exp)


def counted_feasibility(monkeypatch):
    """Patch ``_feasibility`` to record the boxes it is called on."""
    calls = []
    feasibility = lhv_module._feasibility

    def counted(exp):
        calls.append(exp)
        return feasibility(exp)

    monkeypatch.setattr(lhv_module, "_feasibility", counted)
    return calls


def box_with_top_class_value(value):
    """The preset's box mixed with noise until its largest class value is
    ``value``: every class value moves linearly to FLAT_LHS."""
    exp0 = experiment_probabilities(reference_settings())
    top = (exp0.vector() @ CLASS_CH).max()
    exp = mix_with_noise(exp0, (top - value) / (top - FLAT_LHS))
    return exp, (exp.vector() @ CLASS_CH).max()


def test_the_violation_margin_bounds_what_a_certificate_could_raise():
    # every atom's class values lie in [-2, 0], and every column has 12 joint
    # and 4 single signs, the terms of VIOLATION_MARGIN
    atom_values = CLASS_CH.T @ INDICATOR_MATRIX
    assert (atom_values.min(), atom_values.max()) == (-2.0, 0.0)
    assert set(np.abs(CLASS_CH[:36]).sum(axis=0)) == {12.0}
    assert set(np.abs(CLASS_CH[36:]).sum(axis=0)) == {4.0}
    assert 1.8e-5 < lhv_module.VIOLATION_MARGIN < 1.9e-5


def test_a_box_just_beyond_the_margin_is_answered_without_an_lp(monkeypatch):
    calls = counted_feasibility(monkeypatch)
    exp, top = box_with_top_class_value(lhv_module.VIOLATION_MARGIN * (1.0 + 1e-6))
    assert top > lhv_module.VIOLATION_MARGIN
    assert lhv_weights(exp) is None
    assert not lhv_feasible(exp)
    assert calls == []


def test_a_box_just_within_the_margin_reaches_the_lp(monkeypatch):
    calls = counted_feasibility(monkeypatch)
    exp, top = box_with_top_class_value(lhv_module.VIOLATION_MARGIN * (1.0 - 1e-6))
    assert 0.0 < top <= lhv_module.VIOLATION_MARGIN
    # still not local: the LP certifies it
    assert not lhv_feasible(exp)
    assert calls == [exp]


def test_a_local_box_always_reaches_the_lp(monkeypatch):
    rng = np.random.default_rng(47)
    exp0 = experiment_probabilities(reference_settings())
    f = min_noise_lp(exp0).f_min
    local = [mix_with_noise(exp0, f + delta) for delta in (1e-2, 1e-4, 1e-6)]
    local += [anchored_box(kind, rng) for kind in ("dirichlet", "one setting")]
    local.append(mix_with_noise(exp0, 1.0))
    calls = counted_feasibility(monkeypatch)
    for exp in local:
        assert lhv_feasible(exp)
    assert calls == local


def test_noise_keeps_a_local_mixture_with_biased_singles_local():
    exp = local_experiment(np.random.default_rng(3).dirichlet(np.ones(N_ATOMS)))
    mixed = mix_with_noise(exp, 0.5)
    mixed.validate()
    assert lhv_feasible(mixed)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.0, 2 * np.pi), min_size=12, max_size=12),
    st.integers(0, 11),
    st.floats(1e-4, 2 * np.pi / 12),
    st.booleans(),
)
def test_warm_started_bound_equals_the_cold_one(phases, index, step, down):
    phases = np.array(phases)
    exp0 = experiment_probabilities(PhaseSettings(phases[:6].reshape(2, 3), phases[6:].reshape(2, 3)))
    phases[index] += -step if down else step
    exp1 = experiment_probabilities(PhaseSettings(phases[:6].reshape(2, 3), phases[6:].reshape(2, 3)))
    warm = min_noise_lp(exp1, start=min_noise_lp(exp0))
    f_cold, _ = cold_min_noise(exp1)
    assert warm.method == "simplex"
    assert abs(warm.f_min - f_cold) < 1e-12
    assert abs(warm.f_min - min_noise_bisection(exp1).f_min) < 1e-8


def test_unusable_starts_solve_cold_with_the_same_result():
    rng = np.random.default_rng(7)
    exp0 = experiment_probabilities(random_settings(rng))
    f_cold, weights_cold = cold_min_noise(exp0)
    unseeded = min_noise_lp(exp0)
    n_rows = len(unseeded.basis)
    starts = [
        NoiseBound(0.0, weights_cold, 0, "simplex", unseeded.basis[:-1]),  # wrong length
        NoiseBound(0.0, weights_cold, 0, "simplex", (0,) * n_rows),  # singular
        NoiseBound(0.0, weights_cold, 0, "simplex", tuple(range(n_rows))),  # singular
    ]
    for start in starts:
        bound = min_noise_lp(exp0, start=start)
        assert bound.f_min == f_cold
        assert np.array_equal(bound.certificate, weights_cold)
        assert bound.start == "cold"
    # a bisection bound has no basis, so it starts as a solve without one
    bisection = min_noise_bisection(exp0)
    assert bisection.start == "cold"  # bisection bounds never come from a start
    bound = min_noise_lp(exp0, start=bisection)
    assert bound.f_min == unseeded.f_min
    assert np.array_equal(bound.certificate, unseeded.certificate)
    assert bound.start == unseeded.start != "cold"


def test_distant_starts_and_bad_inverses_give_the_cold_bound():
    rng = np.random.default_rng(7)
    exp0 = experiment_probabilities(random_settings(rng))
    cold = min_noise_lp(exp0)
    # the LP's matrix and cost do not depend on the experiment, so even the
    # reference setting's optimal basis stays dual feasible and is repaired;
    # on this degenerate box (f_min = 0) it can end at another optimal model
    far = min_noise_lp(experiment_probabilities(reference_settings()))
    warm = min_noise_lp(exp0, start=far)
    assert warm.start == "repaired"
    assert abs(warm.f_min - cold.f_min) < 1e-12
    # an inverse that does not invert the start basis is refactorized, so the
    # solve is the one a bare basis gives
    bare = min_noise_lp(exp0, start=replace(far, inverse=None))
    bad_inverses = [
        cold.inverse,  # of another basis
        far.inverse + 1e-6 * rng.standard_normal(far.inverse.shape),
        far.inverse[:-1],
    ]
    for inverse in bad_inverses:
        bound = min_noise_lp(exp0, start=replace(far, inverse=inverse))
        assert bound.f_min == bare.f_min
        assert abs(bound.f_min - cold.f_min) < 1e-12
        assert np.array_equal(bound.certificate, bare.certificate)
        assert bound.iterations == bare.iterations
        assert bound.start == "repaired"


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.0, 2 * np.pi), min_size=12, max_size=12),
    st.integers(0, 11),
    st.floats(0.0, np.pi),
    st.booleans(),
)
def test_a_carried_inverse_gives_the_cold_bound(phases, index, step, down):
    phases = np.array(phases)
    start = min_noise_lp(experiment_probabilities(phase_settings(phases)))
    phases[index] += -step if down else step
    exp1 = experiment_probabilities(phase_settings(phases))
    warm = min_noise_lp(exp1, start=start)
    # every optimal basis of the fixed-matrix LP is dual feasible
    assert warm.start in ("accepted", "repaired")
    footprint = lhv_module._NOISE_MATRIX[:, list(warm.basis)]
    assert np.max(np.abs(warm.inverse @ footprint - np.eye(25))) <= INVERSE_TOL
    assert abs(warm.f_min - cold_min_noise(exp1)[0]) < 1e-12
    assert abs(warm.f_min - scipy_min_noise(exp1)) < 1e-9


def phase_settings(phases):
    phases = np.asarray(phases, dtype=float)
    return PhaseSettings(phases[:6].reshape(2, 3), phases[6:].reshape(2, 3))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(0.0, 2 * np.pi), min_size=12, max_size=12),
    st.integers(0, 11),
    st.floats(1e-3, np.pi),
    st.booleans(),
)
def test_repaired_warm_start_equals_the_cold_bound(phases, index, step, down):
    # one phase moves far enough that the previous optimal basis is no
    # longer primal feasible; dual pivots must repair it, not a cold solve
    phases = np.array(phases)
    start = min_noise_lp(experiment_probabilities(phase_settings(phases)))
    phases[index] += -step if down else step
    exp1 = experiment_probabilities(phase_settings(phases))
    warm = min_noise_lp(exp1, start=start)
    assume(warm.start == "repaired")
    f_cold, _ = cold_min_noise(exp1)  # asserts its start is "cold"
    assert warm.method == "simplex"
    assert abs(warm.f_min - f_cold) < 1e-12
    assert abs(warm.f_min - min_noise_bisection(exp1).f_min) < 1e-8


# two consecutive evaluations of optimize(20, 7, "lp") whose second LP, solved
# cold after the start basis was rejected as primal infeasible, fell back to
# bisection; warm-started from the first bound, the second is now repaired
CRITERION_9_FALLBACKS = [
    (
        [0.0, 5.458948807996423, 1.0835988710101896, 0.0, 2.316721589924184,
         4.224794113806221, 0.0, 1.3478078125129735, -1.6072262765580072, 0.0,
         10.773267066952094, 1.5342820646222417],
        [0.0, 5.458948807996423, 1.0835988710101896, 0.0, 2.316721589924184,
         4.224794113806221, 0.0, 1.3478078125129735, -1.6072262765580072, 0.0,
         10.773267066952094, 1.535049804349762],
    ),
    (
        [0.0, -1.9378559770721526, 4.434835252767654, 0.0, 7.484572528962445,
         4.433980633516134, 0.0, 0.8923901689341338, 7.084975321521418, 0.0,
         1.4148809453895579, 0.8013741520288552],
        [0.0, -1.9378559770721526, 4.434835252767654, 0.0, 7.484572528962445,
         4.433980633516134, 0.0, 1.415988944532433, 7.084975321521418, 0.0,
         1.4148809453895579, 0.8013741520288552],
    ),
]


@pytest.mark.parametrize("previous, failing", CRITERION_9_FALLBACKS)
def test_criterion_9_fallbacks_are_solved_by_a_repaired_warm_start(previous, failing):
    start = min_noise_lp(experiment_probabilities(phase_settings(previous)))
    exp1 = experiment_probabilities(phase_settings(failing))
    warm = min_noise_lp(exp1, start=start)
    assert warm.method == "simplex"
    assert warm.start == "repaired"
    assert abs(warm.f_min - min_noise_bisection(exp1).f_min) < 1e-7
    # and solved cold, the simplex must not give up either
    f_cold, _ = cold_min_noise(exp1)
    assert abs(f_cold - warm.f_min) < 1e-12


def test_the_flat_box_accepts_the_anchor_basis_as_it_stands(monkeypatch):
    flat = mix_with_noise(experiment_probabilities(reference_settings()), 1.0)
    t0 = flat.tables.reshape(36)[INDEPENDENT_ROWS]
    problem = (lhv_module._NOISE_COST, lhv_module._NOISE_MATRIX, t0)
    # the literal anchor is the basis the two-phase solve finds for the flat box
    assert simplex_solve(*problem).basis == lhv_module._ANCHOR_BASIS
    anchor_inverse = lhv_module._basis_inverse(lhv_module._ANCHOR_BASIS)
    anchored = simplex_solve(*problem, start=lhv_module._ANCHOR_BASIS, inverse=anchor_inverse)
    assert (anchored.start, anchored.iterations) == ("accepted", 0)
    assert anchored.basis == lhv_module._ANCHOR_BASIS
    assert anchored.objective_value == 0.0
    assert not anchor_inverse.flags.writeable
    with pytest.raises(ValueError):
        anchor_inverse[0, 0] = 0.0
    footprint = lhv_module._NOISE_MATRIX[:, list(lhv_module._ANCHOR_BASIS)]
    assert np.max(np.abs(anchor_inverse @ footprint - np.eye(25))) <= INVERSE_TOL
    # every class value of the flat box ties, so its own bound starts at
    # class 0's witness basis
    witness = lhv_module._witness_basis(0)
    starts = recorded_starts(monkeypatch)
    assert min_noise_lp(flat).f_min == 0.0
    assert starts == [witness]


def anchored_box(kind, rng):
    if kind == "dirichlet":
        return local_experiment(rng.dirichlet(np.full(N_ATOMS, 0.3)))
    if kind == "one setting":
        # zero noise and equal triples per side: local and degenerate
        alice, bob = (np.tile(rng.uniform(0, 2 * np.pi, 3), (2, 1)) for _ in range(2))
        return experiment_probabilities(PhaseSettings(alice, bob))
    exp0 = experiment_probabilities(random_settings(rng))
    if kind == "noisy":
        return mix_with_noise(exp0, rng.uniform(0.05, 0.4))
    if kind == "relabeled":
        return apply_relabeling(exp0, tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4)))
    return exp0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["quantum", "noisy", "relabeled", "dirichlet", "one setting"]),
    st.integers(0, 2**32 - 1),
)
def test_the_class_keyed_start_gives_the_anchored_bound(kind, seed):
    exp0 = anchored_box(kind, np.random.default_rng(seed))
    keyed = min_noise_lp(exp0)
    anchor = lhv_module._ANCHOR_BASIS
    anchored = min_noise_lp(
        exp0, start=replace(keyed, basis=anchor, inverse=lhv_module._basis_inverse(anchor))
    )
    assert keyed.start in ("accepted", "repaired")
    assert abs(keyed.f_min - anchored.f_min) <= 1e-12
    assert abs(keyed.f_min - scipy_min_noise(exp0)) < 1e-9
    if kind in ("dirichlet", "one setting"):
        assert keyed.f_min < 1e-9


def same_solution(first, second):
    assert (first.start, first.iterations, first.basis) == (second.start, second.iterations, second.basis)
    assert np.array_equal(first.x, second.x)


def same_bound(first, second):
    assert (first.start, first.iterations, first.basis) == (second.start, second.iterations, second.basis)
    assert first.f_min == second.f_min
    assert np.array_equal(first.certificate, second.certificate)


def test_every_class_witness_box_has_that_class_alone_on_top():
    for top in range(len(CLASS_FIRSTS)):
        values = lhv_module._witness_box(top) @ CLASS_CH
        assert values[top] > 0.0
        assert np.delete(values, top).max() < values[top]
    # the preset is class 0's witness box, so its own LP needs no pivot
    bound = min_noise_lp(experiment_probabilities(reference_settings()))
    assert (bound.start, bound.iterations) == ("accepted", 0)


def test_every_witness_solve_gives_a_basis_its_box_accepts():
    for top in range(len(CLASS_FIRSTS)):
        basis = lhv_module._witness_basis(top)
        assert len(basis) == 25
        t0 = lhv_module._witness_box(top)[INDEPENDENT_ROWS]
        solution = lhv_module._solve(
            lhv_module._NOISE_COST, lhv_module._NOISE_MATRIX, t0,
            start=basis, inverse=lhv_module._basis_inverse(basis),
        )
        assert (solution.start, solution.iterations, solution.basis) == ("accepted", 0, basis)


def recorded_starts(monkeypatch):
    """The start basis of every noise LP solved from here on."""
    starts = []
    solve = lhv_module._solve

    def recorded(cost, matrix, rhs, **kwargs):
        # every noise LP passes (cost, matrix, rhs), as simplex_solve takes them
        assert cost is lhv_module._NOISE_COST and matrix is lhv_module._NOISE_MATRIX
        starts.append(kwargs["start"])
        return solve(cost, matrix, rhs, **kwargs)

    monkeypatch.setattr(lhv_module, "_solve", recorded)
    return starts


def test_every_box_without_a_start_starts_from_its_top_class_witness_basis(monkeypatch):
    rng = np.random.default_rng(37)
    local = [anchored_box(kind, rng) for kind in ("dirichlet", "one setting")]
    local.append(mix_with_noise(experiment_probabilities(reference_settings()), 0.5))
    local.append(mix_with_noise(experiment_probabilities(reference_settings()), 1.0))
    paper = experiment_probabilities(reference_settings(relabeled=False))
    violating = [paper] + [
        apply_relabeling(paper, tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4)))
        for _ in range(4)
    ]
    values = [exp0.vector() @ CLASS_CH for exp0 in local + violating]
    assert [v.max() > 0.0 for v in values] == [False] * len(local) + [True] * len(violating)
    tops = [int(v.argmax()) for v in values]
    witnesses = [lhv_module._witness_basis(top) for top in tops]
    # a local box's witness basis is not the flat box's
    assert lhv_module._ANCHOR_BASIS not in witnesses
    starts = recorded_starts(monkeypatch)
    for exp0 in local + violating:
        min_noise_lp(exp0)
    assert starts == witnesses


def test_a_witness_start_borrows_its_cached_inverse(monkeypatch):
    rng = np.random.default_rng(53)
    boxes = [experiment_probabilities(random_settings(rng)) for _ in range(30)]
    boxes = [exp0 for exp0 in boxes if (exp0.vector() @ CLASS_CH).max() > 0.0]
    for exp0 in boxes:
        # the witness solve itself runs here, before the recording starts
        lhv_module._witness_basis(int((exp0.vector() @ CLASS_CH).argmax()))
    solve = lhv_module._solve
    calls = []

    def recorded(cost, matrix, rhs, **kwargs):
        assert cost is lhv_module._NOISE_COST and matrix is lhv_module._NOISE_MATRIX
        calls.append((kwargs, solve(cost, matrix, rhs, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(lhv_module, "_solve", recorded)
    for exp0 in boxes:
        min_noise_lp(exp0)
    assert len(calls) == len(boxes) > 0
    for exp0, (kwargs, solution) in zip(boxes, calls):
        witness = kwargs["start"]
        assert witness == lhv_module._witness_basis(int((exp0.vector() @ CLASS_CH).argmax()))
        inverse = kwargs["inverse"]
        assert inverse is lhv_module._basis_inverse(witness)
        assert not inverse.flags.writeable
        # the same bits as a solve that factorizes the witness basis itself
        t0 = exp0.tables.reshape(36)[INDEPENDENT_ROWS]
        fresh = solve(lhv_module._NOISE_COST, lhv_module._NOISE_MATRIX, t0, start=witness)
        same_solution(solution, fresh)
        assert np.array_equal(solution.inverse, fresh.inverse)


def test_the_keyed_start_does_not_depend_on_earlier_solves():
    rng = np.random.default_rng(43)
    exp0 = experiment_probabilities(random_settings(rng))
    assert (exp0.vector() @ CLASS_CH).max() > 0.0
    lhv_module._witness_basis.cache_clear()
    first = min_noise_lp(exp0)
    # other classes' boxes, and a noisier box of the same class
    for _ in range(20):
        min_noise_lp(anchored_box("relabeled", rng))
    min_noise_lp(mix_with_noise(exp0, 0.05))
    same_bound(min_noise_lp(exp0), first)
    lhv_module._witness_basis.cache_clear()
    same_bound(min_noise_lp(exp0), first)


def test_a_failed_witness_solve_raises_and_is_not_cached(monkeypatch):
    exp0 = experiment_probabilities(reference_settings())
    expected = min_noise_lp(exp0)
    solve = lhv_module._solve
    calls = []

    def failing_once(cost, matrix, rhs, **kwargs):
        assert cost is lhv_module._NOISE_COST and matrix is lhv_module._NOISE_MATRIX
        calls.append(kwargs["start"])
        if len(calls) == 1:
            raise SimplexFailure("basis matrix is singular")
        return solve(cost, matrix, rhs, **kwargs)

    lhv_module._witness_basis.cache_clear()
    monkeypatch.setattr(lhv_module, "_solve", failing_once)
    try:
        with pytest.raises(
            SimplexFailure, match="^noise minimization LP failed: basis matrix is singular$"
        ):
            min_noise_lp(exp0)
        assert lhv_module._witness_basis.cache_info().currsize == 0
        # the next call solves the witness box again, then the box itself
        same_bound(min_noise_lp(exp0), expected)
    finally:
        lhv_module._witness_basis.cache_clear()
    # the preset is class 0's witness box, so its bound's basis is that
    # class's witness basis
    assert calls == [lhv_module._ANCHOR_BASIS] * 2 + [expected.basis]


@pytest.mark.parametrize("kind", ["quantum", "one setting", "reference"])
def test_an_iteration_cap_below_the_repair_raises(kind):
    if kind == "reference":
        exp0 = experiment_probabilities(reference_settings())
    else:
        exp0 = anchored_box(kind, np.random.default_rng(31))
    t0 = exp0.tables.reshape(36)[INDEPENDENT_ROWS]
    problem = (lhv_module._NOISE_COST, lhv_module._NOISE_MATRIX, t0)
    basis, inverse = lhv_module._ANCHOR_BASIS, lhv_module._basis_inverse(lhv_module._ANCHOR_BASIS)
    repaired = simplex_solve(*problem, start=basis, inverse=inverse)
    assert repaired.start == "repaired"
    assert repaired.iterations > 1
    # the cap stops the dual pivots and then the cold fallback, which needs
    # more pivots still; neither loops
    for cap in range(1, repaired.iterations):
        with pytest.raises(SimplexFailure, match="no certified optimum within"):
            simplex_solve(*problem, max_iterations=cap, start=basis, inverse=inverse)
    # a cap of exactly the pivots a solve needs lets it finish
    same_solution(
        simplex_solve(*problem, max_iterations=repaired.iterations, start=basis, inverse=inverse),
        repaired,
    )
    cold = simplex_solve(*problem)
    same_solution(simplex_solve(*problem, max_iterations=cold.iterations), cold)
    with pytest.raises(SimplexFailure, match="no certified optimum within"):
        simplex_solve(*problem, max_iterations=cold.iterations - 1)
    if kind == "reference":
        assert (repaired.iterations, cold.iterations) == (28, 63)
