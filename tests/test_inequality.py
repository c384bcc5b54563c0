import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qutrit_ch.atoms import ATOMS, N_ATOMS, atom_index
from qutrit_ch.engine import (
    PERMUTATIONS,
    ExperimentProbabilities,
    PhaseSettings,
    experiment_probabilities,
    mix_with_noise,
)
from qutrit_ch.inequality import (
    FLAT_LHS,
    JOINT_TERMS,
    SINGLE_TERMS,
    analytic_threshold,
    ch_coefficients,
    ch_decomposition,
    ch_lhs,
    deterministic_value,
    noise_crossing,
)
from qutrit_ch.lhv import marginals_of, min_noise_lp
from qutrit_ch.optimizer import _relabel_maxed_scores
from qutrit_ch.presets import REFERENCE_NOISE_THRESHOLD, reference_settings


def exp_from_weights(weights):
    tables, alice, bob = marginals_of(weights)
    return ExperimentProbabilities(tables, alice, bob)


def test_term_lists_have_the_fixed_shape():
    assert len(JOINT_TERMS) == 12
    assert len(SINGLE_TERMS) == 4
    assert sum(sign for *_, sign in JOINT_TERMS) == 6.0
    assert all(sign == -1.0 for *_, sign in SINGLE_TERMS)


def _reference_lhs(exp):
    # the term-by-term sum that the sign vector replaces, kept as its reference
    total = 0.0
    for k, l, a, b, sign in JOINT_TERMS:
        total += sign * exp.tables[k - 1, l - 1, a - 1, b - 1]
    for side, k, a, sign in SINGLE_TERMS:
        row = exp.alice_singles if side == "alice" else exp.bob_singles
        total += sign * row[k - 1, a - 1]
    return total


_phases = st.lists(st.floats(-10.0, 10.0), min_size=12, max_size=12)
_unit = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_unit, min_size=N_ATOMS, max_size=N_ATOMS), _unit)
def test_lhs_matches_term_loop_on_local_mixtures(raw, sparsity):
    weights = np.array(raw) * (np.array(raw) >= sparsity)
    if weights.sum() == 0.0:
        weights[0] = 1.0
    exp = exp_from_weights(weights / weights.sum())
    assert abs(ch_lhs(exp) - _reference_lhs(exp)) <= 1e-15


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_phases, _unit, st.lists(st.integers(0, 5), min_size=4, max_size=4))
def test_lhs_matches_term_loop_on_quantum_settings(phases, noise, perms):
    relabel = tuple(PERMUTATIONS[i] for i in perms)
    phases = np.array(phases).reshape(2, 2, 3)
    exp = experiment_probabilities(PhaseSettings(phases[0], phases[1], relabel), noise)
    assert abs(ch_lhs(exp) - _reference_lhs(exp)) <= 1e-15


def test_lhs_on_uniform_tables_is_minus_two_thirds():
    uniform = ExperimentProbabilities(
        np.full((2, 2, 3, 3), 1.0 / 9.0),
        np.full((2, 3), 1.0 / 3.0),
        np.full((2, 3), 1.0 / 3.0),
    )
    assert abs(ch_lhs(uniform) + 2.0 / 3.0) < 1e-15
    assert ch_lhs(uniform) == FLAT_LHS


def test_lhs_is_affine_in_the_noise_fraction():
    exp = experiment_probabilities(reference_settings())
    lhs0 = ch_lhs(exp)
    lhs1 = ch_lhs(mix_with_noise(exp, 1.0))
    rng = np.random.default_rng(61)
    for f in rng.uniform(0, 1, 10):
        expected = (1 - f) * lhs0 + f * lhs1
        assert abs(ch_lhs(mix_with_noise(exp, f)) - expected) < 1e-12


def test_coefficients_equal_lhs_on_every_vertex():
    coeffs = ch_coefficients()
    for i in range(N_ATOMS):
        weights = np.zeros(N_ATOMS)
        weights[i] = 1.0
        assert ch_lhs(exp_from_weights(weights)) == coeffs[i]


def test_lhs_of_any_mixture_is_the_weighted_coefficient_sum():
    # this linearity is what makes the vertex expansion meaningful
    coeffs = ch_coefficients()
    rng = np.random.default_rng(67)
    for _ in range(20):
        weights = rng.dirichlet(np.ones(N_ATOMS))
        assert abs(ch_lhs(exp_from_weights(weights)) - coeffs @ weights) < 1e-12


def test_every_local_vertex_satisfies_the_bound():
    coeffs = ch_coefficients()
    assert coeffs.max() == 0.0
    assert np.all(np.isin(coeffs, (0.0, -1.0, -2.0)))


def test_deterministic_value_is_integral_and_bounded():
    values = [deterministic_value(atom) for atom in ATOMS]
    assert all(isinstance(v, int) for v in values)
    assert max(values) == 0
    assert min(values) == -2


def test_decomposition_parts_sum_to_the_functional():
    first, second, remainder = ch_decomposition()
    total = ch_coefficients()
    assert np.max(np.abs(first + second + remainder - total)) <= 1e-12


def test_decomposition_matches_per_atom_recount():
    # each piece recounted atom by atom from its terms and its singles
    groups = (
        (JOINT_TERMS[0:4], lambda a1, b2: -float(a1 == 2) - float(b2 == 1)),
        (JOINT_TERMS[4:8], lambda a1, b2: -float(a1 == 1) - float(b2 == 2)),
        (JOINT_TERMS[8:12], lambda a1, b2: 0.0),
    )
    for piece, (terms, singles) in zip(ch_decomposition(), groups):
        expected = np.zeros(N_ATOMS)
        for atom in ATOMS:
            alice, bob = atom[:2], atom[2:]
            value = singles(atom[0], atom[3])
            for k, l, a, b, sign in terms:
                if alice[k - 1] == a and bob[l - 1] == b:
                    value += sign
            expected[atom_index(atom)] = value
        assert np.array_equal(piece, expected)


def test_decomposition_parts_are_themselves_bounded():
    first, second, remainder = ch_decomposition()
    # the two two-outcome pieces never go positive on any vertex; the
    # remainder can, which is exactly why the split is informative
    assert first.max() <= 0.0
    assert second.max() <= 0.0
    assert remainder.max() == 1.0
    assert remainder.min() == -1.0


def test_analytic_threshold_on_reference_settings():
    exp = experiment_probabilities(reference_settings())
    out = analytic_threshold(exp)
    assert out.violated
    assert abs(out.value - REFERENCE_NOISE_THRESHOLD) < 1e-12


def test_analytic_threshold_without_relabeling_reports_no_violation():
    exp = experiment_probabilities(reference_settings(relabeled=False))
    out = analytic_threshold(exp)
    assert not out.violated
    assert out.value == 0.0


def test_analytic_threshold_consistent_with_premixed_input():
    # thresholds measured before and after premixing with noise f are
    # related by 1 - t' = (1 - t) / (1 - f)
    exp = experiment_probabilities(reference_settings())
    t = analytic_threshold(exp).value
    f = 0.1
    t_prime = analytic_threshold(mix_with_noise(exp, f)).value
    assert abs((1 - t_prime) - (1 - t) / (1 - f)) < 1e-12


def test_analytic_threshold_degenerate_branch():
    # a no-signaling box whose singles avoid the penalized outcomes, with
    # functional 2/9. Noise moves its singles toward 1/3 as well, so the
    # functional falls to FLAT_LHS = -2/3 and crosses zero at
    # (2/9) / (8/9) = 1/4: no valid box reaches the degenerate branch
    # (crossing 1) of analytic_threshold
    tables = np.array(
        [
            [[[0, 0, 0], [2, 0, 0], [5, 0, 2]], [[0, 0, 0], [2, 0, 0], [0, 0, 7]]],
            [[[0, 0, 0], [0, 0, 2], [7, 0, 0]], [[0, 0, 0], [2, 0, 0], [0, 0, 7]]],
        ]
    ) / 9.0
    alice = tables.sum(axis=3)[:, 0]
    bob = tables.sum(axis=2)[0]
    exp = ExperimentProbabilities(tables, alice, bob)
    assert abs(ch_lhs(exp) - 2.0 / 9.0) < 1e-15
    out = analytic_threshold(exp)
    assert out.violated
    assert abs(out.value - 0.25) < 1e-15
    assert abs(ch_lhs(mix_with_noise(exp, out.value))) < 1e-15
    assert abs(min_noise_lp(exp).f_min - 1.0 / 3.0) < 1e-9
    # the crossing takes plain floats
    assert abs(noise_crossing(2.0 / 9.0) - 0.25) < 1e-15
    assert noise_crossing(-0.1) == 0.0


def test_scalar_and_array_crossings_agree():
    # a scalar call must return a float equal, to the bit, to the same
    # entry of an array call, on every branch of the formula
    nan, inf = float("nan"), float("inf")
    lhs0 = np.array([
        -0.1, -inf, FLAT_LHS,  # lhs0 < 0
        0.0, -0.0,  # lhs0 = 0
        1e-300, 2.0 / 9.0,  # 0 < lhs0
        inf, nan,
    ])
    arrays = noise_crossing(lhs0)
    for a, expected in zip(lhs0, arrays):
        for scalar in (noise_crossing(float(a)), noise_crossing(a)):
            assert type(scalar) is float
            np.testing.assert_array_equal(scalar, expected)
    crossings = [x / (x - FLAT_LHS) for x in (1e-300, 2.0 / 9.0)]
    np.testing.assert_array_equal(arrays, [0, 0, 0, 0, 0, *crossings, nan, nan])


def test_analytic_threshold_rejects_invalid_tables():
    exp = experiment_probabilities(reference_settings())
    doubled = ExperimentProbabilities(2 * exp.tables, exp.alice_singles, exp.bob_singles)
    with pytest.raises(ValueError, match="sum to 1"):
        analytic_threshold(doubled)
    tables = exp.tables.copy()
    tables[0, 1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        analytic_threshold(ExperimentProbabilities(tables, exp.alice_singles, exp.bob_singles))
    # singles that disagree with the tables' marginals signal
    alice = np.array([[0.0, 0.0, 1.0], [1 / 3, 1 / 3, 1 / 3]])
    signaling = ExperimentProbabilities(np.full((2, 2, 3, 3), 1.0 / 9.0), alice, alice)
    with pytest.raises(ValueError, match="no-signaling"):
        analytic_threshold(signaling)


def test_analytic_threshold_clips_into_unit_interval():
    exp = experiment_probabilities(reference_settings())
    out = analytic_threshold(exp)
    assert 0.0 <= out.value <= 1.0


def _paper_with_atom_admixed():
    # 0.9 x the paper's experiment + 0.1 x the strategy (1, 1, 1, 1): its
    # singles are (0.4, 0.3, 0.3), far from the flat point's 1/3
    weights = np.zeros(N_ATOMS)
    weights[atom_index((1, 1, 1, 1))] = 1.0
    atom = exp_from_weights(weights)
    paper = experiment_probabilities(reference_settings())
    return ExperimentProbabilities(
        0.9 * paper.tables + 0.1 * atom.tables,
        0.9 * paper.alice_singles + 0.1 * atom.alice_singles,
        0.9 * paper.bob_singles + 0.1 * atom.bob_singles,
    )


def test_analytic_threshold_is_the_crossing_of_the_mixed_box_with_biased_singles():
    # the crossing must be where the functional of mix_with_noise(exp, f)
    # actually vanishes; an endpoint that kept the singles fixed put it at
    # 0.1808, where the mixed functional is still +0.012
    exp = _paper_with_atom_admixed()
    out = analytic_threshold(exp)
    assert out.violated
    assert abs(out.value - 0.19538) < 1e-5
    assert abs(ch_lhs(mix_with_noise(exp, out.value))) < 1e-12
    lp = min_noise_lp(exp).f_min
    assert abs(lp - 0.20282) < 1e-5
    assert out.value < lp


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-0.5, 0.5), min_size=12, max_size=12),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 0.6),
)
def test_crossings_zero_the_mixed_functional_and_stay_below_the_lp(
    offsets, seed, local_weight
):
    # a quantum box near the paper's settings, mixed with a Dirichlet
    # mixture of strategies, whose singles are biased
    reference = reference_settings()
    offsets = np.array(offsets).reshape(2, 2, 3)
    quantum = experiment_probabilities(
        PhaseSettings(
            reference.alice + offsets[0], reference.bob + offsets[1], reference.relabel
        )
    )
    local = exp_from_weights(np.random.default_rng(seed).dirichlet(np.full(N_ATOMS, 0.3)))
    exp = ExperimentProbabilities(
        (1 - local_weight) * quantum.tables + local_weight * local.tables,
        (1 - local_weight) * quantum.alice_singles + local_weight * local.alice_singles,
        (1 - local_weight) * quantum.bob_singles + local_weight * local.bob_singles,
    )
    out = analytic_threshold(exp)
    if out.violated:
        assert abs(ch_lhs(mix_with_noise(exp, out.value))) < 1e-12
    else:
        assert out.value == 0.0
    lp = min_noise_lp(exp).f_min
    assert out.value <= lp + 1e-9
    assert _relabel_maxed_scores(exp).max() <= lp + 1e-9
