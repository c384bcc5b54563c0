import itertools

import numpy as np
import pytest

from qutrit_ch.engine import (
    FLAT_VECTOR,
    ExperimentProbabilities,
    IDENTITY_RELABELING,
    PERMUTATIONS,
    RELABEL_DESTINATIONS,
    PhaseSettings,
    _born_kernel,
    apply_relabeling,
    experiment_probabilities,
    find_matching_relabeling,
    is_unitary,
    joint_table,
    mix_with_noise,
    observable_unitary,
    singles,
    tritter_matrix,
)


def random_settings(rng):
    return PhaseSettings(
        rng.uniform(0, 2 * np.pi, (2, 3)), rng.uniform(0, 2 * np.pi, (2, 3))
    )


def test_tritter_is_unitary_and_unbiased():
    t = tritter_matrix()
    assert is_unitary(t)
    assert np.allclose(np.abs(t) ** 2, 1.0 / 3.0, atol=1e-15)


def test_observable_unitary_for_random_phases():
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = observable_unitary(rng.uniform(-10, 10, 3))
        assert is_unitary(u)


def test_observable_unitary_validates_input():
    with pytest.raises(ValueError):
        observable_unitary(np.zeros(4))
    with pytest.raises(ValueError):
        observable_unitary(np.array([0.0, np.nan, 0.0]))


def test_joint_table_is_normalized_for_random_settings():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ua = observable_unitary(rng.uniform(0, 2 * np.pi, 3))
        ub = observable_unitary(rng.uniform(0, 2 * np.pi, 3))
        noise = float(rng.uniform(0, 1))
        p = joint_table(ua, ub, noise)
        assert p.shape == (3, 3)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) < 1e-12


def test_joint_table_rejects_non_unitary_and_bad_noise():
    u = observable_unitary(np.zeros(3))
    with pytest.raises(ValueError):
        joint_table(np.eye(3) * 2.0, u)
    with pytest.raises(ValueError):
        joint_table(u, u, noise=1.5)
    with pytest.raises(ValueError):
        joint_table(u, u, noise=-0.1)


def test_joint_table_depends_only_on_outcome_sum_class():
    # the coincidence amplitude is a function of (a + b) mod 3 alone
    rng = np.random.default_rng(3)
    for _ in range(20):
        ua = observable_unitary(rng.uniform(0, 2 * np.pi, 3))
        ub = observable_unitary(rng.uniform(0, 2 * np.pi, 3))
        p = joint_table(ua, ub)
        for s in range(3):
            cells = [p[a, b] for a in range(3) for b in range(3) if (a + b) % 3 == s]
            assert max(cells) - min(cells) < 1e-12


def test_singles_are_uniform_for_any_observable():
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = observable_unitary(rng.uniform(0, 2 * np.pi, 3))
        assert np.max(np.abs(singles(u) - 1.0 / 3.0)) < 1e-12


def test_gauge_shift_leaves_probabilities_unchanged():
    rng = np.random.default_rng(23)
    for _ in range(10):
        phases = rng.uniform(0, 2 * np.pi, 3)
        other = rng.uniform(0, 2 * np.pi, 3)
        shift = rng.uniform(-5, 5)
        pa = joint_table(observable_unitary(phases), observable_unitary(other))
        pb = joint_table(
            observable_unitary(phases + shift), observable_unitary(other)
        )
        assert np.max(np.abs(pa - pb)) < 1e-12


def test_phase_settings_validation():
    with pytest.raises(ValueError):
        PhaseSettings(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PhaseSettings(np.full((2, 3), np.inf), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)), relabel=((1, 2, 2),) * 4)
    with pytest.raises(ValueError):
        PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)), relabel=((1, 2, 3),) * 3)


def test_phase_settings_copies_and_freezes():
    alice = np.zeros((2, 3))
    s = PhaseSettings(alice, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        s.alice[0, 0] = 1.0
    # the caller's own array must stay writable and decoupled
    alice[0, 0] = 9.0
    assert s.alice[0, 0] == 0.0


def test_experiment_probabilities_clamps_tiny_negatives():
    tables = np.full((2, 2, 3, 3), 1.0 / 9.0)
    tables[0, 0, 0, 0] = -1e-15
    tables[0, 0, 0, 1] = 2.0 / 9.0 + 1e-15
    exp = ExperimentProbabilities(tables, np.full((2, 3), 1 / 3), np.full((2, 3), 1 / 3))
    assert exp.tables[0, 0, 0, 0] == 0.0


def test_born_rule_output_is_adopted_frozen_and_unchanged():
    # experiment_probabilities wraps its fresh arrays without the public
    # constructor's copy and scan, which must not change a single byte
    rng = np.random.default_rng(11)
    for draw in range(300):
        relabel = IDENTITY_RELABELING
        if draw % 3 == 2:
            relabel = tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4))
        noise = float(rng.uniform(0, 1)) if draw % 3 == 1 else 0.0
        phases = rng.uniform(0, 2 * np.pi, (2, 2, 3))
        exp = experiment_probabilities(PhaseSettings(*phases, relabel), noise)
        copied = ExperimentProbabilities(exp.tables, exp.alice_singles, exp.bob_singles)
        for name in ("tables", "alice_singles", "bob_singles"):
            adopted = getattr(exp, name)
            assert not adopted.flags.writeable
            assert adopted.tobytes() == getattr(copied, name).tobytes()


def test_probability_jacobian_matches_central_differences():
    # the kernel's gradients for the 36 unit weights, which the optimizer
    # reads, against central differences of the kernel's own tables
    rng = np.random.default_rng(41)
    step = 1e-6
    for _ in range(6):
        phases = rng.uniform(0, 2 * np.pi, 12)
        jacobian = _born_kernel(phases)[1](np.eye(36))[0]
        assert jacobian.shape == (36, 12)
        for j, shift in enumerate(np.eye(12) * step):
            central = (
                _born_kernel(phases + shift)[0].tables.ravel()
                - _born_kernel(phases - shift)[0].tables.ravel()
            ) / (2 * step)
            assert np.abs(jacobian[:, j] - central).max() < 1e-8


def test_born_kernel_tables_are_experiment_probabilities_bit_for_bit():
    rng = np.random.default_rng(43)
    for _ in range(20):
        phases = rng.uniform(-20, 20, 12)
        exp, _ = _born_kernel(phases)
        reference = experiment_probabilities(
            PhaseSettings(phases[:6].reshape(2, 3), phases[6:].reshape(2, 3))
        )
        assert exp.vector().tobytes() == reference.vector().tobytes()
        assert not exp.tables.flags.writeable


def test_born_kernel_rejects_non_finite_phases():
    for bad in (np.nan, np.inf, -np.inf):
        phases = np.zeros(12)
        phases[7] = bad
        with pytest.raises(ValueError, match="finite"):
            _born_kernel(phases)


def test_validate_catches_bad_normalization_and_signaling():
    good = experiment_probabilities(reference_like(), 0.2)
    good.validate()
    tables = good.tables.copy()
    tables[0, 0, 0, 0] += 1e-3
    broken = ExperimentProbabilities(tables, good.alice_singles, good.bob_singles)
    with pytest.raises(ValueError):
        broken.validate()
    # move mass inside one table: normalization survives, no-signaling not
    tables = good.tables.copy()
    tables[1, 0, 0, 0] -= 1e-3
    tables[1, 0, 1, 1] += 1e-3
    skewed = ExperimentProbabilities(tables, good.alice_singles, good.bob_singles)
    with pytest.raises(ValueError):
        skewed.validate()
    # every comparison with NaN is false, so non-finite entries need their
    # own check; a NaN or inf anywhere must be named as the cause
    for bad in (np.nan, np.inf, -np.inf):
        tables = good.tables.copy()
        tables[1, 1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ExperimentProbabilities(tables, good.alice_singles, good.bob_singles).validate()
        alice = good.alice_singles.copy()
        alice[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ExperimentProbabilities(good.tables, alice, good.bob_singles).validate()


def reference_like():
    rng = np.random.default_rng(41)
    return random_settings(rng)


def _reference_joint_table(ua, ub, noise):
    # the per-pair Born rule, written out as a reference for the batched one
    amp = ua @ ub.T / np.sqrt(3.0)
    return np.clip((1.0 - noise) * np.abs(amp) ** 2 + noise / 9.0, 0.0, 1.0)


def test_experiment_probabilities_match_joint_table_per_pair():
    rng = np.random.default_rng(29)
    for draw in range(200):
        relabel = tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4))
        if draw % 4 == 0:
            relabel = IDENTITY_RELABELING
        s = PhaseSettings(
            rng.uniform(-10, 10, (2, 3)), rng.uniform(-10, 10, (2, 3)), relabel
        )
        noise = 0.0 if draw % 3 == 0 else float(rng.uniform(0, 1))
        ua = [observable_unitary(s.alice[k]) for k in range(2)]
        ub = [observable_unitary(s.bob[l]) for l in range(2)]
        tables = np.empty((2, 2, 3, 3))
        for k, l in itertools.product(range(2), range(2)):
            tables[k, l] = joint_table(ua[k], ub[l], noise)
            assert np.array_equal(tables[k, l], _reference_joint_table(ua[k], ub[l], noise))
        alice = np.stack([singles(u) for u in ua])
        bob = np.stack([singles(u) for u in ub])
        for u, row in zip(ua + ub, np.concatenate([alice, bob])):
            assert np.array_equal(row, np.sum(np.abs(u) ** 2, axis=1) / 3.0)
        expected = apply_relabeling(ExperimentProbabilities(tables, alice, bob), relabel)
        exp = experiment_probabilities(s, noise)
        assert np.array_equal(exp.tables, expected.tables)
        assert np.array_equal(exp.alice_singles, expected.alice_singles)
        assert np.array_equal(exp.bob_singles, expected.bob_singles)
        exp.validate()


def test_mix_with_noise_endpoints_and_linearity():
    rng = np.random.default_rng(31)
    exp = experiment_probabilities(random_settings(rng))
    assert np.array_equal(mix_with_noise(exp, 0.0).tables, exp.tables)
    assert np.max(np.abs(mix_with_noise(exp, 1.0).tables - 1.0 / 9.0)) < 1e-15
    f = 0.37
    mixed = mix_with_noise(exp, f)
    assert np.max(np.abs(mixed.tables - ((1 - f) * exp.tables + f / 9.0))) < 1e-15
    # singles move toward 1/3 like the joints toward 1/9; the quantum singles
    # are uniform, so they stay 1/3 up to the rounding of the mixture
    assert np.array_equal(mixed.alice_singles, (1 - f) * exp.alice_singles + f / 3.0)
    assert np.max(np.abs(mixed.alice_singles - exp.alice_singles)) < 1e-15


def test_flat_point_is_full_noise_and_fixed_by_every_relabeling():
    exp = experiment_probabilities(random_settings(np.random.default_rng(33)))
    assert np.array_equal(mix_with_noise(exp, 1.0).vector(), FLAT_VECTOR)
    assert np.array_equal(FLAT_VECTOR[:36], np.full(36, 1.0 / 9.0))
    assert np.array_equal(FLAT_VECTOR[36:], np.full(12, 1.0 / 3.0))
    moved = np.empty_like(FLAT_VECTOR)
    for destinations in RELABEL_DESTINATIONS:
        moved[destinations] = FLAT_VECTOR
        assert np.array_equal(moved, FLAT_VECTOR)


def test_apply_relabeling_moves_entries_and_inverts():
    rng = np.random.default_rng(37)
    exp = experiment_probabilities(random_settings(rng))
    relabel = tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4))
    out = apply_relabeling(exp, relabel)
    out.validate()
    pa = relabel[:2]
    pb = relabel[2:]
    for k, l in itertools.product(range(2), range(2)):
        for a, b in itertools.product(range(3), range(3)):
            assert (
                out.tables[k, l, pa[k][a] - 1, pb[l][b] - 1]
                == exp.tables[k, l, a, b]
            )
    inverse = []
    for perm in relabel:
        inv = [0, 0, 0]
        for position, image in enumerate(perm):
            inv[image - 1] = position + 1
        inverse.append(tuple(inv))
    back = apply_relabeling(out, tuple(inverse))
    assert np.array_equal(back.tables, exp.tables)
    assert np.array_equal(back.alice_singles, exp.alice_singles)
    assert np.array_equal(back.bob_singles, exp.bob_singles)


def _reference_relabeling(exp, relabel):
    # the entry-moving loop that apply_relabeling replaces, kept as its reference
    def permute(table, row_perm, col_perm):
        out = np.empty_like(table)
        out[np.ix_(np.asarray(row_perm) - 1, np.asarray(col_perm) - 1)] = table
        return out

    pa, pb = relabel[:2], relabel[2:]
    tables = np.empty_like(exp.tables)
    alice = np.empty_like(exp.alice_singles)
    bob = np.empty_like(exp.bob_singles)
    for k, l in itertools.product(range(2), range(2)):
        tables[k, l] = permute(exp.tables[k, l], pa[k], pb[l])
    for k in range(2):
        alice[k, np.asarray(pa[k]) - 1] = exp.alice_singles[k]
        bob[k, np.asarray(pb[k]) - 1] = exp.bob_singles[k]
    return tables, alice, bob


def test_apply_relabeling_matches_the_entry_moving_reference():
    rng = np.random.default_rng(59)
    for _ in range(3):
        exp = ExperimentProbabilities(
            rng.random((2, 2, 3, 3)), rng.random((2, 3)), rng.random((2, 3))
        )
        for relabel in itertools.product(PERMUTATIONS, repeat=4):
            out = apply_relabeling(exp, relabel)
            tables, alice, bob = _reference_relabeling(exp, relabel)
            assert np.array_equal(out.tables, tables)
            assert np.array_equal(out.alice_singles, alice)
            assert np.array_equal(out.bob_singles, bob)


def test_settings_relabel_field_is_applied():
    rng = np.random.default_rng(43)
    alice = rng.uniform(0, 2 * np.pi, (2, 3))
    bob = rng.uniform(0, 2 * np.pi, (2, 3))
    relabel = ((2, 3, 1), (1, 3, 2), (3, 1, 2), (2, 1, 3))
    plain = experiment_probabilities(PhaseSettings(alice, bob))
    wired = experiment_probabilities(PhaseSettings(alice, bob, relabel))
    assert np.array_equal(wired.tables, apply_relabeling(plain, relabel).tables)


def test_find_matching_relabeling_recovers_a_planted_one():
    rng = np.random.default_rng(47)
    exp = experiment_probabilities(random_settings(rng))
    planted = ((3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1))
    target = apply_relabeling(exp, planted)
    found = find_matching_relabeling(exp, target)
    assert found is not None
    assert np.max(
        np.abs(apply_relabeling(exp, found).tables - target.tables)
    ) <= 1e-9
    # matching an experiment onto itself gives the lexicographically first
    # symmetry, which is always the identity
    assert find_matching_relabeling(exp, exp) == IDENTITY_RELABELING


def test_find_matching_relabeling_returns_none_when_impossible():
    rng = np.random.default_rng(53)
    exp = experiment_probabilities(random_settings(rng))
    other = experiment_probabilities(random_settings(rng))
    assert find_matching_relabeling(exp, other) is None
