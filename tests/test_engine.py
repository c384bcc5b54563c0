import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qutrit_ch.engine as engine_module
from qutrit_ch.atoms import INDICATOR_MATRIX, N_ATOMS
from qutrit_ch.engine import (
    FLAT_VECTOR,
    VALIDATION_TOL,
    ExperimentProbabilities,
    IDENTITY_RELABELING,
    PERMUTATIONS,
    RELABEL_DESTINATIONS,
    PhaseSettings,
    _fourier_kernel,
    _fourier_table,
    _kernel_box,
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
from qutrit_ch.inequality import CLASS_CH


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
    # is_unitary answers False, without raising, for a wrong shape or NaN
    assert not is_unitary(np.eye(2))
    assert not is_unitary(np.where(np.eye(3) == 1.0, np.nan, 0.0))


def test_joint_table_is_normalized_for_random_settings():
    rng = np.random.default_rng(5)
    for _ in range(25):
        ua = observable_unitary(rng.uniform(0, 2 * np.pi, 3))
        ub = observable_unitary(rng.uniform(0, 2 * np.pi, 3))
        noise = float(rng.uniform(0, 1))
        p = joint_table(ua, ub, noise)
        assert p.shape == (3, 3) and not p.flags.writeable
        assert not singles(ua).flags.writeable
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
    with pytest.raises(ValueError, match="phases must be finite"):
        PhaseSettings(np.zeros((2, 3)), [[0, 10**400, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)), relabel=((1, 2, 2),) * 4)
    with pytest.raises(ValueError):
        PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)), relabel=((1, 2, 3),) * 3)
    # entries are compared as given, never truncated or parsed: 1.5 and "1"
    # are no outcome, (2.9, 1, 3) is not (2, 1, 3), and True is no index
    exp = experiment_probabilities(reference_like())
    for bad in ((1.5, 2, 3), ("1", "2", "3"), (2.9, 1, 3), (True, 2, 3)):
        relabel = ((1, 2, 3), bad, (1, 2, 3), (1, 2, 3))
        with pytest.raises(ValueError, match="is not a permutation"):
            PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)), relabel=relabel)
        with pytest.raises(ValueError, match="is not a permutation"):
            apply_relabeling(exp, relabel)
    # the box's own shapes
    uniform = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="tables must have shape"):
        ExperimentProbabilities(np.full((2, 3, 3), 1.0 / 9.0), uniform, uniform)
    with pytest.raises(ValueError, match="singles must have shape"):
        ExperimentProbabilities(np.full((2, 2, 3, 3), 1.0 / 9.0), uniform, np.full(3, 1.0 / 3.0))


def test_complex_input_is_refused_not_truncated():
    # a float conversion would keep only the real part, with a warning
    uniform = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="got complex"):
        PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)) + 1j)
    with pytest.raises(ValueError, match="got complex"):
        PhaseSettings([[0j, 0, 0], [0, 0, 0]], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="got complex"):
        ExperimentProbabilities(np.full((2, 2, 3, 3), 1.0 / 9.0) + 0j, uniform, uniform)
    with pytest.raises(ValueError, match="got complex"):
        ExperimentProbabilities(np.full((2, 2, 3, 3), 1.0 / 9.0), uniform.tolist(), [[1j] * 3] * 2)


def test_relabeled_settings_share_the_module_permutations():
    # validated relabelings hold PERMUTATIONS' own tuples, not copies of them
    relabel = [[2, 3, 1], np.array([1, 3, 2]), (3.0, 1.0, 2.0), (1, 2, 3)]
    settings = PhaseSettings(np.zeros((2, 3)), np.zeros((2, 3)), relabel=relabel)
    assert settings.relabel == ((2, 3, 1), (1, 3, 2), (3, 1, 2), (1, 2, 3))
    for perm in settings.relabel:
        assert any(perm is known for known in PERMUTATIONS)


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


def test_every_box_is_one_read_only_vector():
    # however a box is built, vector() is its stored read-only array and
    # the three fields are views of it
    rng = np.random.default_rng(5)
    exp = experiment_probabilities(random_settings(rng))
    relabeled = PhaseSettings(*rng.uniform(0, 2 * np.pi, (2, 2, 3)), ((2, 3, 1),) * 4)
    bob = exp.bob_singles.copy()
    boxes = {
        "constructor": ExperimentProbabilities(exp.tables.tolist(), exp.alice_singles, bob),
        "experiment_probabilities": exp,
        "relabeled settings": experiment_probabilities(relabeled),
        "apply_relabeling": apply_relabeling(exp, ((2, 3, 1), (1, 2, 3), (3, 2, 1), (1, 3, 2))),
        "mix_with_noise": mix_with_noise(exp, 0.25),
        "_kernel_box": _kernel_box(_fourier_kernel(rng.uniform(0, 2 * np.pi, 12))[0]),
    }
    for how, box in boxes.items():
        vector = box.vector()
        assert vector is box.vector(), how
        assert vector.shape == (48,) and not vector.flags.writeable, how
        fields = [getattr(box, name) for name in ("tables", "alice_singles", "bob_singles")]
        for field in fields:
            assert np.shares_memory(field, vector) and not field.flags.writeable, how
        assert np.array_equal(np.concatenate([f.ravel() for f in fields]), vector), how
        with pytest.raises(ValueError):
            vector[0] = 0.5
    # the constructor copied, so the caller's array stays its own
    assert bob.flags.writeable and not np.shares_memory(bob, boxes["constructor"].vector())


def test_born_rule_output_is_adopted_frozen_and_unchanged():
    # experiment_probabilities wraps its fresh vector without the public
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


def _born_rule_box(phases):
    """experiment_probabilities of 12 raw phases, alice's then bob's: the
    Born rule, which does not read the Fourier table."""
    return experiment_probabilities(
        PhaseSettings(phases[:6].reshape(2, 3), phases[6:].reshape(2, 3))
    )


def test_probability_jacobian_matches_central_differences():
    # the kernel's gradients for the 36 unit weights, which the optimizer
    # reads, against central differences of the Born rule's tables
    rng = np.random.default_rng(41)
    step = 1e-6
    for _ in range(6):
        phases = rng.uniform(0, 2 * np.pi, 12)
        jacobian = _fourier_kernel(phases)[1](np.eye(36))[0]
        assert jacobian.shape == (36, 12)
        for j, shift in enumerate(np.eye(12) * step):
            central = (
                _born_rule_box(phases + shift).tables.ravel()
                - _born_rule_box(phases - shift).tables.ravel()
            ) / (2 * step)
            assert np.abs(jacobian[:, j] - central).max() < 1e-8


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(st.floats(-20.0, 20.0), min_size=12, max_size=12))
def test_fourier_table_is_the_born_rule(phases):
    # 25 distinct frequencies in {-1, 0, 1}^12, the constant and 24 others,
    # whose trigonometric polynomial gives every joint of the Born rule
    frequencies, coefficients, rows, stacked = _fourier_table()
    assert frequencies.shape == (25, 12) and coefficients.shape == (25, 36)
    assert set(np.unique(frequencies)) <= {-1.0, 0.0, 1.0}
    assert len({tuple(k) for k in frequencies}) == 25 and not frequencies[0].any()
    assert (frequencies[rows, np.arange(12)[:, None]] == 1.0).all()
    assert ((frequencies == 1.0).sum(axis=0) == 4).all()
    assert stacked.flags.c_contiguous and stacked.dtype == float
    assert (stacked[::2] == coefficients.real).all() and (stacked[1::2] == -coefficients.imag).all()
    x = np.array(phases)
    born = _born_rule_box(x)
    joints = (np.exp(1j * (frequencies @ x)) @ coefficients).real
    assert np.abs(joints - born.tables.ravel()).max() <= 1e-15
    # the kernel's read-only joints, with the singles' constant 1/3, give
    # the Born rule's box and class values
    box = _kernel_box(_fourier_kernel(x)[0])
    for array in (box.tables, box.alice_singles, box.bob_singles):
        assert not array.flags.writeable
    assert np.abs(box.vector() - born.vector()).max() <= 1e-15
    assert np.abs(box.vector() @ CLASS_CH - born.vector() @ CLASS_CH).max() <= 1e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(-20.0, 20.0), min_size=12, max_size=12))
def test_the_kernels_box_is_valid(phases):
    # the search hands this box to the LP without its input check
    box = _kernel_box(_fourier_kernel(np.array(phases))[0])
    box.validate()
    assert (box.alice_singles == 1.0 / 3.0).all() and (box.bob_singles == 1.0 / 3.0).all()


def test_fourier_kernel_rejects_non_finite_phases():
    for bad in (np.nan, np.inf, -np.inf):
        phases = np.zeros(12)
        phases[7] = bad
        with pytest.raises(ValueError, match="finite"):
            _fourier_kernel(phases)


def test_fourier_kernel_range_checks_its_joints(monkeypatch):
    # each table's 9 joints sum to 1, so with C scaled by 10 some joint
    # exceeds 1 by far more than _CLAMP_TOL
    table = _fourier_table()
    scaled = (*table[:3], 10.0 * table[3])
    monkeypatch.setattr(engine_module, "_fourier_table", lambda: scaled)
    phases = np.random.default_rng(47).uniform(0, 2 * np.pi, 12)
    with pytest.raises(RuntimeError, match="outside"):
        _fourier_kernel(phases)
    # NaN fails both range comparisons, so it raises rather than passing
    with pytest.raises(RuntimeError, match="outside"):
        engine_module._clamp01(np.array([0.5, np.nan, 0.25]))


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


def reference_validate(exp):
    """A plain reading of validate(): six separate checks, one reduction
    each, in the order that names the cause."""
    if not np.all(np.isfinite(exp.vector())):
        raise ValueError("probabilities must be finite (found NaN or inf)")
    if exp.tables.min() < 0:
        raise ValueError("negative joint probability")
    if np.any(np.abs(exp.tables.sum(axis=(2, 3)) - 1.0) > VALIDATION_TOL):
        raise ValueError("joint tables must each sum to 1")
    for s, name in ((exp.alice_singles, "alice"), (exp.bob_singles, "bob")):
        if np.any(np.abs(s.sum(axis=1) - 1.0) > VALIDATION_TOL):
            raise ValueError(f"{name} singles must sum to 1")
    rows = exp.tables.sum(axis=3) - exp.alice_singles[:, None]
    if np.any(np.abs(rows) > VALIDATION_TOL):
        raise ValueError("no-signaling violated: row sums differ from alice singles")
    cols = exp.tables.sum(axis=2) - exp.bob_singles[None]
    if np.any(np.abs(cols) > VALIDATION_TOL):
        raise ValueError("no-signaling violated: column sums differ from bob singles")


def reference_residuals(exp):
    """Every quantity reference_validate compares with VALIDATION_TOL."""
    return np.concatenate([
        np.abs(exp.tables.sum(axis=(2, 3)) - 1.0).ravel(),
        np.abs(exp.alice_singles.sum(axis=1) - 1.0),
        np.abs(exp.bob_singles.sum(axis=1) - 1.0),
        np.abs(exp.tables.sum(axis=3) - exp.alice_singles[:, None]).ravel(),
        np.abs(exp.tables.sum(axis=2) - exp.bob_singles[None]).ravel(),
    ])


def verdict(check, exp):
    """None if ``check`` accepts ``exp``, else the message of its ValueError."""
    try:
        check(exp)
    except ValueError as exc:
        return str(exc)
    return None


def valid_box(kind, rng):
    if kind == "dirichlet":
        vector = INDICATOR_MATRIX @ rng.dirichlet(np.full(N_ATOMS, 0.3))
        return ExperimentProbabilities(
            vector[:36].reshape(2, 2, 3, 3), vector[36:42].reshape(2, 3), vector[42:].reshape(2, 3)
        )
    exp = experiment_probabilities(random_settings(rng))
    if kind == "noisy":
        return mix_with_noise(exp, rng.uniform(0.0, 1.0))
    if kind == "relabeled":
        return apply_relabeling(exp, tuple(PERMUTATIONS[i] for i in rng.integers(0, 6, size=4)))
    return exp


# one defect each: a shift of 0.5 or 2 VALIDATION_TOL in one table entry or
# one single, or moved inside one table between two entries of a column
# (the row marginals) or of a row (the column marginals); a non-finite entry
# in each array; a negative joint
_DEFECTS = (
    [
        (site, scale * sign)
        for site in ("entry", "single", "row marginal", "column marginal")
        for scale in (0.5, 2.0)
        for sign in (1.0, -1.0)
    ]
    + [(array, bad) for array in ("tables", "alice_singles", "bob_singles")
       for bad in (np.nan, np.inf, -np.inf)]
    + [("negative joint", -1e-3)]
)


def with_defect(exp, defect, rng):
    site, size = defect
    tables, alice, bob = exp.tables.copy(), exp.alice_singles.copy(), exp.bob_singles.copy()
    k, l, a, b = (int(i) for i in rng.integers(0, (2, 2, 3, 3)))
    other = (a + int(rng.integers(1, 3))) % 3
    shift = size * VALIDATION_TOL
    if site == "entry":
        tables[k, l, a, b] += shift
    elif site == "single":
        (alice if rng.integers(2) else bob)[k, a] += shift
    elif site == "row marginal":
        tables[k, l, a, b] -= shift
        tables[k, l, other, b] += shift
    elif site == "column marginal":
        tables[k, l, a, b] -= shift
        tables[k, l, a, other] += shift
    elif site in ("negative joint", "tables"):
        tables[k, l, a, b] = size
    else:
        (alice if site == "alice_singles" else bob)[k, a] = size
    return ExperimentProbabilities(tables, alice, bob)


@settings(max_examples=800, deadline=None, derandomize=True)
@given(
    st.sampled_from(["born", "noisy", "relabeled", "dirichlet"]),
    st.lists(st.sampled_from(_DEFECTS), max_size=2),
    st.integers(0, 2**32 - 1),
)
def test_validate_matches_the_six_separate_checks(kind, defects, seed):
    # up to two defects, so that the order of the causes is compared too
    rng = np.random.default_rng(seed)
    exp = valid_box(kind, rng)
    for defect in defects:
        exp = with_defect(exp, defect, rng)
    # the constraint product sums in another order than the six checks, so
    # a residual can differ from theirs by a few ulps: skip boxes where one
    # lies within 1e-14 of the tolerance, where the verdicts may then differ
    with np.errstate(invalid="ignore"):
        residuals = reference_residuals(exp)
    assume(not (np.abs(residuals - VALIDATION_TOL) <= 1e-14).any())
    assert verdict(ExperimentProbabilities.validate, exp) == verdict(reference_validate, exp)


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
