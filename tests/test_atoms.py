import numpy as np
import pytest

from qutrit_ch.atoms import (
    ATOMS,
    INDICATOR_MATRIX,
    MARGINAL_MATRIX,
    N_ATOMS,
    atom_at,
    atom_index,
)

# indicator tensors read off INDICATOR_MATRIX: JOINT[k, l, a, b, i] == 1 iff
# atom i has a_{k+1} = a + 1 and b_{l+1} = b + 1
JOINT = INDICATOR_MATRIX[:36].reshape(2, 2, 3, 3, N_ATOMS)
ALICE = INDICATOR_MATRIX[36:42].reshape(2, 3, N_ATOMS)
BOB = INDICATOR_MATRIX[42:].reshape(2, 3, N_ATOMS)


def test_atom_enumeration_is_odometer_with_first_component_fastest():
    assert len(ATOMS) == N_ATOMS == 81
    assert len(set(ATOMS)) == 81
    assert ATOMS[0] == (1, 1, 1, 1)
    assert ATOMS[1] == (2, 1, 1, 1)
    assert ATOMS[3] == (1, 2, 1, 1)
    assert ATOMS[9] == (1, 1, 2, 1)
    assert ATOMS[27] == (1, 1, 1, 2)
    assert ATOMS[80] == (3, 3, 3, 3)


def test_atom_index_round_trips():
    for i, atom in enumerate(ATOMS):
        assert atom_index(atom) == i and type(atom_index(atom)) is int
        assert atom_at(i) == atom


def test_atom_index_rejects_bad_outcomes():
    with pytest.raises(ValueError):
        atom_index((0, 1, 1, 1))
    with pytest.raises(ValueError):
        atom_index((1, 1, 4, 1))


def test_atom_index_reads_outcomes_as_the_engine_reads_relabelings():
    # compared as given: a value equal to an outcome is that outcome, and
    # the index is always a Python int
    for atom in ((1.0, 2, 3, 1), (np.int64(1), 2, 3, 1), np.array([1, 2, 3, 1])):
        assert atom_index(atom) == 21 and type(atom_index(atom)) is int
    # booleans are refused although True == 1, and so are other non-outcomes
    for atom in ((True, 2, 3, 1), (1, 2, np.True_, 1), (1.5, 2, 3, 1), ("1", 2, 3, 1), (1, 2, 3)):
        with pytest.raises(ValueError):
            atom_index(atom)


def test_indicators_partition_probability():
    # every atom lands in exactly one cell of each of the four joint tables
    assert INDICATOR_MATRIX.shape == (48, 81)
    assert np.array_equal(JOINT.sum(axis=(2, 3)), np.ones((2, 2, 81)))
    assert np.array_equal(ALICE.sum(axis=1), np.ones((2, 81)))
    assert np.array_equal(BOB.sum(axis=1), np.ones((2, 81)))


def test_indicator_entries_match_atom_components():
    rng = np.random.default_rng(7)
    for _ in range(50):
        i = int(rng.integers(81))
        a1, a2, b1, b2 = ATOMS[i]
        alice = (a1, a2)
        bob = (b1, b2)
        for k in range(2):
            for a in range(3):
                assert ALICE[k, a, i] == float(alice[k] == a + 1)
                assert BOB[k, a, i] == float(bob[k] == a + 1)
            for l in range(2):
                for a in range(3):
                    for b in range(3):
                        expected = float(alice[k] == a + 1 and bob[l] == b + 1)
                        assert JOINT[k, l, a, b, i] == expected


def test_marginal_matrix_is_flattened_joint_indicator():
    assert MARGINAL_MATRIX.shape == (36, 81)
    assert np.shares_memory(MARGINAL_MATRIX, INDICATOR_MATRIX)
    assert np.array_equal(MARGINAL_MATRIX.reshape(2, 2, 3, 3, 81), JOINT)
    # each atom hits one cell per table, so every column sums to 4
    assert np.array_equal(MARGINAL_MATRIX.sum(axis=0), np.full(81, 4.0))
