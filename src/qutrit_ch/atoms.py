"""Deterministic local strategies for the 2-observer, 2-setting, 3-outcome
scenario.

A strategy (atom) assigns one definite outcome to each of the four
observables, written (a1, a2, b1, b2) with every entry in {1, 2, 3}. The 81
atoms are the vertices of the local polytope; distributions over them are the
local-hidden-variable models.
"""

from __future__ import annotations

import itertools

import numpy as np

N_ATOMS = 81

# odometer order with a1 varying fastest; fixed so file output is stable
ATOMS: tuple[tuple[int, int, int, int], ...] = tuple(
    (a1, a2, b1, b2)
    for b2 in (1, 2, 3)
    for b1 in (1, 2, 3)
    for a2 in (1, 2, 3)
    for a1 in (1, 2, 3)
)


def atom_index(atom: tuple[int, int, int, int]) -> int:
    """Position of an atom in the fixed odometer order."""
    a1, a2, b1, b2 = atom
    for v in atom:
        if v not in (1, 2, 3):
            raise ValueError(f"atom components must be in {{1,2,3}}, got {atom}")
    return (a1 - 1) + 3 * (a2 - 1) + 9 * (b1 - 1) + 27 * (b2 - 1)


def atom_at(index: int) -> tuple[int, int, int, int]:
    return ATOMS[index]


def _build_indicators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    outcomes = np.array(ATOMS)  # (81, 4) columns a1, a2, b1, b2
    joint = np.zeros((2, 2, 3, 3, N_ATOMS))
    alice = np.zeros((2, 3, N_ATOMS))
    bob = np.zeros((2, 3, N_ATOMS))
    for k, l, a, b in itertools.product(range(2), range(2), range(3), range(3)):
        joint[k, l, a, b] = (outcomes[:, k] == a + 1) & (outcomes[:, 2 + l] == b + 1)
    for k, a in itertools.product(range(2), range(3)):
        alice[k, a] = outcomes[:, k] == a + 1
        bob[k, a] = outcomes[:, 2 + k] == a + 1
    return joint, alice, bob


# indicator tensors: JOINT_INDICATOR[k,l,a,b,i] == 1 iff atom i has a_{k+1}=a+1
# and b_{l+1}=b+1; contracting a weight vector over the last axis marginalizes
JOINT_INDICATOR, ALICE_INDICATOR, BOB_INDICATOR = _build_indicators()

# the 36 joint-marginal equations as one matrix, rows in (k, l, a, b) odometer
# order with b fastest
MARGINAL_MATRIX = JOINT_INDICATOR.reshape(36, N_ATOMS)

# all three indicator tensors stacked: row i maps strategy weights to entry i
# of ExperimentProbabilities.vector() (36 joints, 6 alice, 6 bob singles)
INDICATOR_MATRIX = np.vstack(
    [MARGINAL_MATRIX, ALICE_INDICATOR.reshape(6, -1), BOB_INDICATOR.reshape(6, -1)]
)
