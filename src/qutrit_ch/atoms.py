"""Deterministic local strategies for the 2-observer, 2-setting, 3-outcome
scenario.

A strategy (atom) assigns one definite outcome to each of the four
observables, written (a1, a2, b1, b2) with every entry in {1, 2, 3}. The 81
atoms are the vertices of the local polytope; distributions over them are the
local-hidden-variable models.
"""

from __future__ import annotations

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
    """Position of an atom in the fixed odometer order. Components are
    compared as given, as the engine compares relabelings: 1.5 or "1" is
    no outcome, and booleans, although True == 1, are refused too."""
    atom = tuple(atom)
    if atom not in ATOMS or any(isinstance(v, (bool, np.bool_)) for v in atom):
        raise ValueError(f"atom components must be in {{1,2,3}}, got {atom}")
    return ATOMS.index(atom)


def atom_at(index: int) -> tuple[int, int, int, int]:
    return ATOMS[index]


# row i maps strategy weights to entry i of ExperimentProbabilities.vector()
# (36 joints, 6 alice, 6 bob singles). An alice or bob row is 1 on the atoms
# whose observable takes that outcome, and a joint row of table (k, l) at
# (a, b) is the product of alice's row (k, a) and bob's row (l, b). Read-only,
# like its view below.
_SINGLE = np.array(ATOMS).T[:, None] == np.arange(1, 4)[:, None]  # (4, 3, 81)
_SINGLE.setflags(write=False)
INDICATOR_MATRIX = np.concatenate([
    (_SINGLE[:2, None, :, None] & _SINGLE[None, 2:, None, :]).reshape(36, N_ATOMS),
    _SINGLE.reshape(12, N_ATOMS),
], dtype=float)
INDICATOR_MATRIX.setflags(write=False)

# the 36 joint-marginal equations, rows in (k, l, a, b) odometer order with
# b fastest
MARGINAL_MATRIX = INDICATOR_MATRIX[:36]
