"""The Clauser-Horne-type functional for two three-outcome measurements.

The functional is a signed combination of twelve joint probabilities and four
single-detector probabilities. Local realistic models obey LHS <= 0; suitable
quantum settings violate this. ``ch_coefficients`` expands the functional over
the 81 deterministic local strategies, and ``ch_decomposition`` splits it into
two manifestly non-positive pieces plus a remainder whose deterministic values
never exceed the slack of the other two.

The 1296 outcome relabelings of the functional give 432 distinct value
vectors on those strategies, the d = 3 CGLMP facets; ``CLASS_CH`` has one
column per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import INDICATOR_MATRIX
from .engine import FLAT_VECTOR, PERMUTATIONS, RELABEL_DESTINATIONS, ExperimentProbabilities

# (alice_setting, bob_setting, alice_outcome, bob_outcome, sign),
# settings and outcomes 1-based
JOINT_TERMS: tuple[tuple[int, int, int, int, float], ...] = (
    # first group: joints at outcomes (2; 1)
    (1, 1, 2, 1, +1.0),
    (1, 2, 2, 1, +1.0),
    (2, 1, 2, 1, -1.0),
    (2, 2, 2, 1, +1.0),
    # second group: joints at outcomes (1; 2)
    (1, 1, 1, 2, +1.0),
    (1, 2, 1, 2, +1.0),
    (2, 1, 1, 2, -1.0),
    (2, 2, 1, 2, +1.0),
    # third group: mixed outcomes
    (1, 1, 2, 2, +1.0),
    (1, 2, 1, 1, +1.0),
    (2, 1, 2, 2, -1.0),
    (2, 2, 2, 2, +1.0),
)

# (side, setting, outcome, sign); all four singles enter with -1
SINGLE_TERMS: tuple[tuple[str, int, int, float], ...] = (
    ("alice", 1, 1, -1.0),
    ("alice", 1, 2, -1.0),
    ("bob", 2, 1, -1.0),
    ("bob", 2, 2, -1.0),
)


def _functional_vector(joint_terms, single_terms) -> np.ndarray:
    """Signs of the given terms as a vector over ExperimentProbabilities.vector()."""
    vec = np.zeros(48)
    for k, l, a, b, sign in joint_terms:
        vec[9 * (2 * (k - 1) + l - 1) + 3 * (a - 1) + b - 1] += sign
    for side, k, a, sign in single_terms:
        vec[(36 if side == "alice" else 42) + 3 * (k - 1) + a - 1] += sign
    vec.setflags(write=False)
    return vec


# the functional as one sign vector: ch_lhs(exp) == CH_VECTOR @ exp.vector()
CH_VECTOR = _functional_vector(JOINT_TERMS, SINGLE_TERMS)
# its value on the flat box, -2/3, the same under every outcome relabeling
FLAT_LHS = float(CH_VECTOR @ FLAT_VECTOR)


def _relabeling_classes() -> np.ndarray:
    """The lowest row of ``RELABEL_DESTINATIONS`` in each relabeling class,
    in increasing order. A class is an orbit of following a relabeling by
    the shift of every alice outcome by +s and every bob outcome by -s
    (mod 3), which keeps the functional's values on the atoms."""
    position = {perm: i for i, perm in enumerate(PERMUTATIONS)}
    # shifted[s, i]: permutation i followed by o -> o + s (mod 3)
    shifted = np.array([
        [position[tuple((o - 1 + s) % 3 + 1 for o in perm)] for perm in PERMUTATIONS]
        for s in range(3)
    ])
    alice, bob = shifted, shifted[[0, 2, 1]]
    # member[s]: the row of every relabeling shifted by s, rows being
    # numbered 216 pa1 + 36 pa2 + 6 pb1 + pb2
    member = (
        216 * alice[:, :, None, None, None] + 36 * alice[:, None, :, None, None]
        + 6 * bob[:, None, None, :, None] + bob[:, None, None, None, :]
    )
    return np.flatnonzero(member[0] == member.min(axis=0))


# the first relabeling of each class, and column k the functional read
# through relabeling_at(CLASS_FIRSTS[k]): its dot product with a probability
# vector is ch_lhs of the relabeled vector
CLASS_FIRSTS = _relabeling_classes()
CLASS_FIRSTS.setflags(write=False)
CLASS_CH = CH_VECTOR[np.ascontiguousarray(RELABEL_DESTINATIONS[CLASS_FIRSTS].T)]
CLASS_CH.setflags(write=False)


def ch_lhs(exp: ExperimentProbabilities) -> float:
    """Value of the functional on a full set of experiment probabilities."""
    return float(CH_VECTOR @ exp.vector())


def deterministic_value(atom: tuple[int, int, int, int]) -> int:
    """Functional value on one deterministic strategy (a1, a2, b1, b2)."""
    a1, a2, b1, b2 = atom
    alice = (a1, a2)
    bob = (b1, b2)
    value = 0
    for k, l, a, b, sign in JOINT_TERMS:
        if alice[k - 1] == a and bob[l - 1] == b:
            value += int(sign)
    for side, k, a, sign in SINGLE_TERMS:
        outcome = alice[k - 1] if side == "alice" else bob[k - 1]
        if outcome == a:
            value += int(sign)
    return value


def ch_coefficients() -> np.ndarray:
    """Expansion of the functional over all 81 deterministic strategies.

    Entry i is the functional's value on ``ATOMS[i]``. Every entry is 0, -1
    or -2, which is the discrete form of the local bound: any convex mixture
    of strategies lands at or below zero.
    """
    return CH_VECTOR @ INDICATOR_MATRIX


def ch_decomposition() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the deterministic expansion into two CH-type pieces + remainder.

    Returns (first, second, remainder), each a length-81 coefficient vector,
    summing to ``ch_coefficients()``. The first piece collects the joint
    terms at outcomes (2; 1) together with the alice single at outcome 2 and
    the bob single at outcome 1; the second takes the (1; 2) group with the
    complementary pair of singles; the remainder is the mixed-outcome group
    alone. The first two are bona fide two-outcome CH functionals, hence
    non-positive atom by atom; the remainder can reach +1 on its own but
    never beats the others' slack.
    """
    alice_at_1, alice_at_2, bob_at_1, bob_at_2 = SINGLE_TERMS
    pieces = (
        _functional_vector(JOINT_TERMS[0:4], (alice_at_2, bob_at_1)),
        _functional_vector(JOINT_TERMS[4:8], (alice_at_1, bob_at_2)),
        _functional_vector(JOINT_TERMS[8:12], ()),
    )
    first, second, remainder = (piece @ INDICATOR_MATRIX for piece in pieces)
    return first, second, remainder


@dataclass(frozen=True)
class ThresholdResult:
    """Noise threshold plus whether the noise-free point violates at all."""

    value: float
    violated: bool


def noise_crossing(lhs0, lhs1) -> float | np.ndarray:
    """Noise fraction at which a functional that is affine in the noise,
    lhs0 at f = 0 and lhs1 at f = 1, falls to zero.

    The crossing is at lhs0 / (lhs0 - lhs1), clipped into [0, 1]; it is 0
    where lhs0 <= 0 (no violation to destroy) and 1 where lhs0 - lhs1 <= 0
    (the fully mixed point still violates). NaN stays NaN. Takes scalars,
    returning a float, or arrays, returning an array.
    """
    lhs0 = np.asarray(lhs0, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = lhs0 - np.asarray(lhs1, dtype=float)
        ratio = np.clip(lhs0 / denom, 0.0, 1.0)
    crossing = np.where(lhs0 <= 0.0, 0.0, np.where(denom <= 0.0, 1.0, ratio))
    return float(crossing) if crossing.ndim == 0 else crossing


def analytic_threshold(exp0: ExperimentProbabilities) -> ThresholdResult:
    """Largest admixture of uniform noise that still violates the bound.

    Mixing with uniform noise at fraction f (``mix_with_noise``) moves the
    functional linearly from its noise-free value L0 to ``FLAT_LHS`` at
    f = 1, so the crossing is at L0 / (L0 - FLAT_LHS). Raises ValueError
    unless exp0 passes ``validate()``.
    """
    exp0.validate()
    lhs0 = ch_lhs(exp0)
    return ThresholdResult(noise_crossing(lhs0, FLAT_LHS), lhs0 > 0.0)
