"""Reference phase settings and their closed-form zero-noise statistics.

The bundled phases are the ones known from earlier numerical work to give the
largest noise threshold for this experiment. The transition-amplitude
convention used by the engine labels output ports differently from the
convention behind the published closed-form tables, so the reference settings
carry a fixed outcome relabeling; it was found once by exhaustive search
(``find_matching_relabeling``) against the closed-form tables and is frozen
here.
"""

from __future__ import annotations

import numpy as np

# read at call time, so that reading a constant never executes the engine
from . import engine

REFERENCE_ALICE_PHASES = np.array(
    [[0.0, np.pi / 3, -np.pi / 3], [0.0, 0.0, 0.0]]
)
REFERENCE_BOB_PHASES = np.array(
    [[0.0, np.pi / 6, -np.pi / 6], [0.0, -np.pi / 6, np.pi / 6]]
)
# read-only, so that no caller can change what reference_settings() returns
REFERENCE_ALICE_PHASES.setflags(write=False)
REFERENCE_BOB_PHASES.setflags(write=False)

# frozen result of find_matching_relabeling(literal engine tables, closed form)
REFERENCE_RELABELING = ((1, 3, 2), (1, 3, 2), (1, 3, 2), (2, 1, 3))

# largest admissible white-noise fraction before a local model appears
REFERENCE_NOISE_THRESHOLD = (11.0 - 6.0 * np.sqrt(3.0)) / 2.0


def reference_settings(relabeled: bool = True) -> engine.PhaseSettings:
    """The bundled optimal settings, with or without the frozen relabeling."""
    relabel = REFERENCE_RELABELING if relabeled else engine.IDENTITY_RELABELING
    return engine.PhaseSettings(REFERENCE_ALICE_PHASES, REFERENCE_BOB_PHASES, relabel)


def reference_joint_tables() -> np.ndarray:
    """Closed-form zero-noise joint tables for the reference settings.

    Every entry is one of 1/27 and (4 +- 2*sqrt(3))/27, constant on the cyclic
    classes s = (a + b - 2) mod 3; the value pattern per setting pair is fixed
    by the phase sums.
    """
    lo = 1.0 / 27.0
    minus = (4.0 - 2.0 * np.sqrt(3.0)) / 27.0
    plus = (4.0 + 2.0 * np.sqrt(3.0)) / 27.0
    class_values = {
        (0, 0): (lo, plus, minus),
        (0, 1): (minus, plus, lo),
        (1, 0): (plus, lo, minus),
        (1, 1): (lo, plus, minus),
    }
    tables = np.empty((2, 2, 3, 3))
    for (k, l), values in class_values.items():
        for a in range(3):
            for b in range(3):
                tables[k, l, a, b] = values[(a + b) % 3]
    tables.setflags(write=False)
    return tables
