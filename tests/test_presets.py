import importlib
import pkgutil

import numpy as np
import pytest

import qutrit_ch
from qutrit_ch.engine import (
    IDENTITY_RELABELING,
    ExperimentProbabilities,
    experiment_probabilities,
    find_matching_relabeling,
)
from qutrit_ch.presets import (
    REFERENCE_ALICE_PHASES,
    REFERENCE_NOISE_THRESHOLD,
    REFERENCE_RELABELING,
    reference_joint_tables,
    reference_settings,
)


def test_closed_form_tables_are_proper_probabilities():
    tables = reference_joint_tables()
    lo = 1.0 / 27.0
    minus = (4.0 - 2.0 * np.sqrt(3.0)) / 27.0
    plus = (4.0 + 2.0 * np.sqrt(3.0)) / 27.0
    assert np.all(np.isin(tables, (lo, minus, plus)))
    assert np.max(np.abs(tables.sum(axis=(2, 3)) - 1.0)) < 1e-15
    # each table holds each value on one full cyclic class of three cells
    for k in range(2):
        for l in range(2):
            values, counts = np.unique(tables[k, l], return_counts=True)
            assert np.array_equal(counts, [3, 3, 3])


def test_engine_reproduces_closed_form_through_frozen_relabeling():
    exp = experiment_probabilities(reference_settings())
    assert np.max(np.abs(exp.tables - reference_joint_tables())) < 1e-12


def test_unrelabeled_reference_settings_use_the_engines_identity():
    assert reference_settings(False).relabel is IDENTITY_RELABELING
    assert reference_settings().relabel == REFERENCE_RELABELING


def test_frozen_relabeling_is_the_lexicographically_first_match():
    raw = experiment_probabilities(reference_settings(relabeled=False))
    uniform = np.full((2, 3), 1.0 / 3.0)
    target = ExperimentProbabilities(reference_joint_tables(), uniform, uniform)
    assert find_matching_relabeling(raw, target) == REFERENCE_RELABELING


def test_threshold_constant_matches_its_closed_form():
    assert REFERENCE_NOISE_THRESHOLD == (11.0 - 6.0 * np.sqrt(3.0)) / 2.0
    assert 0.30384 < REFERENCE_NOISE_THRESHOLD < 0.30385


def test_no_module_level_array_is_writable():
    # module tables are shared by every caller: writing one, such as
    # REFERENCE_ALICE_PHASES[0, 1] = 0, would silently change later results
    with pytest.raises(ValueError, match="read-only"):
        REFERENCE_ALICE_PHASES[0, 1] = 0.0
    arrays = 0
    for info in pkgutil.iter_modules(qutrit_ch.__path__):
        module = importlib.import_module(f"qutrit_ch.{info.name}")
        for name, value in vars(module).items():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray):
                    arrays += 1
                    assert not array.flags.writeable, f"{info.name}.{name}"
    assert arrays > 20
