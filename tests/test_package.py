import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qutrit_ch

SRC = Path(__file__).resolve().parents[1] / "src"

# printed last by each probe: whether hashlib was imported, then the package
# modules that executed (until its first attribute access a lazy module's
# type is a ModuleType subclass)
REPORT = """
ran = [k for k, m in sys.modules.items()
       if k.startswith("qutrit_ch.") and type(m) is types.ModuleType]
print("hashlib" in sys.modules, *ran, file=sys.stderr)
"""

# runs one command with scipy and hypothesis unimportable, as in an install
# with numpy only
PROBE = """
import sys, types
sys.modules.update(scipy=None, hypothesis=None)
from qutrit_ch.cli import main
assert main(sys.argv[1:]) == 0
""" + REPORT

ANALYTIC = {"cli", "engine", "inequality"}
LP = ANALYTIC | {"atoms", "lhv", "presets", "simplex"}


def _probe(code: str, *argv: str) -> tuple[bool, set[str]]:
    """Whether a child process running ``code`` imported hashlib, and which
    package modules it executed."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    hashed, *modules = done.stderr.splitlines()[-1].split()
    return hashed == "True", {module.removeprefix("qutrit_ch.") for module in modules}


# hashlib digests a settings file, so only a command that reads one imports
# it; None where numpy.random imports it anyway (through secrets and hmac)
@pytest.mark.parametrize(
    "argv, ran, hashed",
    [
        pytest.param(["paper-preset"], {"cli", "presets"}, False, id="paper-preset"),
        pytest.param(["probs", "--settings", "{}"], {"cli", "engine"}, True, id="probs"),
        pytest.param(["ch", "--settings", "{}"], ANALYTIC, True, id="ch"),
        pytest.param(["coeffs"], ANALYTIC | {"atoms"}, False, id="coeffs"),
        pytest.param(["verify-appendix"], ANALYTIC | {"atoms"}, False, id="verify-appendix"),
        pytest.param(
            ["threshold", "--settings", "{}", "--method", "analytic"],
            ANALYTIC,
            True,
            id="analytic",
        ),
        pytest.param(["threshold", "--settings", "{}", "--method", "lp"], LP, True, id="lp"),
        pytest.param(
            ["optimize", "--restarts", "1", "--seed", "7", "--method", "analytic"],
            ANALYTIC | {"optimizer"},
            None,
            id="optimize",
        ),
    ],
)
def test_a_command_runs_only_the_modules_it_calls(argv, ran, hashed, tmp_path):
    settings = tmp_path / "settings.json"
    settings.write_text(
        '{"alice": [[0, 0, 0], [0, 0, 0]], "bob": [[0, 0, 0], [0, 0, 0]],'
        ' "relabel": {"a1": [1, 2, 3], "a2": [1, 2, 3], "b1": [2, 1, 3], "b2": [1, 2, 3]}}'
    )
    imported_hashlib, modules = _probe(PROBE, *(arg.format(settings) for arg in argv))
    assert modules == ran
    if hashed is not None:
        assert imported_hashlib is hashed


@pytest.mark.parametrize(
    "call, ran",
    [
        pytest.param(
            'qutrit_ch.optimize(1, 7, method="analytic")',
            {"engine", "inequality", "optimizer"},
            id="analytic-search",
        ),
        pytest.param("qutrit_ch.presets.REFERENCE_ALICE_PHASES", {"presets"}, id="preset-constant"),
    ],
)
def test_a_library_call_runs_only_the_modules_it_calls(call, ran):
    _, modules = _probe(f"import sys, types\nimport qutrit_ch\n{call}\n" + REPORT)
    assert modules == ran


def test_every_public_name_is_its_home_modules_object():
    assert qutrit_ch.optimize is qutrit_ch.optimizer.optimize
    assert len(set(qutrit_ch.__all__)) == len(qutrit_ch.__all__) == 45
    for name, home in qutrit_ch._HOME.items():
        module = importlib.import_module(f"qutrit_ch.{home}")
        value = getattr(qutrit_ch, name)
        assert value is getattr(module, name), name
        if callable(value):  # a function or class names the module defining it
            assert value.__module__ == module.__name__, name
    assert set(qutrit_ch.__all__) == {*qutrit_ch._HOME, "__version__"}
    assert set(qutrit_ch.__all__) <= set(dir(qutrit_ch))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        qutrit_ch.no_such_name


def test_equal_but_separate_results_compare_by_identity_and_hash():
    exp0 = qutrit_ch.experiment_probabilities(qutrit_ch.reference_settings())
    lp = (np.ones(1), np.ones((1, 1)), np.ones(1))
    pairs = [
        (qutrit_ch.reference_settings(), qutrit_ch.reference_settings()),
        (exp0, qutrit_ch.experiment_probabilities(qutrit_ch.reference_settings())),
        (qutrit_ch.min_noise_lp(exp0), qutrit_ch.min_noise_lp(exp0)),
        (qutrit_ch.simplex.simplex_solve(*lp), qutrit_ch.simplex.simplex_solve(*lp)),
        (qutrit_ch.optimize(1, 7, "analytic"), qutrit_ch.optimize(1, 7, "analytic")),
    ]
    for first, second in pairs:
        # their array fields hold equal entries, but equality is identity
        assert first != second and first == first
        assert len({first, second, first}) == 2
