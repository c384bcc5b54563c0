import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qutrit_ch

SRC = Path(__file__).resolve().parents[1] / "src"

# runs one command with scipy and hypothesis unimportable, as in an install
# with numpy only, then lists the package modules that executed: until its
# first attribute access a lazy module's type is a ModuleType subclass
PROBE = """
import sys, types
sys.modules.update(scipy=None, hypothesis=None)
from qutrit_ch.cli import main
code = main(sys.argv[1:])
ran = [k for k, m in sys.modules.items()
       if k.startswith("qutrit_ch.") and type(m) is types.ModuleType]
print(code, *ran, file=sys.stderr)
"""

ANALYTIC = {"atoms", "cli", "engine", "inequality"}
LP = ANALYTIC | {"lhv", "presets", "simplex"}


@pytest.mark.parametrize(
    "argv, ran",
    [
        pytest.param(["paper-preset"], {"cli", "engine", "presets"}, id="paper-preset"),
        pytest.param(["probs", "--settings", "{}"], {"cli", "engine"}, id="probs"),
        pytest.param(["ch", "--settings", "{}"], ANALYTIC, id="ch"),
        pytest.param(["coeffs"], ANALYTIC, id="coeffs"),
        pytest.param(["verify-appendix"], ANALYTIC, id="verify-appendix"),
        pytest.param(
            ["threshold", "--settings", "{}", "--method", "analytic"], ANALYTIC, id="analytic"
        ),
        pytest.param(["threshold", "--settings", "{}", "--method", "lp"], LP, id="lp"),
        pytest.param(
            ["optimize", "--restarts", "1", "--seed", "7", "--method", "analytic"],
            LP | {"optimizer"},
            id="optimize",
        ),
    ],
)
def test_a_command_runs_only_the_modules_it_calls(argv, ran, tmp_path):
    settings = tmp_path / "settings.json"
    settings.write_text(
        '{"alice": [[0, 0, 0], [0, 0, 0]], "bob": [[0, 0, 0], [0, 0, 0]],'
        ' "relabel": {"a1": [1, 2, 3], "a2": [1, 2, 3], "b1": [2, 1, 3], "b2": [1, 2, 3]}}'
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *(arg.format(settings) for arg in argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, *modules = done.stderr.split()
    assert code == "0"
    assert set(modules) == {f"qutrit_ch.{name}" for name in ran}


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
