import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
EVIDENCE = ROOT / "tools" / "evidence.py"
SHA256 = re.compile(r"[0-9a-f]{64}")


def _evidence(*arguments: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(EVIDENCE), *arguments],
                          capture_output=True, text=True, check=check, cwd=ROOT)


def _figures(stdout: str) -> dict[str, str]:
    return dict(line.split("\t") for line in stdout.splitlines())


def test_code_size_counts_non_blank_code_lines_without_docstrings(tmp_path):
    package = tmp_path / "src" / "qutrit_ch"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module docstring,\non two lines."""\n\nimport os\n\n\n'
        'def f(x):\n    """Doc."""\n    # a comment\n    return x\n\n\n'
        'class C:\n    """Only a docstring."""\n'
    )
    (package / "b.py").write_text("X = 1\n\nY = 2\n")
    figures = _figures(_evidence("--tree", str(tmp_path), "code-size").stdout)
    # import os / def f(x): / return x / class C: / pass, then X = 1 / Y = 2
    assert figures == {"code_size": "7", "physical_lines": "17"}


def test_digests_name_every_set_and_repeat_exactly():
    first = _figures(_evidence("digests", "--seeds", "2", "--boxes", "3").stdout)
    assert list(first) == [
        "optimize(1, s, lp) s=0-1",
        "optimize(20, 7, lp)",
        "optimize(1, s, analytic) s=0-1",
        "optimize(20, 7, analytic)",
        "min_noise_lp f_min, default_rng(2026) x3",
        "min_noise_lp bounds, default_rng(2026) x3",
        "lhv_weights, default_rng(2026) x3",
        "simplex_solve, default_rng(7) x600",
        "atom tables",
    ]
    assert all(SHA256.fullmatch(value) for value in first.values())
    assert len(set(first.values())) == len(first)
    second = _figures(_evidence("digests", "--seeds", "2", "--boxes", "3").stdout)
    assert second == first
    # the LP and atom sets do not depend on --seeds or --boxes
    other = _figures(_evidence("digests", "--seeds", "1", "--boxes", "4").stdout)
    for name in ("simplex_solve, default_rng(7) x600", "atom tables"):
        assert other[name] == first[name]
    assert other["lhv_weights, default_rng(2026) x4"] != first["lhv_weights, default_rng(2026) x3"]


def test_the_random_lps_are_solved_cold_then_warm_with_and_without_the_inverse():
    spec = importlib.util.spec_from_file_location("evidence", EVIDENCE)
    evidence = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(evidence)
    calls = []

    def recorded(cost, matrix, rhs, **start):
        calls.append((matrix.shape, rhs, start))
        return types.SimpleNamespace(basis=tuple(range(len(rhs))), inverse=np.eye(len(rhs)))

    results = evidence._random_lps(recorded, 50)
    assert len(results) == len(calls) == 150
    for (shape, rhs, cold), (moved_shape, moved, warm), (_, again, carried) in zip(
        calls[::3], calls[1::3], calls[2::3]
    ):
        assert 2 <= shape[0] <= 10 and 2 * shape[0] <= shape[1] <= 2 * shape[0] + 4
        assert cold == {} and moved_shape == shape
        assert not np.array_equal(moved, rhs) and np.array_equal(again, moved)
        assert warm == {"start": tuple(range(shape[0]))}
        assert set(carried) == {"start", "inverse"}


def test_cli_bytes_hash_each_output_without_its_wall_time():
    figures = _figures(_evidence("cli-bytes", "paper-preset", "threshold --method analytic").stdout)
    assert list(figures) == ["paper-preset", "threshold --method analytic"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    preset = subprocess.run([sys.executable, "-m", "qutrit_ch.cli", "paper-preset"],
                            capture_output=True, check=True, env=env).stdout
    assert figures["paper-preset"] == hashlib.sha256(preset).hexdigest()
    # the threshold's output holds a wall time, which a second run changes
    again = _figures(_evidence("cli-bytes", "threshold --method analytic").stdout)
    assert again == {"threshold --method analytic": figures["threshold --method analytic"]}
    refused = _evidence("cli-bytes", "threshold", check=False)
    assert refused.returncode == 2 and "unknown command 'threshold'" in refused.stderr
