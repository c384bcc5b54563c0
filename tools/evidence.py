#!/usr/bin/env python3
"""The figures a change quotes: code size, bit-identity digests, CLI bytes.

    python3 tools/evidence.py code-size
    python3 tools/evidence.py digests [--seeds 200] [--boxes 400]
    python3 tools/evidence.py cli-bytes [COMMAND ...]
    python3 tools/evidence.py --tree ../parent digests

Each subcommand reads the source tree named by --tree (by default the
checkout that holds this script) and prints one line per figure, its
name and its value separated by a tab, so that the output of two trees
can be compared with diff.

- code-size: the non-blank lines of ast.unparse over src/qutrit_ch/*.py
  with every docstring removed (code_size), and their physical lines
  (physical_lines, as wc -l counts them).
- digests: a sha256 over every field of the results of each set: one-restart
  searches optimize(1, s) for s below --seeds and the 20-restart
  optimize(20, 7), each by both methods; min_noise_lp on --boxes boxes from
  default_rng(2026) (uniform phases, a noise in U[0, 0.35] and a random
  outcome relabeling each), its f_min alone and every field of its bound,
  and lhv_weights on the same boxes; 600 random LPs from default_rng(7)
  (2-10 rows, twice as many columns plus up to 4, a feasible right-hand
  side and a positive cost), each solved cold by simplex_solve and then
  warm from the cold basis at a moved right-hand side, once without and
  once with the cold solve's inverse; and the atom tables (ATOMS,
  INDICATOR_MATRIX and MARGINAL_MATRIX).
- cli-bytes: a sha256 of the standard output of each CLI command, run as
  python3 -m qutrit_ch.cli with the paper-preset settings file, with every
  wall_time_seconds line removed; COMMAND names select some of them.

Digests depend on the numpy build and its BLAS, so compare a parent and a
change run on one machine, never against digests stored elsewhere.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TREE = Path(__file__).resolve().parents[1]
RANDOM_LPS = 600
# run with the paper-preset settings file as --settings where marked
CLI_COMMANDS = {
    "paper-preset": (["paper-preset"], False),
    "threshold --method analytic": (["threshold", "--method", "analytic"], True),
    "threshold --method lp": (["threshold", "--method", "lp"], True),
    "probs": (["probs"], True),
    "probs --noise 0.2": (["probs", "--noise", "0.2"], True),
    "ch": (["ch"], True),
    "ch --noise 0.2": (["ch", "--noise", "0.2"], True),
    "coeffs": (["coeffs"], False),
    "coeffs --csv": (["coeffs", "--csv"], False),
    "verify-appendix": (["verify-appendix"], False),
    "optimize --restarts 20 --seed 7 --method lp": (
        ["optimize", "--restarts", "20", "--seed", "7", "--method", "lp"], False),
    "optimize --restarts 20 --seed 7 --method analytic": (
        ["optimize", "--restarts", "20", "--seed", "7", "--method", "analytic"], False),
}


def code_size(tree: Path) -> dict[str, int]:
    """Non-blank lines of the package's code without docstrings, and its
    physical lines."""
    code = physical = 0
    for path in sorted((tree / "src" / "qutrit_ch").glob("*.py")):
        source = path.read_text()
        physical += len(source.splitlines())
        module = ast.parse(source)
        for node in ast.walk(module):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and ast.get_docstring(node, clean=False) is not None:
                node.body = node.body[1:] or [ast.Pass()]
        code += sum(1 for line in ast.unparse(module).splitlines() if line.strip())
    return {"code_size": code, "physical_lines": physical}


def _feed(hasher, value) -> None:
    """Hash a value with its type, so that equal digests mean equal bits."""
    if dataclasses.is_dataclass(value):
        hasher.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            hasher.update(field.name.encode())
            _feed(hasher, getattr(value, field.name))
    elif isinstance(value, np.ndarray):
        hasher.update(f"{value.dtype.str}{value.shape}".encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        hasher.update(b"{")
        for key in sorted(value):
            _feed(hasher, key)
            _feed(hasher, value[key])
        hasher.update(b"}")
    elif isinstance(value, (tuple, list)):
        hasher.update(b"(")
        for item in value:
            _feed(hasher, item)
        hasher.update(b")")
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"f" + float(value).hex().encode())
    else:
        # ints, strings, booleans and None
        hasher.update(f"{type(value).__name__}:{value!r}".encode())


def _digest(values) -> str:
    hasher = hashlib.sha256()
    for value in values:
        _feed(hasher, value)
    return hasher.hexdigest()


def _random_lps(solve, count: int) -> list:
    """A cold and two warm solutions of each of ``count`` random LPs."""
    rng = np.random.default_rng(7)
    results = []
    for _ in range(count):
        rows = int(rng.integers(2, 11))
        columns = 2 * rows + int(rng.integers(0, 5))
        matrix = rng.normal(size=(rows, columns))
        rhs = matrix @ np.abs(rng.normal(size=columns))
        cost = np.abs(rng.normal(size=columns))
        moved = rhs + matrix @ rng.uniform(0.0, 0.1, columns)
        cold = solve(cost, matrix, rhs)
        results += [cold, solve(cost, matrix, moved, start=cold.basis),
                    solve(cost, matrix, moved, start=cold.basis, inverse=cold.inverse)]
    return results


def digests(tree: Path, seeds: int, boxes: int) -> dict[str, str]:
    """sha256 of each bit-identity set, computed in this process from the
    package under ``tree``."""
    sys.path.insert(0, str(tree / "src"))
    from qutrit_ch.atoms import ATOMS, INDICATOR_MATRIX, MARGINAL_MATRIX
    from qutrit_ch.engine import PhaseSettings, experiment_probabilities, relabeling_at
    from qutrit_ch.lhv import lhv_weights, min_noise_lp
    from qutrit_ch.optimizer import optimize
    from qutrit_ch.simplex import simplex_solve

    out = {}
    for method in ("lp", "analytic"):
        out[f"optimize(1, s, {method}) s=0-{seeds - 1}"] = _digest(
            optimize(1, s, method) for s in range(seeds))
        out[f"optimize(20, 7, {method})"] = _digest([optimize(20, 7, method)])
    rng = np.random.default_rng(2026)
    exps = []
    for _ in range(boxes):
        phases = rng.uniform(0.0, 2.0 * np.pi, (2, 2, 3))
        noise = rng.uniform(0.0, 0.35)
        settings = PhaseSettings(*phases, relabeling_at(int(rng.integers(6**4))))
        exps.append(experiment_probabilities(settings, noise))
    bounds = [min_noise_lp(exp) for exp in exps]
    out[f"min_noise_lp f_min, default_rng(2026) x{boxes}"] = _digest(b.f_min for b in bounds)
    out[f"min_noise_lp bounds, default_rng(2026) x{boxes}"] = _digest(bounds)
    out[f"lhv_weights, default_rng(2026) x{boxes}"] = _digest(lhv_weights(exp) for exp in exps)
    out[f"simplex_solve, default_rng(7) x{RANDOM_LPS}"] = _digest(_random_lps(simplex_solve, RANDOM_LPS))
    out["atom tables"] = _digest([ATOMS, INDICATOR_MATRIX, MARGINAL_MATRIX])
    return out


def cli_bytes(tree: Path, names: list[str]) -> dict[str, str]:
    """sha256 of each named command's standard output, wall times removed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        settings = Path(scratch) / "preset.json"

        def run(arguments: list[str]) -> bytes:
            done = subprocess.run([sys.executable, "-m", "qutrit_ch.cli", *arguments],
                                  cwd=scratch, env=env, capture_output=True, check=False)
            if done.returncode != 0:
                raise SystemExit(f"{' '.join(arguments)} exited {done.returncode}: "
                                 f"{done.stderr.decode(errors='replace')}")
            return done.stdout

        # every command with settings reads the preset's output
        settings.write_bytes(run(["paper-preset"]))
        for name in names:
            arguments, with_settings = CLI_COMMANDS[name]
            stdout = settings.read_bytes() if name == "paper-preset" else run(
                arguments + (["--settings", str(settings)] if with_settings else []))
            kept = b"".join(line for line in stdout.splitlines(keepends=True)
                            if b'"wall_time_seconds"' not in line)
            out[name] = hashlib.sha256(kept).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=TREE,
                        help="root of the source tree to measure (default: this checkout)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("code-size", help="lines of code without docstrings")
    found = sub.add_parser("digests", help="sha256 of each bit-identity set")
    found.add_argument("--seeds", type=int, default=200, help="one-restart searches per method")
    found.add_argument("--boxes", type=int, default=400, help="boxes scored by min_noise_lp")
    cli = sub.add_parser("cli-bytes", help="sha256 of each CLI command's output")
    cli.add_argument("names", nargs="*", metavar="COMMAND",
                     help="commands to run, named as in CLI_COMMANDS (default: all)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if args.command == "code-size":
        figures = code_size(tree)
    elif args.command == "digests":
        if args.seeds < 1 or args.boxes < 1:
            parser.error("--seeds and --boxes must be at least 1")
        figures = digests(tree, args.seeds, args.boxes)
    else:
        unknown = [name for name in args.names if name not in CLI_COMMANDS]
        if unknown:
            parser.error(f"unknown command {unknown[0]!r}; choose from {list(CLI_COMMANDS)}")
        figures = cli_bytes(tree, args.names or list(CLI_COMMANDS))
    for name, value in figures.items():
        print(f"{name}\t{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
