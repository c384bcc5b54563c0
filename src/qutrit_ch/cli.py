"""Command-line front end.

Every run prints exactly one machine-readable document to standard output:
a JSON report with the command echo, a digest of the input file (when one
was read), the numeric results, the tolerances that were applied, and the
wall time. The one exception is ``coeffs --csv``, whose single document is
the CSV table itself. Floats are rendered with 17 significant digits so a
reader parsing the report recovers bit-identical doubles.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

# each layer is read as a module attribute at call time, so a command
# runs only the submodules it calls (see the package's __init__)
from . import atoms, engine, inequality, lhv, optimizer, presets

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3

# entrywise tolerance of verify-appendix's decomposition check
ENTRYWISE_TOL = 1e-12
# a settings document's relabel fields, in PhaseSettings.relabel order
RELABEL_KEYS = ("a1", "a2", "b1", "b2")


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this interface reserves 2
    # for numerical failures, so route them through an exception instead
    def error(self, message):
        raise _UsageError(message)


def render_json(value, indent: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {render_json(item, indent + 1)}"
            for key, item in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        return render_json(value.tolist(), indent)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ", ".join(render_json(item, indent) for item in value)
        return "[" + body + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _load_settings(path: str) -> tuple[engine.PhaseSettings, str]:
    """Parse a settings file; raises _InputError naming the offending field."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise _InputError(f"settings file: cannot read '{path}': {exc.strerror}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _InputError(
            f"settings file: invalid JSON at line {exc.lineno}: {exc.msg}"
        )
    if not isinstance(doc, dict):
        raise _InputError("settings file: top level must be an object")
    phases = {}
    for field in ("alice", "bob"):
        if field not in doc:
            raise _InputError(f"settings file: missing field '{field}'")
        value = doc[field]
        good = (
            isinstance(value, list)
            and len(value) == 2
            and all(
                isinstance(triple, list)
                and len(triple) == 3
                and all(
                    isinstance(entry, (int, float)) and not isinstance(entry, bool)
                    for entry in triple
                )
                for triple in value
            )
        )
        if not good:
            raise _InputError(
                f"settings file: field '{field}' must be 2 arrays of 3 numbers"
            )
        phases[field] = value
    relabel = engine.IDENTITY_RELABELING
    if doc.get("relabel") is not None:
        rel = doc["relabel"]
        if not isinstance(rel, dict):
            raise _InputError("settings file: field 'relabel' must be an object")
        perms = []
        for key in RELABEL_KEYS:
            if key not in rel:
                raise _InputError(f"settings file: missing field 'relabel.{key}'")
            # the engine's rule, checked per entry so that the message names it
            try:
                perms.append(engine._validate_permutation(rel[key]))
            except (TypeError, ValueError):
                raise _InputError(
                    f"settings file: field 'relabel.{key}' is not a permutation"
                    " of [1, 2, 3]"
                )
        relabel = tuple(perms)
    try:
        settings = engine.PhaseSettings(phases["alice"], phases["bob"], relabel)
    except ValueError as exc:
        raise _InputError(f"settings file: {exc}")
    import hashlib  # here, so that a command without a settings file skips it

    return settings, "sha256:" + hashlib.sha256(raw).hexdigest()


def _settings_document(alice, bob, relabel) -> dict:
    """A settings file's content, as ``_load_settings`` reads it."""
    return {
        "alice": alice,
        "bob": bob,
        "relabel": {key: list(perm) for key, perm in zip(RELABEL_KEYS, relabel)},
    }


def _noise_arg(args) -> float:
    noise = float(args.noise)
    if not 0.0 <= noise <= 1.0:
        raise _InputError(f"--noise must lie in [0, 1], got {noise}")
    return noise


def _cmd_probs(args):
    settings, digest = _load_settings(args.settings)
    noise = _noise_arg(args)
    exp = engine.experiment_probabilities(settings, noise)
    exp.validate()
    results = {
        "noise": noise,
        "tables": exp.tables,
        "alice_singles": exp.alice_singles,
        "bob_singles": exp.bob_singles,
    }
    return EXIT_OK, digest, results, {"validation": engine.VALIDATION_TOL}


def _cmd_ch(args):
    settings, digest = _load_settings(args.settings)
    noise = _noise_arg(args)
    exp = engine.experiment_probabilities(settings, noise)
    return EXIT_OK, digest, {"noise": noise, "lhs": inequality.ch_lhs(exp)}, {}


def _cmd_threshold(args):
    settings, digest = _load_settings(args.settings)
    exp0 = engine.experiment_probabilities(settings)
    if args.method == "analytic":
        outcome = inequality.analytic_threshold(exp0)
        results = {
            "method": "analytic",
            "threshold": outcome.value,
            "violated": outcome.violated,
        }
        return EXIT_OK, digest, results, {}
    bound = lhv.min_noise_lp(exp0)
    results = {
        "method": "lp",
        "threshold": bound.f_min,
        "solver": bound.method,
        "iterations": bound.iterations,
        "start": bound.start,
    }
    return EXIT_OK, digest, results, {"certificate_residual": lhv.CERTIFICATE_TOL}


def _cmd_coeffs(args):
    coeffs = inequality.ch_coefficients()
    if args.csv:
        lines = ["a1,a2,b1,b2,coefficient"]
        for atom, value in zip(atoms.ATOMS, coeffs):
            a1, a2, b1, b2 = atom
            lines.append(f"{a1},{a2},{b1},{b2},{int(value)}")
        print("\n".join(lines))
        return None
    results = {
        "order": "odometer on (a1, a2, b1, b2), a1 fastest",
        "coefficients": [int(value) for value in coeffs],
    }
    return EXIT_OK, None, results, {}


def _cmd_verify(args):
    coeffs = inequality.ch_coefficients()
    first, second, remainder = inequality.ch_decomposition()
    recomputed = np.array([float(inequality.deterministic_value(atom)) for atom in atoms.ATOMS])
    census = {value: int(np.sum(coeffs == value)) for value in (0.0, -1.0, -2.0)}
    checks = [
        ("coefficients_nonpositive", bool(coeffs.max() <= 0.0)),
        (
            "coefficients_in_0_m1_m2",
            bool(np.all(np.isin(coeffs, (0.0, -1.0, -2.0)))),
        ),
        (
            "coefficient_census_30_48_3",
            census == {0.0: 30, -1.0: 48, -2.0: 3},
        ),
        ("coefficient_sum_is_minus_54", bool(coeffs.sum() == -54.0)),
        (
            "expansion_matches_per_atom_recount",
            bool(np.array_equal(coeffs, recomputed)),
        ),
        (
            "decomposition_sums_to_functional",
            bool(np.max(np.abs(first + second + remainder - coeffs)) <= ENTRYWISE_TOL),
        ),
        (
            "decomposition_parts_nonpositive",
            bool(first.max() <= 0.0 and second.max() <= 0.0),
        ),
        ("max_deterministic_value_is_zero", bool(coeffs.max() == 0.0)),
    ]
    results = {
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
        "all_pass": all(ok for _, ok in checks),
    }
    code = EXIT_OK if results["all_pass"] else EXIT_VERIFY
    return code, None, results, {"entrywise": ENTRYWISE_TOL}


def _cmd_preset(args):
    # the bare settings document, valid as --settings input elsewhere
    print(render_json(_settings_document(
        presets.REFERENCE_ALICE_PHASES, presets.REFERENCE_BOB_PHASES, presets.REFERENCE_RELABELING
    )))
    return None


def _cmd_optimize(args):
    if args.restarts < 1:
        raise _InputError(f"--restarts must be at least 1, got {args.restarts}")
    if args.seed < 0:
        raise _InputError(f"--seed must be nonnegative, got {args.seed}")
    result = optimizer.optimize(args.restarts, args.seed, method=args.method)
    settings = result.best_settings
    results = {
        "method": args.method,
        "restarts": args.restarts,
        "seed": result.seed,
        "best_threshold": result.best_threshold,
        "evaluations": result.evaluations,
        "lp_evaluations": sum(result.lp_starts.values()),
        "lp_pivots": result.lp_pivots,
        "screened_trials": result.screened_trials,
        "gradient_norm": result.gradient_norm,
        "best_settings": _settings_document(settings.alice, settings.bob, settings.relabel),
    }
    if args.method == "lp":
        tolerances = {"gradient": optimizer.GRADIENT_TOL, "step": optimizer.STEP_TOL}
    else:
        tolerances = {"sweep_ulps": optimizer.ROUNDOFF_ULPS}
    return EXIT_OK, None, results, tolerances


def _build_parser() -> _Parser:
    parser = _Parser(prog="qutrit-ch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    probs = sub.add_parser("probs", help="joint tables and singles")
    probs.add_argument("--settings", required=True)
    probs.add_argument("--noise", type=float, default=0.0)
    probs.set_defaults(handler=_cmd_probs)

    ch = sub.add_parser("ch", help="value of the signed functional")
    ch.add_argument("--settings", required=True)
    ch.add_argument("--noise", type=float, default=0.0)
    ch.set_defaults(handler=_cmd_ch)

    thresh = sub.add_parser("threshold", help="noise threshold of a setting")
    thresh.add_argument("--settings", required=True)
    thresh.add_argument("--method", required=True, choices=("analytic", "lp"))
    thresh.set_defaults(handler=_cmd_threshold)

    coeffs = sub.add_parser(
        "coeffs", help="81 deterministic-strategy coefficients"
    )
    coeffs.add_argument("--csv", action="store_true")
    coeffs.set_defaults(handler=_cmd_coeffs)

    verify = sub.add_parser(
        "verify-appendix",
        help="check the deterministic expansion and its decomposition",
    )
    verify.set_defaults(handler=_cmd_verify)

    preset = sub.add_parser(
        "paper-preset", help="write the built-in reference settings file"
    )
    preset.set_defaults(handler=_cmd_preset)

    opt = sub.add_parser("optimize", help="search phases for a high threshold")
    opt.add_argument("--restarts", type=int, required=True)
    opt.add_argument("--seed", type=int, required=True)
    opt.add_argument("--method", default="lp", choices=("analytic", "lp"))
    opt.set_defaults(handler=_cmd_optimize)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"qutrit-ch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        outcome = args.handler(args)
    except _InputError as exc:
        print(f"qutrit-ch: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # RuntimeError covers the simplex's SimplexFailure
    except (RuntimeError, ValueError) as exc:
        print(f"qutrit-ch: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if outcome is None:
        # the command printed its own single document (csv or settings file)
        return EXIT_OK
    code, digest, results, tolerances = outcome
    report = {
        "command": args.command,
        "input_digest": digest,
        "results": results,
        "tolerances": tolerances,
        "wall_time_seconds": time.perf_counter() - started,
    }
    print(render_json(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
