#!/usr/bin/env python3
"""Layered benchmark for the qutrit-ch threshold pipeline.

    python3 bench/run.py --workload search-lp --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
the checkout's src/ directory and never from an installed copy. Each run
sets up the package several times, then repeats whole rounds of the
workload's operations for about --seconds, then checks every output
against the independent oracle in oracle.py. Untraced rounds are timed
by the wall clock and by the reference clock in refclock.py. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Raw results and spans go to
bench/out/. README.md describes the workloads, the metrics and reference
figures.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy loads; child processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from refclock import RefClock
from spans import Tracer, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 21
# two restarts of criterion 9's search: 2906 evaluations, about 20 s by LP
SEARCH_SEEDS = (2, 9)
BRACKET = 1e-4  # distance from f_min at which lhv_feasible is probed
CLI_TIMEOUT_S = 60.0
# spans whose mean duration is a per-layer metric
TIMED_SPANS = {
    "engine.probabilities", "inequality.analytic", "optimizer.optimize",
    "optimizer.relabel_score", "lhv.min_noise", "lhv.feasibility", "simplex.solve",
}


def reference(qc):
    """The paper's settings, without an outcome relabeling."""
    return qc.engine.PhaseSettings(np.array(oracle.REFERENCE_ALICE), np.array(oracle.REFERENCE_BOB))


def fresh_import(names=("qutrit_ch",)):
    """Import the package anew, as a new process would, and return it."""
    for key in [k for k in sys.modules if k == "qutrit_ch" or k.startswith("qutrit_ch.")]:
        del sys.modules[key]
    modules = [importlib.import_module(name) for name in names]
    return modules[0]


class Search:
    """optimize() over the fixed restart seeds, one call per seed."""

    def __init__(self, method: str, seed: int):
        self.method = method
        order = np.random.default_rng(seed).permutation(len(SEARCH_SEEDS))
        self.order = [SEARCH_SEEDS[i] for i in order]

    def warm_up(self, qc) -> None:
        exp0 = qc.engine.experiment_probabilities(reference(qc))
        if self.method == "lp":
            qc.lhv.min_noise_lp(exp0)
        else:
            qc.optimizer._relabel_maxed_scores(exp0)

    def operations(self, qc, index):
        for restart_seed in self.order:
            yield lambda s=restart_seed: (s, qc.optimizer.optimize(1, s, method=self.method))

    @staticmethod
    def threshold(output) -> float:
        return output[1].best_threshold

    def check(self, rounds) -> list[str]:
        problems = []
        first = dict(out for out in rounds[0] if out is not None)
        for outputs in rounds[1:]:
            for seed, result in filter(None, outputs):
                if seed in first and result.best_threshold != first[seed].best_threshold:
                    problems.append(f"restart seed {seed}: search is not deterministic")
        for seed, result in first.items():
            settings = result.best_settings
            tables = oracle.born_tables(settings.alice, settings.bob, settings.relabel)
            lp = oracle.min_noise(tables)
            found = result.best_threshold
            if self.method == "lp" and abs(found - lp) > 1e-7:
                problems.append(f"restart seed {seed}: threshold {found} but scipy LP {lp}")
            if self.method == "analytic":
                closed = oracle.crossing(tables)
                if abs(found - closed) > 1e-9:
                    problems.append(f"restart seed {seed}: threshold {found} but crossing {closed}")
                if found > lp + 1e-9:
                    problems.append(f"restart seed {seed}: analytic {found} above LP {lp}")
            if found > oracle.REFERENCE_THRESHOLD + 1e-7:
                problems.append(f"restart seed {seed}: {found} beats the known optimum")
        return problems


class Sweep:
    """Independent settings, each scored by every threshold route."""

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self, qc, index):
        """Ten (kind, settings, noise, base) items; base indexes the original."""
        rng = np.random.default_rng([self.seed, index])
        alice, bob = np.array(oracle.REFERENCE_ALICE), np.array(oracle.REFERENCE_BOB)

        def gauge(phases):
            return phases + rng.uniform(0.0, 2.0 * np.pi, size=(2, 1))

        def relabel():
            return tuple(oracle.PERMS[i] for i in rng.integers(0, 6, size=4))

        def uniform():
            return rng.uniform(0.0, 2.0 * np.pi, size=(2, 3))

        def same_rows():
            return np.repeat(rng.uniform(0.0, 2.0 * np.pi, size=(1, 3)), 2, axis=0)

        S = qc.engine.PhaseSettings
        reference = S(gauge(alice), gauge(bob), relabel())
        near = S(alice + rng.normal(0.0, 0.3, (2, 3)), bob + rng.normal(0.0, 0.3, (2, 3)))
        u1 = S(uniform(), uniform())
        u2 = S(uniform(), uniform())
        return [
            ("reference", reference, 0.0, None),
            ("noisy", reference, rng.uniform(0.05, 0.25), 0),
            ("near", near, 0.0, None),
            ("relabeled", S(near.alice, near.bob, relabel()), 0.0, 2),
            ("uniform", u1, 0.0, None),
            ("relabeled", S(u1.alice, u1.bob, relabel()), 0.0, 4),
            ("noisy", u1, rng.uniform(0.05, 0.4), 4),
            ("uniform", u2, 0.0, None),
            ("relabeled", S(u2.alice, u2.bob, relabel()), 0.0, 7),
            ("local", S(same_rows(), same_rows(), relabel()), 0.0, None),
        ]

    def warm_up(self, qc) -> None:
        self.score(qc, reference(qc), 0.0)

    @staticmethod
    def score(qc, settings, noise):
        exp = qc.engine.experiment_probabilities(settings, noise)
        bound = qc.lhv.min_noise_lp(exp)
        f = bound.f_min
        below = None
        if f - BRACKET >= 0.0:
            below = qc.lhv.lhv_feasible(qc.engine.mix_with_noise(exp, f - BRACKET))
        above = qc.lhv.lhv_feasible(qc.engine.mix_with_noise(exp, min(f + BRACKET, 1.0)))
        return {
            "f_min": f,
            "certificate": bound.certificate,
            "analytic": qc.inequality.analytic_threshold(exp).value,
            "relabel_max": float(qc.optimizer._relabel_maxed_scores(exp).max()),
            "below": below,
            "above": above,
        }

    def operations(self, qc, index):
        for item in self.inputs(qc, index):
            _, settings, noise, _ = item
            yield lambda i=item, s=settings, n=noise: (i, self.score(qc, s, n))

    @staticmethod
    def threshold(output) -> float:
        return output[1]["f_min"]

    def check(self, rounds) -> list[str]:
        problems = []
        for r, outputs in enumerate(rounds):
            scored = [out[1] if out is not None else None for out in outputs]
            for i, out in enumerate(outputs):
                if out is None:
                    continue
                (kind, settings, noise, base), got = out
                where = f"round {r} item {i} ({kind})"
                tables = oracle.born_tables(settings.alice, settings.bob, settings.relabel, noise)
                f = got["f_min"]
                lp = oracle.min_noise(tables)
                if abs(f - lp) > 1e-7:
                    problems.append(f"{where}: f_min {f} but scipy LP {lp}")
                residual = oracle.certificate_residual(tables, f, got["certificate"])
                if residual > 1e-7:
                    problems.append(f"{where}: certificate residual {residual:.2e}")
                closed = oracle.crossing(tables)
                if abs(got["analytic"] - closed) > 1e-9:
                    problems.append(f"{where}: analytic {got['analytic']} but crossing {closed}")
                if max(got["analytic"], got["relabel_max"]) > f + 1e-9:
                    problems.append(f"{where}: a closed-form threshold exceeds f_min {f}")
                if got["relabel_max"] < got["analytic"] - 1e-12:
                    problems.append(f"{where}: relabel max below the identity relabeling")
                if got["below"] is True or got["above"] is not True:
                    problems.append(f"{where}: lhv_feasible does not bracket f_min {f}")
                if kind == "reference" and abs(f - oracle.REFERENCE_THRESHOLD) > 1e-7:
                    problems.append(f"{where}: f_min {f} is not (11 - 6 sqrt 3) / 2")
                if kind == "local" and f > 1e-9:
                    problems.append(f"{where}: one setting per side yet f_min {f}")
                original = scored[base] if base is not None else None
                if original is None:
                    continue
                if kind == "relabeled":
                    if abs(f - original["f_min"]) > 1e-7:
                        problems.append(f"{where}: relabeling moved f_min to {f}")
                    if abs(got["relabel_max"] - original["relabel_max"]) > 1e-9:
                        problems.append(f"{where}: relabeling moved the relabel max")
                if kind == "noisy":
                    expected = max(0.0, (original["f_min"] - noise) / (1.0 - noise))
                    if abs(f - expected) > 1e-7:
                        problems.append(f"{where}: f_min {f} at input noise {noise}, expected {expected}")
        return problems


class Cli:
    """A fixed sequence of command-line processes on a gauge-shifted preset."""

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None  # when set, children run under traced_cli.py
        self.settings_path = OUT / f"cli-settings-{seed}.json"
        self.spans_path = OUT / f"cli-child-spans-{seed}.json"

    def warm_up(self, qc) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            qc.cli.main(["paper-preset"])

    def process(self, args):
        if self.tracer is None:
            command = [sys.executable, "-m", "qutrit_ch.cli", *args]
        else:
            command = [sys.executable, str(BENCH / "traced_cli.py"), str(self.spans_path), *args]
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        ended = time.perf_counter()
        if self.tracer is not None:
            parent = self.tracer.span("cli.process", started, ended, args[0])
            self.tracer.adopt(json.loads(self.spans_path.read_text())["spans"], parent)
        if done.returncode != 0:
            raise RuntimeError(f"{args[0]} exited {done.returncode}: {done.stderr.strip()}")
        return done.stdout

    def operations(self, qc, index):
        rng = np.random.default_rng([self.seed, index])
        noise = float(rng.uniform(0.0, 0.5))
        settings = str(self.settings_path)

        def preset():
            doc = json.loads(self.process(["paper-preset"]))
            shifted = dict(doc)
            for side in ("alice", "bob"):
                shifted[side] = (np.array(doc[side]) + rng.uniform(0.0, 2.0 * np.pi, (2, 1))).tolist()
            self.settings_path.write_text(json.dumps(shifted))
            return ("paper-preset", doc)

        def report(name, args):
            return lambda: (name, json.loads(self.process(args)))

        yield preset
        yield report("analytic", ["threshold", "--settings", settings, "--method", "analytic"])
        yield report("lp", ["threshold", "--settings", settings, "--method", "lp"])
        yield report(f"probs {noise!r}", ["probs", "--settings", settings, "--noise", repr(noise)])
        yield report("verify-appendix", ["verify-appendix"])

    @staticmethod
    def threshold(output) -> float:
        name, doc = output
        return doc["results"]["threshold"] if name == "lp" else 0.0

    @staticmethod
    def reported_walls(rounds) -> list[float]:
        """wall_time_seconds of every JSON report the processes printed."""
        return [out[1]["wall_time_seconds"] for outputs in rounds
                for out in filter(None, outputs) if "wall_time_seconds" in out[1]]

    def check(self, rounds) -> list[str]:
        problems = []
        for r, outputs in enumerate(rounds):
            relabel = None
            for out in outputs:
                if out is None:
                    continue
                name, doc = out
                where = f"round {r} {name.split()[0]}"
                if name == "paper-preset":
                    relabel = tuple(tuple(doc["relabel"][key]) for key in ("a1", "a2", "b1", "b2"))
                    continue
                results = doc["results"]
                if name in ("analytic", "lp"):
                    if abs(results["threshold"] - oracle.REFERENCE_THRESHOLD) > 1e-9:
                        problems.append(f"{where}: threshold {results['threshold']}")
                elif name == "verify-appendix":
                    if results["all_pass"] is not True:
                        problems.append(f"{where}: all_pass is {results['all_pass']}")
                else:
                    noise = float(name.split()[1])
                    err = np.max(np.abs(np.array(results["tables"]) - oracle.closed_form_tables(relabel, noise)))
                    if err > 1e-12:
                        problems.append(f"{where}: tables off the closed form by {err:.2e}")
        return problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_workload(name: str, seed: int):
    if name == "search-lp":
        return Search("lp", seed)
    if name == "search-analytic":
        return Search("analytic", seed)
    if name == "threshold-sweep":
        return Sweep(seed)
    return Cli(seed)


def set_up(workload, cli: bool) -> tuple[object, list[float]]:
    """Import the package afresh and make the first call, several times."""
    names = ("qutrit_ch", "qutrit_ch.cli") if cli else ("qutrit_ch",)
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's modules are garbage of the benchmark's own
        started = time.perf_counter()
        qc = fresh_import(names)
        workload.warm_up(qc)
        times.append(time.perf_counter() - started)
    if not Path(qc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported qutrit_ch from {qc.__file__}, not {SRC}")
    return qc, times


def run_round(workload, qc, index, clock=None):
    """One whole round: outputs (None where an operation failed), the
    seconds and the reference-clock units its operations took, the seconds
    of each operation that succeeded, and failures. Without a reference
    clock the units are 0."""
    read = clock.read if clock is not None else (lambda: (time.perf_counter(), 0.0))
    outputs, op_times, failures = [], [], []
    seconds = units = 0.0
    for op in workload.operations(qc, index):
        op_started, op_units = read()
        try:
            outputs.append(op())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            failures.append(f"round {index}: {type(exc).__name__}: {exc}")
        ended, ended_units = read()
        seconds += ended - op_started
        units += ended_units - op_units
        if outputs[-1] is not None:
            op_times.append(ended - op_started)
    return outputs, seconds, units, op_times, failures


def cli_import_s(repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qutrit_ch.cli"], cwd=ROOT,
                       env=child_env(), check=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def probe_layers(qc) -> None:
    """One call into every in-process layer at the reference settings.

    Used only for per-call times of layers the workload never called, so
    that such a field holds a measured time; its counts stay the workload's.
    """
    settings = reference(qc)
    exp0 = qc.engine.experiment_probabilities(settings)
    bound = qc.lhv.min_noise_lp(exp0)
    qc.lhv.lhv_feasible(qc.engine.mix_with_noise(exp0, bound.f_min + BRACKET))
    qc.inequality.analytic_threshold(exp0)
    qc.optimizer._relabel_maxed_scores(exp0)
    qc.optimizer.optimize(1, SEARCH_SEEDS[0], method="analytic")


def layer_metrics(spans, probe, n_rounds, traced_s, overhead_pct, import_s, reported):
    def of(source, name):
        return [s for s in source if s[0] == name]

    def per_round(name, note=None):
        return sum(1 for s in of(spans, name) if note is None or s[4] == note) / n_rounds

    def mean_us(name):
        chosen = of(spans, name) or of(probe, name)
        return 1e6 * statistics.fmean(s[2] - s[1] for s in chosen) if chosen else 0.0

    # an optimize span that raised carries a message instead of its counts
    own = [s for s in of(spans, "optimizer.optimize") if isinstance(s[4], tuple)]
    timed = own or [s for s in of(probe, "optimizer.optimize") if isinstance(s[4], tuple)]
    evaluations = sum(s[4][1] for s in timed)
    solves = of(spans, "simplex.solve")
    pivots = sum(s[4] for s in solves if isinstance(s[4], int))
    self_s = self_times(spans)
    metrics = {
        "simplex.solves": (len(solves) / n_rounds, "count/round"),
        "simplex.solve_us": (mean_us("simplex.solve"), "us"),
        "simplex.pivots": (pivots / n_rounds, "count/round"),
        "simplex.pivots_per_solve": (pivots / len(solves) if solves else 0.0, "count"),
        "simplex.failures": (per_round("simplex.solve", "raised SimplexFailure"), "count/round"),
        "lhv.min_noise_calls": (per_round("lhv.min_noise"), "count/round"),
        "lhv.min_noise_us": (mean_us("lhv.min_noise"), "us"),
        "lhv.feasibility_calls": (per_round("lhv.feasibility"), "count/round"),
        "lhv.feasibility_us": (mean_us("lhv.feasibility"), "us"),
        "lhv.bisection_fallbacks": (per_round("lhv.min_noise", "bisection"), "count/round"),
        "engine.probabilities_calls": (per_round("engine.probabilities"), "count/round"),
        "engine.probabilities_us": (mean_us("engine.probabilities"), "us"),
        "optimizer.evaluations": (sum(s[4][1] for s in own) / n_rounds, "count/round"),
        "optimizer.restarts": (sum(s[4][0] for s in own) / n_rounds, "count/round"),
        "optimizer.eval_us": (1e6 * sum(s[2] - s[1] for s in timed) / evaluations if evaluations else 0.0, "us"),
        "optimizer.relabel_score_calls": (per_round("optimizer.relabel_score"), "count/round"),
        "optimizer.relabel_score_us": (mean_us("optimizer.relabel_score"), "us"),
        "inequality.analytic_calls": (per_round("inequality.analytic"), "count/round"),
        "inequality.analytic_us": (mean_us("inequality.analytic"), "us"),
        "cli.processes": (per_round("cli.process"), "count/round"),
        "cli.import_s": (import_s, "s"),
        "cli.reported_wall_s": (statistics.median(reported), "s"),
    }
    for layer in ("engine", "inequality", "optimizer", "lhv", "simplex", "cli"):
        metrics[f"{layer}.self_pct"] = (100.0 * self_s.get(layer, 0.0) / traced_s, "%")
    metrics["trace.spans"] = (len(spans) / n_rounds, "count/round")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search-lp", "search-analytic", "threshold-sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qutrit_ch" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'qutrit_ch'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    traced = args.trace == 1
    is_cli = args.workload == "cli"
    workload = make_workload(args.workload, args.seed)
    qc, setup_times = set_up(workload, is_cli)

    rounds, times, units, plain_times, op_times, failed = [], [], [], [], [], []

    def record(result, round_times):
        outputs, seconds, round_units, ops, failures = result
        rounds.append(outputs)
        round_times.append(seconds)
        units.append(round_units)
        op_times.extend(ops)
        failed.extend(failures)

    # whole rounds; none is started once the time left is less than the
    # last one took, but at least one always runs
    tracer, probe = Tracer(), Tracer()
    clock = RefClock()
    index, last = 0, 0.0
    begun = time.perf_counter()
    if not traced:
        clock.start()
    try:
        while index == 0 or time.perf_counter() - begun + last <= args.seconds:
            started = time.perf_counter()
            if not traced:
                record(run_round(workload, qc, index, clock), times)
            else:
                # the same round untraced, then traced, so that drift in machine
                # speed falls on both sides of the overhead comparison alike
                record(run_round(workload, qc, index), plain_times)
                tracer.install()
                if is_cli:
                    workload.tracer = tracer
                try:
                    record(run_round(workload, qc, index), times)
                finally:
                    tracer.uninstall()
                    if is_cli:
                        workload.tracer = None
            index += 1
            last = time.perf_counter() - started
    finally:
        if not traced:
            clock.stop()
    attempted = sum(len(outputs) for outputs in rounds)

    if not traced:
        usage = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        outputs = [out for outputs in rounds for out in outputs if out is not None]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "round_ref": (statistics.median(units), "ref"),
            "threshold_found": (max(map(workload.threshold, outputs), default=0.0), "fraction"),
            "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
        }
    else:
        spans = tracer.spans
        if not TIMED_SPANS <= {s[0] for s in spans}:
            probe.install()
            try:
                probe_layers(qc)
            finally:
                probe.uninstall()
        if is_cli:
            reported = workload.reported_walls(rounds)
        else:
            reported = [json.loads(subprocess.run(
                [sys.executable, "-m", "qutrit_ch.cli", "verify-appendix"], cwd=ROOT,
                env=child_env(), capture_output=True, text=True, check=True,
                timeout=CLI_TIMEOUT_S).stdout)["wall_time_seconds"]]
        overhead = 100.0 * (sum(times) / sum(plain_times) - 1.0)
        metrics = layer_metrics(spans, probe.spans, len(times), sum(times),
                              overhead, cli_import_s(), reported)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")

    problems = oracle.self_check() + workload.check(rounds)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6f} {unit}")
    print(f"rounds {len(rounds)}, operations {attempted}, failed {len(failed)}, "
          f"problems {len(problems)}")
    if clock.samples:
        print(f"round wall time {statistics.median(times):.6f} s; reference kernel "
              f"{1e6 * statistics.median(clock.samples):.1f} us, {len(clock.samples)} samples")
    for line in (failed + problems)[:20]:
        print("  " + line)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    raw = {"failures": failed, "problems": problems, "round_times": times,
           "round_units": units, "kernel_times": clock.samples,
           "op_times": op_times, "setup_times": setup_times}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**raw, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
