"""Spans around the package's layer entry points, recorded from outside.

The package's modules import these functions by name, so a wrapper is
installed in every loaded ``qutrit_ch`` module that holds the original
object, which is where its callers look it up. Spans live in memory and
are written out when the run ends. The package source is never touched.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span name) of every traced entry point
ENTRY_POINTS = (
    ("qutrit_ch.engine", "experiment_probabilities", "engine.probabilities"),
    ("qutrit_ch.inequality", "analytic_threshold", "inequality.analytic"),
    ("qutrit_ch.optimizer", "optimize", "optimizer.optimize"),
    ("qutrit_ch.optimizer", "_relabel_maxed_scores", "optimizer.relabel_score"),
    ("qutrit_ch.lhv", "min_noise_lp", "lhv.min_noise"),
    ("qutrit_ch.lhv", "min_noise_bisection", "lhv.bisection"),
    ("qutrit_ch.lhv", "lhv_feasible", "lhv.feasibility"),
    ("qutrit_ch.simplex", "simplex_solve", "simplex.solve"),
)


def _note(name: str, args, kwargs, result):
    """The one fact a span keeps about its call, beyond its timing."""
    if name == "simplex.solve":
        return result.iterations
    if name == "lhv.min_noise":
        return result.method
    if name == "optimizer.optimize":
        return (args[0] if args else kwargs["restarts"], result.evaluations)
    return None


class Tracer:
    """Records (name, start, end, parent, note) spans for wrapped calls."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            # the slot is taken at entry so that children can name it as
            # parent; spans are tuples of atoms, which the collector skips
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, clock(), parent, "raised " + type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[index] = (name, start, clock(), parent, _note(name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, start: float, end: float, note=None) -> int:
        """Record a span measured by the caller, such as a child process."""
        self.spans.append((name, start, end, self._stack[-1] if self._stack else -1, note))
        return len(self.spans) - 1

    def adopt(self, spans, parent: int) -> None:
        """Append another tracer's spans, its root spans under ``parent``."""
        offset = len(self.spans)
        for name, start, end, up, note in spans:
            note = tuple(note) if isinstance(note, list) else note
            self.spans.append((name, start, end, parent if up < 0 else up + offset, note))

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "qutrit_ch" or key.startswith("qutrit_ch.")]
        for module_name, attr, name in ENTRY_POINTS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, out)


def self_times(spans) -> dict[str, float]:
    """Seconds per layer spent in its own spans, not in their child spans."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = {}
    for (name, _, _, _, _), seconds in zip(spans, own):
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + seconds
    return totals
