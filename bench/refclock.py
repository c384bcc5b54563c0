"""Reference clock: a fixed kernel timed on a timer while the rounds run.

The machine the benchmark runs on may be shared, and its speed can swing
by a factor of two within seconds. A wall time alone then measures the
neighbours as much as the program. So while the untraced rounds run,
SIGALRM interrupts the program every ``PERIOD_S`` seconds, between two
bytecodes, and times ``kernel()`` three times. Between two samples the
reference clock advances by the elapsed wall time divided by the latest
sample's median kernel time. An interval read on this clock is the time
the program took, in units of the kernel's time at that moment. The
kernel is benchmark code only (the oracle's Born rule and functional and
dense tableau pivots), so a change to the package cannot change it. Time spent in the handler is
left out of both clocks.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

import oracle

PERIOD_S = 0.05
REPEATS = 3
_WEIGHTS = np.full(81, 1.0 / 81.0)
_RELABEL = (oracle.PERMS[1], oracle.PERMS[4], oracle.PERMS[2], oracle.PERMS[5])
# a diagonally dominant tableau of the phase-1 min-noise LP's shape (37
# rows and a cost row, 119 columns and a right-hand side), so that pivots
# on its diagonal stay tame
_TABLEAU = np.random.default_rng(0).uniform(-1.0, 1.0, (38, 120))
_TABLEAU[np.arange(37), np.arange(37)] += 120.0
PIVOTS = 8


def kernel() -> float:
    """Interpreter, small-array numpy and tableau-pivot work, like one
    threshold evaluation: the Born rule, a relabeling, the crossing and a
    certificate residual at the paper's settings, then dense pivots."""
    tables = oracle.born_tables(oracle.REFERENCE_ALICE, oracle.REFERENCE_BOB)
    relabeled = oracle.relabel_tables(tables, _RELABEL)
    value = oracle.crossing(relabeled) + oracle.certificate_residual(tables, 0.5, _WEIGHTS)
    tableau = _TABLEAU.copy()
    for row in range(PIVOTS):
        tableau[row] /= tableau[row, row]
        column = tableau[:, row].copy()
        column[row] = 0.0
        tableau -= np.outer(column, tableau[row])
        value += float(np.flatnonzero(tableau[-1, :-1] < 0.0).size)
    return value


def sample() -> float:
    """Median seconds of REPEATS kernel runs, with the collector held off
    so that garbage the program left is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class RefClock:
    """Two clocks for the timed rounds: wall seconds and kernel units."""

    def __init__(self):
        self.samples: list[float] = []
        # (end of the last sample, units then, last sample, handler seconds)
        self._state = None
        self._previous = None

    def start(self) -> None:
        sample()  # warm-up
        kernel_s = sample()
        self.samples.append(kernel_s)
        self._state = (time.perf_counter(), 0.0, kernel_s, 0.0)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        mark, units, kernel_s, paused = self._state
        units += (started - mark) / kernel_s
        kernel_s = sample()
        self.samples.append(kernel_s)
        ended = time.perf_counter()
        self._state = (ended, units, kernel_s, paused + ended - started)

    def read(self) -> tuple[float, float]:
        """(wall seconds less handler time, kernel units) at this moment."""
        while True:
            state = self._state
            now = time.perf_counter()
            if self._state is state:  # no sample was taken in between
                mark, units, kernel_s, paused = state
                return now - paused, units + (now - mark) / kernel_s
