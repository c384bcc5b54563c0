"""Derivative-free search for phase settings with a high noise threshold.

The landscape is smooth and periodic in 12 phases, but adding a constant to
any observable's phase triple is a gauge transformation that leaves all
probabilities unchanged, so only 8 coordinates matter. The search pins the
first phase of each triple at 0 and runs coordinate-wise ascent (coarse
periodic scan, then golden-section refinement) from random restarts, each
with its own deterministic random stream.

Two objectives are available. "lp" scores a setting by the true local-model
noise threshold. "analytic" scores the closed-form threshold of the signed
functional, maximized over all 6^4 outcome relabelings so that, like the LP,
it does not depend on how outcomes are labeled; the maximizing relabeling is
baked into the returned settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    IDENTITY_RELABELING,
    RELABEL_DESTINATIONS,
    PhaseSettings,
    experiment_probabilities,
    relabeling_at,
)
from .inequality import CH_VECTOR, FLAT_LHS, analytic_threshold, noise_crossing
from .lhv import _min_noise_lp, min_noise_lp
from .simplex import SimplexFailure

GRID_POINTS = 12
COORDINATE_TOL = 1e-4
SWEEP_TOL = 1e-7
FREE_INDICES = (1, 2, 4, 5, 7, 8, 10, 11)

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Best settings found, their score, and the search's bookkeeping."""

    best_settings: PhaseSettings
    best_threshold: float
    evaluations: int
    seed: int


def threshold_objective(settings: PhaseSettings, method: str = "lp") -> float:
    """Noise threshold of one setting at zero noise, by either scorer.

    The settings are used exactly as given, relabeling included. The
    analytic score depends on that relabeling; the lp score does not.
    """
    exp0 = experiment_probabilities(settings)
    if method == "lp":
        return min_noise_lp(exp0).f_min
    if method == "analytic":
        return analytic_threshold(exp0).value
    raise ValueError(f"unknown method {method!r}")


# column c is the functional read through relabeling_at(c): its dot product
# with a probability vector is ch_lhs of the relabeled vector
_RELABELED_CH = CH_VECTOR[np.ascontiguousarray(RELABEL_DESTINATIONS.T)]
_RELABELED_CH.setflags(write=False)


def _relabel_maxed_scores(exp0) -> np.ndarray:
    """Analytic threshold of every outcome relabeling, as a length-1296 array
    in ``RELABEL_DESTINATIONS`` row order."""
    return noise_crossing(exp0.vector() @ _RELABELED_CH, FLAT_LHS)


def _refine_coordinate(fn, x: np.ndarray, index: int, current: float) -> float:
    """Maximize fn along one coordinate in place; returns the new best value."""
    step = 2.0 * np.pi / GRID_POINTS
    best_val, best_pos = current, x[index]
    origin = x[index]

    def consider(position: float) -> None:
        nonlocal best_val, best_pos
        x[index] = position
        value = fn(x)
        if value > best_val:
            best_val, best_pos = value, position

    for k in range(1, GRID_POINTS):
        consider(origin + k * step)
    lo, hi = best_pos - step, best_pos + step
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    x[index] = c
    fc = fn(x)
    if fc > best_val:
        best_val, best_pos = fc, c
    x[index] = d
    fd = fn(x)
    if fd > best_val:
        best_val, best_pos = fd, d
    while hi - lo > COORDINATE_TOL:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            x[index] = c
            fc = fn(x)
            if fc > best_val:
                best_val, best_pos = fc, c
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            x[index] = d
            fd = fn(x)
            if fd > best_val:
                best_val, best_pos = fd, d
    x[index] = best_pos
    return best_val


def _coordinate_ascent(fn, x: np.ndarray) -> float:
    current = fn(x)
    while True:
        sweep_start = current
        for index in FREE_INDICES:
            current = _refine_coordinate(fn, x, index, current)
        if current - sweep_start < SWEEP_TOL:
            return current


def _pin_gauge(phases: np.ndarray) -> np.ndarray:
    triples = phases.reshape(4, 3).copy()
    triples -= triples[:, :1]
    return triples.ravel()


def optimize(
    restarts: int,
    seed: int,
    method: str = "lp",
    initial_phases: PhaseSettings | None = None,
) -> OptimizationResult:
    """Multi-restart coordinate ascent over the 8 gauge-free phases.

    Restart r draws its starting point from a stream keyed by (seed, r),
    so results are reproducible and independent of evaluation interleaving.
    ``initial_phases`` replaces the random start of restart 0 only (the
    relabeling field of the given settings is ignored; gauge is re-pinned).
    A restart whose solve fails is skipped. Ties keep the earliest restart.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if method not in ("lp", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    evaluations = 0
    # the last LP bound of the current restart; its optimal basis seeds the
    # next solve, since consecutive evaluations differ in one phase
    previous = None

    def score(x: np.ndarray) -> float:
        nonlocal evaluations, previous
        evaluations += 1
        settings = PhaseSettings(x[:6].reshape(2, 3), x[6:].reshape(2, 3))
        exp0 = experiment_probabilities(settings)
        if method == "lp":
            # valid by construction, so the input check is skipped
            previous = _min_noise_lp(exp0, start=previous)
            return previous.f_min
        return float(_relabel_maxed_scores(exp0).max())

    best_val = -np.inf
    best_x: np.ndarray | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        draw = rng.uniform(0.0, 2.0 * np.pi, size=12)
        if r == 0 and initial_phases is not None:
            draw = np.concatenate(
                [initial_phases.alice.ravel(), initial_phases.bob.ravel()]
            )
        x = _pin_gauge(draw)
        previous = None  # keeps restarts independent of each other
        try:
            value = _coordinate_ascent(score, x)
        except SimplexFailure:
            continue
        if value > best_val:
            best_val, best_x = value, x.copy()

    if best_x is None:
        raise RuntimeError("every restart failed")
    alice = best_x[:6].reshape(2, 3)
    bob = best_x[6:].reshape(2, 3)
    relabel = IDENTITY_RELABELING
    if method == "analytic":
        scores = _relabel_maxed_scores(
            experiment_probabilities(PhaseSettings(alice, bob))
        )
        relabel = relabeling_at(int(np.argmax(scores)))
        best_val = float(scores.max())
    settings = PhaseSettings(alice, bob, relabel)
    return OptimizationResult(settings, float(best_val), evaluations, seed)
