"""Search for phase settings with a high noise threshold.

The landscape is smooth and periodic in 12 phases, but adding a constant to
any observable's phase triple is a gauge transformation that leaves all
probabilities unchanged, which leaves 8 coordinates. On the maximally
entangled state, adding d to phase m of both of alice's triples and -d to
phase m of both of bob's also leaves every probability unchanged, so only
6 matter. The search pins the first phase of each triple at 0, moves the
other 8, and climbs from random restarts, each with its own deterministic
random stream.

Two objectives are available. "lp" scores a setting by the true local-model
noise threshold. "analytic" scores the closed-form threshold of the signed
functional, maximized over all 6^4 outcome relabelings so that, like the LP,
it does not depend on how outcomes are labeled; the maximizing relabeling is
baked into the returned settings. One column per relabeling class
(``inequality.CLASS_CH``) scores all 1296. As FLAT_LHS < 0,
L0 / (L0 - FLAT_LHS) rises with L0, so a score crosses the noise once,
at the largest of the 432 functional values.

Both methods read every box from its Fourier table
(``engine._fourier_kernel``), never from the Born rule: class values as
joints @ CLASS_CH[:36] plus the constant share of the singles, which are
all 1/3 (the module constants ``_CLASS_JOINTS`` and ``_SINGLES_SHARE``).
Only the LP solves and the final relabeling pick wrap the joints in an
``ExperimentProbabilities`` (``engine._kernel_box``).

The analytic method runs coordinate-wise ascent on the largest class value.
Along phase i every class value is A + Re(H e^{it}) (as in Rotosolve,
Ostaszewski, Grant & Benedetti, Quantum 5, 391 (2021)), with
A = value - Re H and H the kernel's ``harmonic(i, _class_product()[i])``:
its 4 phasors for phase i times C @ CLASS_CH[:36] at the same 4 rows. That
product is built once per process as a read-only per-phase table
(12, 4, 432), so a step slices it and copies nothing. One evaluation, at
t = -arg H_c for the c with the largest A_c + |H_c|, reaches the line's
exact maximum; it is kept unless the largest class value falls. A sweep
over the free phases that raises it by at most ``ROUNDOFF_ULPS`` ulps ends
the restart, and its noise is crossed once, at the end. The best restart's
relabeling and threshold are read from its box.

The LP method runs one modified Newton ascent on one objective. Within one
LP basis f = g / (1 + g) with g the dual ``lhv.threshold_gradient`` reads
times the tables, so the kernel's ``derivatives`` give f_min's exact
gradient and Hessian from the raw phases. f_min and its gradient are 0
where the box is local, so a box with no positive class value is scored
without an LP by its top class value, with that class's gradient and
Hessian: a score of at most 0, so of at most any LP value, that leads off
that plateau. Every other box is scored by its certified LP value, and a
restart whose ascent ends on the plateau reports the LP value of its end,
so every reported score is an LP value.
Each solve warm-starts from the bound with the highest f_min so far in its
restart, so a trial the line search rejects seeds nothing. Each restart's
first solve brings no start, so it starts from the box's CGLMP class (see
``lhv.min_noise_lp``), and restarts stay independent. The best restart's
final gradient norm is reported as a first-order certificate.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    FLAT_VECTOR,
    IDENTITY_RELABELING,
    PhaseSettings,
    _fourier_kernel,
    _fourier_table,
    _kernel_box,
    experiment_probabilities,
    relabeling_at,
)
from .inequality import CLASS_CH, CLASS_FIRSTS, analytic_threshold, noise_crossing
# read at call time, so that an analytic search never executes the LP layers
from . import lhv, simplex

# Newton ascent, for the LP method
GRADIENT_TOL = 1e-9
STEP_TOL = 1e-12  # radians
ARMIJO = 1e-4  # the share of the predicted gain a step must realize
# a Newton step that moves the value by at most this many ulps is accepted,
# and a coordinate sweep that raises it by no more ends the analytic ascent
ROUNDOFF_ULPS = 4
# near the optimum the LP's f_min scatters by about 2e-15, some 36 ulps at
# 0.30, between nearby boxes; a Newton trial that lands this close to the
# current value with a gradient norm at most GRADIENT_TOL is accepted
LP_ROUNDOFF_ULPS = 64
CURVATURE_FLOOR = 1e-3  # relative to the largest curvature
FREE_INDICES = np.array([1, 2, 4, 5, 7, 8, 10, 11])
FREE_INDICES.setflags(write=False)
_FREE_BLOCK = np.ix_(FREE_INDICES, FREE_INDICES)
# as Python ints, which index an array faster than numpy's
_FREE_PHASES = tuple(FREE_INDICES.tolist())

# the class values of a box on the maximally entangled state are
# joints @ _CLASS_JOINTS + _SINGLES_SHARE: every single is 1/3, so the singles
# add a constant to each class value
_CLASS_JOINTS = CLASS_CH[:36]
_SINGLES_SHARE = FLAT_VECTOR[36:] @ CLASS_CH[36:]
_SINGLES_SHARE.setflags(write=False)


@dataclass(frozen=True, slots=True, eq=False)
class OptimizationResult:
    """Best settings found, their score, and the search's bookkeeping.

    ``failed_restarts`` counts the restarts skipped after a SimplexFailure.
    ``lp_starts`` counts the LP evaluations by start outcome ("accepted",
    "repaired" or "cold", see ``lhv.NoiseBound``) and ``lp_pivots`` sums
    their simplex pivots; every other evaluation but the failed solve of
    each failed restart was scored by its top class value, without an LP.
    They are empty and 0 for the analytic method.
    ``gradient_norm`` is the norm of the LP threshold's gradient over the 8
    free phases at the best settings, small at a local maximum; it is None
    for the analytic method.
    """

    best_settings: PhaseSettings
    best_threshold: float
    evaluations: int
    seed: int
    failed_restarts: int = 0
    lp_starts: dict[str, int] = field(default_factory=dict)
    gradient_norm: float | None = None
    lp_pivots: int = 0


def threshold_objective(settings: PhaseSettings, method: str = "lp") -> float:
    """Noise threshold of one setting at zero noise, by either scorer.

    The settings are used exactly as given, relabeling included. The
    analytic score depends on that relabeling; the lp score does not.
    """
    exp0 = experiment_probabilities(settings)
    if method == "lp":
        return lhv.min_noise_lp(exp0).f_min
    if method == "analytic":
        return analytic_threshold(exp0).value
    raise ValueError(f"unknown method {method!r}")


def _relabel_maxed_scores(exp0) -> np.ndarray:
    """Analytic threshold of every relabeling class, as a length-432 array
    in ``CLASS_FIRSTS`` order."""
    return noise_crossing(exp0.vector() @ CLASS_CH)


@functools.cache
def _class_product() -> np.ndarray:
    """The product C @ _CLASS_JOINTS (25, 432) of ``engine._fourier_table``'s
    C, gathered per phase at the table's rows as a read-only (12, 4, 432)
    table: entry i holds the 4 rows with K = 1 for phase i, the argument of
    ``harmonic(i, ...)``. Built on first use; numpy's complex-by-real matmul
    is slow at this size."""
    _, coefficients, rows, _ = _fourier_table()
    product = coefficients.real @ _CLASS_JOINTS + 1j * (coefficients.imag @ _CLASS_JOINTS)
    table = product[rows]
    table.setflags(write=False)
    return table


def _coordinate_ascent(fn, x: np.ndarray) -> float:
    """Maximize the largest of fn's class values over the free phases of x
    in place, one exact line maximum at a time; returns that value.

    fn(x) returns the 432 class values and ``engine._fourier_kernel``'s
    ``harmonic``.
    """
    table = _class_product()
    values, harmonic = fn(x)
    current = values.max()
    while True:
        sweep_start = current
        for index in _FREE_PHASES:
            harmonics = harmonic(index, table[index])
            best = (values - harmonics.real + np.abs(harmonics)).argmax()
            origin = x[index]
            x[index] = origin - np.angle(harmonics[best])
            trial, trial_harmonic = fn(x)
            peak = trial.max()
            if peak >= current:
                values, harmonic, current = trial, trial_harmonic, peak
            else:
                x[index] = origin
        if current - sweep_start <= ROUNDOFF_ULPS * np.spacing(abs(sweep_start)):
            return float(current)


def _newton_ascent(fn, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximize fn over the free phases of x in place; returns the value and
    the free-phase gradient at the final x.

    fn(x) returns the value and its gradient and Hessian over all 12 phases.
    A step solves with the negated free-phase Hessian, its eigenvalues
    replaced by their magnitudes floored at ``CURVATURE_FLOOR`` times the
    largest (Nocedal & Wright, *Numerical Optimization*, 3.4), or follows
    the gradient if all are 0. It halves until it meets the Armijo
    condition or moves the value by at most ``ROUNDOFF_ULPS`` ulps, all a
    gain below rounding can show, or by at most ``LP_ROUNDOFF_ULPS`` ulps to
    a gradient norm at most ``GRADIENT_TOL``, an optimum that the LP's
    roundoff hides. The ascent stops once the gradient norm is at most
    ``GRADIENT_TOL``, or once no step of at least ``STEP_TOL`` radians is
    accepted.
    """
    value, gradient, hessian = fn(x)
    gradient = gradient[FREE_INDICES]
    while np.linalg.norm(gradient) > GRADIENT_TOL:
        curvatures, axes = np.linalg.eigh(-hessian[_FREE_BLOCK])
        curvatures = np.abs(curvatures)
        if curvatures.max() > 0.0:
            curvatures = np.maximum(curvatures, CURVATURE_FLOOR * curvatures.max())
            direction = axes @ ((gradient @ axes) / curvatures)
        else:
            direction = gradient
        slope = gradient @ direction
        rounding = ROUNDOFF_ULPS * np.spacing(abs(value))
        scatter = LP_ROUNDOFF_ULPS * np.spacing(abs(value))
        origin = x[FREE_INDICES]
        step = 1.0
        while True:
            x[FREE_INDICES] = origin + step * direction
            trial, trial_gradient, hessian = fn(x)
            if (
                trial >= value + ARMIJO * step * slope
                or abs(trial - value) <= rounding
                or abs(trial - value) <= scatter
                and np.linalg.norm(trial_gradient[FREE_INDICES]) <= GRADIENT_TOL
            ):
                break
            step *= 0.5
            if step * np.linalg.norm(direction) < STEP_TOL:
                x[FREE_INDICES] = origin
                return value, gradient
        value, gradient = trial, trial_gradient[FREE_INDICES]
    return value, gradient


def _pin_gauge(phases: np.ndarray) -> np.ndarray:
    triples = phases.reshape(4, 3).copy()
    triples -= triples[:, :1]
    return triples.ravel()


def _integer(value, least: int, message: str) -> int:
    """``value`` as a Python int of at least ``least``, or ValueError(message).
    Booleans are refused although True == 1, and so is whatever
    ``operator.index`` refuses, such as 1.5, 2.0 or "3"."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value >= least:
                return value
    raise ValueError(message)


def optimize(
    restarts: int,
    seed: int,
    method: str = "lp",
    initial_phases: PhaseSettings | None = None,
) -> OptimizationResult:
    """Multi-restart ascent over the 8 gauge-free phases.

    Restart r draws its starting point from a stream keyed by (seed, r),
    so results are reproducible and independent of evaluation interleaving.
    ``initial_phases`` replaces the random start of restart 0 only (the
    relabeling field of the given settings is ignored; every start is
    reduced mod 2 pi and its gauge re-pinned).
    A restart whose solve fails is skipped and counted in the result's
    ``failed_restarts``. Ties keep the earliest restart: a later one is
    kept only if it beats it by more than the method's roundoff,
    ``ROUNDOFF_ULPS`` ulps for analytic and ``LP_ROUNDOFF_ULPS`` for lp.
    """
    restarts = _integer(restarts, 1, "restarts must be an integer of at least 1")
    if method not in ("lp", "analytic"):
        raise ValueError(f"unknown method {method!r}")
    seed = _integer(seed, 0, "seed must be a nonnegative integer")

    evaluations = 0
    failed_restarts = 0
    lp_starts: dict[str, int] = {}
    lp_pivots = 0
    # the current restart's bound with the highest f_min, which seeds the
    # next solve
    seed_bound: lhv.NoiseBound | None = None

    def class_values(x: np.ndarray) -> tuple:
        nonlocal evaluations
        evaluations += 1
        joints, _, harmonic = _fourier_kernel(x)
        return joints @ _CLASS_JOINTS + _SINGLES_SHARE, harmonic

    def lp_threshold(x: np.ndarray, certify: bool = False) -> tuple[float, np.ndarray, np.ndarray]:
        nonlocal evaluations, lp_pivots, seed_bound
        evaluations += 1
        joints, derivatives, _ = _fourier_kernel(x)
        values = joints @ _CLASS_JOINTS + _SINGLES_SHARE
        top = int(values.argmax())
        if values[top] <= 0.0 and not certify:
            # f_min and its gradient are 0 on this plateau: the top class
            # value, at most 0 and so at most any LP value, leads off it
            return float(values[top]), *derivatives(_CLASS_JOINTS[:, top])
        # valid by construction, so the input check is skipped
        bound = lhv._min_noise_lp(_kernel_box(joints), start=seed_bound)
        lp_starts[bound.start] = lp_starts.get(bound.start, 0) + 1
        lp_pivots += bound.iterations
        if seed_bound is None or bound.f_min >= seed_bound.f_min:
            seed_bound = bound
        # f = g / (1 + g) with g linear in the tables within the basis
        gradient, hessian = derivatives(lhv.threshold_gradient(bound))
        hessian -= (2.0 / (1.0 - bound.f_min)) * np.outer(gradient, gradient)
        return bound.f_min, gradient, hessian

    tie_ulps = ROUNDOFF_ULPS if method == "analytic" else LP_ROUNDOFF_ULPS
    best_val = -np.inf
    best_x: np.ndarray | None = None
    best_norm: float | None = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        draw = rng.uniform(0.0, 2.0 * np.pi, size=12)
        if r == 0 and initial_phases is not None:
            draw = np.concatenate(
                [initial_phases.alice.ravel(), initial_phases.bob.ravel()]
            )
        # reduced mod 2 pi, so that a large finite start cannot overflow the
        # gauge shift or the kernel's phase sums; the identity on the draws
        x = _pin_gauge(np.mod(draw, 2.0 * np.pi))
        # keeps restarts independent of each other
        seed_bound = None
        norm = None
        try:
            if method == "analytic":
                value = noise_crossing(_coordinate_ascent(class_values, x))
            else:
                value, gradient = _newton_ascent(lp_threshold, x)
                if value <= 0.0:
                    # the ascent ended on the plateau: report its LP value
                    value, gradient, _ = lp_threshold(x, certify=True)
                    gradient = gradient[FREE_INDICES]
                norm = float(np.linalg.norm(gradient))
        except simplex.SimplexFailure:
            failed_restarts += 1
            continue
        if best_x is None or value - best_val > tie_ulps * np.spacing(abs(best_val)):
            best_val, best_x, best_norm = value, x.copy(), norm

    if best_x is None:
        raise RuntimeError("every restart failed")
    relabel = IDENTITY_RELABELING
    if method == "analytic":
        scores = _relabel_maxed_scores(_kernel_box(_fourier_kernel(best_x)[0]))
        relabel = relabeling_at(int(CLASS_FIRSTS[np.argmax(scores)]))
        best_val = float(scores.max())
    settings = PhaseSettings(best_x[:6].reshape(2, 3), best_x[6:].reshape(2, 3), relabel)
    return OptimizationResult(
        settings, float(best_val), evaluations, seed, failed_restarts, lp_starts,
        best_norm, lp_pivots,
    )
