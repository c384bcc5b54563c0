"""Independent oracle for the benchmark's output checks.

Everything here is rebuilt from the physics and from scipy; nothing is
imported from ``qutrit_ch``. It relies only on the package's documented
conventions: tables are indexed ``[setting_a - 1, setting_b - 1,
outcome_a - 1, outcome_b - 1]``; a relabeling lists one permutation per
observable (A1, A2, B1, B2) and reports outcome a as ``perm[a - 1]``;
white noise f mixes every joint table as ``(1 - f) P + f / 9``; strategy
weights are ordered as an odometer over (a1, a2, b1, b2) with a1 fastest.
"""

from __future__ import annotations

import itertools

import numpy as np

SQRT3 = np.sqrt(3.0)
OMEGA = np.exp(2j * np.pi / 3.0)

# the best settings known for this experiment and their closed-form values
REFERENCE_ALICE = ((0.0, np.pi / 3, -np.pi / 3), (0.0, 0.0, 0.0))
REFERENCE_BOB = ((0.0, np.pi / 6, -np.pi / 6), (0.0, -np.pi / 6, np.pi / 6))
REFERENCE_THRESHOLD = (11.0 - 6.0 * SQRT3) / 2.0
CLOSED_FORM_VALUES = np.array([1.0, 4.0 - 2.0 * SQRT3, 4.0 + 2.0 * SQRT3]) / 27.0

PERMS = tuple(itertools.permutations((1, 2, 3)))


def analyzer(phases) -> np.ndarray:
    """Tritter behind three phase shifters: entry (k, m) = w^(km) e^(i phi_m) / sqrt 3."""
    k, m = np.indices((3, 3))
    return OMEGA ** (k * m) * np.exp(1j * np.asarray(phases, dtype=float))[m] / SQRT3


def born_tables(alice, bob, relabel=None, noise: float = 0.0) -> np.ndarray:
    """Joint tables of the maximally entangled pair, |sum_m ua[a,m] ub[b,m]|^2 / 3."""
    tables = np.empty((2, 2, 3, 3))
    for k in range(2):
        ua = analyzer(alice[k])
        for l in range(2):
            ub = analyzer(bob[l])
            for a in range(3):
                for b in range(3):
                    amp = sum(ua[a, m] * ub[b, m] for m in range(3))
                    tables[k, l, a, b] = abs(amp) ** 2 / 3.0
    tables = (1.0 - noise) * tables + noise / 9.0
    return tables if relabel is None else relabel_tables(tables, relabel)


def relabel_tables(tables: np.ndarray, relabel) -> np.ndarray:
    pa, pb = relabel[:2], relabel[2:]
    out = np.empty_like(tables)
    for k, l, a, b in itertools.product(range(2), range(2), range(3), range(3)):
        out[k, l, pa[k][a] - 1, pb[l][b] - 1] = tables[k, l, a, b]
    return out


def ch_value(p, pa, pb) -> float:
    """The functional, with p(k, l, a, b), pa(k, a), pb(l, b) as 1-based callables."""
    return (
        p(1, 1, 2, 1) + p(1, 2, 2, 1) - p(2, 1, 2, 1) + p(2, 2, 2, 1)
        + p(1, 1, 1, 2) + p(1, 2, 1, 2) - p(2, 1, 1, 2) + p(2, 2, 1, 2)
        + p(1, 1, 2, 2) + p(1, 2, 1, 1) - p(2, 1, 2, 2) + p(2, 2, 2, 2)
        - pa(1, 1) - pa(1, 2) - pb(2, 1) - pb(2, 2)
    )


def ch_on_tables(tables: np.ndarray) -> float:
    # singles are marginals of the tables (no-signaling makes the choice free)
    return ch_value(
        lambda k, l, a, b: tables[k - 1, l - 1, a - 1, b - 1],
        lambda k, a: tables[k - 1, 0, a - 1].sum(),
        lambda l, b: tables[0, l - 1, :, b - 1].sum(),
    )


def crossing(tables: np.ndarray) -> float:
    """Noise fraction where the functional, linear in the noise, crosses 0."""
    lhs0 = ch_on_tables(tables)
    if lhs0 <= 0.0:
        return 0.0
    lhs1 = ch_on_tables((0.0 * tables) + 1.0 / 9.0)
    return float(min(lhs0 / (lhs0 - lhs1), 1.0))


def best_crossing(tables: np.ndarray) -> float:
    """Largest crossing over all 6^4 outcome relabelings."""
    return max(
        crossing(relabel_tables(tables, relabel))
        for relabel in itertools.product(PERMS, repeat=4)
    )


def strategy(index: int) -> tuple[int, int, int, int]:
    """Deterministic strategy (a1, a2, b1, b2) at an odometer position, a1 fastest."""
    return (index % 3 + 1, index // 3 % 3 + 1, index // 9 % 3 + 1, index // 27 + 1)


def _indicator_matrix() -> np.ndarray:
    out = np.zeros((2, 2, 3, 3, 81))
    for i in range(81):
        a1, a2, b1, b2 = strategy(i)
        for k, l in itertools.product(range(2), range(2)):
            out[k, l, (a1, a2)[k] - 1, (b1, b2)[l] - 1, i] = 1.0
    return out.reshape(36, 81)


INDICATOR = _indicator_matrix()


def strategy_value(index: int) -> int:
    a = strategy(index)[:2]
    b = strategy(index)[2:]
    return ch_value(
        lambda k, l, x, y: int(a[k - 1] == x and b[l - 1] == y),
        lambda k, x: int(a[k - 1] == x),
        lambda l, y: int(b[l - 1] == y),
    )


def min_noise(tables: np.ndarray) -> float:
    """Least white-noise fraction making the tables local, by scipy's HiGHS."""
    # imported here, after the timed rounds, so it stays out of peak_rss_mb
    from scipy.optimize import linprog

    t0 = tables.reshape(36)
    a_eq = np.zeros((37, 82))
    a_eq[:36, :81] = INDICATOR
    a_eq[:36, 81] = t0 - 1.0 / 9.0
    a_eq[36, :81] = 1.0
    b_eq = np.concatenate([t0, [1.0]])
    cost = np.zeros(82)
    cost[81] = 1.0
    bounds = [(0.0, None)] * 81 + [(0.0, 1.0)]
    out = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if out.status != 0:
        raise RuntimeError(f"oracle LP failed: {out.message}")
    return float(out.x[81])


def certificate_residual(tables: np.ndarray, noise: float, weights) -> float:
    """Worst mismatch of a local-model certificate against the mixed tables."""
    w = np.asarray(weights, dtype=float)
    target = (1.0 - noise) * tables.reshape(36) + noise / 9.0
    return float(max(
        np.max(np.abs(INDICATOR @ w - target)),
        abs(w.sum() - 1.0),
        max(-w.min(), 0.0),
    ))


def closed_form_tables(relabel=None, noise: float = 0.0) -> np.ndarray:
    """Reference tables with every entry snapped to its closed-form value."""
    born = born_tables(REFERENCE_ALICE, REFERENCE_BOB, relabel)
    nearest = np.abs(born[..., None] - CLOSED_FORM_VALUES).argmin(axis=-1)
    return (1.0 - noise) * CLOSED_FORM_VALUES[nearest] + noise / 9.0


def self_check() -> list[str]:
    """Problems found when the oracle checks itself against the paper."""
    problems = []
    born = born_tables(REFERENCE_ALICE, REFERENCE_BOB)
    snapped = closed_form_tables()
    if np.max(np.abs(born - snapped)) > 1e-12:
        problems.append("reference tables are not {1/27, (4 +- 2 sqrt 3)/27}")
    if abs(born.sum() - 4.0) > 1e-12:
        problems.append("reference tables do not sum to 1")
    if max(strategy_value(i) for i in range(81)) != 0:
        problems.append("local bound of the functional is not 0")
    if abs(best_crossing(born) - REFERENCE_THRESHOLD) > 1e-12:
        problems.append("relabel-maxed crossing misses (11 - 6 sqrt 3) / 2")
    if abs(min_noise(born) - REFERENCE_THRESHOLD) > 1e-7:
        problems.append("scipy LP threshold misses (11 - 6 sqrt 3) / 2")
    return problems
