"""Exact outcome statistics for two entangled qutrits measured behind
tritters.

The source emits the maximally entangled state (|11> + |22> + |33>)/sqrt(3),
optionally mixed with a fraction F of white noise (the maximally mixed
two-qutrit state). Each observer selects a trichotomic observable by dialing
three phase shifts in front of a tritter, an unbiased three-input,
three-output beamsplitter, and records which output port fires. Everything
here is a pure function of its inputs; returned arrays are marked read-only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

CUBE_ROOT_OF_UNITY = np.exp(2j * np.pi / 3)

# all outcome permutations as images of (1, 2, 3), in lexicographic order
PERMUTATIONS: tuple[tuple[int, int, int], ...] = tuple(
    itertools.permutations((1, 2, 3))
)
IDENTITY_RELABELING = ((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3))

UNITARITY_TOL = 1e-9
VALIDATION_TOL = 1e-10  # normalization and no-signaling, in validate()
MATCH_TOL = 1e-9  # entrywise, in find_matching_relabeling()
_CLAMP_TOL = 1e-12

# outcomes behind each entry of ExperimentProbabilities.vector(): 9 per
# joint table, 3 per observable. mix_with_noise divides by these rather than
# multiplying by FLAT_VECTOR, so a mixed entry is exactly (1 - f) p + f / 9.
_OUTCOME_COUNTS = np.concatenate([np.full(36, 9.0), np.full(12, 3.0)])
_OUTCOME_COUNTS.setflags(write=False)
# the flat box that white noise mixes in: every outcome equally likely. Every
# outcome relabeling maps it to itself.
FLAT_VECTOR = 1.0 / _OUTCOME_COUNTS
FLAT_VECTOR.setflags(write=False)


_SQRT3 = np.sqrt(3.0)
_TRITTER = CUBE_ROOT_OF_UNITY ** np.outer(np.arange(3), np.arange(3)) / _SQRT3
_TRITTER.setflags(write=False)


def tritter_matrix() -> np.ndarray:
    """Transition matrix of the unbiased six-port beamsplitter.

    Entry (k, l) is alpha^(k-1)(l-1) / sqrt(3) with alpha the primitive cube
    root of unity, i.e. the 3x3 discrete Fourier matrix scaled to unitarity.
    The array is read-only and built once.
    """
    return _TRITTER


def observable_unitary(phases: np.ndarray) -> np.ndarray:
    """Tritter preceded by one phase shifter per input port.

    Column l of the tritter picks up exp(i * phases[l]); the three phases are
    the observer's controllable setting for one trichotomic observable.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (3,):
        raise ValueError(f"expected 3 phases, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    u = _observable_unitaries(phases[None])[0]
    u.setflags(write=False)
    return u


def _observable_unitaries(phases: np.ndarray) -> np.ndarray:
    """observable_unitary of each row of an (n, 3) array of finite phases."""
    return _TRITTER[None] * np.exp(1j * phases)[:, None, :]


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(3))) <= tol)


def _require_unitary(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if not is_unitary(m, tol=UNITARITY_TOL):
        raise ValueError(f"{name} is not unitary within {UNITARITY_TOL}")
    return m


def _check_noise(noise: float) -> float:
    noise = float(noise)
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise fraction must lie in [0, 1], got {noise}")
    return noise


def _clamp01(p: np.ndarray) -> np.ndarray:
    """``p`` clipped to [0, 1] in place and made read-only; raises if it
    strays beyond ``_CLAMP_TOL`` or holds NaN."""
    low, high = p.min(), p.max()
    # NaN fails both comparisons and raises too
    if not (low >= -_CLAMP_TOL and high <= 1.0 + _CLAMP_TOL):
        raise RuntimeError(
            f"probability outside [0, 1] beyond tolerance: range [{low}, {high}]"
        )
    if low < 0.0 or high > 1.0:
        np.clip(p, 0.0, 1.0, out=p)
    p.setflags(write=False)
    return p


def _born_rule(ua: np.ndarray, ub: np.ndarray, noise: float) -> np.ndarray:
    """Statistics of validated analyzer stacks ua (m, 3, 3) and ub (n, 3, 3)
    as one fresh, range-checked, read-only vector: the (m, n, 3, 3) joint
    tables, then the (m, 3) and (n, 3) singles, each raveled. For m = n = 2
    it is the ``ExperimentProbabilities.vector()`` of the four setting pairs.

    The joint tables on the maximally entangled state mixed with white noise
    are p[a, b] = (1 - noise) * |amp|^2 + noise / 9 with
    amp = sum_m ua[a, m] * ub[b, m] / sqrt(3). The singles are
    sum_m |u[a, m]|^2 / 3, which is 1/3 for every unitary; they are
    computed rather than returned as a constant so that stays testable.
    """
    amp = ua[:, None] @ np.swapaxes(ub, 1, 2)[None] / _SQRT3
    tables = (1.0 - noise) * np.abs(amp) ** 2 + noise / 9.0
    singles = np.sum(np.abs(np.concatenate([ua, ub])) ** 2, axis=2) / 3.0
    # one range check over all of them
    return _clamp01(np.concatenate([tables.ravel(), singles.ravel()]))


def joint_table(ua: np.ndarray, ub: np.ndarray, noise: float = 0.0) -> np.ndarray:
    """Joint outcome probabilities for one pair of analyzers."""
    ua = _require_unitary(ua, "ua")
    ub = _require_unitary(ub, "ub")
    noise = _check_noise(noise)
    return _born_rule(ua[None], ub[None], noise)[:9].reshape(3, 3)


def singles(u: np.ndarray) -> np.ndarray:
    """Single-observer outcome probabilities behind one analyzer."""
    u = _require_unitary(u, "u")
    return _born_rule(u[None], u[None], 0.0)[9:12]


def _validate_permutation(perm) -> tuple[int, int, int]:
    """The ``PERMUTATIONS`` entry equal to ``perm``. Entries are compared
    as given, so 1.5 or "1" is no outcome, and booleans, although
    True == 1, are refused too."""
    perm = tuple(perm)
    if perm not in PERMUTATIONS or any(isinstance(x, (bool, np.bool_)) for x in perm):
        raise ValueError(f"relabel entry {perm} is not a permutation of (1, 2, 3)")
    return PERMUTATIONS[PERMUTATIONS.index(perm)]


def _validate_relabeling(relabel) -> tuple[tuple[int, int, int], ...]:
    """The ``PERMUTATIONS`` entries ``relabel`` lists, one per observable."""
    relabel = tuple(relabel)
    if len(relabel) != 4:
        raise ValueError("relabel must give one permutation per observable")
    return tuple(map(_validate_permutation, relabel))


def _real_array(values) -> np.ndarray:
    """``values`` as a fresh float array. Complex input raises ValueError,
    where a float conversion would drop the imaginary part with a warning."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError("expected real numbers, got complex ones")
    return values.astype(float)


@dataclass(frozen=True, slots=True, eq=False)
class PhaseSettings:
    """Two phase triples per observer plus optional outcome relabelings.

    ``relabel`` lists one permutation (images of (1, 2, 3)) per observable in
    the order A1, A2, B1, B2; outcome a of observable A_k is reported as
    relabel[k-1][a-1].
    """

    alice: np.ndarray  # (2, 3) radians
    bob: np.ndarray  # (2, 3) radians
    relabel: tuple = IDENTITY_RELABELING

    def __post_init__(self):
        # copies, so freezing never makes a caller's own array read-only
        try:
            alice, bob = _real_array(self.alice), _real_array(self.bob)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("phases must be finite") from None
        if alice.shape != (2, 3) or bob.shape != (2, 3):
            raise ValueError("each observer needs exactly two triples of phases")
        if not (np.isfinite(alice).all() and np.isfinite(bob).all()):
            raise ValueError("phases must be finite")
        alice.setflags(write=False)
        bob.setflags(write=False)
        object.__setattr__(self, "alice", alice)
        object.__setattr__(self, "bob", bob)
        # the module constant is valid as it stands
        if self.relabel is not IDENTITY_RELABELING:
            object.__setattr__(self, "relabel", _validate_relabeling(self.relabel))


def _views(vector: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The joint tables, alice singles and bob singles of a 48-entry
    vector, as views of it."""
    return vector[:36].reshape(2, 2, 3, 3), vector[36:42].reshape(2, 3), vector[42:].reshape(2, 3)


@dataclass(frozen=True, eq=False)
class ExperimentProbabilities:
    """All probabilities one run of the four-setting experiment predicts.

    ``tables[k-1, l-1]`` is the 3x3 joint distribution for settings (k, l);
    ``alice_singles[k-1]`` and ``bob_singles[l-1]`` are the corresponding
    one-observer distributions. ``vector()`` lists all 48 probabilities in
    one read-only array: the 36 joints in ``tables.ravel()`` order, then the
    6 alice singles, then the 6 bob singles. The box holds only that array;
    the three fields are read-only views of it.
    """

    tables: np.ndarray  # (2, 2, 3, 3)
    alice_singles: np.ndarray  # (2, 3)
    bob_singles: np.ndarray  # (2, 3)

    def __post_init__(self):
        tables, alice, bob = map(_real_array, (self.tables, self.alice_singles, self.bob_singles))
        if tables.shape != (2, 2, 3, 3):
            raise ValueError(f"tables must have shape (2, 2, 3, 3), got {tables.shape}")
        if alice.shape != (2, 3) or bob.shape != (2, 3):
            raise ValueError("singles must have shape (2, 3) per observer")
        vector = np.concatenate([tables.ravel(), alice.ravel(), bob.ravel()])
        # tiny negatives from floating-point cancellation are clamped away;
        # a NaN passes the test too, so each entry is judged on its own
        if not vector.min() >= 0.0:
            vector[(vector < 0.0) & (vector >= -_CLAMP_TOL)] = 0.0
        self._hold(vector)

    def _hold(self, vector: np.ndarray) -> None:
        vector.setflags(write=False)
        object.__setattr__(self, "_vector", vector)
        for name, view in zip(("tables", "alice_singles", "bob_singles"), _views(vector)):
            object.__setattr__(self, name, view)

    @classmethod
    def _adopt(cls, vector: np.ndarray) -> "ExperimentProbabilities":
        """Wrap a 48-entry vector that no caller holds writable (a fresh
        one, or one already read-only), with no tiny negatives left to
        clamp, without copying or scanning it; it is frozen in place. The
        public constructor copies and checks instead."""
        exp = object.__new__(cls)
        exp._hold(vector)
        return exp

    def vector(self) -> np.ndarray:
        """The 48 probabilities: tables, alice singles, bob singles, raveled.
        The box's own read-only array, not a copy."""
        return self._vector

    def validate(self) -> None:
        """Raise ValueError unless the entries are finite, the joints are
        nonnegative, and normalization and no-signaling hold to within
        ``VALIDATION_TOL``.

        The last two are the 32 rows of ``_CONSTRAINTS`` applied to
        ``vector()`` in one product; the first row off by more than the
        tolerance names the cause, in the order of ``_CONSTRAINT_CAUSES``.
        """
        vector = self.vector()
        if not np.isfinite(vector).all():
            raise ValueError("probabilities must be finite (found NaN or inf)")
        if vector[:36].min() < 0:
            raise ValueError("negative joint probability")
        # NaN from overflowing entries fails the comparison and raises too
        within = np.abs(_CONSTRAINTS @ vector - _CONSTRAINT_TARGETS) <= VALIDATION_TOL
        if not within.all():
            raise ValueError(_CONSTRAINT_CAUSES[within.argmin()])


def _constraints() -> np.ndarray:
    """The 32 linear identities of a normalized, no-signaling box, as rows
    against ``vector()``: the 4 table sums and the 2 alice and 2 bob single
    sums, each 1 in ``_CONSTRAINT_TARGETS``, then the 12 row sums
    sum_b p(a, b | k, l) - alice_k(a) in (k, l, a) order and the 12 column
    sums sum_a p(a, b | k, l) - bob_l(b) in (k, l, b) order, each 0."""
    k, l, a, b = np.indices((2, 2, 3, 3)).reshape(4, 36)
    pair, joint = 2 * k + l, np.arange(36)
    matrix = np.zeros((32, 48))
    matrix[pair, joint] = 1.0
    matrix[8 + 3 * pair + a, joint] = 1.0
    matrix[20 + 3 * pair + b, joint] = 1.0
    matrix[8 + 3 * pair + a, 36 + 3 * k + a] = -1.0
    matrix[20 + 3 * pair + b, 42 + 3 * l + b] = -1.0
    # observable o's 3 singles sum to 1: A1, A2, B1, B2 in vector() order
    observable, outcome = np.indices((4, 3)).reshape(2, 12)
    matrix[4 + observable, 36 + 3 * observable + outcome] = 1.0
    matrix.setflags(write=False)
    return matrix


_CONSTRAINTS = _constraints()
_CONSTRAINT_TARGETS = np.concatenate([np.ones(8), np.zeros(24)])
_CONSTRAINT_TARGETS.setflags(write=False)
# what validate() names when row i of _CONSTRAINTS fails
_CONSTRAINT_CAUSES = (
    ("joint tables must each sum to 1",) * 4
    + ("alice singles must sum to 1",) * 2
    + ("bob singles must sum to 1",) * 2
    + ("no-signaling violated: row sums differ from alice singles",) * 12
    + ("no-signaling violated: column sums differ from bob singles",) * 12
)


def _relabel_destinations() -> np.ndarray:
    """Row c moves entry i of ``ExperimentProbabilities.vector()`` to position
    row[i] under ``relabeling_at(c)``: (a, b) of table (k, l) goes to
    (pa_k[a], pb_l[b]), and singles move the same way."""
    # int8 throughout: every position is below 48, and the table stays small
    images = np.array(PERMUTATIONS, dtype=np.int8) - 1
    # image[o]: images of the permutation of observable o (A1, A2, B1, B2),
    # varying along axis o of the 6^4 grid of relabelings
    image = [images[axis] for axis in np.indices((6,) * 4, sparse=True)]
    joint = np.empty((6,) * 4 + (2, 2, 3, 3), dtype=np.int8)
    for k, l in itertools.product(range(2), range(2)):
        rows, cols = image[k][..., :, None], image[2 + l][..., None, :]
        joint[..., k, l, :, :] = 9 * (2 * k + l) + 3 * rows + cols
    singles = np.empty((6,) * 4 + (4, 3), dtype=np.int8)
    for o in range(4):
        singles[..., o, :] = 36 + 3 * o + image[o]
    dest = np.concatenate([joint.reshape(-1, 36), singles.reshape(-1, 12)], axis=1)
    dest.setflags(write=False)
    return dest


# rows in itertools.product(PERMUTATIONS, repeat=4) order, A1 most significant
RELABEL_DESTINATIONS = _relabel_destinations()


def relabeling_at(row: int) -> tuple:
    """The relabeling (pa1, pa2, pb1, pb2) of a row of RELABEL_DESTINATIONS."""
    return tuple(PERMUTATIONS[i] for i in np.unravel_index(row, (6,) * 4))


def _destinations(relabel) -> np.ndarray:
    """The row of ``RELABEL_DESTINATIONS`` of a validated relabeling."""
    choice = [PERMUTATIONS.index(perm) for perm in relabel]
    return RELABEL_DESTINATIONS[np.ravel_multi_index(choice, (6,) * 4)]


def apply_relabeling(exp: ExperimentProbabilities, relabel) -> ExperimentProbabilities:
    """Rename outcomes of each observable consistently across all tables.

    With perms (pa1, pa2, pb1, pb2), entry (a, b) of table (k, l) moves to
    (pa_k[a], pb_l[b]), and singles entries move the same way.
    """
    vec = np.empty(48)
    vec[_destinations(_validate_relabeling(relabel))] = exp.vector()
    # a permutation of entries that exp's constructor has already checked
    return ExperimentProbabilities._adopt(vec)


def mix_with_noise(exp: ExperimentProbabilities, noise: float) -> ExperimentProbabilities:
    """Admix a fraction ``noise`` of ``FLAT_VECTOR``: every joint entry
    moves toward 1/9 and every single toward 1/3, so the result is
    no-signaling whenever ``exp`` is. Uniform singles stay uniform."""
    noise = _check_noise(noise)
    vec = (1.0 - noise) * exp.vector() + noise / _OUTCOME_COUNTS
    return ExperimentProbabilities(*_views(vec))


def experiment_probabilities(
    settings: PhaseSettings, noise: float = 0.0
) -> ExperimentProbabilities:
    """Joint tables and singles for all four setting pairs, relabeled per
    ``settings.relabel``."""
    noise = _check_noise(noise)
    u = _observable_unitaries(np.concatenate([settings.alice, settings.bob]))
    # _born_rule's vector is fresh and range-checked
    exp = ExperimentProbabilities._adopt(_born_rule(u[:2], u[2:], noise))
    if settings.relabel == IDENTITY_RELABELING:
        return exp
    return apply_relabeling(exp, settings.relabel)


@functools.cache
def _fourier_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies K (25, 12) in {-1, 0, 1}, coefficients C (25, 36), the
    4 rows with K = 1 per phase, and C as a contiguous real (50, 36) stack
    of rows Re C_t, -Im C_t: joint j is Re sum_t C_tj exp(i K_t . phases).

    Entry (a, b) of table (k, l) is |sum_m T_m|^2 with T_m = tritter[a, m]
    tritter[b, m] exp(i (alpha_km + beta_lm)) / sqrt(3). Its terms
    T_m conj(T_n) with m != n take one row each, and those with m = n add
    up to the constant row 0.
    """
    terms = (_TRITTER[:, None] * _TRITTER[None]).reshape(9, 3) / _SQRT3
    frequencies, coefficients = np.zeros((25, 12)), np.zeros((25, 4, 9), dtype=complex)
    coefficients[0] = np.sum(np.abs(terms) ** 2, axis=1)
    pairs = itertools.product(range(2), range(2), itertools.permutations(range(3), 2))
    for row, (k, l, (m, n)) in enumerate(pairs, start=1):
        frequencies[row, [3 * k + m, 6 + 3 * l + m]] = 1.0
        frequencies[row, [3 * k + n, 6 + 3 * l + n]] = -1.0
        coefficients[row, 2 * k + l] = terms[:, m] * terms[:, n].conj()
    rows = np.nonzero(frequencies.T == 1.0)[1].reshape(12, 4)
    coefficients = coefficients.reshape(25, 36)
    stacked = np.stack([coefficients.real, -coefficients.imag], axis=1).reshape(50, 36)
    tables = (frequencies, coefficients, rows, stacked)
    for table in tables:
        table.setflags(write=False)
    return tables


def _fourier_kernel(phases: np.ndarray):
    """The 36 joints of the box at 12 raw phases (alice's, then bob's) from
    ``_fourier_table``, Re sum_t E_t C_t with E = exp(i K phases),
    range-checked, with the derivatives of their weighted sums and their
    first harmonics along each raw phase.

    For 36 weights w, or a stack of them, w @ joints is Re sum_t c_t with
    c = (C w) E; ``derivatives(w)`` returns its gradient -K^T Im c and
    Hessian -K^T diag(Re c) K. Along raw phase i, w @ joints is
    A + Re(H e^{it}), H the sum of 2 E_t (C w)_t over the 4 rows with
    K_ti = 1; ``harmonic(i, C @ W)`` returns the H of every column of W.
    """
    if not np.isfinite(phases).all():
        raise ValueError("phases must be finite")
    frequencies, coefficients, rows, stacked = _fourier_table()
    phasors = np.exp(1j * (frequencies @ phases))
    # pairs (Re E_t, Im E_t) against the rows (Re C_t, -Im C_t)
    joints = _clamp01(phasors.view(float) @ stacked)

    def derivatives(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # column vectors, so that each weight of a stack takes the same path
        terms = (coefficients @ weights[..., None])[..., 0] * phasors
        hessian = (frequencies.T * terms.real[..., None, :]) @ frequencies
        return -(frequencies.T @ terms.imag[..., None])[..., 0], -hessian

    def harmonic(index: int, product: np.ndarray) -> np.ndarray:
        return 2.0 * (phasors[rows[index]] @ product[rows[index]])

    return joints, derivatives, harmonic


def _kernel_box(joints: np.ndarray) -> ExperimentProbabilities:
    """The box of ``_fourier_kernel``'s joints, whose singles are exactly
    1/3 on the maximally entangled state: a fresh 48-entry copy, adopted
    without a scan, since the joints are range-checked already."""
    return ExperimentProbabilities._adopt(np.concatenate([joints, FLAT_VECTOR[36:]]))


def find_matching_relabeling(
    computed: ExperimentProbabilities, target: ExperimentProbabilities
) -> tuple | None:
    """Search all 6^4 outcome relabelings for one mapping ``computed`` onto
    ``target``.

    Returns the first matching 4-tuple of permutations in lexicographic order
    (A1 most significant), or None when no relabeling reconciles the two sets
    of joint tables within ``MATCH_TOL``.
    """
    moved = target.tables.ravel()[RELABEL_DESTINATIONS[:, :36]]
    gaps = np.max(np.abs(moved - computed.tables.ravel()), axis=1)
    matches = np.flatnonzero(gaps <= MATCH_TOL)
    return relabeling_at(matches[0]) if matches.size else None
