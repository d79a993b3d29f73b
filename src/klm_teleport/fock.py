"""Sparse multimode photon-number states.

Basis states are occupation tuples, one nonnegative photon count per mode,
ordered lexicographically.  A pure state is a sparse map from occupation
tuples to complex amplitudes.  All operations are pure functions; states are
treated as immutable values.

Photon counting measures the leading modes, so a detection pattern and its
conditional state are a prefix and a suffix slice of each occupation.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

Occupation = tuple[int, ...]

#: Amplitudes below this magnitude are dropped when canonicalizing a state.
PRUNE_EPS = 1e-15
#: Measurement outcomes below this probability are omitted from results.
OUTCOME_EPS = 1e-15
#: Tolerance for normalization invariants.
NORM_TOL = 1e-12
#: Deviation from unit norm that an input state or coefficient vector may carry.
STATE_NORM_TOL = 1e-9


def checked_count(name: str, value: int, low: int = 1, high: int | None = None) -> int:
    """``value`` as a plain int; ``ValueError`` unless it is an integer in low..high.

    The one rule for every size and count the package takes: photon counts,
    resource sizes, outcomes, restarts, samples, seeds, the coefficient
    file's ``"n"`` and the oracle limits.  ``bool`` and every non-integer,
    NaN and inf included, are refused; numpy integers pass.  ``high=None``
    leaves the count unbounded above.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")
    return value


def _checked_fsum(squares: Iterable[float], what: str) -> float:
    """``fsum`` of squared magnitudes; ``ValueError`` naming ``what`` if it overflows a float."""
    try:
        return math.fsum(squares)
    except OverflowError:
        raise ValueError(f"{what} norm overflows a float") from None


def squared_norm(amplitudes: Iterable[complex], what: str) -> float:
    """``fsum`` of |a|^2; ``ValueError`` naming ``what`` if it overflows a float."""
    return _checked_fsum((abs(a) ** 2 for a in amplitudes), what)


def _require_unit_norm(square: float) -> float:
    """``square`` back, or ``ValueError`` unless its root is within ``STATE_NORM_TOL`` of 1.

    The one normalization rule for states: ``PureState.require_normalized``
    and :func:`measure_photon_counts` apply it.
    """
    dev = abs(math.sqrt(square) - 1.0)
    if not dev <= STATE_NORM_TOL:
        raise ValueError(f"state is not normalized (|norm - 1| = {dev:.3e})")
    return square


def _significant(terms: Iterable[tuple[Occupation, complex]]) -> dict[Occupation, complex]:
    """Amplitude map without entries of magnitude <= ``PRUNE_EPS``; NaN or inf raises."""
    cleaned = {}
    inf = math.inf
    for occ, a in terms:
        size = abs(a)
        if PRUNE_EPS < size < inf:
            cleaned[occ] = complex(a)
        elif not size <= PRUNE_EPS:
            raise ValueError(f"amplitude {a!r} of occupation {occ} is not finite")
    return cleaned


@dataclass(frozen=True)
class PureState:
    """Sparse multimode pure state: occupation tuple -> complex amplitude.

    The constructor stores the mode count and every photon count as the
    ``int`` that :func:`checked_count` returns for a nonnegative integer and
    refuses any other, an occupation of the wrong length and a NaN or
    infinite amplitude.  Zero amplitudes are kept out of the map by the
    constructors below; ``mode_count == 0`` describes the fully measured
    remainder, key ``()``.
    """

    mode_count: int
    amplitudes: dict[Occupation, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        modes = checked_count("mode count", self.mode_count, 0)
        amplitudes = {}
        for occ, amp in self.amplitudes.items():
            if len(occ) != modes:
                raise ValueError(f"occupation {occ} does not match mode count {modes}")
            counts = tuple(checked_count(f"photon count in occupation {occ}", k, 0) for k in occ)
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude {amp!r} of occupation {occ} is not finite")
            amplitudes[counts] = amp
        object.__setattr__(self, "mode_count", modes)
        object.__setattr__(self, "amplitudes", amplitudes)

    @classmethod
    def _derived(cls, mode_count: int, amplitudes: dict[Occupation, complex]) -> "PureState":
        """State whose occupations the engine derived from an already-checked state.

        Skips ``__post_init__``: every key has ``mode_count`` nonnegative
        entries by construction and every amplitude is finite.  Internal only;
        input from outside the package goes through the public constructor.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "mode_count", mode_count)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @classmethod
    def basis_state(cls, occupation: Iterable[int]) -> "PureState":
        occ = tuple(occupation)
        return cls(len(occ), {occ: 1.0 + 0j})

    @classmethod
    def from_terms(cls, mode_count: int, terms: dict[Occupation, complex]) -> "PureState":
        """Build a state from a raw amplitude map, dropping negligible entries.

        A NaN or infinite amplitude raises ``ValueError``; it is never dropped.
        """
        return cls(mode_count, _significant(terms.items()))

    def amplitude(self, occupation: Iterable[int]) -> complex:
        return self.amplitudes.get(tuple(occupation), 0j)

    def norm(self) -> float:
        return math.sqrt(squared_norm(self.amplitudes.values(), "state"))

    def require_normalized(self) -> float:
        """The squared norm, which :func:`_require_unit_norm` has accepted."""
        return _require_unit_norm(squared_norm(self.amplitudes.values(), "state"))


def tensor(left: PureState, right: PureState) -> PureState:
    """Tensor product; the right factor's modes are appended after the left's."""
    combined: dict[Occupation, complex] = {}
    for occ_l, amp_l in left.amplitudes.items():
        for occ_r, amp_r in right.amplitudes.items():
            combined[occ_l + occ_r] = amp_l * amp_r
    return PureState._derived(left.mode_count + right.mode_count, _significant(combined.items()))


class MeasurementOutcome(NamedTuple):
    pattern: Occupation
    probability: float
    conditional: PureState


def measure_photon_counts(state: PureState, measured: int) -> list[MeasurementOutcome]:
    """Project the first ``measured`` modes (1..mode_count) onto photon-count patterns.

    Returns (pattern, probability, conditional state on the later modes)
    sorted by pattern, omitting patterns with probability below
    ``OUTCOME_EPS``.  Conditional amplitudes keep their phases, so
    recombining sqrt(probability) * pattern x conditional reconstructs the
    input state exactly.  An unnormalized state raises ``ValueError`` by the
    rule of ``PureState.require_normalized``, applied to the ``fsum`` of the
    patterns' probabilities (the squared norm, up to their rounding), so no
    second pass over the amplitudes is made.  Each pattern's branch is a new
    map, scaled in place; the input state is never touched.
    """
    measured = checked_count("measured mode count", measured, 1, state.mode_count)

    grouped: dict[Occupation, dict[Occupation, complex]] = {}
    for occ, amp in state.amplitudes.items():
        pattern = occ[:measured]
        branch = grouped.get(pattern)
        if branch is None:
            branch = grouped[pattern] = {}
        branch[occ[measured:]] = amp

    kept = state.mode_count - measured
    probabilities = []
    outcomes: list[MeasurementOutcome] = []
    for pattern in sorted(grouped):
        branch = grouped[pattern]
        prob = squared_norm(branch.values(), "state")
        probabilities.append(prob)
        if prob < OUTCOME_EPS:
            continue
        scale = 1.0 / math.sqrt(prob)
        for occ, a in branch.items():
            branch[occ] = a * scale
        outcomes.append(MeasurementOutcome(pattern, prob, PureState._derived(kept, branch)))
    _require_unit_norm(_checked_fsum(probabilities, "state"))
    return outcomes


def _require_unit_pair(alpha: complex, beta: complex) -> None:
    """``ValueError`` unless both are finite and |alpha|^2 + |beta|^2 is within ``NORM_TOL`` of 1.

    The invariant of :class:`QubitAmplitudes`, checked for every pair that
    claims to be a qubit, whether or not it becomes one.
    """
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError("qubit amplitudes must be finite")
    try:
        dev = abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0)
    except OverflowError:
        raise ValueError("qubit norm overflows a float") from None
    if dev > NORM_TOL:
        raise ValueError(f"qubit amplitudes are not normalized (deviation {dev:.3e})")


def _unit_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """(alpha, beta) divided by their norm, held to :func:`_require_unit_pair`.

    The one normalization of a qubit: ``QubitAmplitudes.from_unnormalized``
    builds on it, and the oracles' reconciliation calls it per pattern without
    building a ``QubitAmplitudes``.  ``ValueError`` unless |alpha|^2 +
    |beta|^2 is a normal float: it overflows, underflows, or the pair is zero.
    """
    try:
        square = abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        square = math.inf
    if math.isinf(square):
        raise ValueError("qubit norm overflows a float")
    if square < sys.float_info.min:
        if alpha or beta:
            raise ValueError("qubit norm underflows a float")
        raise ValueError("zero vector cannot define a qubit")
    nrm = math.sqrt(square)
    alpha, beta = alpha / nrm, beta / nrm
    _require_unit_pair(alpha, beta)
    return alpha, beta


def _pair_fidelity(
    alpha: complex, beta: complex, other_alpha: complex, other_beta: complex
) -> float:
    """|conj(alpha) other_alpha + conj(beta) other_beta|^2, the overlap of two qubits.

    The one fidelity formula: ``QubitAmplitudes.fidelity_with`` and the
    oracles' per-pattern check both take it.
    """
    overlap = alpha.conjugate() * other_alpha + beta.conjugate() * other_beta
    return abs(overlap) ** 2


@dataclass(frozen=True)
class QubitAmplitudes:
    """Logical qubit amplitudes; the encoding (vacuum/photon or H/V) is contextual."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        _require_unit_pair(self.alpha, self.beta)

    @classmethod
    def from_unnormalized(cls, alpha: complex, beta: complex) -> "QubitAmplitudes":
        """Divide by the norm (:func:`_unit_pair`), refusing a square that is no normal float."""
        return cls(*_unit_pair(alpha, beta))

    @classmethod
    def haar_random(cls, rng: np.random.Generator) -> "QubitAmplitudes":
        z = rng.normal(size=4)
        return cls.from_unnormalized(z[0] + 1j * z[1], z[2] + 1j * z[3])

    def fidelity_with(self, other: "QubitAmplitudes") -> float:
        return _pair_fidelity(self.alpha, self.beta, other.alpha, other.beta)
