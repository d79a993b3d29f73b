"""Sparse multimode photon-number states.

Basis states are occupation tuples, one nonnegative photon count per mode,
ordered lexicographically.  A pure state is a sparse map from occupation
tuples to complex amplitudes.  All operations are pure functions; states are
treated as immutable values.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

import numpy as np

Occupation = tuple[int, ...]

#: Amplitudes below this magnitude are dropped when canonicalizing a state.
PRUNE_EPS = 1e-15
#: Measurement outcomes below this probability are omitted from results.
OUTCOME_EPS = 1e-15
#: Tolerance for normalization invariants.
NORM_TOL = 1e-12
#: Deviation from unit norm that ``PureState.require_normalized`` accepts.
STATE_NORM_TOL = 1e-9


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

    The constructor refuses an occupation of the wrong length, a negative
    photon count and a NaN or infinite amplitude.  Zero amplitudes are kept
    out of the map by the constructors below; ``mode_count == 0`` is allowed
    and describes the trivial (fully measured) remainder with the single key
    ``()``.
    """

    mode_count: int
    amplitudes: dict[Occupation, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode_count < 0:
            raise ValueError("mode count must be nonnegative")
        for occ, amp in self.amplitudes.items():
            if len(occ) != self.mode_count:
                raise ValueError(f"occupation {occ} does not match mode count {self.mode_count}")
            if any(k < 0 for k in occ):
                raise ValueError(f"negative photon count in occupation {occ}")
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude {amp!r} of occupation {occ} is not finite")

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
        occ = tuple(int(k) for k in occupation)
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
        return math.sqrt(math.fsum(abs(a) ** 2 for a in self.amplitudes.values()))

    def require_normalized(self) -> None:
        dev = abs(self.norm() - 1.0)
        if not dev <= STATE_NORM_TOL:
            raise ValueError(f"state is not normalized (|norm - 1| = {dev:.3e})")


def tensor(left: PureState, right: PureState) -> PureState:
    """Tensor product; the right factor's modes are appended after the left's."""
    combined: dict[Occupation, complex] = {}
    for occ_l, amp_l in left.amplitudes.items():
        for occ_r, amp_r in right.amplitudes.items():
            combined[occ_l + occ_r] = amp_l * amp_r
    return PureState._derived(left.mode_count + right.mode_count, _significant(combined.items()))


def _picker(indices: list[int]) -> Callable[[Occupation], Occupation]:
    """Occupation -> the tuple of its entries at ``indices`` (ascending, distinct)."""
    if not indices:
        return lambda occ: ()
    first, last = indices[0], indices[-1]
    if last - first + 1 == len(indices):
        # One contiguous run: a tuple slice, which is a tuple even for one entry.
        return itemgetter(slice(first, last + 1))
    return itemgetter(*indices)


class MeasurementOutcome(NamedTuple):
    pattern: Occupation
    probability: float
    conditional: PureState


def measure_photon_counts(
    state: PureState,
    measured_modes: Iterable[int],
) -> list[MeasurementOutcome]:
    """Project onto photon-count patterns of a subset of modes.

    Returns (pattern, probability, conditional state on the remaining modes)
    sorted by pattern, omitting patterns with probability below
    ``OUTCOME_EPS``.  Conditional amplitudes keep their phases, so
    recombining sqrt(probability) * pattern x conditional reconstructs the
    input state exactly.
    """
    modes = sorted({int(i) for i in measured_modes})
    if not modes:
        raise ValueError("measured mode set must be non-empty")
    if modes[0] < 0 or modes[-1] >= state.mode_count:
        raise ValueError(f"measured modes {modes} out of range for {state.mode_count} modes")
    state.require_normalized()
    mset = set(modes)
    keep = [i for i in range(state.mode_count) if i not in mset]
    pattern_of, rest_of = _picker(modes), _picker(keep)

    grouped: dict[Occupation, dict[Occupation, complex]] = {}
    for occ, amp in state.amplitudes.items():
        grouped.setdefault(pattern_of(occ), {})[rest_of(occ)] = amp

    outcomes: list[MeasurementOutcome] = []
    for pattern in sorted(grouped):
        branch = grouped[pattern]
        prob = math.fsum([abs(a) ** 2 for a in branch.values()])
        if prob < OUTCOME_EPS:
            continue
        scale = 1.0 / math.sqrt(prob)
        conditional = PureState._derived(len(keep), {occ: a * scale for occ, a in branch.items()})
        outcomes.append(MeasurementOutcome(pattern, prob, conditional))
    return outcomes


@dataclass(frozen=True)
class QubitAmplitudes:
    """Logical qubit amplitudes; the encoding (vacuum/photon or H/V) is contextual."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise ValueError("qubit amplitudes must be finite")
        dev = abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0)
        if dev > NORM_TOL:
            raise ValueError(f"qubit amplitudes are not normalized (deviation {dev:.3e})")

    @classmethod
    def from_unnormalized(cls, alpha: complex, beta: complex) -> "QubitAmplitudes":
        """Divide by the norm; raises unless |alpha|^2 + |beta|^2 is a normal float."""
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
        return cls(alpha / nrm, beta / nrm)

    @classmethod
    def haar_random(cls, rng: np.random.Generator) -> "QubitAmplitudes":
        z = rng.normal(size=4)
        return cls.from_unnormalized(z[0] + 1j * z[1], z[2] + 1j * z[3])

    def fidelity_with(self, other: "QubitAmplitudes") -> float:
        overlap = self.alpha.conjugate() * other.alpha + self.beta.conjugate() * other.beta
        return abs(overlap) ** 2
