"""Probabilistic amplitude correction and the total success probability.

A success outcome m leaves (alpha c_m, beta c_{m-1}) / sqrt(p(m)).  The ratio
c_{m-1}/c_m distorts the qubit; a two-element POVM restores it with
probability min(|c_{m-1}|^2, |c_m|^2) / p(m), attenuating whichever branch is
too strong.  Summed over m, the joint success probability is input-independent:

    p(S) = sum_{m=1}^{n} min(|c_{m-1}|^2, |c_m|^2),

i.e. the sum of adjacent-pair minima of the weight sequence.  For sequences
with no equal adjacent weights this telescopes into an extrema formula:

    p(S) = 1 - sum(maxima) + sum(interior minima),

where endpoint maxima count but endpoint minima never do.  The brute pairwise
sum is the ground truth; the extrema route refuses plateaued sequences rather
than guess (PlateauError).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import QubitAmplitudes
from .optics import require_unitary
from .teleport import ResourceCoefficients, checked_weights


class PlateauError(ValueError):
    """Extrema classification is ambiguous: two adjacent weights are exactly equal."""


@dataclass(frozen=True)
class KrausPair:
    """Success/failure operation elements for outcome m, in the logical basis;
    stacked, their Gram product is the closure, held to ``optics.require_unitary``."""

    success: np.ndarray
    failure: np.ndarray
    m: int

    def __post_init__(self) -> None:
        for name in ("success", "failure"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            if mat.shape != (2, 2):
                raise ValueError(f"{name} element must be 2x2, got {mat.shape}")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        require_unitary(np.vstack([self.success, self.failure]))


def kraus_for(m: int, rc: ResourceCoefficients) -> KrausPair:
    """Correction elements for success outcome m.

    The stronger branch is attenuated down to the weaker one's modulus; the
    weaker branch passes untouched.  Relative phase arg(c_{m-1}) - arg(c_m)
    rides along in the attenuation factor, so the success element maps the
    conditional state exactly onto (alpha, beta) up to normalization.
    """
    c_prev, c_here = rc.success_pair(m)
    if abs(c_prev) <= abs(c_here):
        ratio = c_prev / c_here
        success = np.diag([ratio, 1.0])
        failure = np.diag([math.sqrt(1.0 - abs(ratio) ** 2), 0.0])
    else:
        ratio = c_here / c_prev
        success = np.diag([1.0, ratio])
        failure = np.diag([0.0, math.sqrt(1.0 - abs(ratio) ** 2)])
    return KrausPair(success=success, failure=failure, m=m)


def p_success_given_m(
    m: int, rc: ResourceCoefficients, qubit: QubitAmplitudes
) -> float:
    """Conditional probability that the correction for success outcome m succeeds."""
    c_prev, c_here = rc.success_pair(m)
    p_m = abs(qubit.alpha * c_here) ** 2 + abs(qubit.beta * c_prev) ** 2
    if p_m == 0.0:
        raise ValueError(f"outcome m={m} never occurs for this input")
    return min(abs(c_prev) ** 2, abs(c_here) ** 2) / p_m


def adjacent_minima_sum(weights: Sequence[float]) -> float:
    """sum_m min(w_{m-1}, w_m), the brute-force total success probability."""
    ws = checked_weights(weights)
    return math.fsum(min(a, b) for a, b in zip(ws, ws[1:]))


@dataclass(frozen=True)
class ExtremaClassification:
    """Local maxima and interior local minima of a weight sequence.

    ``strict`` is False when some adjacent pair is exactly equal, in which
    case the index sets are unreliable and the extrema formula must refuse.
    Endpoints can be maxima but are never counted as minima.
    """

    maxima: tuple[int, ...]
    interior_minima: tuple[int, ...]
    strict: bool


def classify_sequence(weights: Sequence[float]) -> ExtremaClassification:
    ws = checked_weights(weights)
    strict = all(a != b for a, b in zip(ws, ws[1:]))
    maxima = []
    minima = []
    last = len(ws) - 1
    for i, w in enumerate(ws):
        left = ws[i - 1] if i > 0 else None
        right = ws[i + 1] if i < last else None
        above_left = left is None or w > left
        above_right = right is None or w > right
        if above_left and above_right:
            maxima.append(i)
        if 0 < i < last and w < ws[i - 1] and w < ws[i + 1]:
            minima.append(i)
    return ExtremaClassification(tuple(maxima), tuple(minima), strict)


def extrema_formula(weights: Sequence[float]) -> float:
    """p(S) = 1 - sum(maxima) + sum(interior minima); strict sequences only."""
    ws = checked_weights(weights)
    cls = classify_sequence(ws)
    if not cls.strict:
        raise PlateauError(
            "adjacent weights are exactly equal; the extrema formula does not apply"
        )
    total = math.fsum(ws)
    peak_sum = math.fsum(ws[i] for i in cls.maxima)
    valley_sum = math.fsum(ws[i] for i in cls.interior_minima)
    return total - peak_sum + valley_sum
