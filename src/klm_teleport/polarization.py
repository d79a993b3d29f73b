"""Polarization-encoded variant of the protocol and its physical correction circuit.

Here every rail carries exactly one photon and the logic lives in its
polarization.  The encoding is the dual-rail image of the number encoding
(Knill, Laflamme & Milburn, Nature 409, 46 (2001)): on every rail, 0 photons
becomes |H> and 1 photon becomes |V> (:func:`dual_rail`), so a spatial mode
contributes two Fock slots, ``slot_index(mode, H)`` and ``slot_index(mode, V)``,
and the (n+1)-point Fourier transform F becomes F (x) 1 on the measured modes.
Polarization-resolving counters then report the detected vertical total m,
which plays exactly the role of the photon count in the number-encoded
protocol.

The amplitude correction becomes a small optical circuit: a polarizing beam
splitter separates the two logical components, a second splitter rotated by
theta = arccos of the weaker-to-stronger coefficient ratio diverts excess
amplitude toward a detector, a phase plate removes arg(c_{m-1}) - arg(c_m),
and a polarization rotation restores the split component to the H/V basis.
No click at the detector leaves the input qubit, exactly, on two rails.
Every device is a linear-optical mode transformation, so each one is a slot
unitary (H slot, then V slot, per rail) and the circuit is their product
(Reck et al., PRL 73, 58 (1994)), evolved by the same ``optics.apply`` that
runs both oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import add
from typing import Mapping, NamedTuple

import numpy as np

from . import optics
from .fock import Occupation, PureState, QubitAmplitudes, measure_photon_counts, tensor
from .optics import ModeUnitary, apply, embed, fourier_unitary
from .teleport import (
    OracleMismatchError,
    ResourceCoefficients,
    TeleportOutcome,
    build_resource_state,
    fourier_phase,
    gc_paused,
    number_branches,
    qubit_state,
    reconcile_outcomes,
    run_analytic,
)

HORIZONTAL = "H"
VERTICAL = "V"

#: Largest n for which the polarization oracle runs.
POLARIZATION_ORACLE_LIMIT = 5


def slot_index(mode: int, polarization: str) -> int:
    """Fock slot of a (spatial mode, polarization) pair: H first, then V."""
    if polarization == HORIZONTAL:
        return 2 * mode
    if polarization == VERTICAL:
        return 2 * mode + 1
    raise ValueError(f"polarization must be {HORIZONTAL!r} or {VERTICAL!r}, got {polarization!r}")


def _dual(occupation: Occupation) -> Occupation:
    """Slot occupation of a rail occupation: k photons become the pair (1-k, k)."""
    if any(k > 1 for k in occupation):
        raise ValueError(f"dual-rail encoding needs at most one photon per mode, got {occupation}")
    return tuple(slot for k in occupation for slot in (1 - k, k))


def dual_rail(state: PureState) -> PureState:
    """Polarization image of a number-encoded state: on each rail 0 -> |H>, 1 -> |V>.

    Amplitudes and their order are kept; more than one photon in a mode raises.
    """
    return PureState._derived(
        2 * state.mode_count, {_dual(o): a for o, a in state.amplitudes.items()}
    )


@dataclass(frozen=True)
class PolarizedPhotonState:
    """Photon state over ``spatial_modes`` rails, two slots per rail."""

    spatial_modes: int
    state: PureState

    def __post_init__(self) -> None:
        if self.state.mode_count != 2 * self.spatial_modes:
            raise ValueError(
                f"state has {self.state.mode_count} slots; "
                f"{self.spatial_modes} spatial modes need {2 * self.spatial_modes}"
            )

    @classmethod
    def single_photon(
        cls,
        spatial_modes: int,
        amplitudes: Mapping[int, tuple[complex, complex]],
    ) -> "PolarizedPhotonState":
        """One photon spread over rails: mode -> (horizontal, vertical) amplitude."""
        slots = 2 * spatial_modes
        terms: dict[Occupation, complex] = {}
        for mode, (amp_h, amp_v) in amplitudes.items():
            if not 0 <= mode < spatial_modes:
                raise ValueError(f"mode {mode} out of range for {spatial_modes} rails")
            terms[_unit_occupation(slots, slot_index(mode, HORIZONTAL))] = amp_h
            terms[_unit_occupation(slots, slot_index(mode, VERTICAL))] = amp_v
        return cls(spatial_modes, PureState.from_terms(slots, terms))

    def single_photon_amplitude(self, mode: int, polarization: str) -> complex:
        """Amplitude of the lone photon sitting at (mode, polarization)."""
        if not 0 <= mode < self.spatial_modes:
            raise ValueError(f"mode {mode} out of range for {self.spatial_modes} rails")
        slots = 2 * self.spatial_modes
        return self.state.amplitude(_unit_occupation(slots, slot_index(mode, polarization)))

    def mode_amplitudes(self, mode: int) -> tuple[complex, complex]:
        return (
            self.single_photon_amplitude(mode, HORIZONTAL),
            self.single_photon_amplitude(mode, VERTICAL),
        )


def _unit_occupation(slots: int, slot: int) -> Occupation:
    return (0,) * slot + (1,) + (0,) * (slots - slot - 1)


def _rail(mode: int) -> slice:
    """The rail's two adjacent slots, H then V."""
    return slice(slot_index(mode, HORIZONTAL), slot_index(mode, VERTICAL) + 1)


def _rotator(mat: np.ndarray, mode: int, theta: float) -> np.ndarray:
    """Left-multiply slot matrix ``mat``, in place, by [[cos, -sin], [sin, cos]] on ``mode``."""
    if theta == 0:
        # The identity, as at every rotation of the theta = 0 splitter.
        return mat
    rows = _rail(mode)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    mat[rows] = np.array([[cos_t, -sin_t], [sin_t, cos_t]]) @ mat[rows]
    return mat


def _phase_plate(mat: np.ndarray, mode: int, phase: complex) -> np.ndarray:
    """Left-multiply slot matrix ``mat``, in place, by ``phase`` on both slots of rail ``mode``."""
    mat[_rail(mode)] *= phase
    return mat


@dataclass(frozen=True)
class RotatedPBS:
    """Polarizing beam splitter rotated by ``theta``, with named output rails.

    The splitter reflects the polarization (cos t, -sin t) and transmits the
    orthogonal (sin t, cos t); at theta = 0 it reflects H and transmits V.
    A photon at ``input_mode`` with amplitudes (h, v) leaves as

        reflect:  (cos t * h - sin t * v)  carrying (cos t, -sin t),
        transmit: (sin t * h + cos t * v)  carrying (sin t, cos t).

    The device is a slot unitary (see ``_compose``).
    """

    theta: float
    input_mode: int
    reflect_mode: int
    transmit_mode: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError(f"splitter angle must be finite, got {self.theta!r}")
        modes = (self.input_mode, self.reflect_mode, self.transmit_mode)
        if len(set(modes)) != 3 or any(m < 0 for m in modes):
            raise ValueError(f"splitter rails must be distinct and nonnegative, got {modes}")

    def reflected_polarization(self) -> tuple[float, float]:
        return (math.cos(self.theta), -math.sin(self.theta))

    def transmitted_polarization(self) -> tuple[float, float]:
        return (math.sin(self.theta), math.cos(self.theta))

    def _compose(self, mat: np.ndarray) -> np.ndarray:
        """Left-multiply slot matrix ``mat``, in place, by the splitter's slot unitary.

        R(theta) on the input rail turns the reflected polarization into H and
        the transmitted one into V, the swaps in_H <-> reflect_H and
        in_V <-> transmit_V send each to its arm, and R(-theta) on both output
        rails restores the polarization it carries.
        """
        _rotator(mat, self.input_mode, self.theta)
        for rail, pol in ((self.reflect_mode, HORIZONTAL), (self.transmit_mode, VERTICAL)):
            a, b = slot_index(self.input_mode, pol), slot_index(rail, pol)
            mat[a], mat[b] = mat[b].copy(), mat[a].copy()
        _rotator(mat, self.reflect_mode, -self.theta)
        return _rotator(mat, self.transmit_mode, -self.theta)

def run_oracle_polarization(
    rc: ResourceCoefficients, qubit: QubitAmplitudes
) -> list[TeleportOutcome]:
    """Exact slot-space simulation of the polarization protocol.

    The dual rail of the number-encoded input x resource passes the doubled
    Fourier transform F (x) 1 on rails 0..n.  Every measured slot is counted,
    ``read`` refuses a pattern that does not detect all n+1 photons, and
    :func:`reconcile_outcomes` checks the patterns, grouped by their vertical
    total m, against the dual rail of the number-encoded branch occupations.
    The corrective phase is a formula of the pattern, never read from the
    simulated amplitudes: logical H enters the H slots on rails {0, m+1..n}
    and the V slots on rails 1..m, logical V enters on rails m..n and
    0..m-1, so in each polarization the two branches are one cyclic shift
    apart and the phase is ``fourier_phase`` of the per-rail totals h_l + v_l.
    """
    n = rc.n
    if n > POLARIZATION_ORACLE_LIMIT:
        raise ValueError(
            f"polarization oracle limited to n <= {POLARIZATION_ORACLE_LIMIT} "
            f"(requested n={n})"
        )
    branches = [tuple(_dual(occ) for occ in number_branches(n, m)) for m in range(n + 2)]
    # Outcomes whose law has a single branch take no phase.
    one_branch = [
        qubit.alpha == 0 or qubit.beta == 0 or rc.at(m) == 0 or rc.at(m - 1) == 0
        for m in range(n + 2)
    ]

    def read(pattern: Occupation):
        if sum(pattern) != n + 1:
            raise OracleMismatchError(
                f"pattern {pattern} detected {sum(pattern)} photons, expected {n + 1}"
            )
        m = sum(pattern[1::2])
        return m, branches[m]

    def phase_of(pattern: Occupation, m: int) -> complex:
        if one_branch[m]:
            return 1 + 0j
        return fourier_phase(tuple(map(add, pattern[0::2], pattern[1::2])))

    with gc_paused():
        state = dual_rail(tensor(qubit_state(qubit), build_resource_state(rc)))
        doubled = ModeUnitary(np.kron(fourier_unitary(n + 1).matrix, np.eye(2)))
        transform = embed(doubled, range(2 * (n + 1)), state.mode_count)
        evolved = apply(transform, state)
        measured = measure_photon_counts(evolved, range(2 * (n + 1)))
        return reconcile_outcomes(rc, qubit, measured, read, phase_of)


def teleported_state(
    rc: ResourceCoefficients, qubit: QubitAmplitudes, m: int
) -> PolarizedPhotonState:
    """Conditional single-rail state left by success outcome m."""
    if not 1 <= m <= rc.n:
        raise ValueError(f"success outcomes are 1..{rc.n}, got m={m}")
    conditional = run_analytic(rc, qubit)[m].conditional_qubit
    if conditional is None:
        raise ValueError(f"outcome m={m} never occurs for this input")
    return PolarizedPhotonState.single_photon(1, {0: (conditional.alpha, conditional.beta)})


class CircuitResult(NamedTuple):
    """Outcome of the optical correction circuit for one success event."""

    p_success: float
    recovered: QubitAmplitudes | None
    pre_detection: PolarizedPhotonState
    detector_amplitude: complex
    theta: float


#: Rail numbering inside the correction circuit.
CIRCUIT_RAILS = 5
_DETECTOR_RAIL = 3
_KEPT_RAIL = 4


def correction_circuit(
    m: int, rc: ResourceCoefficients, teleported: PolarizedPhotonState
) -> CircuitResult:
    """Run the post-selection circuit on a teleported single-rail qubit.

    Rail 0 is the input; the first splitter reflects H to rail 1 and transmits
    V to rail 2.  The stronger logical component then meets a splitter rotated
    by theta = arccos(weak/strong) whose discard arm feeds the detector on
    rail 3, while rail 4 keeps the attenuated remainder.  A phase plate on the
    vertical-logic arm removes the coefficient phase difference and a
    polarization rotation on rail 4 restores the H/V basis.  The circuit is
    the product of these devices' slot unitaries, validated once as a single
    10-slot :class:`ModeUnitary` and applied once.  With no click, rails then
    carry the original qubit; the success probability is
    min(|c_{m-1}|^2, |c_m|^2) / p(m).
    """
    if teleported.spatial_modes != 1:
        raise ValueError("teleported state must live on a single rail")
    if not 1 <= m <= rc.n:
        raise ValueError(f"success outcomes are 1..{rc.n}, got m={m}")
    c_here = rc.at(m)
    c_prev = rc.at(m - 1)
    if c_here == 0 and c_prev == 0:
        raise ValueError(f"outcome m={m} never occurs; nothing to correct")

    weight_here = abs(c_here) ** 2
    weight_prev = abs(c_prev) ** 2
    if weight_here <= weight_prev:
        # Horizontal logic is the weak branch; trim the vertical arm.
        theta = math.acos(min(1.0, abs(c_here) / abs(c_prev)))
        trimmer = RotatedPBS(
            theta=theta, input_mode=2, reflect_mode=_DETECTOR_RAIL, transmit_mode=_KEPT_RAIL
        )
        detector_polarization = trimmer.reflected_polarization()
        h_rail, v_rail = 1, _KEPT_RAIL
    else:
        theta = math.acos(min(1.0, abs(c_prev) / abs(c_here)))
        trimmer = RotatedPBS(
            theta=theta, input_mode=1, reflect_mode=_KEPT_RAIL, transmit_mode=_DETECTOR_RAIL
        )
        detector_polarization = trimmer.transmitted_polarization()
        h_rail, v_rail = _KEPT_RAIL, 2

    split = RotatedPBS(theta=0.0, input_mode=0, reflect_mode=1, transmit_mode=2)
    circuit = trimmer._compose(split._compose(np.eye(2 * CIRCUIT_RAILS, dtype=complex)))
    if c_here != 0 and c_prev != 0:
        delta = cmath.phase(c_prev) - cmath.phase(c_here)
        _phase_plate(circuit, v_rail, cmath.exp(-1j * delta))
    _rotator(circuit, _KEPT_RAIL, theta)

    vacuum = PureState.basis_state((0,) * (2 * CIRCUIT_RAILS - 2))
    widened = tensor(teleported.state, vacuum)
    # optics.apply, not this module's ``apply``: bench/tracing.py counts that
    # name as the oracle's evolution.
    state = PolarizedPhotonState(CIRCUIT_RAILS, optics.apply(ModeUnitary(circuit), widened))

    pol_h, pol_v = detector_polarization
    detector_amplitude = (
        pol_h * state.single_photon_amplitude(_DETECTOR_RAIL, HORIZONTAL)
        + pol_v * state.single_photon_amplitude(_DETECTOR_RAIL, VERTICAL)
    )
    alpha_out = state.single_photon_amplitude(h_rail, HORIZONTAL)
    beta_out = state.single_photon_amplitude(v_rail, VERTICAL)
    p_success = abs(alpha_out) ** 2 + abs(beta_out) ** 2
    leak = 1.0 - p_success - abs(detector_amplitude) ** 2
    if abs(leak) > 1e-12:
        raise RuntimeError(f"circuit amplitude leaked outside the qubit arms ({leak:.3e})")

    recovered = None
    if p_success > 0.0:
        recovered = QubitAmplitudes.from_unnormalized(alpha_out, beta_out)
    return CircuitResult(
        p_success=p_success,
        recovered=recovered,
        pre_detection=state,
        detector_amplitude=detector_amplitude,
        theta=theta,
    )
