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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .fock import Occupation, PureState, QubitAmplitudes, measure_photon_counts, tensor
from .optics import ModeUnitary, apply, embed, fourier_unitary
from .teleport import (
    OracleMismatchError,
    ResourceCoefficients,
    TeleportOutcome,
    build_resource_state,
    fourier_phase,
    number_branches,
    qubit_state,
    reconcile_outcomes,
    run_analytic,
)

HORIZONTAL = "H"
VERTICAL = "V"

#: Largest n for which the polarization oracle runs by default.
POLARIZATION_ORACLE_LIMIT = 4


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
    return PureState(2 * state.mode_count, {_dual(o): a for o, a in state.amplitudes.items()})


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
        slots = 2 * self.spatial_modes
        return self.state.amplitude(_unit_occupation(slots, slot_index(mode, polarization)))

    def mode_amplitudes(self, mode: int) -> tuple[complex, complex]:
        return (
            self.single_photon_amplitude(mode, HORIZONTAL),
            self.single_photon_amplitude(mode, VERTICAL),
        )

    def norm(self) -> float:
        return self.state.norm()


def _unit_occupation(slots: int, slot: int) -> Occupation:
    return tuple(1 if i == slot else 0 for i in range(slots))


def _route_photon(
    polarized: PolarizedPhotonState,
    mode: int,
    outputs: Callable[[bool, complex], Iterable[tuple[int, complex]]],
    device: str,
) -> PolarizedPhotonState:
    """Clear rail ``mode`` and put its photon where ``outputs(was_h, amp)`` says.

    Terms without a photon there pass unchanged and exact-zero outputs are
    skipped.  Callers compute the amplitudes themselves, so each one fixes the
    order of its own multiplications.
    """
    h_slot = slot_index(mode, HORIZONTAL)
    v_slot = slot_index(mode, VERTICAL)
    terms: dict[Occupation, complex] = {}
    for occ, amp in polarized.state.amplitudes.items():
        count = occ[h_slot] + occ[v_slot]
        if count == 0:
            terms[occ] = terms.get(occ, 0j) + amp
            continue
        if count > 1:
            raise ValueError(f"{device} model handles at most one photon on its input rail")
        cleared = list(occ)
        cleared[h_slot] = cleared[v_slot] = 0
        for slot, value in outputs(occ[h_slot] == 1, amp):
            if value == 0:
                continue
            target = cleared.copy()
            target[slot] = 1
            key = tuple(target)
            terms[key] = terms.get(key, 0j) + value
    return PolarizedPhotonState(
        polarized.spatial_modes,
        PureState.from_terms(polarized.state.mode_count, terms),
    )


@dataclass(frozen=True)
class RotatedPBS:
    """Polarizing beam splitter rotated by ``theta``, with named output rails.

    The splitter reflects the polarization (cos t, -sin t) and transmits the
    orthogonal (sin t, cos t); at theta = 0 it reflects H and transmits V.
    A photon at ``input_mode`` with amplitudes (h, v) leaves as

        reflect:  (cos t * h - sin t * v)  carrying (cos t, -sin t),
        transmit: (sin t * h + cos t * v)  carrying (sin t, cos t).

    ``apply`` handles arbitrary superpositions with at most one photon on the
    input rail and empty output rails, which is all the correction circuit
    ever produces.
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

    def apply(self, polarized: PolarizedPhotonState) -> PolarizedPhotonState:
        if max(self.input_mode, self.reflect_mode, self.transmit_mode) >= polarized.spatial_modes:
            raise ValueError("splitter rails exceed the state's spatial modes")
        cos_t = math.cos(self.theta)
        sin_t = math.sin(self.theta)
        # Per arm: amplitude factor of an H photon, of a V photon, rail, carried polarization.
        arms = (
            (cos_t, -sin_t, self.reflect_mode, self.reflected_polarization()),
            (sin_t, cos_t, self.transmit_mode, self.transmitted_polarization()),
        )
        out_slots = [
            slot_index(rail, pol)
            for rail in (self.reflect_mode, self.transmit_mode)
            for pol in (HORIZONTAL, VERTICAL)
        ]
        if any(occ[slot] for occ in polarized.state.amplitudes for slot in out_slots):
            raise ValueError("output rails must be empty before the splitter")

        def outputs(was_h: bool, amp: complex):
            for factor_h, factor_v, rail, (pol_h, pol_v) in arms:
                branch = (factor_h if was_h else factor_v) * amp
                yield slot_index(rail, HORIZONTAL), branch * pol_h
                yield slot_index(rail, VERTICAL), branch * pol_v

        return _route_photon(polarized, self.input_mode, outputs, "splitter")


def phase_shift(polarized: PolarizedPhotonState, mode: int, phase: complex) -> PolarizedPhotonState:
    """Multiply every photon on ``mode`` (either polarization) by ``phase``."""
    if not cmath.isfinite(phase) or abs(abs(phase) - 1.0) > 1e-12:
        raise ValueError(f"phase factor must be finite and have unit modulus, got {phase!r}")
    h_slot = slot_index(mode, HORIZONTAL)
    v_slot = slot_index(mode, VERTICAL)
    terms = {
        occ: amp * phase ** (occ[h_slot] + occ[v_slot])
        for occ, amp in polarized.state.amplitudes.items()
    }
    return PolarizedPhotonState(
        polarized.spatial_modes,
        PureState.from_terms(polarized.state.mode_count, terms),
    )


def rotate_polarization(
    polarized: PolarizedPhotonState, mode: int, theta: float
) -> PolarizedPhotonState:
    """Rotate the (H, V) amplitudes on one rail by [[cos, -sin], [sin, cos]]."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    h_slot = slot_index(mode, HORIZONTAL)
    v_slot = slot_index(mode, VERTICAL)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)

    def outputs(was_h: bool, amp: complex):
        return (
            (h_slot, amp * (cos_t if was_h else -sin_t)),
            (v_slot, amp * (sin_t if was_h else cos_t)),
        )

    return _route_photon(polarized, mode, outputs, "rotation")


def build_polarized_resource(rc: ResourceCoefficients) -> PolarizedPhotonState:
    """Resource over 2n rails, one photon each: the dual rail of the number resource.

    Term i polarizes the first i front rails and the last n-i back rails
    vertically, everything else horizontally, weighted by c_i.
    """
    return PolarizedPhotonState(2 * rc.n, dual_rail(build_resource_state(rc)))


def run_oracle_polarization(
    rc: ResourceCoefficients,
    qubit: QubitAmplitudes,
    *,
    limit: int = POLARIZATION_ORACLE_LIMIT,
) -> list[TeleportOutcome]:
    """Exact slot-space simulation of the polarization protocol.

    The dual rail of the number-encoded input x resource passes the doubled
    Fourier transform F (x) 1 on rails 0..n.  Every measured slot is counted,
    and :func:`reconcile_outcomes` checks the patterns, grouped by their
    vertical total m, against the dual rail of the number-encoded branch
    occupations.  The corrective phase is a formula of the pattern, never read
    from the simulated amplitudes: logical H enters the H slots on rails
    {0, m+1..n} and the V slots on rails 1..m, logical V enters on rails m..n
    and 0..m-1, so in each polarization the two branches are one cyclic shift
    apart and the phase is ``fourier_phase`` of the per-rail totals h_l + v_l.
    """
    n = rc.n
    if n > limit:
        raise ValueError(
            f"polarization oracle limited to n <= {limit} (requested n={n}); "
            "raise the limit explicitly to go bigger"
        )
    state = dual_rail(tensor(qubit_state(qubit), build_resource_state(rc)))
    doubled = ModeUnitary(np.kron(fourier_unitary(n + 1).matrix, np.eye(2)))
    transform = embed(doubled, range(2 * (n + 1)), state.mode_count)
    evolved = apply(transform, state)
    measured = measure_photon_counts(evolved, range(2 * (n + 1)))
    branches = [tuple(_dual(occ) for occ in number_branches(n, m)) for m in range(n + 2)]

    def read(pattern: Occupation, conditional: PureState, pat_tol: float):
        if sum(pattern) != n + 1:
            raise OracleMismatchError(
                f"pattern {pattern} detected {sum(pattern)} photons, expected {n + 1}"
            )
        m = sum(pattern[1::2])
        return m, branches[m]

    def phase_of(pattern: Occupation, m: int) -> complex:
        if qubit.alpha == 0 or qubit.beta == 0 or rc.at(m) == 0 or rc.at(m - 1) == 0:
            return 1 + 0j
        rail_totals = tuple(h + v for h, v in zip(pattern[0::2], pattern[1::2]))
        return fourier_phase(rail_totals)

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
    polarization rotation on rail 4 restores the H/V basis.  With no click,
    rails then carry the original qubit; the success probability is
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

    vacuum = PureState.basis_state((0,) * (2 * CIRCUIT_RAILS - 2))
    widened = PolarizedPhotonState(CIRCUIT_RAILS, tensor(teleported.state, vacuum))
    split = RotatedPBS(theta=0.0, input_mode=0, reflect_mode=1, transmit_mode=2)
    state = split.apply(widened)

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
    state = trimmer.apply(state)

    if c_here != 0 and c_prev != 0:
        delta = cmath.phase(c_prev) - cmath.phase(c_here)
        state = phase_shift(state, v_rail, cmath.exp(-1j * delta))
    state = rotate_polarization(state, _KEPT_RAIL, theta)

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
