"""Polarization encoding, the slot matrices of the optical devices, and the correction circuit."""

import cmath
import math

import numpy as np
import pytest

from klm_teleport import optics, polarization
from klm_teleport import (
    HORIZONTAL,
    VERTICAL,
    CircuitResult,
    PolarizedPhotonState,
    PureState,
    QubitAmplitudes,
    ResourceCoefficients,
    RotatedPBS,
    build_resource_state,
    correction_circuit,
    dual_rail,
    kraus_for,
    oracle_deviation,
    p_success_given_m,
    run_analytic,
    run_oracle_polarization,
    slot_index,
    teleported_state,
)
from klm_teleport.teleport import normalize_coefficients

from helpers import random_coefficients, random_qubit


WORKED = ResourceCoefficients.from_weights([0.5, 0.3, 0.2])


def balanced():
    r = 1 / math.sqrt(2)
    return QubitAmplitudes(r, r)


def _through(polarized, device, *args):
    """Evolve ``polarized`` by ``device(identity, *args)``, a slot matrix the circuit composes."""
    # An infinite phase times a zero entry warns; ModeUnitary refuses the result.
    with np.errstate(invalid="ignore"):
        matrix = device(np.eye(2 * polarized.spatial_modes, dtype=complex), *args)
    unitary = optics.ModeUnitary(matrix)
    return PolarizedPhotonState(polarized.spatial_modes, optics.apply(unitary, polarized.state))


def test_slot_index_layout():
    assert slot_index(0, HORIZONTAL) == 0
    assert slot_index(0, VERTICAL) == 1
    assert slot_index(3, HORIZONTAL) == 6
    assert slot_index(3, VERTICAL) == 7
    with pytest.raises(ValueError):
        slot_index(0, "D")
    for bad in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="mode must be an integer"):
            slot_index(bad, VERTICAL)
    with pytest.raises(ValueError, match="mode must be at least 0"):
        slot_index(-1, HORIZONTAL)


def test_single_photon_state_accessors():
    state = PolarizedPhotonState.single_photon(2, {0: (0.6, 0.0), 1: (0.0, 0.8)})
    assert state.single_photon_amplitude(0, HORIZONTAL) == pytest.approx(0.6)
    assert state.single_photon_amplitude(1, VERTICAL) == pytest.approx(0.8)
    assert state.mode_amplitudes(0) == (0.6, 0.0)
    assert state.state.norm() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PolarizedPhotonState.single_photon(2, {2: (1.0, 0.0)})
    for bad in (2.0, True, 0):
        with pytest.raises(ValueError, match="rail count must be"):
            PolarizedPhotonState.single_photon(bad, {0: (1.0, 0.0)})
    with pytest.raises(ValueError, match="mode must be an integer"):
        PolarizedPhotonState.single_photon(2, {0.5: (1.0, 0.0)})


def test_polarized_state_demands_two_slots_per_rail():
    from klm_teleport import PureState

    with pytest.raises(ValueError):
        PolarizedPhotonState(2, PureState.basis_state((1, 0, 0)))
    with pytest.raises(ValueError, match="rail count must be an integer"):
        PolarizedPhotonState(2.0, PureState.basis_state((1, 0, 0, 0)))


def test_pbs_at_zero_routes_h_and_v():
    pbs = RotatedPBS(theta=0.0, input_mode=0, reflect_mode=1, transmit_mode=2)
    photon = PolarizedPhotonState.single_photon(3, {0: (0.6, 0.8j)})
    out = _through(photon, pbs._compose)
    assert out.single_photon_amplitude(1, HORIZONTAL) == pytest.approx(0.6)
    assert out.single_photon_amplitude(2, VERTICAL) == pytest.approx(0.8j)
    assert out.single_photon_amplitude(1, VERTICAL) == 0j
    assert out.single_photon_amplitude(2, HORIZONTAL) == 0j
    assert out.state.norm() == pytest.approx(1.0, abs=1e-12)


def test_pbs_output_polarizations_are_orthonormal():
    pbs = RotatedPBS(theta=0.3, input_mode=0, reflect_mode=1, transmit_mode=2)
    rh, rv = pbs.reflected_polarization()
    th, tv = pbs.transmitted_polarization()
    assert rh * th + rv * tv == pytest.approx(0.0, abs=1e-15)
    assert rh**2 + rv**2 == pytest.approx(1.0)
    assert th**2 + tv**2 == pytest.approx(1.0)


_THETA = 0.7
_COS = math.cos(_THETA)
_SIN = math.sin(_THETA)


def test_rotated_pbs_splits_by_projection():
    pbs = RotatedPBS(theta=_THETA, input_mode=0, reflect_mode=1, transmit_mode=2)
    cases = [
        # (photon, reflected, transmitted) for an H photon, then a V photon.
        ((1.0, 0.0), (_COS**2, -_COS * _SIN), (_SIN**2, _SIN * _COS)),
        ((0.0, 1.0), (-_SIN * _COS, _SIN**2), (_COS * _SIN, _COS**2)),
    ]
    for photon, reflected, transmitted in cases:
        out = _through(PolarizedPhotonState.single_photon(3, {0: photon}), pbs._compose)
        # The photon projects onto the two output polarizations.
        assert out.mode_amplitudes(0) == (0j, 0j)
        assert out.mode_amplitudes(1) == pytest.approx(reflected, abs=1e-15)
        assert out.mode_amplitudes(2) == pytest.approx(transmitted, abs=1e-15)
        assert out.state.norm() == pytest.approx(1.0, abs=1e-12)


def test_pbs_rejects_bad_configurations():
    with pytest.raises(ValueError):
        RotatedPBS(theta=0.0, input_mode=0, reflect_mode=0, transmit_mode=1)
    with pytest.raises(ValueError):
        RotatedPBS(theta=0.0, input_mode=-1, reflect_mode=1, transmit_mode=2)
    for rails in ((0.5, 2, 3), (True, 2, 3), (0, 2.0, 3), (0, 2, True)):
        with pytest.raises(ValueError, match="splitter rail must be an integer"):
            RotatedPBS(0.0, *rails)


@pytest.mark.parametrize("mode", [-1, 1])
def test_amplitude_accessors_refuse_missing_rails(mode):
    # With a vacuum term present, a missing rail must not read as any amplitude.
    state = PolarizedPhotonState(1, PureState(2, {(0, 0): 0.6, (1, 0): 0.8}))
    with pytest.raises(ValueError, match="out of range"):
        state.single_photon_amplitude(mode, HORIZONTAL)
    with pytest.raises(ValueError, match="out of range"):
        state.mode_amplitudes(mode)


def test_phase_shift_targets_one_rail():
    state = PolarizedPhotonState.single_photon(2, {0: (0.6, 0.0), 1: (0.0, 0.8)})
    shifted = _through(state, polarization._phase_plate, 1, 1j)
    assert shifted.single_photon_amplitude(0, HORIZONTAL) == pytest.approx(0.6)
    assert shifted.single_photon_amplitude(1, VERTICAL) == pytest.approx(0.8j)
    with pytest.raises(ValueError, match="not unitary"):
        _through(state, polarization._phase_plate, 0, 0.5)


def test_phase_shift_judges_the_quantity_the_plate_unitary_checks():
    # |phase|^2 - 1, not |phase| - 1, is what the plate's ModeUnitary measures.
    state = PolarizedPhotonState.single_photon(1, {0: (0.6, 0.8)})
    for bad in (1 + 8e-13, 1e200):
        with pytest.raises(ValueError, match="not unitary"):
            _through(state, polarization._phase_plate, 0, bad)
    shifted = _through(state, polarization._phase_plate, 0, 1 + 4e-13)
    assert shifted.mode_amplitudes(0) == pytest.approx((0.6, 0.8), abs=1e-12)


def test_rotate_polarization_matrix_action():
    theta = 0.4
    h_photon = PolarizedPhotonState.single_photon(1, {0: (1.0, 0.0)})
    rotated = _through(h_photon, polarization._rotator, 0, theta)
    assert rotated.mode_amplitudes(0) == pytest.approx((math.cos(theta), math.sin(theta)))
    # The splitter's reflected polarization rotates back onto pure H.
    tilted = PolarizedPhotonState.single_photon(1, {0: (math.cos(theta), -math.sin(theta))})
    restored = _through(tilted, polarization._rotator, 0, theta)
    assert restored.mode_amplitudes(0) == pytest.approx((1.0, 0.0))


def test_polarized_resource_structure():
    rc = ResourceCoefficients.from_weights([0.25, 0.75])
    resource = dual_rail(build_resource_state(rc))
    assert resource.mode_count == 4
    # Term 0: front rail H, back rail V.  Term 1: front rail V, back rail H.
    assert resource.amplitude((1, 0, 0, 1)) == pytest.approx(0.5)
    assert resource.amplitude((0, 1, 1, 0)) == pytest.approx(math.sqrt(0.75))
    assert resource.norm() == pytest.approx(1.0, abs=1e-12)

    rc2 = ResourceCoefficients.uniform(2)
    resource2 = dual_rail(build_resource_state(rc2))
    # Every term puts exactly one photon on each of the 2n rails.
    for occ in resource2.amplitudes:
        assert sum(occ) == 4
        for rail in range(4):
            assert occ[2 * rail] + occ[2 * rail + 1] == 1
    assert resource2.amplitude((0, 1, 1, 0, 1, 0, 0, 1)) == pytest.approx(1 / math.sqrt(3))


def test_dual_rail_maps_each_mode_to_an_h_v_pair():
    state = PureState.from_terms(3, {(0, 1, 1): 0.6, (1, 0, 0): 0.8j})
    image = dual_rail(state)
    assert image.mode_count == 6
    # Amplitudes and their order are kept; 0 photons -> H, 1 photon -> V.
    assert list(image.amplitudes.items()) == [
        ((1, 0, 0, 1, 0, 1), 0.6),
        ((0, 1, 1, 0, 1, 0), 0.8j),
    ]
    with pytest.raises(ValueError, match="at most one photon"):
        dual_rail(PureState.basis_state((2, 0)))


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize(
    "operation",
    [
        pytest.param(lambda s: _through(s, polarization._phase_plate, 1, _NAN), id="phase-nan"),
        pytest.param(
            lambda s: _through(s, polarization._phase_plate, 1, complex(_NAN, 0.0)),
            id="phase-complex-nan",
        ),
        pytest.param(lambda s: _through(s, polarization._phase_plate, 1, _INF), id="phase-inf"),
        pytest.param(lambda s: _through(s, polarization._rotator, 0, _NAN), id="rotate-nan"),
        pytest.param(lambda s: RotatedPBS(_NAN, 0, 2, 3), id="pbs-nan"),
        pytest.param(lambda s: RotatedPBS(_INF, 0, 2, 3), id="pbs-inf"),
        pytest.param(lambda s: RotatedPBS(-_INF, 0, 2, 3), id="pbs-minus-inf"),
    ],
)
def test_non_finite_optics_parameters_are_rejected(operation):
    # NaN fails every comparison, so an unchecked NaN would drop amplitude silently.
    state = PolarizedPhotonState.single_photon(4, {0: (0.6, 0.0), 1: (0.0, 0.8)})
    with pytest.raises(ValueError, match="finite"):
        operation(state)


def test_polarization_oracle_agrees_with_law():
    rng = np.random.default_rng(53)
    for n in (1, 2):
        rc = random_coefficients(n, rng)
        q = random_qubit(rng)
        analytic = run_analytic(rc, q)
        oracle = run_oracle_polarization(rc, q)
        assert oracle_deviation(analytic, oracle) < 1e-10
        assert math.fsum(o.probability for o in oracle) == pytest.approx(1.0, abs=1e-12)
        # Every recorded detection pattern contains all n + 1 measured photons.
        for outcome in oracle:
            for record in outcome.patterns or ():
                assert sum(record.pattern) == n + 1


def test_polarization_oracle_refuses_large_n():
    with pytest.raises(ValueError, match="at most 5"):
        run_oracle_polarization(ResourceCoefficients.uniform(6), balanced())
    with pytest.raises(TypeError, match="limit"):
        run_oracle_polarization(ResourceCoefficients.uniform(6), balanced(), limit=6)


def test_teleported_state_frozen():
    state = teleported_state(WORKED, balanced(), 1)
    amp_h, amp_v = state.mode_amplitudes(0)
    assert abs(amp_h) ** 2 == pytest.approx(0.375)
    assert abs(amp_v) ** 2 == pytest.approx(0.625)
    with pytest.raises(ValueError):
        teleported_state(WORKED, balanced(), 0)
    with pytest.raises(ValueError):
        teleported_state(WORKED, balanced(), 3)
    dead = ResourceCoefficients.from_weights([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="never occurs"):
        teleported_state(dead, balanced(), 1)
    # c_2 = 0 and beta = 0 make m = 2 impossible for this input only.
    lopsided = ResourceCoefficients.from_weights([0.5, 0.5, 0.0])
    with pytest.raises(ValueError, match="outcome m=2 never occurs for this input"):
        teleported_state(lopsided, QubitAmplitudes(1.0, 0.0), 2)
    # p(m=1) = 1e-320 is subnormal; the state is still normalized.
    tiny = normalize_coefficients([1e-160, 1e-160, 1.0], renormalize=True)
    amp_h, amp_v = teleported_state(tiny, balanced(), 1).mode_amplitudes(0)
    assert (amp_h, amp_v) == pytest.approx((1 / math.sqrt(2), 1 / math.sqrt(2)), abs=1e-15)


def test_correction_circuit_worked_example():
    result = correction_circuit(1, WORKED, teleported_state(WORKED, balanced(), 1))
    assert result.p_success == pytest.approx(0.75, abs=1e-12)
    assert result.theta == pytest.approx(math.acos(math.sqrt(0.6)))
    assert result.detector_amplitude == pytest.approx(-0.5)
    assert result.recovered is not None
    assert result.recovered.fidelity_with(balanced()) == pytest.approx(1.0, abs=1e-12)


def test_correction_circuit_mirror_branch():
    rc = ResourceCoefficients.from_weights([0.3, 0.5, 0.2])
    result = correction_circuit(1, rc, teleported_state(rc, balanced(), 1))
    # min(0.3, 0.5) / p(1) with p(1) = (0.5 + 0.3) / 2.
    assert result.p_success == pytest.approx(0.75, abs=1e-12)
    assert result.recovered.fidelity_with(balanced()) == pytest.approx(1.0, abs=1e-12)


def test_correction_circuit_balanced_weights_need_no_trimming():
    rc = ResourceCoefficients.uniform(1)
    result = correction_circuit(1, rc, teleported_state(rc, balanced(), 1))
    assert result.theta == 0.0
    assert result.p_success == pytest.approx(1.0, abs=1e-12)
    assert abs(result.detector_amplitude) == pytest.approx(0.0, abs=1e-12)


def test_correction_circuit_undoes_coefficient_phases():
    amps = (
        math.sqrt(0.5) * cmath.exp(0.7j),
        math.sqrt(0.3) * cmath.exp(-1.2j),
        math.sqrt(0.2) * cmath.exp(0.4j),
    )
    rc = ResourceCoefficients(tuple(complex(a) for a in amps))
    q = QubitAmplitudes(0.6, 0.8j)
    for m in (1, 2):
        result = correction_circuit(m, rc, teleported_state(rc, q, m))
        assert result.recovered.fidelity_with(q) == pytest.approx(1.0, abs=1e-12)


def test_correction_circuit_conserves_probability():
    rng = np.random.default_rng(59)
    for _ in range(10):
        rc = random_coefficients(3, rng)
        q = random_qubit(rng)
        for m in (1, 2, 3):
            result = correction_circuit(m, rc, teleported_state(rc, q, m))
            assert result.p_success + abs(result.detector_amplitude) ** 2 == pytest.approx(
                1.0, abs=1e-12
            )


def test_correction_circuit_validation():
    good = teleported_state(WORKED, balanced(), 1)
    with pytest.raises(ValueError):
        correction_circuit(0, WORKED, good)
    with pytest.raises(ValueError):
        correction_circuit(3, WORKED, good)
    wide = PolarizedPhotonState.single_photon(2, {0: (1.0, 0.0)})
    with pytest.raises(ValueError, match="single rail"):
        correction_circuit(1, WORKED, wide)
    # c_2 = c_3 = 0: outcome m = 3 never occurs.
    gapped = ResourceCoefficients.from_weights([0.6, 0.4, 0.0, 0.0])
    with pytest.raises(ValueError, match="never occurs"):
        correction_circuit(3, gapped, good)


@pytest.mark.parametrize(
    "state",
    [
        PureState.basis_state((0, 0)),
        PureState.basis_state((1, 1)),
        PureState.basis_state((2, 0)),
        PureState(2, {(0, 0): 0.6, (1, 0): 0.8}),
    ],
    ids=["vacuum", "two photons", "two horizontal photons", "vacuum plus one photon"],
)
def test_correction_circuit_refuses_anything_but_one_photon(state):
    with pytest.raises(ValueError, match="one photon"):
        correction_circuit(1, WORKED, PolarizedPhotonState(1, state))


def test_correction_circuit_measures_its_leak_against_the_input():
    # A teleported norm within STATE_NORM_TOL of 1 passes: the arms and the
    # detector hold the input's own squared norm, not 1.
    teleported = PolarizedPhotonState.single_photon(1, {0: (0.6, 0.8 * (1 + 1e-10))})
    result = correction_circuit(1, ResourceCoefficients.from_weights([0.3, 0.7]), teleported)
    held = result.p_success + abs(result.detector_amplitude) ** 2
    assert held == pytest.approx(teleported.state.norm() ** 2, abs=1e-12)


def test_correction_circuit_leak_check_fires(monkeypatch):
    # Undo the splitter's last rotation.  Its matrix stays unitary, so only the
    # leak check sees the detector read the wrong polarization.
    compose = RotatedPBS._compose

    def without_last_rotation(self, mat):
        return polarization._rotator(compose(self, mat), self.transmit_mode, self.theta)

    monkeypatch.setattr(RotatedPBS, "_compose", without_last_rotation)
    rc = ResourceCoefficients.from_weights([0.2, 0.3, 0.5])
    with pytest.raises(RuntimeError, match="leaked"):
        correction_circuit(1, rc, teleported_state(rc, balanced(), 1))


def test_correction_circuit_runs_the_engine_once(monkeypatch):
    engine = optics.apply
    calls = []

    def counting_apply(u, state):
        calls.append(u.dimension)
        return engine(u, state)

    monkeypatch.setattr(optics, "apply", counting_apply)
    # The module's own ``apply`` name is the oracle's evolution, never the circuit's.
    monkeypatch.setattr(polarization, "apply", None)
    correction_circuit(1, WORKED, teleported_state(WORKED, balanced(), 1))
    assert calls == [10]


def test_circuit_matches_kraus_route():
    for n in range(1, 7):
        _check_circuit_matches_kraus_route(n)


def _check_circuit_matches_kraus_route(n):
    rng = np.random.default_rng(61 + n)
    for _ in range(3):
        rc = random_coefficients(n, rng)
        q = random_qubit(rng)
        outcomes = run_analytic(rc, q)
        for m in range(1, n + 1):
            if outcomes[m].probability < 1e-9:
                continue
            result = correction_circuit(m, rc, teleported_state(rc, q, m))
            assert result.p_success == pytest.approx(p_success_given_m(m, rc, q), abs=1e-10)
            pair = kraus_for(m, rc)
            conditional = outcomes[m].conditional_qubit
            survived = pair.success @ np.array([conditional.alpha, conditional.beta])
            assert np.vdot(survived, survived).real == pytest.approx(result.p_success, abs=1e-12)
            recovered = QubitAmplitudes.from_unnormalized(*survived)
            # The success element restores the input, and the circuit agrees.
            assert recovered.fidelity_with(q) == pytest.approx(1.0, abs=1e-12)
            assert recovered.fidelity_with(result.recovered) == pytest.approx(1.0, abs=1e-10)


def test_circuit_result_is_named_tuple():
    result = correction_circuit(1, WORKED, teleported_state(WORKED, balanced(), 1))
    assert isinstance(result, CircuitResult)
    assert result.pre_detection.spatial_modes == 5
