"""Sparse Fock-state machinery: states, tensor products, measurement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klm_teleport import (
    PureState,
    QubitAmplitudes,
    measure_photon_counts,
    tensor,
)

from helpers import enumerate_basis, random_state


def test_enumerate_basis_three_modes_two_photons():
    assert enumerate_basis(3, 2) == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]


def test_enumerate_basis_is_sorted_and_complete():
    # The apply-versus-permanent checks visit every occupation this lists.
    basis = enumerate_basis(4, 3)
    assert basis == sorted(basis)
    assert len(set(basis)) == len(basis)
    assert all(sum(occ) == 3 and len(occ) == 4 for occ in basis)
    # Stars and bars: C(3 + 4 - 1, 4 - 1) occupations in all.
    assert len(basis) == math.comb(6, 3)


def test_pure_state_validates_occupations():
    with pytest.raises(ValueError):
        PureState(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        PureState(2, {(1, -1): 1.0})
    with pytest.raises(ValueError):
        PureState(-1, {})


def test_from_terms_prunes_negligible_amplitudes():
    state = PureState.from_terms(1, {(0,): 1.0, (1,): 1e-17})
    assert (1,) not in state.amplitudes
    assert state.amplitude((0,)) == 1.0


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), complex(1.0, float("nan")), complex(float("-inf"), 0.0)]
)
def test_from_terms_rejects_non_finite_amplitudes(bad):
    # NaN fails every size comparison, so a plain pruning test would drop it silently.
    with pytest.raises(ValueError, match="not finite"):
        PureState.from_terms(1, {(0,): 0.6, (1,): bad})


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), complex(1.0, float("nan")), complex(float("-inf"), 0.0)]
)
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="not finite"):
        PureState(2, {(1, 0): bad, (0, 1): 1.0})


def test_basis_state_and_amplitude_lookup():
    state = PureState.basis_state((0, 2, 1))
    assert state.mode_count == 3
    assert state.amplitude((0, 2, 1)) == 1.0
    assert state.amplitude((1, 1, 1)) == 0j
    assert state.norm() == pytest.approx(1.0)


def test_normalized_and_require_normalized():
    with pytest.raises(ValueError):
        PureState.from_terms(1, {(0,): 3.0, (1,): 4.0}).require_normalized()
    unit = PureState.from_terms(1, {(0,): 0.6, (1,): 0.8})
    unit.require_normalized()
    with pytest.raises(TypeError):
        unit.require_normalized(1e-12)  # the tolerance is fixed at STATE_NORM_TOL
    with pytest.raises(ValueError):
        PureState.from_terms(1, {}).require_normalized()


def test_tensor_concatenates_modes_and_multiplies_amplitudes():
    left = PureState.from_terms(1, {(0,): 0.6, (1,): 0.8})
    right = PureState.basis_state((2, 0))
    product = tensor(left, right)
    assert product.mode_count == 3
    assert product.amplitude((0, 2, 0)) == pytest.approx(0.6)
    assert product.amplitude((1, 2, 0)) == pytest.approx(0.8)
    assert len(product.amplitudes) == 2


def test_tensor_preserves_norm():
    rng = np.random.default_rng(3)
    left = random_state(2, 1, rng)
    right = random_state(3, 2, rng)
    assert tensor(left, right).norm() == pytest.approx(1.0, abs=1e-12)


def test_measurement_outcomes_complete_and_reconstruct():
    rng = np.random.default_rng(11)
    state = random_state(4, 3, rng)
    outcomes = measure_photon_counts(state, [0, 2])
    total = math.fsum(o.probability for o in outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)
    patterns = [o.pattern for o in outcomes]
    assert patterns == sorted(patterns)
    # Recombining sqrt(p) * conditional against the measured slots rebuilds the state.
    rebuilt = {}
    for pattern, prob, conditional in outcomes:
        assert abs(conditional.norm() - 1.0) <= 1e-12
        for rest, amp in conditional.amplitudes.items():
            occ = (pattern[0], rest[0], pattern[1], rest[1])
            rebuilt[occ] = amp * math.sqrt(prob)
    for occ, amp in state.amplitudes.items():
        assert rebuilt[occ] == pytest.approx(amp, abs=1e-12)


def test_measuring_a_contiguous_inner_run_rebuilds_the_state():
    # Modes [1, 2] of 4: contiguous but not a prefix, and the kept modes
    # [0, 3] are not contiguous.
    rng = np.random.default_rng(13)
    state = random_state(4, 3, rng)
    outcomes = measure_photon_counts(state, [2, 1])
    assert math.fsum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)
    rebuilt = {}
    for pattern, prob, conditional in outcomes:
        assert type(pattern) is tuple and len(pattern) == 2
        for rest, amp in conditional.amplitudes.items():
            rebuilt[(rest[0], *pattern, rest[1])] = amp * math.sqrt(prob)
    assert rebuilt.keys() == state.amplitudes.keys()
    for occ, amp in state.amplitudes.items():
        assert rebuilt[occ] == pytest.approx(amp, abs=1e-12)


def test_measurement_validates_inputs():
    state = PureState.basis_state((1, 0))
    with pytest.raises(ValueError):
        measure_photon_counts(state, [])
    with pytest.raises(ValueError):
        measure_photon_counts(state, [2])
    with pytest.raises(ValueError):
        measure_photon_counts(PureState(2, {(1, 0): 2.0}), [0])


def test_measuring_all_modes_leaves_trivial_conditional():
    state = PureState.from_terms(
        2, {(1, 0): 1 / math.sqrt(2), (0, 1): 1j / math.sqrt(2)}
    )
    outcomes = measure_photon_counts(state, [0, 1])
    assert [o.pattern for o in outcomes] == [(0, 1), (1, 0)]
    for outcome in outcomes:
        assert outcome.probability == pytest.approx(0.5)
        assert outcome.conditional.mode_count == 0
        assert abs(outcome.conditional.amplitude(())) == pytest.approx(1.0)


def test_measurement_patterns_are_tuples_for_one_measured_or_kept_mode():
    rng = np.random.default_rng(12)
    state = random_state(2, 2, rng)
    for measured, kept in (([0], 1), ([1], 0)):
        outcomes = measure_photon_counts(state, measured)
        assert [o.pattern for o in outcomes] == [(0,), (1,), (2,)]
        for pattern, prob, conditional in outcomes:
            assert list(conditional.amplitudes) == [(2 - pattern[0],)]
            occ = [0, 0]
            occ[measured[0]], occ[kept] = pattern[0], 2 - pattern[0]
            assert abs(state.amplitude(occ)) ** 2 == pytest.approx(prob, abs=1e-15)


def test_qubit_amplitudes_enforce_normalization():
    with pytest.raises(ValueError):
        QubitAmplitudes(1.0, 1.0)
    q = QubitAmplitudes.from_unnormalized(1.0, 1.0)
    assert abs(q.alpha) == pytest.approx(1 / math.sqrt(2))
    with pytest.raises(ValueError):
        QubitAmplitudes.from_unnormalized(0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        QubitAmplitudes(float("nan"), 1.0)


@pytest.mark.parametrize(
    ("alpha", "beta", "message"),
    [
        (1e200, 0.0, "overflows a float"),
        (1e160j, 1e160, "overflows a float"),
        (float("inf"), 0.0, "overflows a float"),
        (1e-170, 1e-170, "underflows a float"),
        (1e-160, 1e-160, "underflows a float"),  # subnormal squared norm
    ],
)
def test_unnormalized_qubit_norm_out_of_float_range(alpha, beta, message):
    with pytest.raises(ValueError, match=message):
        QubitAmplitudes.from_unnormalized(alpha, beta)


def test_qubit_fidelity_and_haar_sampling():
    rng = np.random.default_rng(2)
    q = QubitAmplitudes.haar_random(rng)
    assert abs(q.alpha) ** 2 + abs(q.beta) ** 2 == pytest.approx(1.0)
    assert q.fidelity_with(q) == pytest.approx(1.0)
    phased = QubitAmplitudes(q.alpha * 1j, q.beta * 1j)
    assert q.fidelity_with(phased) == pytest.approx(1.0)
    flipped = QubitAmplitudes(-q.beta.conjugate(), q.alpha.conjugate())
    assert q.fidelity_with(flipped) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
def test_basis_state_roundtrip(occupation):
    state = PureState.basis_state(occupation)
    assert state.amplitude(tuple(occupation)) == 1.0
    assert state.norm() == pytest.approx(1.0)
