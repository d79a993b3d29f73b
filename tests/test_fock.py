"""Sparse Fock-state machinery: states, tensor products, measurement."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klm_teleport import (
    PureState,
    QubitAmplitudes,
    apply,
    fourier_unitary,
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
    for bad in (0.5, True, 1.0):
        with pytest.raises(ValueError, match="must be an integer"):
            PureState(2, {(bad, 1 - bad): 1.0})
    with pytest.raises(ValueError, match="must be an integer"):
        PureState.basis_state((1.9, 0))
    with pytest.raises(ValueError, match="at least 0"):
        PureState.basis_state((np.int64(-1), 0))
    assert PureState(2, {(np.int64(1), 0): 1.0}).amplitude((1, 0)) == 1.0
    assert PureState.basis_state((np.int64(1), 0)).amplitudes == {(1, 0): 1.0}
    for bad in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="mode count must be an integer"):
            PureState(bad, {})
    with pytest.raises(ValueError, match="mode count must be an integer"):
        PureState(True, {(0,): 1.0})


def test_pure_state_stores_a_plain_mode_count():
    # A numpy mode count is stored as the int that checked_count returns, so
    # apply, tensor and measurement never see or pass on a numpy integer.
    state = PureState(np.int64(2), {(1, 0): 1 + 0j})
    assert type(state.mode_count) is int
    evolved = apply(fourier_unitary(2), state)
    assert evolved.amplitude((0, 1)) == pytest.approx(math.sqrt(0.5))
    assert type(tensor(state, state).mode_count) is int
    assert all(type(o.conditional.mode_count) is int for o in measure_photon_counts(state, 1))
    # Numpy photon counts past the block stay exact spectators.
    spectators = PureState(np.int64(3), {(np.int64(1), 0, np.int64(1)): 1 + 0j})
    assert apply(fourier_unitary(2), spectators).amplitudes == {
        (1, 0, 1): evolved.amplitude((1, 0)),
        (0, 1, 1): evolved.amplitude((0, 1)),
    }
    # Numpy photon counts are stored as ints too, so a measured pattern serializes.
    counted = PureState(2, {(np.int64(1), np.uint8(0)): 1.0})
    assert all(type(k) is int for occ in counted.amplitudes for k in occ)
    (outcome,) = measure_photon_counts(counted, 1)
    assert json.dumps(outcome.pattern) == "[1]"
    assert json.dumps(list(outcome.conditional.amplitudes)) == "[[0]]"


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
    outcomes = measure_photon_counts(state, 2)
    total = math.fsum(o.probability for o in outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)
    patterns = [o.pattern for o in outcomes]
    assert patterns == sorted(patterns)
    # Recombining sqrt(p) * pattern x conditional rebuilds the state.
    rebuilt = {}
    for pattern, prob, conditional in outcomes:
        assert abs(conditional.norm() - 1.0) <= 1e-12
        assert conditional.mode_count == 2
        for rest, amp in conditional.amplitudes.items():
            rebuilt[pattern + rest] = amp * math.sqrt(prob)
    assert rebuilt.keys() == state.amplitudes.keys()
    for occ, amp in state.amplitudes.items():
        assert rebuilt[occ] == pytest.approx(amp, abs=1e-12)


def test_measurement_validates_inputs():
    state = PureState.basis_state((1, 0))
    for count, refusal in ((0, "at least 1"), (-1, "at least 1"), (3, "at most 2")):
        with pytest.raises(ValueError, match=f"measured mode count must be {refusal}"):
            measure_photon_counts(state, count)
    with pytest.raises(ValueError, match="not normalized"):
        measure_photon_counts(PureState(2, {(1, 0): 2.0}), 1)
    # The former mode-list form is no longer accepted.
    with pytest.raises(ValueError, match="measured mode count must be an integer"):
        measure_photon_counts(state, [0])
    for bad in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="measured mode count must be an integer"):
            measure_photon_counts(state, bad)


def test_measurement_judges_the_norm_from_its_pattern_sums():
    """The norm check reads the patterns' probabilities, with the state rule's messages."""
    with pytest.raises(ValueError, match="state norm overflows a float"):
        measure_photon_counts(PureState(1, {(0,): 1e200}), 1)
    # Each pattern's sum is finite; only their total overflows.
    with pytest.raises(ValueError, match="state norm overflows a float"):
        measure_photon_counts(PureState(1, {(0,): 1e154, (1,): 1e154}), 1)
    for norm, accepted in ((1 + 1e-8, False), (1 + 1e-10, True)):
        amp = norm / math.sqrt(2)
        state = PureState(2, {(1, 0): amp, (0, 1): amp})
        if accepted:
            assert len(measure_photon_counts(state, 1)) == 2
        else:
            with pytest.raises(ValueError, match="state is not normalized"):
                measure_photon_counts(state, 1)
    # Conditionals are scaled in place, in maps of their own.
    state = random_state(3, 2, np.random.default_rng(13))
    before = repr(state.amplitudes)
    for count in (1, 2, 3):
        outcomes = measure_photon_counts(state, count)
        assert all(o.conditional.amplitudes is not state.amplitudes for o in outcomes)
        assert repr(state.amplitudes) == before


def test_measurement_omits_patterns_below_outcome_eps():
    # Pattern (0,) has probability 1e-16, below OUTCOME_EPS = 1e-15.
    state = PureState(2, {(1, 0): math.sqrt(1 - 1e-16), (0, 1): 1e-8})
    outcomes = measure_photon_counts(state, 1)
    assert [o.pattern for o in outcomes] == [(1,)]
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-15)


def test_measuring_all_modes_leaves_trivial_conditional():
    state = PureState.from_terms(
        2, {(1, 0): 1 / math.sqrt(2), (0, 1): 1j / math.sqrt(2)}
    )
    outcomes = measure_photon_counts(state, 2)
    assert [o.pattern for o in outcomes] == [(0, 1), (1, 0)]
    for outcome in outcomes:
        assert outcome.probability == pytest.approx(0.5)
        assert outcome.conditional.mode_count == 0
        assert abs(outcome.conditional.amplitude(())) == pytest.approx(1.0)


def test_measurement_patterns_are_tuples_for_one_measured_or_kept_mode():
    rng = np.random.default_rng(12)
    state = random_state(2, 2, rng)
    outcomes = measure_photon_counts(state, 1)
    assert [o.pattern for o in outcomes] == [(0,), (1,), (2,)]
    for pattern, prob, conditional in outcomes:
        assert list(conditional.amplitudes) == [(2 - pattern[0],)]
        occ = (pattern[0], 2 - pattern[0])
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
    with pytest.raises(ValueError, match="overflows a float"):
        QubitAmplitudes(1e200, 0)


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
