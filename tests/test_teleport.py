"""Protocol outcome law, resource construction, and the Fock-space oracle."""

import cmath
import functools
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klm_teleport.optics as optics_module
import klm_teleport.polarization as polarization_module
import klm_teleport.teleport as teleport_module
from klm_teleport import (
    MeasurementOutcome,
    ModeUnitary,
    OracleMismatchError,
    PureState,
    QubitAmplitudes,
    ResourceCoefficients,
    build_resource_state,
    derive_phase_correction,
    dual_rail,
    fourier_unitary,
    load_coefficients,
    oracle_deviation,
    run_analytic,
    run_oracle,
    run_oracle_polarization,
    tensor,
    transition_amplitude,
)
from klm_teleport.teleport import (
    fourier_phase,
    normalize_coefficients,
    number_branches,
    qubit_state,
)

from helpers import enumerate_basis, random_coefficients, random_qubit


def balanced():
    r = 1 / math.sqrt(2)
    return QubitAmplitudes(r, r)


WORKED = ResourceCoefficients.from_weights([0.5, 0.3, 0.2])


def test_resource_coefficients_validation():
    with pytest.raises(ValueError):
        ResourceCoefficients((1.0,))
    with pytest.raises(ValueError):
        ResourceCoefficients((1.0, 1.0))
    with pytest.raises(ValueError):
        ResourceCoefficients.from_weights([0.5, -0.5, 1.0])
    with pytest.raises(ValueError):
        normalize_coefficients([0.0, 0.0], renormalize=True)
    with pytest.raises(ValueError):
        ResourceCoefficients.uniform(0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ResourceCoefficients((bad, 1.0))


def test_resource_coefficients_accessors():
    rc = ResourceCoefficients.uniform(2)
    assert rc.n == 2
    assert rc.at(-1) == 0j
    assert rc.at(3) == 0j
    assert rc.at(1) == pytest.approx(1 / math.sqrt(3))
    np.testing.assert_allclose(rc.weights(), [1 / 3] * 3, atol=1e-15)


def test_resource_state_structure():
    rc = ResourceCoefficients.uniform(1)
    state = build_resource_state(rc)
    assert state.mode_count == 2
    assert state.amplitude((0, 1)) == pytest.approx(1 / math.sqrt(2))
    assert state.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))

    rc2 = ResourceCoefficients.from_weights([0.2, 0.3, 0.5])
    state2 = build_resource_state(rc2)
    assert state2.mode_count == 4
    assert state2.amplitude((0, 0, 1, 1)) == pytest.approx(math.sqrt(0.2))
    assert state2.amplitude((1, 0, 0, 1)) == pytest.approx(math.sqrt(0.3))
    assert state2.amplitude((1, 1, 0, 0)) == pytest.approx(math.sqrt(0.5))
    assert abs(state2.norm() - 1.0) <= 1e-12


def test_protocol_input_has_three_modes_and_four_terms_at_n1():
    state = tensor(qubit_state(balanced()), build_resource_state(ResourceCoefficients.uniform(1)))
    assert state.mode_count == 3
    assert len(state.amplitudes) == 4


def test_outcome_law_worked_example():
    outcomes = run_analytic(WORKED, balanced())
    assert [o.m for o in outcomes] == [0, 1, 2, 3]
    assert outcomes[1].probability == pytest.approx(0.4)
    assert outcomes[1].qubit_mode == 3
    conditional = outcomes[1].conditional_qubit
    assert abs(conditional.alpha) ** 2 == pytest.approx(0.375)
    assert abs(conditional.beta) ** 2 == pytest.approx(0.625)
    assert outcomes[0].qubit_mode is None
    assert outcomes[0].conditional_qubit is None
    assert outcomes[3].conditional_qubit is None


def test_outcome_probabilities_sum_to_one():
    rng = np.random.default_rng(17)
    for n in (1, 2, 4, 6):
        rc = random_coefficients(n, rng)
        q = random_qubit(rng)
        outcomes = run_analytic(rc, q)
        assert math.fsum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)
        for outcome in outcomes:
            if outcome.conditional_qubit is not None:
                norm = (
                    abs(outcome.conditional_qubit.alpha) ** 2
                    + abs(outcome.conditional_qubit.beta) ** 2
                )
                assert norm == pytest.approx(1.0, abs=1e-12)


def test_failure_outcomes_collapse_the_qubit():
    rc = ResourceCoefficients.uniform(2)
    outcomes = run_analytic(rc, QubitAmplitudes(0.6, 0.8))
    assert outcomes[0].probability == pytest.approx(0.36 / 3)
    assert outcomes[-1].probability == pytest.approx(0.64 / 3)


def test_phase_correction_n1_uniform():
    rc = ResourceCoefficients.uniform(1)
    q = balanced()
    assert derive_phase_correction((1, 0), 1, rc, q) == pytest.approx(1.0)
    assert derive_phase_correction((0, 1), 1, rc, q) == pytest.approx(-1.0)


def test_phase_correction_is_unit_modulus():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        rc = random_coefficients(n, rng)
        q = random_qubit(rng)
        outcomes = run_oracle(rc, q)
        for outcome in outcomes:
            for record in outcome.patterns or ():
                assert abs(record.corrective_phase) == pytest.approx(1.0, abs=1e-12)


def test_phase_correction_validates_patterns():
    rc = ResourceCoefficients.uniform(2)
    q = balanced()
    with pytest.raises(ValueError):
        derive_phase_correction((1, 0, 0), 0, rc, q)
    with pytest.raises(ValueError):
        derive_phase_correction((1, 1, 0), 1, rc, q)
    with pytest.raises(ValueError):
        derive_phase_correction((1, 0), 1, rc, q)


def test_phase_correction_degenerate_branch_is_one():
    rc = ResourceCoefficients.uniform(2)
    assert derive_phase_correction((0, 1, 0), 1, rc, QubitAmplitudes(1.0, 0.0)) == 1 + 0j


def _branch_phase(u, source_zero, source_one, target):
    """Corrective phase from the two branches' permanents, or None if neither reaches target."""
    amp_zero = transition_amplitude(u, source_zero, target)
    amp_one = transition_amplitude(u, source_one, target)
    if abs(amp_zero) < 1e-14 and abs(amp_one) < 1e-14:
        return None
    assert abs(amp_zero) == pytest.approx(abs(amp_one), abs=1e-12), target
    return amp_zero / amp_one / abs(amp_zero / amp_one)


def test_phase_correction_matches_transition_amplitudes():
    """The closed-form phase equals the permanent ratio on every reachable pattern."""
    q = balanced()
    worst, checked = 0.0, 0
    for n in range(1, 6):
        rc = ResourceCoefficients.uniform(n)
        u = fourier_unitary(n + 1)
        for m in range(1, n + 1):
            vacuum_branch = (0,) + (1,) * m + (0,) * (n - m)
            photon_branch = (1,) * m + (0,) * (n - m + 1)
            for pattern in enumerate_basis(n + 1, m):
                expected = _branch_phase(u, vacuum_branch, photon_branch, pattern)
                if expected is not None:
                    got = derive_phase_correction(pattern, m, rc, q)
                    worst, checked = max(worst, abs(got - expected)), checked + 1
    for n in range(1, 5):
        # Block order of the doubled transform: horizontal slots, then vertical.
        doubled = ModeUnitary(np.kron(np.eye(2), fourier_unitary(n + 1).matrix))
        for m in range(1, n + 1):
            logical_h = (1,) + (0,) * m + (1,) * (n - m)
            logical_v = (0,) * m + (1,) * (n - m + 1)
            sources = [h + tuple(1 - x for x in h) for h in (logical_h, logical_v)]
            for h in enumerate_basis(n + 1, n + 1 - m):
                for v in enumerate_basis(n + 1, m):
                    expected = _branch_phase(doubled, *sources, h + v)
                    if expected is not None:
                        got = fourier_phase(tuple(a + b for a, b in zip(h, v)))
                        worst, checked = max(worst, abs(got - expected)), checked + 1
    assert checked > 2000
    assert worst < 1e-12


@pytest.mark.parametrize("oracle", [run_oracle, run_oracle_polarization])
def test_oracle_phases_evaluate_no_permanent(monkeypatch, oracle):
    def no_permanents(rows):
        raise AssertionError("the oracle evaluated a permanent")

    monkeypatch.setattr(optics_module, "_permanent_rows", no_permanents)
    rng = np.random.default_rng(37)
    rc = random_coefficients(3, rng)
    q = random_qubit(rng)
    assert oracle_deviation(run_analytic(rc, q), oracle(rc, q)) < 1e-10


def test_oracle_agrees_with_law_on_random_instances():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        rc = random_coefficients(n, rng)
        q = random_qubit(rng)
        analytic = run_analytic(rc, q)
        oracle = run_oracle(rc, q)
        assert oracle_deviation(analytic, oracle) < 1e-10
        assert math.fsum(o.probability for o in oracle) == pytest.approx(1.0, abs=1e-12)
        for law, sim in zip(analytic, oracle):
            assert sim.qubit_mode == law.qubit_mode
            assert sim.patterns is not None


def test_oracle_handles_degenerate_inputs():
    rc = ResourceCoefficients.uniform(2)
    for q in (QubitAmplitudes(1.0, 0.0), QubitAmplitudes(0.0, 1.0)):
        analytic = run_analytic(rc, q)
        oracle = run_oracle(rc, q)
        assert oracle_deviation(analytic, oracle) < 1e-10

    sparse = ResourceCoefficients.from_weights([0.5, 0.0, 0.5])
    oracle = run_oracle(sparse, balanced())
    analytic = run_analytic(sparse, balanced())
    assert oracle_deviation(analytic, oracle) < 1e-10


def test_oracle_refuses_large_n_by_default():
    rc = ResourceCoefficients.uniform(9)
    with pytest.raises(ValueError, match="n <= 8"):
        run_oracle(rc, balanced())


#: c_2 = c_3 = 0, so the law forbids m = 3, while m = 1 has both branches.
GAPPED = ResourceCoefficients.from_weights([0.6, 0.4, 0.0, 0.0])


def _first_at(m):
    """Apply ``change(conditional, m)`` to the first measured pattern at outcome m."""

    def decorate(change):
        @functools.wraps(change)
        def corrupt(outcomes, outcome_of, encode):
            index = next(i for i, o in enumerate(outcomes) if outcome_of(o.pattern) == m)
            pattern, prob, conditional = outcomes[index]
            outcomes[index] = MeasurementOutcome(pattern, prob, change(conditional, m))

        return corrupt

    return decorate


@_first_at(1)
def _swap_branches(conditional, m):
    amps = dict(conditional.amplitudes)
    weaker, stronger = sorted(amps, key=lambda occ: abs(amps[occ]))[-2:]
    amps[weaker], amps[stronger] = amps[stronger], amps[weaker]
    return PureState(conditional.mode_count, amps)


@_first_at(1)
def _rotate_logical_one(conditional, m):
    # The number encoding leaves the qubit on unmeasured mode m - 1.
    return PureState(
        conditional.mode_count,
        {occ: amp * 1j if occ[m - 1] else amp for occ, amp in conditional.amplitudes.items()},
    )


@_first_at(1)
def _rotate_logical_v(conditional, m):
    # The polarization encoding leaves the qubit on back rail m - 1; logical
    # one is its vertical slot.
    return PureState(
        conditional.mode_count,
        {occ: amp * 1j if occ[2 * m - 1] else amp for occ, amp in conditional.amplitudes.items()},
    )


def _leaked(conditional, size):
    # Two photons in the first unmeasured mode: no branch occupation of
    # either encoding holds more than one photon per mode.
    outside = (2,) + (0,) * (conditional.mode_count - 1)
    return PureState(conditional.mode_count, {**conditional.amplitudes, outside: size})


@_first_at(1)
def _leak_1e6_on_a_success(conditional, m):
    return _leaked(conditional, 1e-6)


@_first_at(0)
def _leak_1e9_on_a_failure(conditional, m):
    return _leaked(conditional, 1e-9)


def _add_a_forbidden_pattern(outcomes, outcome_of, encode):
    # A pattern at m = 3 whose conditional state sits on that outcome's
    # branch occupations, so only the law can refuse it.
    n = GAPPED.n
    pattern = next(iter(encode(PureState.basis_state((1, 1, 1, 0))).amplitudes))
    branch0, branch1 = number_branches(n, 3)
    conditional = encode(PureState(n, {branch0: 0.6, branch1: 0.8}))
    outcomes.append(MeasurementOutcome(pattern, 1e-3, conditional))


#: module whose measurement is corrupted, its oracle, how it reads m from a
#: pattern, and how it encodes a number-encoded state
ENCODINGS = {
    "number": (teleport_module, run_oracle, sum, lambda state: state),
    "polarization": (
        polarization_module,
        run_oracle_polarization,
        lambda p: sum(p[1::2]),
        dual_rail,
    ),
}

LEAK = "outside its branch occupations"


@pytest.mark.parametrize(
    "encoding, corrupt, message",
    [
        ("number", None, "aggregated probability"),
        ("polarization", None, "aggregated probability"),
        ("number", _swap_branches, "magnitudes"),
        ("polarization", _swap_branches, "magnitudes"),
        ("number", _rotate_logical_one, "corrected fidelity"),
        ("polarization", _rotate_logical_v, "corrected fidelity"),
        ("number", _leak_1e6_on_a_success, LEAK),
        ("polarization", _leak_1e6_on_a_success, LEAK),
        ("number", _leak_1e9_on_a_failure, LEAK),
        ("polarization", _leak_1e9_on_a_failure, LEAK),
        ("number", _add_a_forbidden_pattern, "the law forbids"),
        ("polarization", _add_a_forbidden_pattern, "the law forbids"),
    ],
)
def test_oracles_catch_a_corrupted_pattern(monkeypatch, encoding, corrupt, message):
    """Drop one m = 1 pattern (corrupt is None) or let ``corrupt`` edit the outcomes."""
    module, oracle, outcome_of, encode = ENCODINGS[encoding]
    measure = module.measure_photon_counts

    def corrupted(state, modes):
        outcomes = measure(state, modes)
        if corrupt is None:
            del outcomes[next(i for i, o in enumerate(outcomes) if outcome_of(o.pattern) == 1)]
        else:
            corrupt(outcomes, outcome_of, encode)
        return outcomes

    monkeypatch.setattr(module, "measure_photon_counts", corrupted)
    collecting = gc.isenabled()
    with pytest.raises(OracleMismatchError, match=message):
        oracle(GAPPED, QubitAmplitudes(0.6, 0.8))
    # The collector the oracle paused is back as the caller had it.
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_oracles_pause_the_collector_and_restore_its_state(monkeypatch, encoding):
    module, oracle, _, _ = ENCODINGS[encoding]
    measure = module.measure_photon_counts
    seen = []

    def watched(state, modes):
        seen.append(gc.isenabled())
        return measure(state, modes)

    def no_collect(*args):
        raise AssertionError("the oracle ran a collection")

    monkeypatch.setattr(module, "measure_photon_counts", watched)
    monkeypatch.setattr(gc, "collect", no_collect)
    rc, qubit = ResourceCoefficients.uniform(2), balanced()
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        oracle(rc, qubit)
        assert gc.isenabled()
        gc.disable()
        oracle(rc, qubit)
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
    assert seen == [False, False]


def test_fourier_phase_table_holds_the_exact_roots():
    for points in range(1, 11):
        for exponent in range(points):
            counts = (0,) * points
            if exponent:
                counts = counts[:exponent] + (1,) + counts[exponent + 1 :]
            assert fourier_phase(counts) == cmath.exp(2j * math.pi * exponent / points)
            # Every exponent modulo N reaches the same entry.
            assert fourier_phase(counts[:-1] + (counts[-1] + points,)) == fourier_phase(counts)


def test_coefficient_file_roundtrip(tmp_path):
    rc = random_coefficients(3, np.random.default_rng(31))
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"n": rc.n, "c": [[a.real, a.imag] for a in rc.amplitudes]}))
    loaded = load_coefficients(path)
    assert loaded.n == rc.n
    for a, b in zip(loaded.amplitudes, rc.amplitudes):
        assert a == pytest.approx(b, abs=1e-15)


def test_coefficient_file_normalization_policy(tmp_path):
    path = tmp_path / "coeffs.json"
    # Tiny deviations are corrected silently.
    r = 1 / math.sqrt(2)
    path.write_text(json.dumps({"n": 1, "c": [[r + 1e-12, 0.0], [r, 0.0]]}))
    loaded = load_coefficients(path)
    assert math.fsum(abs(a) ** 2 for a in loaded.amplitudes) == pytest.approx(1.0, abs=1e-12)
    # Larger deviations need the explicit flag.
    path.write_text(json.dumps({"n": 1, "c": [[1.0, 0.0], [1.0, 0.0]]}))
    with pytest.raises(ValueError, match="renormalize"):
        load_coefficients(path)
    loaded = load_coefficients(path, renormalize=True)
    assert abs(loaded.amplitudes[0]) == pytest.approx(r)


def test_coefficient_file_rejects_an_overflowing_norm(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1, "c": [[1e200, 0.0], [1e200, 0.0]]}))
    with pytest.raises(ValueError, match="overflows"):
        load_coefficients(path, renormalize=True)


@pytest.mark.parametrize(
    "payload",
    [
        {"c": [[1.0, 0.0], [0.0, 0.0]]},
        {"n": 1},
        {"n": 0, "c": [[1.0, 0.0]]},
        {"n": 1, "c": [[1.0, 0.0]]},
        {"n": 1, "c": [[1.0, 0.0], [0.0]]},
        {"n": 1, "c": [[0.0, 0.0], [0.0, 0.0]]},
        {"n": "1", "c": [[1.0, 0.0], [0.0, 0.0]]},
        {"n": True, "c": [[1.0, 0.0], [0.0, 0.0]]},
        {"n": 1, "c": [[True, 0], [0, 0]]},
        {"n": 1, "c": [["0.6", "0"], ["0.8", "0"]]},
        {"n": 1, "c": [[None, 0.0], [1.0, 0.0]]},
        {"n": 1, "c": [[10**400, 0], [1, 0]]},
    ],
)
def test_coefficient_file_rejects_malformed_payloads(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_coefficients(path)


def test_coefficient_file_rejects_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        load_coefficients(path)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
def test_oracle_probability_aggregation_property(seed, n):
    rng = np.random.default_rng(seed)
    rc = random_coefficients(n, rng)
    q = random_qubit(rng)
    oracle = run_oracle(rc, q)
    analytic = run_analytic(rc, q)
    for law, sim in zip(analytic, oracle):
        assert sim.probability == pytest.approx(law.probability, abs=1e-10)
