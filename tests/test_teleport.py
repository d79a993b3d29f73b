"""Protocol outcome law, resource construction, and the Fock-space oracle."""

import cmath
import functools
import gc
import json
import math
import weakref

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
    SimplexPoint,
    build_resource_state,
    correction_circuit,
    derive_phase_correction,
    dual_rail,
    fourier_unitary,
    kraus_for,
    load_coefficients,
    maximize,
    objective_avg_fidelity,
    optimal_avg_fidelity,
    oracle_deviation,
    p_success_given_m,
    run_analytic,
    run_oracle,
    run_oracle_polarization,
    teleported_state,
    transition_amplitude,
)
from klm_teleport.fock import OUTCOME_EPS, PRUNE_EPS
from klm_teleport.polarization import POLARIZATION_ORACLE_LIMIT
from klm_teleport.teleport import (
    ORACLE_LIMIT,
    ORACLE_TOL,
    branch_table,
    fourier_phase,
    normalize_coefficients,
    protocol_input,
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
    with pytest.raises(ValueError, match="overflow"):
        ResourceCoefficients.from_weights([1e308] * 3)
    with pytest.raises(ValueError):
        normalize_coefficients([0.0, 0.0], renormalize=True)
    with pytest.raises(ValueError):
        ResourceCoefficients.uniform(0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ResourceCoefficients((bad, 1.0))
    with pytest.raises(ValueError, match="overflows a float"):
        ResourceCoefficients((1e200, 1.0))


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


def test_branch_table_pins_the_unmeasured_occupations():
    assert branch_table(3) == (
        ((1, 1, 1),),
        ((0, 1, 1), (1, 1, 1)),
        ((0, 0, 1), (0, 1, 1)),
        ((0, 0, 0), (0, 0, 1)),
        ((0, 0, 0),),
    )
    assert branch_table(1) == (((1,),), ((0,), (1,)), ((0,),))


def test_protocol_input_has_three_modes_and_four_terms_at_n1():
    state = protocol_input(ResourceCoefficients.uniform(1), balanced())
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
    assert derive_phase_correction((1, 0), 1, rc) == pytest.approx(1.0)
    assert derive_phase_correction((0, 1), 1, rc) == pytest.approx(-1.0)


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
    with pytest.raises(ValueError):
        derive_phase_correction((1, 0, 0), 0, rc)
    with pytest.raises(ValueError):
        derive_phase_correction((1, 1, 0), 1, rc)
    with pytest.raises(ValueError):
        derive_phase_correction((1, 0), 1, rc)
    with pytest.raises(ValueError, match="must be an integer"):
        derive_phase_correction((1, 0, 0), 1.0, rc)
    # A negative count, and counts that are not integers, with the right total.
    with pytest.raises(ValueError, match="does not detect"):
        derive_phase_correction((-1, 2, 0), 1, rc)
    with pytest.raises(ValueError, match="not an integer"):
        derive_phase_correction((0.5, 0.5, 0), 1, rc)


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
                    got = derive_phase_correction(pattern, m, rc)
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


def test_oracle_deviation_refuses_tables_that_do_not_pair_up():
    oracle = run_oracle(ResourceCoefficients.uniform(4), balanced())
    analytic = run_analytic(ResourceCoefficients.uniform(4), balanced())
    assert oracle_deviation(analytic, oracle) < 1e-10
    # Empty, shorter (an n = 2 law against an n = 4 oracle) and misordered tables.
    shorter = run_analytic(ResourceCoefficients.uniform(2), balanced())
    for table in ([], shorter, analytic[::-1]):
        with pytest.raises(ValueError, match="do not pair up"):
            oracle_deviation(table, oracle)


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


# Far below ORACLE_TOL: the branch-occupation check has no tolerance.
@_first_at(1)
def _leak_1e12_on_a_success(conditional, m):
    return _leaked(conditional, 1e-12)


@_first_at(0)
def _leak_1e12_on_a_failure(conditional, m):
    return _leaked(conditional, 1e-12)


def _add_a_forbidden_pattern(outcomes, outcome_of, encode):
    # A pattern at m = 3 whose conditional state sits on that outcome's
    # branch occupations, so only the law can refuse it.
    n = GAPPED.n
    pattern = next(iter(encode(PureState.basis_state((1, 1, 1, 0))).amplitudes))
    branch0, branch1 = branch_table(n)[3]
    conditional = encode(PureState(n, {branch0: 0.6, branch1: 0.8}))
    outcomes.append(MeasurementOutcome(pattern, 1e-3, conditional))


def _add_a_pattern_with_an_extra_photon(outcomes, outcome_of, encode):
    # n + 2 photons in the first measured slot, one more than the protocol
    # holds: the number encoding reads an impossible m, the polarization
    # encoding refuses the photon count.
    pattern, _, conditional = outcomes[0]
    extra = (GAPPED.n + 2,) + (0,) * (len(pattern) - 1)
    outcomes.append(MeasurementOutcome(extra, 1e-3, conditional))


def _fill_the_empty_branch_at_m2(outcomes, outcome_of, encode):
    # c_2 = 0 empties logical zero at m = 2.  Its occupation is a branch
    # occupation, so the outside-amplitude check cannot see amplitude there.
    index = next(i for i, o in enumerate(outcomes) if outcome_of(o.pattern) == 2)
    pattern, prob, conditional = outcomes[index]
    logical_zero = branch_table(GAPPED.n)[2][0]
    (empty,) = encode(PureState.basis_state(logical_zero)).amplitudes
    filled = PureState(conditional.mode_count, {**conditional.amplitudes, empty: 1e-6})
    outcomes[index] = MeasurementOutcome(pattern, prob, filled)


def _moved(conditional, shift):
    # The stronger branch amplitude, lengthened by ``shift`` at its own phase.
    amps = dict(conditional.amplitudes)
    occ = max(amps, key=lambda o: abs(amps[o]))
    amps[occ] *= 1 + shift / abs(amps[occ])
    return PureState(conditional.mode_count, amps)


def _move_a_probable_magnitude_by_2_oracle_tol(outcomes, outcome_of, encode):
    # Above probability 1e-10 the per-pattern bound is ORACLE_TOL itself.
    index = next(i for i, o in enumerate(outcomes) if outcome_of(o.pattern) == 1)
    pattern, prob, conditional = outcomes[index]
    assert prob >= 1e-10
    outcomes[index] = MeasurementOutcome(pattern, prob, _moved(conditional, 2 * ORACLE_TOL))


def _add_a_1e13_pattern_moved_by_1e7(outcomes, outcome_of, encode):
    # A copy of an m = 1 pattern at probability 1e-13 with a magnitude moved by
    # 1e-7, above PRUNE_EPS / sqrt(1e-13) = 3.2e-9.  The aggregate moves by
    # 1e-13 only, so the per-pattern bound alone can refuse it.
    pattern, _, conditional = next(o for o in outcomes if outcome_of(o.pattern) == 1)
    assert 1e-7 > PRUNE_EPS / math.sqrt(1e-13)
    outcomes.append(MeasurementOutcome(pattern, 1e-13, _moved(conditional, 1e-7)))


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
        ("number", _add_a_pattern_with_an_extra_photon, "impossible outcome m=5"),
        ("polarization", _add_a_pattern_with_an_extra_photon, "detected 5 photons, expected 4"),
        ("number", _fill_the_empty_branch_at_m2, "magnitudes"),
        ("polarization", _fill_the_empty_branch_at_m2, "magnitudes"),
        ("number", _leak_1e12_on_a_success, LEAK),
        ("polarization", _leak_1e12_on_a_success, LEAK),
        ("number", _leak_1e12_on_a_failure, LEAK),
        ("polarization", _leak_1e12_on_a_failure, LEAK),
        ("number", _move_a_probable_magnitude_by_2_oracle_tol, "magnitudes"),
        ("polarization", _move_a_probable_magnitude_by_2_oracle_tol, "magnitudes"),
        ("number", _add_a_1e13_pattern_moved_by_1e7, "magnitudes"),
        ("polarization", _add_a_1e13_pattern_moved_by_1e7, "magnitudes"),
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


def _skewed(seed, n):
    """A resource whose |c_i| spread over 15 decades, and a qubit with |beta| down to 1e-8."""
    rng = np.random.default_rng(seed)
    size = 10.0 ** rng.uniform(-15, 0, n + 1)
    values = size * np.exp(2j * np.pi * rng.uniform(size=n + 1))
    rc = normalize_coefficients([complex(v) for v in values], renormalize=True)
    return rc, QubitAmplitudes.from_unnormalized(1.0, complex(10.0 ** rng.uniform(-8, 0)))


def test_oracles_accept_strongly_skewed_resources():
    """Valid inputs on which the Fock engine's two truncations once read as mismatches."""
    # At pattern (0, 0, 0, 0, 2, 1) the law's logical-zero magnitude is 3.3e-10,
    # but apply pruned that amplitude: within PRUNE_EPS / sqrt(prob), not a mismatch.
    rc = ResourceCoefficients((0.6, 2e-15, 0.8))
    qubit = QubitAmplitudes.from_unnormalized(1, 1e-5)
    oracle = run_oracle_polarization(rc, qubit)
    assert oracle_deviation(run_analytic(rc, qubit), oracle) < ORACLE_TOL
    # The patterns measure_photon_counts omits below OUTCOME_EPS leave the
    # total 1.3e-12 short of 1; each m's aggregate still matches the law.
    rc, qubit = _skewed(85, 5)
    oracle = run_oracle_polarization(rc, qubit)
    total = math.fsum(outcome.probability for outcome in oracle)
    assert 1e-12 < 1.0 - total < (rc.n + 2) * ORACLE_TOL
    assert oracle_deviation(run_analytic(rc, qubit), oracle) < ORACLE_TOL


def test_omitted_patterns_fit_the_aggregate_tolerance_at_the_oracle_limits():
    """Each m's aggregate may lack its omitted patterns, each below OUTCOME_EPS.

    So the largest per-m pattern count times OUTCOME_EPS must stay below
    ORACLE_TOL at both oracle limits; raising a limit past that headroom
    (number n = 10, polarization n = 7) fails here.
    """
    n = ORACLE_LIMIT
    # m photons on n + 1 modes, most patterns at m = n + 1.
    number = max(math.comb(m + n, n) for m in range(n + 2))
    n = POLARIZATION_ORACLE_LIMIT
    # n + 1 - m horizontal and m vertical photons, each kind on n + 1 slots.
    polarization = max(math.comb(2 * n + 1 - m, n) * math.comb(m + n, n) for m in range(n + 2))
    assert number * OUTCOME_EPS < ORACLE_TOL
    assert polarization * OUTCOME_EPS < ORACLE_TOL


def test_the_per_pattern_bound_is_max_of_the_tolerance_and_the_prune_floor():
    # Below the crossover the prune term alone is used: it must be the larger.
    crossover = teleport_module._PRUNE_CROSSOVER
    assert PRUNE_EPS / math.sqrt(crossover) == pytest.approx(ORACLE_TOL, rel=1e-15)
    assert PRUNE_EPS / math.sqrt(math.nextafter(crossover, 0.0)) >= ORACLE_TOL


#: Inputs with single-branch success outcomes: the gapped resource of
#: tests/test_oracle_golden.py (c_2 = 0, so m = 2 and 3 of n = 4 have one
#: branch) and a beta = 0 qubit, for which every success has one branch.
SINGLE_BRANCH_INPUTS = {
    "gapped": (
        normalize_coefficients([complex(v) for v in (0.5, 0.5, 0.0, 0.5, 0.5)]),
        QubitAmplitudes(0.6, 0.8),
    ),
    "beta-zero": (random_coefficients(3, np.random.default_rng(43)), QubitAmplitudes(1.0, 0.0)),
}


@pytest.mark.parametrize("inputs", sorted(SINGLE_BRANCH_INPUTS))
@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_single_branch_outcomes_take_no_phase(monkeypatch, encoding, inputs):
    """The oracle asks for a phase only where the law has two branches."""
    _, oracle, _, _ = ENCODINGS[encoding]
    rc, qubit = SINGLE_BRANCH_INPUTS[inputs]
    derive = teleport_module.derive_phase_correction
    asked = []

    def counting(pattern, m, resource):
        asked.append(pattern)
        return derive(pattern, m, resource)

    monkeypatch.setattr(teleport_module, "derive_phase_correction", counting)
    outcomes = oracle(rc, qubit)
    single, double = [], []
    for law, outcome in zip(run_analytic(rc, qubit), outcomes):
        expected = law.conditional_qubit
        if expected is not None:
            (double if expected.alpha and expected.beta else single).extend(outcome.patterns)
    assert single
    assert all(record.corrective_phase == 1 + 0j for record in single)
    if encoding == "number":
        assert sorted(asked) == sorted(record.pattern for record in double)
        # The caller, not derive_phase_correction, decides single-branch outcomes.
        for pattern, *_ in single:
            assert derive(pattern, sum(pattern), rc) == fourier_phase(pattern)
    else:
        assert asked == []


@pytest.mark.parametrize(
    "encoding, sizes", [("number", range(1, 7)), ("polarization", range(1, 5))]
)
def test_pattern_checks_match_the_public_qubit_route(monkeypatch, encoding, sizes):
    """Each success record is what ``QubitAmplitudes`` gives for its pattern, to the bit."""
    module, oracle, outcome_of, encode = ENCODINGS[encoding]
    measure = module.measure_photon_counts
    measured = []

    def kept(state, modes):
        measured[:] = measure(state, modes)
        return list(measured)

    monkeypatch.setattr(module, "measure_photon_counts", kept)
    rng = np.random.default_rng(29)
    for n in sizes:
        values = [complex(v) for v in rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)]
        if n == 3:
            values[1] = 0j  # single-branch outcomes at m = 1 and 2
        rc = normalize_coefficients(values, renormalize=True)
        qubit = random_qubit(rng)
        outcomes = oracle(rc, qubit)
        conditionals = {o.pattern: o.conditional.amplitudes for o in measured}
        for law, outcome in zip(run_analytic(rc, qubit), outcomes):
            if not 1 <= law.m <= n:
                assert outcome.conditional_qubit is None
                continue
            zero, one = (
                next(iter(encode(PureState.basis_state(occ)).amplitudes))
                for occ in branch_table(n)[law.m]
            )
            qubits = []
            for record in outcome.patterns:
                assert outcome_of(record.pattern) == law.m
                amplitudes = conditionals[record.pattern]
                corrected = QubitAmplitudes.from_unnormalized(
                    amplitudes.get(zero, 0j), amplitudes.get(one, 0j) * record.corrective_phase
                )
                assert record.corrected_fidelity == corrected.fidelity_with(law.conditional_qubit)
                qubits.append((record.probability, corrected))
            # The first of the most probable patterns represents m.
            best = max(qubits, key=lambda pair: pair[0])[1]
            assert outcome.conditional_qubit == best


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


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_oracles_free_the_evolved_state_before_the_collector_resumes(monkeypatch, encoding):
    module, oracle, _, _ = ENCODINGS[encoding]
    evolve = module.apply
    evolved = []

    def watched(u, state):
        result = evolve(u, state)
        evolved.append(weakref.ref(result))
        return result

    # Whether the evolved state is still alive when each collection starts.
    alive_at_collection = []

    def on_collection(phase, info):
        if phase == "start" and evolved:
            alive_at_collection.append(evolved[0]() is not None)

    monkeypatch.setattr(module, "apply", watched)
    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    gc.callbacks.append(on_collection)
    try:
        # Threshold 1: the first allocation after the pause starts a collection.
        gc.set_threshold(1)
        gc.enable()
        oracle(ResourceCoefficients.uniform(3), balanced())
    finally:
        gc.callbacks.remove(on_collection)
        gc.set_threshold(*threshold)
        if not was_enabled:
            gc.disable()
    assert evolved[0]() is None
    assert alive_at_collection and not any(alive_at_collection)


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


def _success_report(n):
    return maximize("success", n, restarts=1).as_dict()


def _circuit_success(m):
    return correction_circuit(m, WORKED, teleported_state(WORKED, balanced(), 1)).p_success


@pytest.mark.parametrize(
    ("function", "bad", "good"),
    [
        (_success_report, math.nan, 2),
        (_success_report, 2.5, 2),
        (_success_report, True, 2),
        (optimal_avg_fidelity, 2.5, 2),
        (SimplexPoint.uniform, 2.5, 3),
        (ResourceCoefficients.uniform, 2.5, 3),
        (lambda m: kraus_for(m, WORKED).success.tolist(), 1.0, 1),
        (lambda m: teleported_state(WORKED, balanced(), m).mode_amplitudes(0), 1.0, 2),
        (_circuit_success, 1.5, 1),
        (lambda limit: [o.probability for o in run_oracle(WORKED, balanced(), limit=limit)],
         math.nan, 2),
        (lambda restarts: maximize("success", 2, restarts=restarts).as_dict(), 1.5, 1),
        (lambda samples: objective_avg_fidelity(SimplexPoint.uniform(2), samples=samples),
         2.5, 1_000),
        (lambda m: p_success_given_m(m, WORKED, balanced()), 0, 1),
        (lambda m: p_success_given_m(m, WORKED, balanced()), 3, 2),
        (lambda seed: maximize("avg_fidelity", 2, seed=seed, mc_samples=100).as_dict(), 1.5, 1),
        (lambda seed: maximize("success", 2, seed=seed, restarts=1).as_dict(), -1, 0),
        (lambda seed: objective_avg_fidelity(SimplexPoint.uniform(2), samples=1_000, seed=seed),
         -1, 0),
    ],
    ids=[
        "maximize-n-nan",
        "maximize-n-float",
        "maximize-n-bool",
        "optimal_avg_fidelity-n",
        "SimplexPoint.uniform-n",
        "ResourceCoefficients.uniform-n",
        "kraus_for-m",
        "teleported_state-m",
        "correction_circuit-m",
        "run_oracle-limit",
        "maximize-restarts",
        "objective_avg_fidelity-samples",
        "p_success_given_m-m0",
        "p_success_given_m-m-n+1",
        "maximize-avg_fidelity-seed",
        "maximize-success-seed",
        "objective_avg_fidelity-seed",
    ],
)
def test_sizes_outcomes_and_counts_must_be_integers_in_range(function, bad, good):
    with pytest.raises(ValueError):
        function(bad)
    # A numpy integer is an integer: it passes and gives the plain int's result.
    assert function(np.int64(good)) == function(good)


@pytest.mark.parametrize(
    "call",
    [
        lambda: maximize("avg_fidelity", 2, seed=1.5, mc_samples=100),
        lambda: maximize("success", 2, seed=-1, restarts=1),
        lambda: objective_avg_fidelity(SimplexPoint.uniform(2), samples=1_000, seed=-1),
    ],
    ids=["maximize-float", "maximize-negative", "objective_avg_fidelity-negative"],
)
def test_library_seeds_are_refused_by_name(call):
    # numpy refuses a negative seed too, but only once the work has begun
    # and without naming it.
    with pytest.raises(ValueError, match="seed must be"):
        call()
