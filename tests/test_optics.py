"""Mode unitaries, permanents, and multiphoton transition amplitudes."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import klm_teleport.optics as optics_module
from klm_teleport import (
    HORIZONTAL,
    VERTICAL,
    ModeUnitary,
    PureState,
    apply,
    build_resource_state,
    correction_circuit,
    dual_rail,
    fourier_unitary,
    measure_photon_counts,
    permanent,
    slot_index,
    teleported_state,
    tensor,
    transition_amplitude,
)
from klm_teleport.optics import MAX_PERMANENT
from klm_teleport.polarization import POLARIZATION_ORACLE_LIMIT
from klm_teleport.teleport import ResourceCoefficients, protocol_input

from helpers import (
    block_unitary,
    enumerate_basis,
    naive_permanent,
    random_coefficients,
    random_qubit,
    random_state,
    random_unitary,
)


@pytest.mark.parametrize("points", [1, 2, 3, 4, 5, 6])
def test_fourier_unitary_is_unitary(points):
    mat = fourier_unitary(points).matrix
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(points))) < 1e-12


def test_fourier_unitary_entries():
    mat = fourier_unitary(3).matrix
    omega = np.exp(2j * np.pi / 3)
    for row in range(3):
        for col in range(3):
            assert mat[row, col] == pytest.approx(omega ** (row * col) / math.sqrt(3))
    assert fourier_unitary(1).matrix[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fourier_unitary(0)
    for bad in (True, 2.0, 2.5):
        with pytest.raises(ValueError, match="point count must be an integer"):
            fourier_unitary(bad)


def test_mode_unitary_rejects_bad_matrices():
    bad = [
        [[1.0, 0.0]],  # not square
        [[1.0, 0.0], [0.0, 2.0]],  # not unitary
        # NaN fails every comparison, so a deviation test written as "> tol" passes it.
        [[math.nan, 0.0], [0.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
        # Its Gram product would overflow.
        [[1e200, 0.0], [0.0, 1.0]],
        np.zeros((0, 0)),
    ]
    for matrix in bad:
        # Non-finite and oversized entries are refused before the unitarity
        # product, so no numpy warning about inf * 0 or an overflow escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                ModeUnitary(np.array(matrix))


def test_apply_acts_on_the_leading_modes():
    # A k-mode block evolves the first k modes exactly as the full-size matrix
    # padded with the identity does: the same amplitudes, bit for bit, in the
    # same order.  The block route places spectator photons as a code offset,
    # the padded route multiplies in the identity's 1 + 0j; that product can
    # only flip the sign of a zero component, and apply accumulates every
    # output from 0j, which leaves no zero negative, signed-zero input included.
    def assert_same_bits(block, state):
        padded = block_unitary(block.matrix, range(block.dimension), state.mode_count)
        assert repr(list(apply(block, state).amplitudes.items())) == repr(
            list(apply(padded, state).amplitudes.items())
        )

    rng = np.random.default_rng(7)
    for modes, photons in ((1, 3), (2, 2), (3, 3), (4, 2), (5, 3), (6, 2)):
        state = random_state(modes, photons, rng)
        for k in range(1, modes + 1):
            assert_same_bits(ModeUnitary(random_unitary(k, rng)), state)
    signed_zeros = PureState(3, {(0, 0, 2): complex(0.6, -0.0), (1, 0, 1): complex(-0.0, 0.8)})
    assert_same_bits(fourier_unitary(2), signed_zeros)


def _fresh_plans(monkeypatch, budget=None):
    """Empty ``apply``'s plan cache, so the next call on any structure is its first."""
    monkeypatch.setattr(optics_module, "_plans", {})
    monkeypatch.setattr(optics_module, "_plan_entries", 0)
    if budget is not None:
        monkeypatch.setattr(optics_module, "_PLAN_BUDGET", budget)


def test_apply_keeps_the_input_norm():
    # A norm within STATE_NORM_TOL of 1 is accepted, and the output is held
    # to that norm, not to 1.
    state = PureState(2, {(1, 0): 1 + 5e-10})
    assert apply(fourier_unitary(2), state).norm() == pytest.approx(state.norm(), abs=1e-15)


def test_apply_drift_check_fires(monkeypatch):
    # Inflated output weights, as a wrong factorial ratio would give: the
    # amplitudes stay finite, so only the drift check can see it.
    _fresh_plans(monkeypatch)
    outputs = optics_module._outputs

    def inflated(codes, occ):
        targets, weights = outputs(codes, occ)
        return targets, [1.001 * w for w in weights]

    monkeypatch.setattr(optics_module, "_outputs", inflated)
    with pytest.raises(RuntimeError, match="lost normalization"):
        apply(fourier_unitary(2), PureState.basis_state((1, 0)))


def _plan_cases():
    """(unitary, state) pairs: both oracles' inputs, a correction circuit's
    slot unitary, two photons in one block mode, and spectators past the block."""
    rng = np.random.default_rng(26)
    cases = []
    for n in range(1, 7):
        rc, qubit = random_coefficients(n, rng), random_qubit(rng)
        cases.append((fourier_unitary(n + 1), protocol_input(rc, qubit)))
        # The polarization oracle refuses n above its limit.
        if n <= POLARIZATION_ORACLE_LIMIT:
            doubled = ModeUnitary(np.kron(fourier_unitary(n + 1).matrix, np.eye(2)))
            cases.append((doubled, dual_rail(protocol_input(rc, qubit))))
    engine = optics_module.apply

    def recorded(u, state):
        cases.append((u, state))
        return engine(u, state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optics_module, "apply", recorded)
        rc = ResourceCoefficients.from_weights([0.5, 0.3, 0.2])
        correction_circuit(1, rc, teleported_state(rc, random_qubit(rng), 1))
    cases.append((ModeUnitary(random_unitary(3, rng)), random_state(3, 2, rng)))
    spectators = PureState.from_terms(5, {(1, 0, 2, 0, 1): 0.6, (0, 1, 1, 1, 1): 0.8j})
    cases.append((ModeUnitary(random_unitary(2, rng)), spectators))
    return cases


def test_apply_replays_its_plans_bit_for_bit(monkeypatch):
    # A structure's first call expands it, the second plans and replays it,
    # later calls replay: all three give the same amplitudes, bit for bit,
    # in the same order.
    for u, state in _plan_cases():
        _fresh_plans(monkeypatch)
        first, second, third = (repr(list(apply(u, state).amplitudes.items())) for _ in range(3))
        plans = optics_module._plans
        assert len(plans) == len(state.amplitudes)
        assert all(isinstance(plan, optics_module._Plan) for plan in plans.values())
        assert first == second == third


def test_apply_plans_only_the_block(monkeypatch):
    # Photons past the block never meet the unitary: a plan steps through
    # block modes only, and the spectators set the term's starting code.
    rng = np.random.default_rng(29)
    for n in range(1, 6):
        _fresh_plans(monkeypatch)
        u = fourier_unitary(n + 1)
        state = protocol_input(random_coefficients(n, rng), random_qubit(rng))
        assert any(any(occ[u.dimension :]) for occ in state.amplitudes)
        first, second = (apply(u, state) for _ in range(2))
        assert first.amplitudes == second.amplitudes
        plans = list(optics_module._plans.values())
        assert plans and all(isinstance(plan, optics_module._Plan) for plan in plans)
        assert all(k < u.dimension for plan in plans for k, _ in plan.steps)


def test_apply_plans_each_zero_pattern_apart(monkeypatch):
    # The two unitaries differ only in entry (0, 2): an exact zero in one and
    # 1e-13 in the other, which the unitarity check at 1e-12 accepts.  A plan
    # keyed without the zero pattern would replay one matrix's expansion with
    # the other's entries.
    _fresh_plans(monkeypatch)
    c, s = math.cos(0.4), math.sin(0.4)
    exact = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)
    nearly = exact.copy()
    nearly[0, 2] = 1e-13
    state = random_state(3, 2, np.random.default_rng(27))
    for matrix in (exact, nearly) * 3:
        u = ModeUnitary(matrix)
        _assert_matches(apply(u, state), _elementwise(u, state, (0, 1, 2)))
    plans = optics_module._plans
    assert len(plans) == 2 * len(state.amplitudes)
    assert all(isinstance(plan, optics_module._Plan) for plan in plans.values())


def test_apply_keeps_its_plans_within_the_budget(monkeypatch):
    budget = 2000
    _fresh_plans(monkeypatch, budget)
    rng = np.random.default_rng(28)
    structures = set()
    for _ in range(40):
        modes = int(rng.integers(2, 5))
        state = random_state(modes, int(rng.integers(1, 4)), rng)
        u = ModeUnitary(random_unitary(int(rng.integers(1, modes + 1)), rng))
        structures.update((u.dimension, occ) for occ in state.amplitudes)
        first, second = (repr(list(apply(u, state).amplitudes.items())) for _ in range(2))
        assert first == second
        plans = optics_module._plans
        held = sum(p.size if isinstance(p, optics_module._Plan) else 1 for p in plans.values())
        assert held == optics_module._plan_entries <= budget
    # The budget ran out: some structures hold a plan, others were refused.
    assert any(isinstance(plan, optics_module._Plan) for plan in plans.values())
    assert len(plans) < len(structures)


def test_permanent_small_cases():
    assert permanent(np.zeros((0, 0))) == 1.0
    assert permanent(np.array([[3.5]])) == pytest.approx(3.5)
    mat = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert permanent(mat) == pytest.approx(1 * 4 + 2 * 3)
    assert permanent(np.eye(4)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        permanent(np.zeros((2, 3)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_permanent_matches_naive_enumeration(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        mat = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        assert permanent(mat) == pytest.approx(naive_permanent(mat), abs=1e-10)


def test_two_photon_interference_on_balanced_splitter():
    splitter = fourier_unitary(2)
    assert transition_amplitude(splitter, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert transition_amplitude(splitter, (1, 1), (2, 0)) == pytest.approx(1 / math.sqrt(2))
    assert transition_amplitude(splitter, (1, 1), (0, 2)) == pytest.approx(-1 / math.sqrt(2))


def test_transition_amplitude_photon_number_mismatch_is_zero():
    splitter = fourier_unitary(2)
    assert transition_amplitude(splitter, (1, 0), (1, 1)) == 0j
    with pytest.raises(ValueError):
        transition_amplitude(splitter, (1,), (1, 1))
    with pytest.raises(ValueError):
        transition_amplitude(splitter, (1, -1), (0, 0))
    # Counts follow checked_count: bool and float are refused, numpy integers pass.
    for source, target in [((True, 0), (1, 0)), ((1.0, 0), (1, 0)), ((1, 0), (0, -1))]:
        with pytest.raises(ValueError, match="photon count must be"):
            transition_amplitude(splitter, source, target)
    numpy_counts = (np.int64(1), np.uint8(1))
    assert transition_amplitude(splitter, numpy_counts, (2, 0)) == transition_amplitude(
        splitter, (1, 1), (2, 0)
    )


def test_transition_amplitudes_form_unitary_map_on_fixed_photon_sector():
    rng = np.random.default_rng(5)
    u = ModeUnitary(random_unitary(3, rng))
    basis = enumerate_basis(3, 2)
    mat = np.array(
        [[transition_amplitude(u, src, dst) for src in basis] for dst in basis]
    )
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(len(basis)))) < 1e-10


def test_apply_matches_elementwise_transition_amplitudes():
    rng = np.random.default_rng(8)
    u = ModeUnitary(random_unitary(3, rng))
    state = random_state(3, 2, rng)
    evolved = apply(u, state)
    for target in enumerate_basis(3, 2):
        expected = sum(
            transition_amplitude(u, src, target) * amp
            for src, amp in state.amplitudes.items()
        )
        assert evolved.amplitude(target) == pytest.approx(expected, abs=1e-12)


def test_apply_preserves_norm_and_composes():
    rng = np.random.default_rng(13)
    u = ModeUnitary(random_unitary(4, rng))
    v = ModeUnitary(random_unitary(4, rng))
    state = random_state(4, 2, rng)
    assert apply(u, state).norm() == pytest.approx(1.0, abs=1e-10)
    sequential = apply(u, apply(v, state))
    combined = apply(ModeUnitary(u.matrix @ v.matrix), state)
    for occ in enumerate_basis(4, 2):
        assert sequential.amplitude(occ) == pytest.approx(
            combined.amplitude(occ), abs=1e-10
        )


def test_apply_skips_identity_modes_exactly():
    rng = np.random.default_rng(21)
    block = random_unitary(2, rng)
    u = block_unitary(block, (1, 3), 5)
    # Untouched modes pass through as the exact identity.
    passive = PureState.basis_state((2, 0, 1, 0, 3))
    assert apply(u, passive).amplitudes == passive.amplitudes
    # A photon on an embedded mode sees exactly the block.
    active = PureState.basis_state((0, 1, 0, 0, 0))
    evolved_active = apply(u, active)
    assert evolved_active.amplitude((0, 1, 0, 0, 0)) == pytest.approx(block[0, 0])
    assert evolved_active.amplitude((0, 0, 0, 1, 0)) == pytest.approx(block[1, 0])
    # Mixed occupation: spectator counts are carried through every term.
    mixed = PureState.basis_state((3, 1, 0, 2, 1))
    evolved = apply(u, mixed)
    assert evolved.norm() == pytest.approx(1.0, abs=1e-12)
    for occ in evolved.amplitudes:
        assert (occ[0], occ[2], occ[4]) == (3, 0, 1)
        assert occ[1] + occ[3] == 3


def test_apply_identity_returns_same_amplitudes():
    rng = np.random.default_rng(34)
    state = random_state(3, 2, rng)
    evolved = apply(ModeUnitary(np.eye(3)), state)
    assert evolved.amplitudes == state.amplitudes


def _elementwise(u, state, block):
    """sum_S amp_S <T|U|S> by permanents, for every T that keeps a source's
    occupation off ``block`` (U is the identity there)."""
    targets = set()
    for src in state.amplitudes:
        for inner in enumerate_basis(len(block), sum(src[k] for k in block)):
            occ = list(src)
            for k, count in zip(block, inner):
                occ[k] = count
            targets.add(tuple(occ))
    return {
        target: sum(
            amp * transition_amplitude(u, src, target) for src, amp in state.amplitudes.items()
        )
        for target in targets
    }


def _assert_matches(evolved, expected):
    assert set(evolved.amplitudes) <= set(expected)
    for target, value in expected.items():
        assert evolved.amplitude(target) == pytest.approx(value, abs=1e-12)


def test_apply_matches_transition_amplitudes_on_an_embedded_block():
    # 3 photons on a random 4-mode block, 2 more spread over the spectators.
    rng = np.random.default_rng(89)
    block = (1, 2, 4, 6)
    spectators = (0, 3, 5)
    u = block_unitary(random_unitary(4, rng), block, 7)
    terms = {}
    for _ in range(12):
        occ = [0] * 7
        for k, count in zip(block, rng.multinomial(3, [0.25] * 4)):
            occ[k] = int(count)
        for k, count in zip(spectators, rng.multinomial(2, [1 / 3] * 3)):
            occ[k] = int(count)
        terms[tuple(occ)] = complex(rng.standard_normal(), rng.standard_normal())
    nrm = math.sqrt(math.fsum(abs(a) ** 2 for a in terms.values()))
    state = PureState(7, {occ: a / nrm for occ, a in terms.items()})
    _assert_matches(apply(u, state), _elementwise(u, state, block))


def test_apply_moves_photons_along_a_permutation():
    # U[l, k] = 1 for l = k + 1 (mod 3): every photon moves one mode on.
    shift = ModeUnitary(np.roll(np.eye(3), 1, axis=0))
    state = PureState.from_terms(3, {(2, 1, 0): 0.6, (0, 0, 3): 0.8j})
    assert apply(shift, state).amplitudes == {(0, 2, 1): 0.6, (3, 0, 0): 0.8j}


def _number_oracle_input(n, rng):
    qubit = random_qubit(rng)
    state = tensor(
        PureState.from_terms(1, {(0,): qubit.alpha, (1,): qubit.beta}),
        build_resource_state(random_coefficients(n, rng)),
    )
    block = tuple(range(n + 1))
    return block_unitary(fourier_unitary(n + 1).matrix, block, 2 * n + 1), state, block


def _polarization_oracle_input(n, rng):
    qubit = random_qubit(rng)
    state = tensor(
        PureState.from_terms(2, {(1, 0): qubit.alpha, (0, 1): qubit.beta}),
        dual_rail(build_resource_state(random_coefficients(n, rng))),
    )
    block = tuple(slot_index(rail, HORIZONTAL) for rail in range(n + 1)) + tuple(
        slot_index(rail, VERTICAL) for rail in range(n + 1)
    )
    doubled = np.kron(np.eye(2), fourier_unitary(n + 1).matrix)
    return block_unitary(doubled, block, 2 * (2 * n + 1)), state, block


def test_apply_evolves_oracle_inputs_without_permanents(monkeypatch):
    rng = np.random.default_rng(144)
    cases = [_number_oracle_input(3, rng), _polarization_oracle_input(2, rng)]
    expected = [_elementwise(u, state, block) for u, state, block in cases]

    def no_permanents(rows):
        raise AssertionError("apply evaluated a permanent")

    monkeypatch.setattr(optics_module, "_permanent_rows", no_permanents)
    for (u, state, _), values in zip(cases, expected):
        _assert_matches(apply(u, state), values)


def test_apply_requires_matching_dimension_and_normalization():
    rng = np.random.default_rng(55)
    u = ModeUnitary(random_unitary(3, rng))
    with pytest.raises(ValueError, match="3-mode unitary does not fit a 2-mode state"):
        apply(u, random_state(2, 1, rng))
    with pytest.raises(ValueError):
        apply(u, PureState(3, {(1, 0, 0): 0.5}))
    # The constructor refuses a NaN amplitude, so one put in afterwards stands
    # for a state that skipped the check; its NaN norm must still be refused.
    nan_norm = PureState(2, {(1, 0): 0.6, (0, 1): 0.8})
    nan_norm.amplitudes[(1, 0)] = math.nan
    with pytest.raises(ValueError, match="not normalized"):
        apply(ModeUnitary(np.eye(2)), nan_norm)
    with pytest.raises(ValueError, match="not normalized"):
        measure_photon_counts(nan_norm, 1)
    with pytest.raises(ValueError, match="overflows a float"):
        apply(fourier_unitary(1), PureState(1, {(1,): 1e200}))


def test_apply_handles_39_photons_per_term_and_refuses_40():
    # A 39-photon permanent is out of reach of the Gray-code reference, so a
    # crowd of spectators sits on a mode the unitary leaves alone and the
    # two interfering photons are checked against transition_amplitude.
    rng = np.random.default_rng(39)
    block = ModeUnitary(random_unitary(2, rng))
    u = block_unitary(block.matrix, (1, 2), 3)
    evolved = apply(u, PureState.basis_state((37, 1, 1)))
    targets = enumerate_basis(2, 2)
    for a, b in targets:
        expected = transition_amplitude(block, (1, 1), (a, b))
        assert evolved.amplitude((37, a, b)) == pytest.approx(expected, abs=1e-12)
    assert len(evolved.amplitudes) == len(targets)
    # All 39 photons through a real splitter: |39, 0> becomes
    # sum_k sqrt(C(39, k)) cos^(39-k) sin^k |39-k, k>.
    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    splitter = ModeUnitary(np.array([[c, -s], [s, c]]))
    evolved = apply(splitter, PureState.basis_state((39, 0)))
    for k in range(40):
        expected = math.sqrt(math.comb(39, k)) * c ** (39 - k) * s**k
        assert evolved.amplitude((39 - k, k)) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError, match="at most 39"):
        apply(splitter, PureState.basis_state((40, 0)))
    with pytest.raises(ValueError, match="at most 39"):
        apply(u, PureState.basis_state((20, 10, 10)))


def test_transition_amplitude_refuses_more_photons_than_the_engine_holds():
    # (40, 0) overran the factorial table; (20, 20) passes every per-count
    # lookup and would start a 2^40-step permanent, and (39, 0), which fits
    # the table, a 2^39-step one.
    splitter = fourier_unitary(2)
    start = time.perf_counter()
    for source in [(40, 0), (20, 20), (39, 0), (MAX_PERMANENT + 1, 0)]:
        refusal = f"the source holds {sum(source)} photons.*at most {MAX_PERMANENT}"
        with pytest.raises(ValueError, match=refusal):
            transition_amplitude(splitter, source, source)
    assert time.perf_counter() - start < 1.0
    # At the limit the call goes ahead: no path from mode 0 to mode 1.
    blocked = ModeUnitary(np.eye(2))
    assert transition_amplitude(blocked, (MAX_PERMANENT, 0), (0, MAX_PERMANENT)) == 0j
    # Below it, |k, 0> -> |k, 0> through the splitter is U[0, 0]^k.
    u00 = splitter.matrix[0, 0]
    assert transition_amplitude(splitter, (8, 0), (8, 0)) == pytest.approx(u00**8, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_permanent_gray_code_agrees_with_naive_on_random_4x4(seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert permanent(mat) == pytest.approx(naive_permanent(mat), abs=1e-10)
