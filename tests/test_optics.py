"""Mode unitaries, permanents, and multiphoton transition amplitudes."""

import math
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
    dual_rail,
    embed,
    fourier_unitary,
    measure_photon_counts,
    permanent,
    slot_index,
    tensor,
    transition_amplitude,
)

from helpers import (
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


def test_mode_unitary_rejects_bad_matrices():
    bad = [
        [[1.0, 0.0]],  # not square
        [[1.0, 0.0], [0.0, 2.0]],  # not unitary
        # NaN fails every comparison, so a deviation test written as "> tol" passes it.
        [[math.nan, 0.0], [0.0, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
    ]
    for matrix in bad:
        # Non-finite entries are refused before the unitarity product, so no
        # numpy warning about inf * 0 escapes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                ModeUnitary(np.array(matrix))


def test_embed_places_block_on_named_modes():
    two_point = fourier_unitary(2)
    mat = embed(two_point, (2, 0), 3).matrix
    r = 1 / math.sqrt(2)
    assert mat[2, 2] == pytest.approx(r)
    assert mat[2, 0] == pytest.approx(r)
    assert mat[0, 2] == pytest.approx(r)
    assert mat[0, 0] == pytest.approx(-r)
    assert mat[1, 1] == pytest.approx(1.0)
    assert mat[1, 0] == mat[0, 1] == 0.0


def test_embed_validates_modes():
    two_point = fourier_unitary(2)
    with pytest.raises(ValueError):
        embed(two_point, (0, 0), 3)
    with pytest.raises(ValueError):
        embed(two_point, (0, 3), 3)


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
    u = embed(ModeUnitary(block), (1, 3), 5)
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
    u = embed(ModeUnitary(random_unitary(4, rng)), block, 7)
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
    return embed(fourier_unitary(n + 1), block, 2 * n + 1), state, block


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
    return embed(ModeUnitary(doubled), block, 2 * (2 * n + 1)), state, block


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
    with pytest.raises(ValueError):
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
        measure_photon_counts(nan_norm, [0])


def test_apply_handles_39_photons_per_term_and_refuses_40():
    # A 39-photon permanent is out of reach of the Gray-code reference, so a
    # crowd of spectators sits on a mode the unitary leaves alone and the
    # two interfering photons are checked against transition_amplitude.
    rng = np.random.default_rng(39)
    block = ModeUnitary(random_unitary(2, rng))
    u = embed(block, (1, 2), 3)
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


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_permanent_gray_code_agrees_with_naive_on_random_4x4(seed):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert permanent(mat) == pytest.approx(naive_permanent(mat), abs=1e-10)
