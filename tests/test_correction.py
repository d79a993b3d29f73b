"""Kraus corrections, success probabilities, and the extrema counting formula."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klm_teleport import (
    KrausPair,
    PlateauError,
    QubitAmplitudes,
    ResourceCoefficients,
    adjacent_minima_sum,
    classify_sequence,
    extrema_formula,
    kraus_for,
    p_success_closed_form,
    p_success_given_m,
    p_success_total_brute,
)
from klm_teleport.teleport import normalize_coefficients

from helpers import random_coefficients, random_strict_weights


WORKED = ResourceCoefficients.from_weights([0.5, 0.3, 0.2])


def balanced():
    r = 1 / math.sqrt(2)
    return QubitAmplitudes(r, r)


def test_kraus_pair_demands_completeness():
    good = np.diag([1.0, 0.5]).astype(complex)
    bad = np.diag([math.sqrt(0.75), 0.0]).astype(complex)
    with pytest.raises(ValueError):
        KrausPair(good, bad, 1)
    KrausPair(good, np.diag([0.0, math.sqrt(0.75)]).astype(complex), 1)


def test_kraus_frozen_values():
    # Ratios are scale-invariant, so weights proportional to (0.5, 0.3) pin them.
    # The logical-one slot of the conditional carries c_{m-1}; with |c_0|^2 = 0.5
    # dominating |c_1|^2 = 0.3 it is the branch trimmed by sqrt(0.3/0.5).
    rc = normalize_coefficients([math.sqrt(0.5), math.sqrt(0.3)], renormalize=True)
    pair = kraus_for(1, rc)
    np.testing.assert_allclose(pair.success, np.diag([1.0, math.sqrt(0.6)]), atol=1e-12)
    np.testing.assert_allclose(pair.failure, np.diag([0.0, math.sqrt(0.4)]), atol=1e-12)


def test_kraus_mirror_branch():
    rc = normalize_coefficients([math.sqrt(0.3), math.sqrt(0.5)], renormalize=True)
    pair = kraus_for(1, rc)
    np.testing.assert_allclose(pair.success, np.diag([math.sqrt(0.6), 1.0]), atol=1e-12)
    np.testing.assert_allclose(pair.failure, np.diag([math.sqrt(0.4), 0.0]), atol=1e-12)


def test_kraus_ratio_keeps_coefficient_phases():
    c0 = 0.5 * np.exp(0.3j)
    c1 = math.sqrt(0.75) * np.exp(-1.1j)
    rc = ResourceCoefficients((complex(c0), complex(c1)))
    pair = kraus_for(1, rc)
    ratio = pair.success[0, 0]
    assert ratio == pytest.approx(c0 / c1)
    assert pair.success[1, 1] == 1.0


def test_kraus_completeness_on_random_instances():
    rng = np.random.default_rng(41)
    for n in (1, 2, 4):
        rc = random_coefficients(n, rng)
        for m in range(1, n + 1):
            pair = kraus_for(m, rc)
            total = pair.success.conj().T @ pair.success + pair.failure.conj().T @ pair.failure
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_kraus_rejects_bad_m_and_dead_branches():
    rc = ResourceCoefficients.uniform(2)
    with pytest.raises(ValueError):
        kraus_for(0, rc)
    with pytest.raises(ValueError):
        kraus_for(3, rc)
    dead = ResourceCoefficients.from_weights([0.5, 0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        kraus_for(2, dead)


def test_p_success_given_m_frozen():
    assert p_success_given_m(1, WORKED, balanced()) == pytest.approx(0.75)
    assert p_success_given_m(2, WORKED, balanced()) == pytest.approx(0.8)


def test_p_success_given_m_rejects_zero_probability():
    # c_0 = c_1 = 0 makes outcome m = 1 impossible for every input qubit.
    dead = ResourceCoefficients.from_weights([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        p_success_given_m(1, dead, balanced())
    # A merely lopsided qubit is fine: uniform coefficients keep p(1) > 0.
    p_success_given_m(1, ResourceCoefficients.uniform(2), QubitAmplitudes(0.0, 1.0))


def test_adjacent_minima_sum_frozen():
    assert adjacent_minima_sum((0.1, 0.2, 0.7)) == pytest.approx(0.3)
    assert adjacent_minima_sum((0.5, 0.5)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        adjacent_minima_sum((0.5,))
    with pytest.raises(ValueError):
        adjacent_minima_sum((0.5, -0.1, 0.6))


def test_brute_success_uniform_is_n_over_n_plus_one():
    for n in range(1, 9):
        rc = ResourceCoefficients.uniform(n)
        assert abs(p_success_total_brute(rc) - n / (n + 1)) < 1e-12


def test_classify_sequence_frozen_cases():
    cls = classify_sequence((0.1, 0.3, 0.05, 0.35, 0.2))
    assert cls.maxima == (1, 3)
    assert cls.interior_minima == (2,)
    assert cls.strict

    cls = classify_sequence((0.4, 0.1, 0.2, 0.3))
    assert cls.maxima == (0, 3)
    assert cls.interior_minima == (1,)
    assert cls.strict


def test_classify_sequence_flags_plateaus():
    assert not classify_sequence((0.25, 0.25, 0.5)).strict
    assert not classify_sequence((1 / 3,) * 3).strict
    assert classify_sequence((0.2, 0.8)).strict


def test_classify_extrema_on_coefficients():
    cls = classify_sequence(WORKED.weights())
    assert cls.maxima == (0,)
    assert cls.interior_minima == ()
    assert cls.strict


def test_extrema_formula_frozen_worked_example():
    weights = (0.1, 0.3, 0.05, 0.35, 0.2)
    assert extrema_formula(weights) == pytest.approx(0.4, abs=1e-15)
    assert adjacent_minima_sum(weights) == pytest.approx(0.4, abs=1e-15)

    weights = (0.4, 0.1, 0.2, 0.3)
    assert extrema_formula(weights) == pytest.approx(0.4, abs=1e-15)
    assert adjacent_minima_sum(weights) == pytest.approx(0.4, abs=1e-15)


def test_extrema_formula_raises_on_plateau():
    with pytest.raises(PlateauError):
        extrema_formula((0.25, 0.25, 0.5))
    with pytest.raises(PlateauError):
        extrema_formula((1 / 3, 1 / 3, 1 / 3))


def test_closed_form_matches_brute_force():
    rng = np.random.default_rng(47)
    for n in (2, 3, 5, 8):
        for _ in range(50):
            weights = random_strict_weights(n, rng)
            rc = ResourceCoefficients.from_weights(weights)
            assert abs(p_success_closed_form(rc) - p_success_total_brute(rc)) < 1e-12


def test_closed_form_raises_on_uniform():
    with pytest.raises(PlateauError):
        p_success_closed_form(ResourceCoefficients.uniform(3))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=10))
def test_formula_equals_pairwise_minima_property(seed, n):
    weights = random_strict_weights(n, np.random.default_rng(seed))
    assert abs(extrema_formula(weights) - adjacent_minima_sum(weights)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=10))
def test_strict_sequences_alternate_extrema(seed, n):
    weights = random_strict_weights(n, np.random.default_rng(seed))
    cls = classify_sequence(weights)
    assert cls.strict
    assert len(cls.maxima) == len(cls.interior_minima) + 1
