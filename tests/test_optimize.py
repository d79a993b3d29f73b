"""Exact optima and their search check, closed-form averaged fidelities, bound certificates."""

import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from klm_teleport import (
    AvgFidelityEstimate,
    FailureConvention,
    OracleMismatchError,
    QubitAmplitudes,
    SimplexPoint,
    adjacent_minima_sum,
    average_fidelity_for_qubit,
    avg_fidelity_closed_form,
    certify_klm_bound,
    maximize,
    objective_avg_fidelity,
    optimal_avg_fidelity,
    optimal_fidelity_profile,
)
from klm_teleport.optimize import (
    NM_FATOL,
    NM_XATOL,
    _sample_fidelities,
    minimize,
    success_dual_certificate,
)
from klm_teleport.teleport import RESOURCE_LIMIT

from helpers import random_point, random_qubit, random_strict_weights


def test_simplex_point_validation():
    with pytest.raises(ValueError):
        SimplexPoint((0.5, 0.6))
    with pytest.raises(ValueError):
        SimplexPoint((1.1, -0.1))
    with pytest.raises(ValueError):
        SimplexPoint((1.0,))
    with pytest.raises(ValueError, match="finite"):
        SimplexPoint((float("nan"), 1.0))
    SimplexPoint((0.25, 0.75))


def test_simplex_point_constructors():
    uniform = SimplexPoint.uniform(3)
    assert uniform.n == 3
    assert math.fsum(uniform.weights) == 1.0
    np.testing.assert_allclose(uniform.weights, [0.25] * 4, atol=1e-15)

    from_raw = SimplexPoint.from_unnormalized([2.0, 1.0, 1.0])
    np.testing.assert_allclose(from_raw.weights, [0.5, 0.25, 0.25], atol=1e-15)
    with pytest.raises(ValueError):
        SimplexPoint.from_unnormalized([0.0, 0.0])
    with pytest.raises(ValueError):
        SimplexPoint.from_unnormalized([1.0, -0.5])
    with pytest.raises(ValueError, match="overflow"):
        SimplexPoint.from_unnormalized([1e308] * 3)
    with pytest.raises(ValueError, match="at least 1"):
        SimplexPoint.uniform(0)

    rng = np.random.default_rng(3)
    drawn = random_point(4, rng)
    assert drawn.n == 4
    assert math.fsum(drawn.weights) == pytest.approx(1.0, abs=1e-12)


def test_simplex_point_to_coefficients_roundtrip():
    point = SimplexPoint((0.5, 0.3, 0.2))
    rc = point.to_coefficients()
    np.testing.assert_allclose(rc.weights(), point.weights, atol=1e-15)


def test_avg_fidelity_closed_form_frozen():
    assert avg_fidelity_closed_form(SimplexPoint.uniform(1)) == pytest.approx(5 / 6)
    assert avg_fidelity_closed_form(SimplexPoint.uniform(2)) == pytest.approx(8 / 9)
    # A point mass has no cross term: every outcome collapses or passes one branch.
    assert avg_fidelity_closed_form(SimplexPoint((1.0, 0.0))) == pytest.approx(2 / 3)
    assert avg_fidelity_closed_form(
        SimplexPoint((1.0, 0.0)), FailureConvention.ZERO_FIDELITY
    ) == pytest.approx(1 / 3)
    # ZERO_FIDELITY removes the boundary outcomes' credit.
    point = SimplexPoint((0.5, 0.3, 0.2))
    collapse = avg_fidelity_closed_form(point)
    zero = avg_fidelity_closed_form(point, FailureConvention.ZERO_FIDELITY)
    assert collapse - zero == pytest.approx((0.5 + 0.2) / 3, abs=1e-12)


def test_conventions_are_taken_by_value():
    point = SimplexPoint.uniform(2)
    qubit = QubitAmplitudes(0.6, 0.8j)
    assert avg_fidelity_closed_form(point, "collapse") == pytest.approx(8 / 9)
    for convention in FailureConvention:
        value = convention.value
        assert avg_fidelity_closed_form(point, value) == avg_fidelity_closed_form(point, convention)
        assert average_fidelity_for_qubit(point, qubit, value) == average_fidelity_for_qubit(
            point, qubit, convention
        )
        assert objective_avg_fidelity(
            point, samples=100, convention=value
        ) == objective_avg_fidelity(point, samples=100, convention=convention)
        assert maximize(
            "avg_fidelity", 2, convention=value, mc_samples=100
        ).as_dict() == maximize("avg_fidelity", 2, convention=convention, mc_samples=100).as_dict()


@pytest.mark.parametrize("bad", ["bogus", "COLLAPSE", None, 0])
def test_unknown_conventions_are_refused(bad):
    point = SimplexPoint.uniform(2)
    with pytest.raises(ValueError, match="FailureConvention"):
        avg_fidelity_closed_form(point, bad)
    with pytest.raises(ValueError, match="FailureConvention"):
        average_fidelity_for_qubit(point, QubitAmplitudes(0.6, 0.8), bad)
    with pytest.raises(ValueError, match="FailureConvention"):
        objective_avg_fidelity(point, samples=100, convention=bad)
    for objective in ("success", "avg_fidelity"):
        with pytest.raises(ValueError, match="FailureConvention"):
            maximize(objective, 2, convention=bad, mc_samples=100)


def test_per_qubit_fidelity_routes_agree():
    # Dual route: the outcome-by-outcome protocol run against the vectorized
    # sampler expression, for both failure conventions.
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        point = random_point(n, rng)
        qubit = random_qubit(rng)
        a = np.array([abs(qubit.alpha) ** 2])
        for convention in FailureConvention:
            literal = average_fidelity_for_qubit(point, qubit, convention)
            vectorized = _sample_fidelities(point.weights, a, convention)[0]
            assert literal == pytest.approx(vectorized, abs=1e-12)


def test_logical_basis_states_have_unit_fidelity_under_collapse():
    point = SimplexPoint((0.5, 0.3, 0.2))
    for qubit in (QubitAmplitudes(1.0, 0.0), QubitAmplitudes(0.0, 1.0)):
        assert average_fidelity_for_qubit(point, qubit) == pytest.approx(1.0, abs=1e-12)


def test_objective_avg_fidelity_matches_closed_form():
    point = SimplexPoint((0.5, 0.3, 0.2))
    estimate = objective_avg_fidelity(point, samples=200_000, seed=11)
    assert isinstance(estimate, AvgFidelityEstimate)
    assert estimate.samples == 200_000
    assert estimate.closed_form == pytest.approx(avg_fidelity_closed_form(point))
    assert abs(estimate.estimate - estimate.closed_form) <= 3 * estimate.std_error + 1e-12
    again = objective_avg_fidelity(point, samples=200_000, seed=11)
    assert again.estimate == estimate.estimate
    assert again.std_error == estimate.std_error
    with pytest.raises(ValueError, match="samples must be at least 2"):
        objective_avg_fidelity(point, samples=1, seed=11)


def test_objective_avg_fidelity_zero_fidelity_convention():
    point = SimplexPoint((0.5, 0.3, 0.2))
    estimate = objective_avg_fidelity(
        point, samples=200_000, seed=13, convention=FailureConvention.ZERO_FIDELITY
    )
    assert estimate.closed_form == pytest.approx(
        avg_fidelity_closed_form(point, FailureConvention.ZERO_FIDELITY)
    )
    assert abs(estimate.estimate - estimate.closed_form) <= 3 * estimate.std_error + 1e-12


@pytest.mark.parametrize("convention", list(FailureConvention))
def test_monte_carlo_check_catches_a_perturbed_closed_form(monkeypatch, convention):
    import klm_teleport.optimize as optimize_module

    exact = optimize_module.avg_fidelity_closed_form
    monkeypatch.setattr(
        optimize_module,
        "avg_fidelity_closed_form",
        lambda point, conv=FailureConvention.COLLAPSE: exact(point, conv) + 1e-3,
    )
    with pytest.raises(OracleMismatchError, match="1e-09"):
        objective_avg_fidelity(
            optimal_fidelity_profile(3), samples=1_000_000, seed=2, convention=convention
        )


def test_optimal_profile_attains_the_closed_form_optimum():
    for n in range(1, 9):
        profile = optimal_fidelity_profile(n)
        value = avg_fidelity_closed_form(profile)
        assert value == pytest.approx(optimal_avg_fidelity(n), abs=1e-12)
        assert optimal_avg_fidelity(n) == pytest.approx(
            (2.0 + math.cos(math.pi / (n + 2))) / 3.0, abs=1e-15
        )
    for sized in (optimal_fidelity_profile, optimal_avg_fidelity):
        with pytest.raises(ValueError, match="at least 1"):
            sized(0)


def test_random_points_never_beat_the_optimum():
    # COLLAPSE is bounded by the sine-profile formula, ZERO_FIDELITY by the
    # exact solver's own optimum; random points must stay below either.
    rng = np.random.default_rng(71)
    for convention in FailureConvention:
        for n in (2, 4, 6):
            if convention is FailureConvention.COLLAPSE:
                best = optimal_avg_fidelity(n)
            else:
                best = maximize(
                    "avg_fidelity", n, convention=convention, mc_samples=10_000
                ).best_value
            for _ in range(1000):
                point = random_point(n, rng)
                assert avg_fidelity_closed_form(point, convention) <= best + 1e-12


def test_maximize_success_hits_uniform():
    report = maximize("success", 2, seed=0, restarts=8)
    assert report.best_point.weights == SimplexPoint.uniform(2).weights
    assert report.best_value == adjacent_minima_sum(SimplexPoint.uniform(2).weights)
    assert report.best_value == pytest.approx(2 / 3, abs=1e-15)
    assert report.objective == "success"
    assert report.method == "dual-certificate"
    assert not report.budget_exhausted
    assert report.evaluations <= 30_000
    assert report.certificate["search_gap"] >= -1e-12


def test_success_dual_certificate_is_exact():
    for n in [*range(1, 41), RESOURCE_LIMIT]:
        multipliers, coefficients = success_dual_certificate(n)
        assert multipliers == [Fraction(n + 1 - m, n + 1) for m in range(1, n + 1)]
        assert all(0 < lam < 1 for lam in multipliers)
        assert coefficients == [Fraction(n, n + 1)] * (n + 1)
    report = maximize("success", 3, restarts=1)
    assert report.certificate["dual_multipliers"] == ["3/4", "1/2", "1/4"]
    assert report.certificate["dual_coefficients"] == ["3/4"] * 4
    with pytest.raises(ValueError, match="at least 1"):
        success_dual_certificate(0)


def test_search_beating_the_certified_optimum_is_a_mismatch(monkeypatch):
    import klm_teleport.optimize as optimize_module

    n = 4

    def too_good(fun, x0, **kwargs):
        return SimpleNamespace(fun=-(n / (n + 1) + 1e-9), x=x0)

    monkeypatch.setattr(optimize_module, "minimize", too_good)
    with pytest.raises(OracleMismatchError, match="above the certified optimum"):
        maximize("success", n, restarts=2)


def test_success_search_replays_the_random_stages(monkeypatch):
    # The four random Nelder-Mead stages of seed 0 spend 2149 + 1740 + 1620
    # + 1338 evaluations at n = 4; any change to the objective's bits, the
    # simplex arithmetic or its tie order moves these pins.  They were taken
    # with scipy 1.17.1's adaptive Nelder-Mead, which the package's own loop
    # replays bit for bit.
    import klm_teleport.optimize as optimize_module

    pins = {
        1: (856, "0.5"),
        4: (6_847, "0.7997094608437607"),
        6: (15_928, "0.8543768047249483"),
        12: (39_442, "0.8937960197516074"),
    }
    for n, pin in pins.items():
        report = maximize("success", n, seed=0, restarts=4)
        assert (report.evaluations, repr(report.certificate["search_best_value"])) == pin
        assert not report.budget_exhausted
    # A budget that ends the first stage part-way through.
    monkeypatch.setattr(optimize_module, "SEARCH_BUDGET", 20_000)
    report = maximize("success", 50, seed=0, restarts=4)
    assert (report.evaluations, repr(report.certificate["search_best_value"])) == (
        20_000,
        "0.8647423492360952",
    )
    assert report.budget_exhausted


def test_nelder_mead_replays_scipy_bit_for_bit():
    # scipy's adaptive Nelder-Mead is the reference: every objective argument,
    # the evaluation count and the best value must match it exactly.  Cap 1
    # cuts the start simplex short, and at n = 1, seed 0 cap 159 cuts a
    # shrink after its first vertex.
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def recorded(points):
        def negated(x):
            points.append(x.tobytes())
            e = np.exp(x - x.max())
            w = (e / e.sum()).tolist()
            return -math.fsum(map(min, w, w[1:]))

        return negated

    for n in (1, 4, 7):
        dim = n + 1
        for seed in range(3):
            x0 = np.random.default_rng(seed).standard_normal(dim)
            for cap in (1, dim + 1, 64, 159, 500):
                ours, theirs = [], []
                result = minimize(recorded(ours), x0, maxfev=cap)
                reference = scipy_optimize.minimize(
                    recorded(theirs),
                    x0,
                    method="Nelder-Mead",
                    options={
                        "xatol": NM_XATOL,
                        "fatol": NM_FATOL,
                        "maxfev": cap,
                        "maxiter": cap,
                        "adaptive": True,
                    },
                )
                assert ours == theirs, (n, seed, cap)
                assert result.fun.hex() == float(reference.fun).hex(), (n, seed, cap)


def test_restart_starts_are_drawn_lazily(monkeypatch):
    import klm_teleport.optimize as optimize_module

    monkeypatch.setattr(optimize_module, "SEARCH_BUDGET", 20)
    maximize("success", 4, restarts=1)  # first-call set-up stays outside the trace
    tracemalloc.start()
    try:
        report = maximize("success", 4, restarts=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.budget_exhausted
    assert peak < 2**20


def test_maximize_is_seed_deterministic():
    first = maximize("success", 3, seed=5, restarts=4)
    second = maximize("success", 3, seed=5, restarts=4)
    assert first.best_point.weights == second.best_point.weights
    assert first.best_value == second.best_value
    assert first.evaluations == second.evaluations


def test_maximize_avg_fidelity_reaches_the_analytic_optimum(monkeypatch):
    import klm_teleport.optimize as optimize_module

    def no_search(*args, **kwargs):
        raise AssertionError("the exact solve must not search")

    monkeypatch.setattr(optimize_module, "minimize", no_search)
    report = maximize("avg_fidelity", 2, seed=0, mc_samples=100_000)
    assert report.best_value == pytest.approx(optimal_avg_fidelity(2), abs=1e-15)
    assert report.certificate["analytic_optimum"] == pytest.approx(optimal_avg_fidelity(2))
    assert "mc_estimate" in report.certificate
    assert report.certificate["uniform_value"] == pytest.approx(8 / 9)
    assert report.method == "tridiagonal-eigenvector"
    assert (report.evaluations, report.restarts, report.budget_exhausted) == (1, 0, False)


def test_maximize_avg_fidelity_matches_the_sine_profile():
    # The eigenvector solve against the independent sine formula.
    for n in range(1, 13):
        report = maximize("avg_fidelity", n, mc_samples=10_000)
        expected = optimal_fidelity_profile(n).weights
        np.testing.assert_allclose(report.best_point.weights, expected, rtol=0, atol=1e-12)
        assert abs(report.best_value - optimal_avg_fidelity(n)) <= 1e-15


def test_maximize_respects_tiny_budgets(monkeypatch):
    import klm_teleport.optimize as optimize_module

    monkeypatch.setattr(optimize_module, "SEARCH_BUDGET", 50)
    report = maximize("success", 4, seed=0, restarts=2)
    assert report.budget_exhausted
    assert report.evaluations == 50  # no objective call past the cap


def test_maximize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        maximize("entropy", 2)
    with pytest.raises(ValueError):
        maximize("success", 0)
    with pytest.raises(ValueError, match="restarts"):
        maximize("success", 4, restarts=0)
    with pytest.raises(TypeError, match="budget"):
        maximize("success", 4, budget=50)  # fixed at SEARCH_BUDGET
    with pytest.raises(ValueError, match="samples"):
        maximize("avg_fidelity", 2, mc_samples=1)
    for objective in ("success", "avg_fidelity"):
        with pytest.raises(ValueError, match="at most"):
            maximize(objective, RESOURCE_LIMIT + 1)


def test_success_search_calls_minimize_through_the_module_global(monkeypatch):
    # Tracing wraps optimize.minimize by attribute, so the search must look it
    # up there, once per stage.
    import klm_teleport.optimize as optimize_module

    assert optimize_module.minimize.__module__ == "klm_teleport.optimize"
    expected = maximize("success", 4, restarts=2).as_dict()
    original = optimize_module.minimize
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(optimize_module, "minimize", counting)
    assert maximize("success", 4, restarts=2).as_dict() == expected
    assert calls == 2


def test_maximize_report_dict_shape():
    report = maximize("success", 1, seed=0, restarts=2)
    payload = report.as_dict()
    assert payload["objective"] == "success"
    assert payload["n"] == 1
    assert len(payload["best_weights"]) == 2
    assert set(payload) == {
        "objective",
        "n",
        "best_weights",
        "best_value",
        "method",
        "evaluations",
        "restarts",
        "budget_exhausted",
        "certificate",
        "uniform_reference",
    }
    assert payload["uniform_reference"] == 0.5
    # The certified success optimum is reported for the success objective only.
    assert "uniform_reference" not in maximize("avg_fidelity", 1, mc_samples=2).as_dict()


def test_certificate_reports_uniform_as_inapplicable():
    certificate = certify_klm_bound(SimplexPoint.uniform(3))
    assert not certificate.applicable
    assert "equal" in certificate.reason
    assert certificate.success_probability == pytest.approx(0.75)
    assert certificate.success_bound == pytest.approx(0.75)


def test_certificate_validates_random_strict_points():
    rng = np.random.default_rng(73)
    for n in (2, 3, 5, 8):
        for _ in range(50):
            point = SimplexPoint(tuple(random_strict_weights(n, rng)))
            certificate = certify_klm_bound(point)
            assert certificate.applicable
            assert certificate.exceeds_threshold
            assert certificate.below_bound
            assert certificate.peak_weight > 1.0 / (n + 1)
            assert certificate.gap > 0.0
            assert certificate.success_probability == pytest.approx(
                adjacent_minima_sum(point.weights), abs=1e-15
            )


def test_certificate_dict_roundtrip():
    payload = certify_klm_bound(SimplexPoint((0.5, 0.3, 0.2))).as_dict()
    assert payload["applicable"] is True
    assert payload["peak_index"] == 0
    assert payload["below_bound"] is True
