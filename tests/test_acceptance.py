"""Acceptance gate: the package's headline guarantees, each timed and reported.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every check is deterministic (fixed seeds) and enforces both
the numeric tolerance and the runtime budget stated in its criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from klm_teleport import (
    ResourceCoefficients,
    SimplexPoint,
    adjacent_minima_sum,
    avg_fidelity_closed_form,
    certify_klm_bound,
    correction_circuit,
    extrema_formula,
    maximize,
    optimal_avg_fidelity,
    oracle_deviation,
    p_success_given_m,
    permanent,
    run_analytic,
    run_oracle,
    run_oracle_polarization,
    teleported_state,
)

from helpers import (
    naive_permanent,
    random_coefficients,
    random_qubit,
    random_strict_weights,
)


@contextmanager
def criterion(name: str, limit_seconds: float):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
        elapsed = time.perf_counter() - start
        assert elapsed < limit_seconds, (
            f"{name} took {elapsed:.2f}s, over the {limit_seconds:g}s budget"
        )
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(
        f"ACCEPTANCE {name}: PASS "
        f"({info['detail']}; {elapsed:.2f}s < {limit_seconds:g}s)"
    )


def test_uniform_success_probability():
    # Uniform weights give total corrected-success probability n/(n+1), exactly.
    with criterion("uniform-success-probability", 1.0) as info:
        worst = 0.0
        for n in range(1, 9):
            value = adjacent_minima_sum(ResourceCoefficients.uniform(n).weights())
            worst = max(worst, abs(value - n / (n + 1)))
        assert worst <= 1e-12
        info["detail"] = f"max deviation {worst:.2e} over n=1..8"


def test_fock_oracle_equivalence():
    # The exact multiphoton simulation reproduces the analytic outcome law:
    # aggregated probabilities and phase-corrected conditional qubits agree.
    # Every size runs within its oracle's default limit.  Each later size was
    # appended after the runs before it, so the earlier runs keep their
    # random stream.
    with criterion("fock-oracle-equivalence", 120.0) as info:
        rng = np.random.default_rng(101)
        worst = 0.0
        runs = [(run_oracle, n, 20) for n in range(1, 5)]
        runs.append((run_oracle, 5, 10))
        runs += [(run_oracle_polarization, n, 10) for n in range(1, 5)]
        runs.append((run_oracle, 6, 10))
        runs += [(run_oracle, 7, 3), (run_oracle, 8, 1), (run_oracle_polarization, 5, 3)]
        for oracle_of, n, count in runs:
            for _ in range(count):
                rc = random_coefficients(n, rng)
                qubit = random_qubit(rng)
                analytic = run_analytic(rc, qubit)
                oracle = oracle_of(rc, qubit)
                worst = max(worst, oracle_deviation(analytic, oracle))
        assert worst < 1e-10
        info["detail"] = (
            f"max deviation {worst:.2e} over {sum(count for _, _, count in runs)} runs: "
            "number n=1..8, polarization n=1..5"
        )


def test_extrema_closed_form():
    # On strictly varying weight sequences the extrema expression equals the
    # sum of adjacent pairwise minima, case by case.
    with criterion("extrema-closed-form", 5.0) as info:
        rng = np.random.default_rng(103)
        worst = 0.0
        cases = 0
        for n in range(2, 13):
            for _ in range(1000):
                weights = random_strict_weights(n, rng)
                diff = abs(extrema_formula(weights) - adjacent_minima_sum(weights))
                worst = max(worst, diff)
                cases += 1
        assert worst < 1e-12
        info["detail"] = f"max |formula - minima| = {worst:.2e} over {cases} sequences"


def test_uniform_optimality():
    # maximize answers the uniform weights with value n/(n+1), its Nelder-Mead
    # check never beats that value, and random simplex points never beat it.
    with criterion("uniform-optimality", 30.0) as info:
        rng = np.random.default_rng(107)
        worst_value_gap = 0.0
        worst_linf = 0.0
        worst_search_gap = math.inf
        for n in range(2, 7):
            report = maximize("success", n, seed=0)
            bound = n / (n + 1)
            worst_value_gap = max(worst_value_gap, abs(report.best_value - bound))
            uniform = 1.0 / (n + 1)
            worst_linf = max(
                worst_linf,
                max(abs(w - uniform) for w in report.best_point.weights),
            )
            search_gap = report.certificate["search_gap"]
            worst_search_gap = min(worst_search_gap, search_gap)
            assert report.best_point.weights == SimplexPoint.uniform(n).weights
            assert abs(report.best_value - bound) < 1e-15
            assert all(abs(w - uniform) < 1e-15 for w in report.best_point.weights)
            assert search_gap >= -1e-12
            for _ in range(10_000):
                weights = tuple(rng.dirichlet(np.ones(n + 1)))
                assert adjacent_minima_sum(weights) <= bound + 1e-12
        info["detail"] = (
            f"value gap {worst_value_gap:.2e}, L-inf {worst_linf:.2e}, "
            f"smallest search gap {worst_search_gap:.2e}, "
            "5x10^4 random points below bound"
        )


def test_bound_certificates():
    # Every strictly varying sequence certifies: dominant peak above 1/(n+1)
    # and success probability strictly below n/(n+1).  The surplus is
    # nonnegative by construction (see OptimalityCertificate).
    with criterion("bound-certificates", 10.0) as info:
        rng = np.random.default_rng(109)
        for index in range(10_000):
            n = 2 + index % 9
            point = SimplexPoint(tuple(random_strict_weights(n, rng)))
            cert = certify_klm_bound(point)
            assert cert.applicable
            assert cert.exceeds_threshold
            assert cert.below_bound
        info["detail"] = "10^4 strict sequences, n=2..10, both checks"


def test_circuit_kraus_equivalence():
    # The beam-splitter correction circuit realizes the success branch of the
    # generalized measurement: same success probability, unit recovery fidelity.
    with criterion("circuit-kraus-equivalence", 5.0) as info:
        rng = np.random.default_rng(113)
        worst_p = 0.0
        worst_f = 0.0
        done = 0
        while done < 100:
            n = int(rng.integers(1, 5))
            rc = random_coefficients(n, rng)
            qubit = random_qubit(rng)
            m = int(rng.integers(1, n + 1))
            outcomes = run_analytic(rc, qubit)
            if outcomes[m].probability < 1e-9:
                continue
            result = correction_circuit(m, rc, teleported_state(rc, qubit, m))
            weights = rc.weights()
            expected = min(weights[m - 1], weights[m]) / outcomes[m].probability
            worst_p = max(worst_p, abs(result.p_success - expected))
            worst_f = max(worst_f, abs(1.0 - result.recovered.fidelity_with(qubit)))
            done += 1
        assert worst_p < 1e-10
        assert worst_f < 1e-10
        info["detail"] = (
            f"100 triples: |p gap| <= {worst_p:.2e}, |1 - fidelity| <= {worst_f:.2e}"
        )


def test_input_independence():
    # The joint probability of outcome m and successful correction equals
    # min(w_{m-1}, w_m) no matter which qubit is teleported.
    with criterion("input-independence", 5.0) as info:
        rng = np.random.default_rng(127)
        worst_spread = 0.0
        for n in (1, 2, 3, 4, 5):
            rc = random_coefficients(n, rng)
            for m in range(1, n + 1):
                joints = []
                for _ in range(50):
                    qubit = random_qubit(rng)
                    outcomes = run_analytic(rc, qubit)
                    if outcomes[m].probability == 0.0:
                        continue
                    joints.append(
                        outcomes[m].probability * p_success_given_m(m, rc, qubit)
                    )
                spread = max(joints) - min(joints)
                worst_spread = max(worst_spread, spread)
        assert worst_spread < 1e-14
        info["detail"] = f"max spread {worst_spread:.2e} over 50 qubits per (c, m)"


def test_avg_fidelity_scaling():
    # The optimum equals the closed-form (2 + cos(pi/(n+2)))/3, strictly beats
    # uniform by many Monte-Carlo standard errors, and the fidelity deficits
    # follow the expected 1/(n+2)^2 (optimized) and 1/(n+1) (uniform) shapes.
    with criterion("avg-fidelity-scaling", 600.0) as info:
        opt_products = []
        uni_products = []
        min_sigma = math.inf
        for n in range(2, 9):
            report = maximize("avg_fidelity", n, seed=0, mc_samples=1_000_000)
            assert abs(report.best_value - optimal_avg_fidelity(n)) <= 1e-12
            cert = report.certificate
            uniform_value = avg_fidelity_closed_form(SimplexPoint.uniform(n))
            assert cert["uniform_value"] == pytest.approx(uniform_value, abs=1e-12)
            assert report.best_value > uniform_value
            sigmas = (cert["mc_estimate"] - uniform_value) / cert["mc_std_error"]
            min_sigma = min(min_sigma, sigmas)
            assert sigmas >= 5.0
            opt_products.append((1.0 - report.best_value) * (n + 2) ** 2)
            uni_products.append((1.0 - uniform_value) * (n + 1))
        assert max(opt_products) / min(opt_products) <= 3.0
        assert max(uni_products) / min(uni_products) <= 2.0
        info["detail"] = (
            f"n=2..8: min lead {min_sigma:.0f} sigma, "
            f"deficit bands {max(opt_products) / min(opt_products):.3f}x (opt), "
            f"{max(uni_products) / min(uni_products):.3f}x (uniform)"
        )


def test_permanent_oracle():
    # The Gray-code evaluator matches brute-force permutation enumeration.
    with criterion("permanent-oracle", 5.0) as info:
        rng = np.random.default_rng(131)
        worst = 0.0
        for _ in range(500):
            k = int(rng.integers(1, 7))
            matrix = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            worst = max(worst, abs(permanent(matrix) - naive_permanent(matrix)))
        assert worst < 1e-10
        info["detail"] = f"max |Ryser - naive| = {worst:.2e} over 500 matrices, k<=6"
