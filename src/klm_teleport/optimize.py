"""Resource-coefficient optimization over the probability simplex.

Two figures of merit, both functions of the weights w_i = |c_i|^2 alone:

* ``success``: the input-independent corrected-success probability
  sum_m min(w_{m-1}, w_m), maximized by the uniform resource at n/(n+1).
* ``avg_fidelity``: teleportation fidelity averaged over Haar-random input
  qubits without any correction step, whose closed form is derived here and
  cross-checked by Monte Carlo sampling of the outcome law.

Both optima are exact.  The average fidelity is a quadratic form on the unit
sphere in x_m = sqrt(w_m), so its optimum is the top eigenvector of a
symmetric tridiagonal matrix.  The success optimum is the uniform point,
proved by an explicit dual certificate (:func:`success_dual_certificate`)
that is recomputed in exact rational arithmetic on every call.  Seeded
Nelder-Mead restarts in softmax coordinates still search the success
objective, only as an independent route that must not beat the certified
bound.  That search is the package's only use of scipy, which is imported on
its first Nelder-Mead stage rather than with the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .correction import adjacent_minima_sum, classify_sequence
from .fock import QubitAmplitudes
from .teleport import (
    RESOURCE_LIMIT,
    OracleMismatchError,
    ResourceCoefficients,
    run_analytic,
)

if TYPE_CHECKING:
    from fractions import Fraction

#: Slack by which the Nelder-Mead check may exceed the certified success bound.
SEARCH_TOL = 1e-12
#: Objective evaluations the Nelder-Mead check may spend over all its restarts.
#: Far above n + 2 for every n up to RESOURCE_LIMIT, so the first stage always runs.
SEARCH_BUDGET = 150_000
#: Probability that the Monte-Carlo cross-check rejects a correct closed form.
MC_FALSE_ALARM = 1e-9
#: Monte-Carlo samples per block; the block size fixes the summation order, so the
#: last bit of the estimate.
MC_CHUNK = 200_000


@dataclass(frozen=True)
class SimplexPoint:
    """Probability vector over the n+1 resource weights."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        ws = tuple(float(w) for w in self.weights)
        if len(ws) < 2:
            raise ValueError("need at least two weights (n >= 1)")
        if not all(math.isfinite(w) for w in ws):
            raise ValueError("weights must be finite")
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        if abs(math.fsum(ws) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @classmethod
    def uniform(cls, n: int) -> "SimplexPoint":
        if n < 1:
            raise ValueError(f"resource size must be at least 1, got {n}")
        vals = [1.0 / (n + 1)] * (n + 1)
        vals[-1] = 1.0 - math.fsum(vals[:-1])
        return cls(tuple(vals))

    @classmethod
    def from_unnormalized(cls, values: Iterable[float]) -> "SimplexPoint":
        vals = [float(v) for v in values]
        if any(v < 0 for v in vals):
            raise ValueError("weights must be nonnegative")
        total = math.fsum(vals)
        if total <= 0:
            raise ValueError("cannot normalize a zero weight vector")
        return cls(tuple(v / total for v in vals))

    def to_coefficients(self) -> ResourceCoefficients:
        return ResourceCoefficients.from_weights(self.weights)


class FailureConvention(enum.Enum):
    """How failure outcomes (m = 0 and m = n+1) score in the average fidelity.

    COLLAPSE credits the overlap of the input with the logical state the
    failure collapses to; ZERO_FIDELITY scores failures as total loss.
    """

    COLLAPSE = "collapse"
    ZERO_FIDELITY = "zero_fidelity"


def avg_fidelity_closed_form(
    point: SimplexPoint,
    convention: FailureConvention = FailureConvention.COLLAPSE,
) -> float:
    """Haar-averaged uncorrected teleportation fidelity.

    With g = sum_m sqrt(w_m w_{m-1}), averaging the per-outcome fidelities
    over Haar inputs gives (2 + g)/3 under COLLAPSE and
    (2 - w_0 - w_n + g)/3 under ZERO_FIDELITY.
    """
    w = point.weights
    cross = math.fsum(math.sqrt(a * b) for a, b in zip(w, w[1:]))
    if convention is FailureConvention.COLLAPSE:
        return (2.0 + cross) / 3.0
    return (2.0 - w[0] - w[-1] + cross) / 3.0


def average_fidelity_for_qubit(
    point: SimplexPoint,
    qubit: QubitAmplitudes,
    convention: FailureConvention = FailureConvention.COLLAPSE,
) -> float:
    """Expected fidelity for one fixed input, outcome by outcome.

    Literal route used to validate the vectorized sampler: runs the outcome
    law, scores successes by conditional-state overlap and failures by the
    chosen convention, and weights by outcome probabilities.
    """
    outcomes = run_analytic(point.to_coefficients(), qubit)
    n = point.n
    total = 0.0
    for outcome in outcomes:
        if outcome.probability == 0.0:
            continue
        if outcome.conditional_qubit is not None:
            overlap = outcome.conditional_qubit.fidelity_with(qubit)
            total += outcome.probability * overlap
        elif convention is FailureConvention.COLLAPSE:
            collapsed = 0 if outcome.m == 0 else 1
            weight = abs(qubit.alpha) ** 2 if collapsed == 0 else abs(qubit.beta) ** 2
            total += outcome.probability * weight
    return total


def _sample_fidelities(
    weights: Sequence[float],
    logical_zero_weight: np.ndarray,
    convention: FailureConvention,
) -> np.ndarray:
    """Vectorized per-sample fidelity, one outcome term at a time."""
    w = np.asarray(weights, dtype=float)
    a = logical_zero_weight
    b = 1.0 - a
    if convention is FailureConvention.COLLAPSE:
        result = a * (a * w[0]) + b * (b * w[-1])
    else:
        result = np.zeros_like(a)
    roots = np.sqrt(w)
    for m in range(1, len(w)):
        result += (a * roots[m] + b * roots[m - 1]) ** 2
    return result


class AvgFidelityEstimate(NamedTuple):
    estimate: float
    std_error: float
    closed_form: float
    samples: int


def objective_avg_fidelity(
    point: SimplexPoint,
    *,
    samples: int = 1_000_000,
    seed: int = 0,
    convention: FailureConvention = FailureConvention.COLLAPSE,
) -> AvgFidelityEstimate:
    """Monte Carlo estimate of the Haar-averaged fidelity.

    Draws input qubits as four standard normals each, evaluates the
    per-sample fidelity from the outcome law, and insists the estimate agree
    with the closed form within the empirical-Bernstein bound of Maurer &
    Pontil (COLT 2009, Theorem 4), which holds for samples in [0, 1] as every
    per-sample fidelity is.  Applied to both tails, a correct closed form
    fails the check with probability at most MC_FALSE_ALARM = 1e-9;
    disagreement raises OracleMismatchError, since one of the two routes must
    then be wrong.
    """
    if samples < 2:
        raise ValueError("need at least two samples")
    closed = avg_fidelity_closed_form(point, convention)
    rng = np.random.default_rng(seed)
    sums: list[float] = []
    square_sums: list[float] = []
    done = 0
    while done < samples:
        block = min(MC_CHUNK, samples - done)
        z = rng.standard_normal((block, 4))
        zero_norm = z[:, 0] ** 2 + z[:, 1] ** 2
        one_norm = z[:, 2] ** 2 + z[:, 3] ** 2
        a = zero_norm / (zero_norm + one_norm)
        f = _sample_fidelities(point.weights, a, convention)
        sums.append(float(np.sum(f)))
        square_sums.append(float(np.sum(f * f)))
        done += block
    mean = math.fsum(sums) / samples
    second = math.fsum(square_sums) / samples
    variance = max(0.0, second - mean * mean)
    std_error = math.sqrt(variance / samples)
    log_term = math.log(4.0 / MC_FALSE_ALARM)
    sample_variance = variance * samples / (samples - 1)
    bound = math.sqrt(2.0 * sample_variance * log_term / samples) + 7.0 * log_term / (
        3.0 * (samples - 1)
    )
    if abs(mean - closed) > bound:
        raise OracleMismatchError(
            f"sampled average fidelity {mean!r} is {abs(mean - closed):.3e} from the "
            f"closed form {closed!r}, beyond the empirical-Bernstein bound {bound:.3e} "
            f"at false-alarm probability {MC_FALSE_ALARM:g}"
        )
    return AvgFidelityEstimate(mean, std_error, closed, samples)


def optimal_fidelity_profile(n: int) -> SimplexPoint:
    """Weight profile maximizing the average fidelity: w_m ~ sin^2((m+1)pi/(n+2))."""
    if n < 1:
        raise ValueError(f"resource size must be at least 1, got {n}")
    raw = [math.sin((m + 1) * math.pi / (n + 2)) ** 2 for m in range(n + 1)]
    return SimplexPoint.from_unnormalized(raw)


def optimal_avg_fidelity(n: int) -> float:
    """Maximum of the closed form over the simplex: (2 + cos(pi/(n+2))) / 3."""
    if n < 1:
        raise ValueError(f"resource size must be at least 1, got {n}")
    return (2.0 + math.cos(math.pi / (n + 2))) / 3.0


@dataclass(frozen=True)
class OptimalityCertificate:
    """Numerical witness that a weight vector obeys the success-probability bound.

    For strictly varying weights the success probability telescopes to
    1 - (largest peak) - (surplus of the remaining peaks over the interior
    valleys).  The certificate checks the largest peak exceeds the uniform
    weight 1/(n+1) and the surplus is nonnegative, which together force the
    success probability below n/(n+1).  Sequences with equal adjacent weights
    are reported inapplicable rather than guessed at.
    """

    applicable: bool
    reason: str
    success_probability: float
    success_bound: float
    threshold: float
    peak_index: int | None = None
    peak_weight: float | None = None
    exceeds_threshold: bool | None = None
    surplus: float | None = None
    surplus_nonnegative: bool | None = None
    below_bound: bool | None = None
    gap: float | None = None

    def as_dict(self) -> dict:
        return asdict(self)


def certify_klm_bound(point: SimplexPoint) -> OptimalityCertificate:
    """Certify sum-of-minima < n/(n+1) for a strictly varying weight vector."""
    w = point.weights
    n = point.n
    p_success = adjacent_minima_sum(w)
    bound = n / (n + 1)
    threshold = 1.0 / (n + 1)
    classification = classify_sequence(w)
    if not classification.strict:
        return OptimalityCertificate(
            applicable=False,
            reason="adjacent weights are exactly equal; extrema are ambiguous",
            success_probability=p_success,
            success_bound=bound,
            threshold=threshold,
        )
    peak = max(classification.maxima, key=lambda i: (w[i], -i))
    surplus = math.fsum(
        w[i] for i in classification.maxima if i != peak
    ) - math.fsum(w[i] for i in classification.interior_minima)
    gap = bound - p_success
    return OptimalityCertificate(
        applicable=True,
        reason="",
        success_probability=p_success,
        success_bound=bound,
        threshold=threshold,
        peak_index=peak,
        peak_weight=w[peak],
        exceeds_threshold=w[peak] > threshold,
        surplus=surplus,
        surplus_nonnegative=surplus >= -1e-15,
        below_bound=p_success < bound,
        gap=gap,
    )


@dataclass(frozen=True)
class OptimizationReport:
    objective: str
    best_point: SimplexPoint
    best_value: float
    method: str
    evaluations: int
    restarts: int
    budget_exhausted: bool
    certificate: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "objective": self.objective,
            "n": self.best_point.n,
            "best_weights": list(self.best_point.weights),
            "best_value": self.best_value,
            "method": self.method,
            "evaluations": self.evaluations,
            "restarts": self.restarts,
            "budget_exhausted": self.budget_exhausted,
            "certificate": self.certificate,
        }


def success_dual_certificate(n: int) -> tuple[list[Fraction], list[Fraction]]:
    """Dual multipliers lambda_m of the success bound and each weight's coefficient.

    For lambda in [0, 1], min(a, b) <= lambda*a + (1 - lambda)*b.  With
    lambda_m = (n+1-m)/(n+1) for m = 1..n, weight w_i collects
    lambda_{i+1} + (1 - lambda_i) = n/(n+1) (a missing boundary term counts
    zero), so sum_m min(w_{m-1}, w_m) <= n/(n+1) on the whole simplex.  Each
    lambda_m lies strictly inside (0, 1), so equality forces every adjacent
    pair equal: the uniform point is the unique maximizer.  The coefficients
    are recomputed in exact rational arithmetic, and ``RuntimeError`` is
    raised unless every one is exactly n/(n+1).
    """
    # Imported here so that only the success answer loads fractions/decimal.
    from fractions import Fraction

    if n < 1:
        raise ValueError(f"resource size must be at least 1, got {n}")
    bound = Fraction(n, n + 1)
    multipliers = [Fraction(n + 1 - m, n + 1) for m in range(1, n + 1)]
    coefficients = [Fraction(0)] * (n + 1)
    for m, lam in enumerate(multipliers, start=1):
        coefficients[m - 1] += lam
        coefficients[m] += 1 - lam
    if not all(0 < lam < 1 for lam in multipliers) or any(
        c != bound for c in coefficients
    ):
        raise RuntimeError(f"the success dual certificate does not close at n={n}")
    return multipliers, coefficients


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported when first called.

    Only the success search calls it, so every other use of the package
    runs without loading scipy.  The search looks this name up as a module
    global on every stage, so replacing the attribute intercepts each call.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _search_success(n: int, seed: int, restarts: int) -> tuple[float, int, bool]:
    """Best success value found by seeded Nelder-Mead restarts.

    Each restart is one Nelder-Mead stage in softmax coordinates from a
    standard-normal start, drawn when the stage begins, so memory does not
    grow with ``restarts``.  Returns the largest value any stage reached, the
    objective evaluations spent, and whether SEARCH_BUDGET cut the search
    short.
    """
    rng = np.random.default_rng(seed)
    dim = n + 1
    per_restart = 2_000 * dim
    evaluations = 0
    best = -math.inf

    def negated(x: np.ndarray) -> float:
        # adjacent_minima_sum without its re-validation: softmax weights are
        # finite and nonnegative by construction.
        nonlocal evaluations
        evaluations += 1
        e = np.exp(x - x.max())
        w = (e / e.sum()).tolist()
        return -math.fsum(map(min, w, w[1:]))

    for _ in range(restarts):
        cap = min(per_restart, SEARCH_BUDGET - evaluations)
        if cap <= dim + 1:
            return best, evaluations, True
        result = minimize(
            negated,
            rng.standard_normal(dim),
            method="Nelder-Mead",
            options={
                "xatol": 1e-10,
                "fatol": 1e-13,
                "maxfev": cap,
                "maxiter": cap,
                "adaptive": True,
            },
        )
        best = max(best, -float(result.fun))
    return best, evaluations, evaluations >= SEARCH_BUDGET


_OBJECTIVES = ("success", "avg_fidelity")


def maximize(
    objective: str,
    n: int,
    *,
    seed: int = 0,
    restarts: int = 32,
    convention: FailureConvention = FailureConvention.COLLAPSE,
    mc_samples: int = 1_000_000,
) -> OptimizationReport:
    """Maximize an objective over the weight simplex for a size-n resource.

    Deterministic for a fixed seed.  ``avg_fidelity`` is solved exactly (see
    :func:`_maximize_avg_fidelity`).  ``success`` returns the uniform point,
    whose optimality :func:`success_dual_certificate` proves; the
    certificate lists the dual multipliers and the per-weight coefficients
    as exact fractions.  ``restarts`` seeded Nelder-Mead stages then search
    the same objective independently, sharing SEARCH_BUDGET objective
    evaluations; ``budget_exhausted`` reports that the budget cut them
    short.  If any stage beats n/(n+1) by more than SEARCH_TOL the two
    routes disagree and ``OracleMismatchError`` is raised.  Raises
    ``ValueError`` before any work for invalid arguments, including n above
    RESOURCE_LIMIT.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    if n < 1:
        raise ValueError(f"resource size must be at least 1, got {n}")
    if n > RESOURCE_LIMIT:
        raise ValueError(f"resource size must be at most {RESOURCE_LIMIT}, got {n}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if mc_samples < 2:
        raise ValueError(f"need at least two Monte Carlo samples, got {mc_samples}")
    if objective == "avg_fidelity":
        return _maximize_avg_fidelity(n, seed, convention, mc_samples)

    multipliers, coefficients = success_dual_certificate(n)
    uniform = SimplexPoint.uniform(n)
    bound = n / (n + 1)
    search_best, evaluations, budget_exhausted = _search_success(n, seed, restarts)
    if not search_best <= bound + SEARCH_TOL:
        raise OracleMismatchError(
            f"Nelder-Mead reached success probability {search_best!r} at n={n}, "
            f"above the certified optimum n/(n+1) = {bound!r}"
        )
    return OptimizationReport(
        objective=objective,
        best_point=uniform,
        best_value=adjacent_minima_sum(uniform.weights),
        method="dual-certificate",
        evaluations=evaluations,
        restarts=restarts,
        budget_exhausted=budget_exhausted,
        certificate={
            "dual_multipliers": [str(lam) for lam in multipliers],
            "dual_coefficients": [str(c) for c in coefficients],
            "search_best_value": search_best,
            "search_gap": bound - search_best,
        },
    )


def _maximize_avg_fidelity(
    n: int,
    seed: int,
    convention: FailureConvention,
    mc_samples: int,
) -> OptimizationReport:
    """Exact maximum of the average fidelity, cross-checked by Monte Carlo.

    With x_m = sqrt(w_m) the closed form is (2 + x^T A x)/3 on the unit
    sphere: A has 1/2 on both off-diagonals (the cross term sum_m x_m x_{m-1})
    and, under ZERO_FIDELITY, -1 at both diagonal ends (the lost boundary
    outcomes -w_0 - w_n).  The maximum is therefore A's top eigenvector,
    whose entries share one sign (Perron-Frobenius), so their squares are the
    optimal weights.
    """
    half = np.full(n, 0.5)
    matrix = np.diag(half, 1) + np.diag(half, -1)
    if convention is FailureConvention.ZERO_FIDELITY:
        matrix[0, 0] = matrix[-1, -1] = -1.0
    _, vectors = np.linalg.eigh(matrix)
    best_point = SimplexPoint.from_unnormalized(np.abs(vectors[:, -1]) ** 2)
    best_value = avg_fidelity_closed_form(best_point, convention)
    mc = objective_avg_fidelity(
        best_point,
        samples=mc_samples,
        seed=seed + 1,
        convention=convention,
    )
    certificate = {
        "convention": convention.value,
        "closed_form_at_best": best_value,
        "uniform_value": avg_fidelity_closed_form(SimplexPoint.uniform(n), convention),
        "analytic_optimum": optimal_avg_fidelity(n)
        if convention is FailureConvention.COLLAPSE
        else None,
        "mc_estimate": mc.estimate,
        "mc_std_error": mc.std_error,
        "mc_samples": mc.samples,
    }
    return OptimizationReport(
        objective="avg_fidelity",
        best_point=best_point,
        best_value=best_value,
        method="tridiagonal-eigenvector",
        evaluations=1,
        restarts=0,
        budget_exhausted=False,
        certificate=certificate,
    )
