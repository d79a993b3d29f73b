"""Teleportation of a vacuum/one-photon qubit through a tunable entangled resource.

The resource over 2n modes is a superposition of n+1 terms; term i occupies
the first i modes of the front half and the last n-i modes of the back half,
weighted by coefficient c_i.  The input qubit plus the front half pass through
an (n+1)-point Fourier mode transform and are photon-counted.  Detecting m
photons in total leaves mode n+m carrying

    (alpha * c_m |0> + beta * c_{m-1} |1>) / sqrt(p(m)),
    p(m) = |alpha * c_m|^2 + |beta * c_{m-1}|^2,

with c_{-1} = c_{n+1} = 0, so m = 0 and m = n+1 are failures that collapse
the qubit to a logical basis state.

Two independent routes produce this outcome table: ``run_analytic`` evaluates
the law above, while ``run_oracle`` simulates the full interferometer in Fock
space and reconciles every detection pattern against the law, including the
pattern-dependent corrective phase on the logical-one amplitude.  The
reconciliation itself, ``reconcile_outcomes``, is shared with the
polarization-encoded oracle.
"""

from __future__ import annotations

import cmath
import gc
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from operator import mul
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .fock import (
    NORM_TOL,
    MeasurementOutcome,
    Occupation,
    PureState,
    QubitAmplitudes,
    measure_photon_counts,
    tensor,
)
from .optics import apply, embed, fourier_unitary
# Unused here; bench/tracing.py wraps teleport.transition_amplitude by name.
from .optics import transition_amplitude  # noqa: F401

#: Largest n for which the exact Fock-space oracle runs by default.
ORACLE_LIMIT = 8
#: Largest resource size n that every command, ``load_coefficients`` and
#: ``optimize.maximize`` accept.  The dense (n+1)x(n+1) eigenproblem and
#: (n+2)x(n+1) Nelder-Mead simplex of ``maximize`` take ~8 MB each here, so a
#: larger n is refused up front instead of failing to allocate.  It bounds
#: memory, not time: the success check took ~9 s at n = 50, ~23-29 s at n = 200
#: and over 300 s at n = 1000 (2-core machine).
RESOURCE_LIMIT = 1_000
#: Agreement tolerance between the oracle and the analytic outcome law.
ORACLE_TOL = 1e-10
#: Deviation from unit norm that coefficient input may carry without ``renormalize``.
COEFF_NORM_TOL = 1e-9


class OracleMismatchError(RuntimeError):
    """The exact simulation disagreed with the analytic outcome law."""


@dataclass(frozen=True)
class ResourceCoefficients:
    """Normalized coefficient vector (c_0 .. c_n) defining the entangled resource."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) < 2:
            raise ValueError("resource needs at least two coefficients (n >= 1)")
        if not all(cmath.isfinite(a) for a in amps):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "amplitudes", amps)
        dev = abs(math.fsum(abs(a) ** 2 for a in amps) - 1.0)
        if dev > NORM_TOL:
            raise ValueError(f"coefficients are not normalized (deviation {dev:.3e})")

    @property
    def n(self) -> int:
        return len(self.amplitudes) - 1

    def at(self, index: int) -> complex:
        """Coefficient c_index, zero outside 0..n."""
        if 0 <= index <= self.n:
            return self.amplitudes[index]
        return 0j

    def weights(self) -> np.ndarray:
        """Moduli squared |c_i|^2 as a float vector."""
        return np.array([abs(a) ** 2 for a in self.amplitudes])

    @classmethod
    def uniform(cls, n: int) -> "ResourceCoefficients":
        if n < 1:
            raise ValueError(f"resource size must be at least 1, got {n}")
        value = 1.0 / math.sqrt(n + 1)
        return cls((value,) * (n + 1))

    @classmethod
    def from_weights(cls, weights: Iterable[float]) -> "ResourceCoefficients":
        ws = [float(w) for w in weights]
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        return cls(tuple(math.sqrt(w) for w in ws))


class PatternRecord(NamedTuple):
    """Oracle bookkeeping for one detection pattern."""

    pattern: Occupation
    probability: float
    corrective_phase: complex
    corrected_fidelity: float


@dataclass(frozen=True)
class TeleportOutcome:
    """One value of the total detected photon count m.

    ``conditional_qubit`` is present for realizable success outcomes
    (1 <= m <= n with nonzero probability); failures at m = 0 and m = n+1
    collapse to logical 0 and logical 1 respectively and carry ``None``.
    The oracle path attaches its per-pattern records.
    """

    m: int
    probability: float
    qubit_mode: int | None
    conditional_qubit: QubitAmplitudes | None
    patterns: tuple[PatternRecord, ...] | None = None


def qubit_state(qubit: QubitAmplitudes) -> PureState:
    """Single-mode state alpha |0> + beta |1>."""
    return PureState.from_terms(1, {(0,): qubit.alpha, (1,): qubit.beta})


def build_resource_state(rc: ResourceCoefficients) -> PureState:
    """Entangled resource over 2n modes.

    Term i occupies modes 0..i-1 of the front half and modes n+i..2n-1 of the
    back half with one photon each.
    """
    n = rc.n
    terms: dict[Occupation, complex] = {}
    for i, coeff in enumerate(rc.amplitudes):
        occ = tuple(
            1 if (j < i or n + i <= j) else 0
            for j in range(2 * n)
        )
        terms[occ] = coeff
    return PureState.from_terms(2 * n, terms)


def run_analytic(rc: ResourceCoefficients, qubit: QubitAmplitudes) -> list[TeleportOutcome]:
    """Outcome table from the closed-form law, for m = 0 .. n+1."""
    n = rc.n
    outcomes = []
    for m in range(n + 2):
        front = qubit.alpha * rc.at(m)
        back = qubit.beta * rc.at(m - 1)
        prob = abs(front) ** 2 + abs(back) ** 2
        success_class = 1 <= m <= n
        conditional = None
        if success_class and prob > 0.0:
            # A subnormal prob has lost bits; then take the norm without squaring.
            tiny = prob < sys.float_info.min
            scale = 1.0 / (math.hypot(abs(front), abs(back)) if tiny else math.sqrt(prob))
            conditional = QubitAmplitudes(front * scale, back * scale)
        outcomes.append(
            TeleportOutcome(
                m=m,
                probability=prob,
                qubit_mode=n + m if success_class else None,
                conditional_qubit=conditional,
            )
        )
    return outcomes


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for the block, then restore the caller's state.

    The oracles allocate many small tuples, dicts and complex values that
    form no reference cycles, so the collector's generation-0 passes
    find nothing to free and only cost time.  Nothing is collected here: a
    caller that had the collector enabled gets it back enabled, one that had
    disabled it keeps it disabled, also when the block raises.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@cache
def _roots_of_unity(points: int) -> tuple[complex, ...]:
    """exp(2*pi*i * k / points) for k = 0 .. points-1, the same expression per k."""
    return tuple(cmath.exp(2j * math.pi * k / points) for k in range(points))


def fourier_phase(counts: Occupation) -> complex:
    """exp(2*pi*i * (sum_l l*counts[l] mod N) / N) for N = len(counts) output modes.

    The corrective phase of a pattern behind the N-point Fourier transform
    when the two logical branches enter on source modes related by the cyclic
    shift k -> k+1 mod N.  Column k+1 of the transform is column k with row l
    multiplied by omega^l, omega = exp(2*pi*i/N), so shifting every source
    photon multiplies row l of the permanent behind <counts| U |source> by
    omega^l for each of its counts[l] copies.  The two branches therefore
    reach the pattern with equal magnitude and relative phase
    omega^(sum_l l*counts[l]), whatever the pattern.  The N values are
    tabulated once per N.
    """
    points = len(counts)
    return _roots_of_unity(points)[sum(map(mul, range(points), counts)) % points]


def derive_phase_correction(
    pattern: Occupation,
    m: int,
    rc: ResourceCoefficients,
    qubit: QubitAmplitudes,
) -> complex:
    """Unit-modulus factor aligning the simulated conditional qubit with the law.

    Multiplying the detected logical-one amplitude by the returned factor makes
    the conditional state proportional to (alpha c_m, beta c_{m-1}).  When only
    one branch is populated there is nothing to align and 1 is returned.
    Logical 0 enters the transform on modes 1..m (resource term m), logical 1
    on modes 0..m-1 (input photon plus term m-1): one cyclic shift apart, so
    the factor is :func:`fourier_phase` of the pattern.  It is a formula of
    the pattern alone, independent of the full interferometer simulation.
    """
    coefficients = rc.amplitudes
    points = len(coefficients)
    if not 1 <= m < points:
        raise ValueError(f"phase correction applies to success outcomes, got m={m}")
    if len(pattern) != points or sum(pattern) != m:
        raise ValueError(f"pattern {pattern} does not detect m={m} photons on {points} modes")
    if qubit.alpha == 0 or qubit.beta == 0 or coefficients[m] == 0 or coefficients[m - 1] == 0:
        return 1 + 0j
    return fourier_phase(pattern)


def reconcile_outcomes(
    rc: ResourceCoefficients,
    qubit: QubitAmplitudes,
    measured: Iterable[MeasurementOutcome],
    read: Callable[[Occupation], tuple[int, tuple[Occupation, ...]]],
    phase_of: Callable[[Occupation, int], complex],
) -> list[TeleportOutcome]:
    """Check simulated detection patterns against the outcome law and aggregate by m.

    The encoding-independent half of both oracles.  The encoding supplies
    ``read(pattern)``, which returns the outcome m and the branch occupations
    of the unmeasured modes (the lone spectator occupation of a failure, or
    the logical-zero and logical-one occupations of a success) and raises
    OracleMismatchError for a pattern the encoding cannot produce; and
    ``phase_of(pattern, m)``, the unit factor on the logical-one amplitude of
    a success pattern, which sees only the pattern so that it cannot borrow
    the phase from the simulation it checks.

    Every pattern, whatever its probability, may hold amplitude only on its
    branch occupations: the norm of the rest must stay within ``ORACLE_TOL``.
    The check is exact, not a noise bound: the unmeasured modes are identity
    columns of the embedded transform, so the simulation never places a
    photon on them and every other occupation is absent, not small.  As both
    branch occupations of a success share one spectator occupation, passing
    it also means the state factorizes as spectators x qubit mode.  A
    success pattern must fall at an m the law gives a conditional qubit, its
    branch magnitudes must match that qubit's and its phase-corrected qubit
    must match the qubit itself.  The most probable pattern's corrected qubit
    represents each m, and the aggregated probability of each m must match
    the law within ``ORACLE_TOL``.  Raises OracleMismatchError on any
    disagreement.
    """
    n = rc.n
    analytic = run_analytic(rc, qubit)
    # Per-m values, computed once: the records, the law's qubit and its magnitudes.
    per_m_patterns: list[list[PatternRecord]] = [[] for _ in analytic]
    laws = [law.conditional_qubit for law in analytic]
    magnitudes = [(abs(law.alpha), abs(law.beta)) if law is not None else None for law in laws]
    per_m_qubit: dict[int, tuple[float, QubitAmplitudes]] = {}

    for pattern, prob, conditional in measured:
        m, occupations = read(pattern)
        if not 0 <= m <= n + 1:
            raise OracleMismatchError(f"impossible outcome m={m} in pattern {pattern}")
        amplitudes = conditional.amplitudes
        # With every key a branch occupation, the amplitude outside is exactly 0.
        if not all(map(occupations.__contains__, amplitudes)):
            outside = math.sqrt(
                math.fsum([abs(a) ** 2 for occ, a in amplitudes.items() if occ not in occupations])
            )
            if outside > ORACLE_TOL:
                raise OracleMismatchError(
                    f"pattern {pattern} holds amplitude {outside:.3e} "
                    "outside its branch occupations"
                )
        records = per_m_patterns[m]
        if not 1 <= m <= n:
            records.append(PatternRecord(pattern, prob, 1 + 0j, float("nan")))
            continue

        law = laws[m]
        if law is None:
            raise OracleMismatchError(f"pattern {pattern} detected m={m}, which the law forbids")
        # Per-pattern tolerances loosen for negligible-probability patterns,
        # whose normalized amplitudes amplify machine noise; they contribute
        # nothing at the aggregate level, which keeps the strict tolerance.
        pat_tol = ORACLE_TOL if prob >= 1e-12 else 1e-6
        amp0 = amplitudes.get(occupations[0], 0j)
        amp1 = amplitudes.get(occupations[1], 0j)
        expected0, expected1 = magnitudes[m]
        if abs(abs(amp0) - expected0) > pat_tol or abs(abs(amp1) - expected1) > pat_tol:
            raise OracleMismatchError(
                f"pattern {pattern} magnitudes ({abs(amp0):.12f}, {abs(amp1):.12f}) "
                f"differ from the law ({expected0:.12f}, {expected1:.12f})"
            )

        phase = phase_of(pattern, m)
        corrected = QubitAmplitudes.from_unnormalized(amp0, amp1 * phase)
        fidelity = corrected.fidelity_with(law)
        if fidelity < 1.0 - pat_tol:
            raise OracleMismatchError(
                f"pattern {pattern} corrected fidelity {fidelity!r} below tolerance"
            )
        best = per_m_qubit.get(m)
        if best is None or prob > best[0]:
            per_m_qubit[m] = (prob, corrected)
        records.append(PatternRecord(pattern, prob, phase, fidelity))

    outcomes = []
    for law in analytic:
        records = tuple(per_m_patterns[law.m])
        prob = math.fsum(record.probability for record in records)
        if abs(prob - law.probability) > ORACLE_TOL:
            raise OracleMismatchError(
                f"aggregated probability for m={law.m} is {prob!r}, "
                f"law gives {law.probability!r}"
            )
        outcomes.append(
            TeleportOutcome(
                m=law.m,
                probability=prob,
                qubit_mode=law.qubit_mode,
                conditional_qubit=per_m_qubit.get(law.m, (0.0, None))[1],
                patterns=records,
            )
        )
    total = math.fsum(o.probability for o in outcomes)
    if abs(total - 1.0) > 1e-12:
        raise OracleMismatchError(f"outcome probabilities sum to {total!r}")
    return outcomes


def number_branches(n: int, m: int) -> tuple[Occupation, ...]:
    """Unmeasured-mode occupations the conditional state may hold at outcome m.

    Failures leave spectators only: every back mode occupied at m = 0, none at
    m = n+1.  Success m puts the qubit on unmeasured mode m-1 (global mode
    n+m) with the n-m modes after it occupied; logical 0 first, then 1.
    """
    if m == 0:
        return ((1,) * n,)
    if m == n + 1:
        return ((0,) * n,)
    base = (0,) * (m - 1)
    tail = (1,) * (n - m)
    return base + (0,) + tail, base + (1,) + tail


def run_oracle(
    rc: ResourceCoefficients,
    qubit: QubitAmplitudes,
    *,
    limit: int = ORACLE_LIMIT,
) -> list[TeleportOutcome]:
    """Exact Fock-space simulation of the protocol, reconciled pattern by pattern.

    Builds input qubit x resource, applies the embedded (n+1)-point Fourier
    transform, photon-counts the first n+1 modes, and hands the patterns to
    :func:`reconcile_outcomes` with the branch occupations of
    :func:`number_branches` and phases from :func:`derive_phase_correction`.
    """
    n = rc.n
    if n > limit:
        raise ValueError(
            f"oracle limited to n <= {limit} (requested n={n}); "
            "raise the limit explicitly to go bigger"
        )
    branches = [number_branches(n, m) for m in range(n + 2)]

    def read(pattern: Occupation):
        m = sum(pattern)
        # An impossible m reads no branches; reconcile_outcomes refuses it.
        return m, branches[m] if m <= n + 1 else ()

    def phase_of(pattern: Occupation, m: int) -> complex:
        return derive_phase_correction(pattern, m, rc, qubit)

    with gc_paused():
        protocol_state = tensor(qubit_state(qubit), build_resource_state(rc))
        transform = embed(fourier_unitary(n + 1), tuple(range(n + 1)), 2 * n + 1)
        evolved = apply(transform, protocol_state)
        measured = measure_photon_counts(evolved, range(n + 1))
        return reconcile_outcomes(rc, qubit, measured, read, phase_of)


def oracle_deviation(
    analytic: list[TeleportOutcome], oracle: list[TeleportOutcome]
) -> float:
    """Largest discrepancy between the two outcome tables (probabilities and qubits)."""
    worst = 0.0
    for law, sim in zip(analytic, oracle):
        worst = max(worst, abs(law.probability - sim.probability))
        if law.conditional_qubit is not None and sim.conditional_qubit is not None:
            worst = max(
                worst, 1.0 - law.conditional_qubit.fidelity_with(sim.conditional_qubit)
            )
        for record in sim.patterns or ():
            if record.corrected_fidelity == record.corrected_fidelity:
                worst = max(worst, 1.0 - record.corrected_fidelity)
    return worst


def load_coefficients(
    path: str | Path,
    *,
    renormalize: bool = False,
) -> ResourceCoefficients:
    """Read a coefficient file: ``{"n": int, "c": [[re, im], ...]}``.

    An n above ``RESOURCE_LIMIT`` is refused before any entry is converted.
    The entries are normalized by :func:`normalize_coefficients`.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("coefficient file nests too deeply") from None
    if not isinstance(raw, dict) or "n" in raw and "c" not in raw:
        raise ValueError("coefficient file must be an object with keys 'n' and 'c'")
    if "n" not in raw or "c" not in raw:
        raise ValueError("coefficient file must provide both 'n' and 'c'")
    n = raw["n"]
    entries = raw["c"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if n > RESOURCE_LIMIT:
        raise ValueError(f"'n' must be at most {RESOURCE_LIMIT}, got {n}")
    if not isinstance(entries, list) or len(entries) != n + 1:
        raise ValueError(f"'c' must list n+1 = {n + 1} coefficient pairs")
    values = []
    for item in entries:
        if not (isinstance(item, list) and len(item) == 2) or any(
            isinstance(part, bool) or not isinstance(part, (int, float)) for part in item
        ):
            raise ValueError(f"coefficient entries must be [re, im] number pairs, got {item!r}")
        try:
            values.append(complex(float(item[0]), float(item[1])))
        except OverflowError:
            raise ValueError(f"coefficient entry {item!r} overflows a float") from None
    return normalize_coefficients(values, renormalize=renormalize)


def normalize_coefficients(
    values: Sequence[complex],
    *,
    renormalize: bool = False,
) -> ResourceCoefficients:
    """Divide coefficients by their norm, the one rule for all coefficient input.

    Deviations from unit norm up to ``COEFF_NORM_TOL`` are corrected silently
    (the exact normalization the type requires); larger deviations are
    rejected unless ``renormalize`` is set.  A zero vector and a squared norm
    that overflows or falls below a normal float raise ``ValueError``.
    """
    try:
        square = math.fsum(abs(v) ** 2 for v in values)
    except OverflowError:
        raise ValueError("coefficient norm overflows a float") from None
    if square < sys.float_info.min:
        if any(values):
            raise ValueError("coefficient norm underflows a float")
        raise ValueError("coefficients cannot all be zero")
    nrm = math.sqrt(square)
    if abs(nrm - 1.0) > COEFF_NORM_TOL and not renormalize:
        raise ValueError(
            f"coefficients deviate from unit norm by {abs(nrm - 1.0):.3e}; "
            "pass renormalize to accept"
        )
    return ResourceCoefficients(tuple(v / nrm for v in values))

