"""Teleportation of a vacuum/one-photon qubit through a tunable entangled resource.

The resource over 2n modes is a superposition of n+1 terms; term i occupies
the first i front modes and the last n-i back modes, weighted by coefficient
c_i.  ``_resource_term`` states this layout; the resource, both oracles' input
(``protocol_input``) and their ``branch_table`` derive from it.  The input
qubit plus the front half pass through an (n+1)-point Fourier mode transform
and are photon-counted.  Detecting m photons in total leaves mode n+m carrying

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
from dataclasses import dataclass, replace
from functools import cache
from operator import mul
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .fock import (
    NORM_TOL,
    PRUNE_EPS,
    STATE_NORM_TOL,
    MeasurementOutcome,
    Occupation,
    PureState,
    QubitAmplitudes,
    _pair_fidelity,
    _unit_pair,
    checked_count,
    measure_photon_counts,
    squared_norm,
    tensor,
)
from .optics import MAX_PHOTONS, apply, fourier_unitary
# Unused here; bench/tracing.py wraps teleport.transition_amplitude by name.
from .optics import transition_amplitude  # noqa: F401

#: Largest n for which the exact Fock-space oracle runs by default.
ORACLE_LIMIT = 8
#: Largest resource size n that every command, ``load_coefficients`` and
#: ``optimize.maximize`` accept.  The dense (n+1)x(n+1) eigenproblem and
#: (n+2)x(n+1) Nelder-Mead simplex of ``maximize`` take ~8 MB each here, so a
#: larger n is refused up front instead of failing to allocate.  It bounds
#: memory, not time: the success check takes 5-7 s at n = 50, ~27 s at n = 200
#: and ~320 s at n = 1000 (2-core machine).
RESOURCE_LIMIT = 1_000
#: Agreement tolerance between the oracle and the analytic outcome law.
ORACLE_TOL = 1e-10
#: Pattern probability below which PRUNE_EPS / sqrt(p) is at least ``ORACLE_TOL``.
_PRUNE_CROSSOVER = (PRUNE_EPS / ORACLE_TOL) ** 2


class OracleMismatchError(RuntimeError):
    """The exact simulation disagreed with the analytic outcome law."""


def checked_weights(weights: Iterable[float]) -> list[float]:
    """The weights as floats; ``ValueError`` unless two or more, all finite and
    nonnegative, with a sum that a float holds."""
    try:
        ws = [float(w) for w in weights]
    except OverflowError:
        raise ValueError("a weight overflows a float") from None
    if len(ws) < 2:
        raise ValueError("need at least two weights")
    # NaN fails the comparison, so it is refused too.
    if not all(0.0 <= w < math.inf for w in ws):
        raise ValueError("weights must be finite and nonnegative")
    try:
        math.fsum(ws)
    except OverflowError:
        raise ValueError("weights overflow their sum") from None
    return ws


def admit_oracle(n: int, limit: int) -> None:
    """``ValueError`` unless the exact oracle may run a size-n resource under ``limit``.

    ``limit`` must be a count of at least 1 and n at most ``limit``, and the
    n + 1 photons must fit the Fock engine's ``MAX_PHOTONS``.
    """
    limit = checked_count("oracle limit", limit)
    if n > limit:
        raise ValueError(
            f"oracle limited to n <= {limit} (requested n={n}); "
            "raise the limit explicitly to go bigger"
        )
    if n + 1 > MAX_PHOTONS:
        raise ValueError(
            f"the oracle at n={n} simulates {n + 1} photons; "
            f"the Fock engine holds at most {MAX_PHOTONS}"
        )


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
        dev = abs(squared_norm(amps, "coefficient") - 1.0)
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

    def weights(self) -> tuple[float, ...]:
        """Moduli squared |c_i|^2, the resource's weight vector."""
        return tuple(abs(a) ** 2 for a in self.amplitudes)

    def success_pair(self, m: int) -> tuple[complex, complex]:
        """(c_{m-1}, c_m) of success outcome m.

        ``ValueError`` unless m is a count in 1..n and the two coefficients
        are not both zero, which would make outcome m impossible for every
        input.
        """
        m = checked_count("success outcome m", m, 1, self.n)
        pair = self.amplitudes[m - 1], self.amplitudes[m]
        if pair == (0, 0):
            raise ValueError(f"outcome m={m} never occurs: c_{m - 1} = c_{m} = 0")
        return pair

    @classmethod
    def uniform(cls, n: int) -> "ResourceCoefficients":
        n = checked_count("resource size n", n)
        value = 1.0 / math.sqrt(n + 1)
        return cls((value,) * (n + 1))

    @classmethod
    def from_weights(cls, weights: Iterable[float]) -> "ResourceCoefficients":
        return cls(tuple(math.sqrt(w) for w in checked_weights(weights)))


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


def _resource_term(n: int, i: int) -> Occupation:
    """Resource term i over 2n modes: a photon in the first i front and the last n-i back modes."""
    return (1,) * i + (0,) * n + (1,) * (n - i)


def build_resource_state(rc: ResourceCoefficients) -> PureState:
    """Entangled resource over 2n modes: c_i times term i (:func:`_resource_term`)."""
    terms = {_resource_term(rc.n, i): c for i, c in enumerate(rc.amplitudes)}
    return PureState.from_terms(2 * rc.n, terms)


def protocol_input(rc: ResourceCoefficients, qubit: QubitAmplitudes) -> PureState:
    """Both oracles' input over 2n+1 modes: alpha |0> + beta |1> on mode 0, then the resource."""
    qubit_mode = PureState.from_terms(1, {(0,): qubit.alpha, (1,): qubit.beta})
    return tensor(qubit_mode, build_resource_state(rc))


def branch_table(n: int) -> tuple[tuple[Occupation, ...], ...]:
    """Entry m = 0 .. n+1: the back halves of resource terms m and m-1 (logical 0, 1) that exist."""
    back = [_resource_term(n, i)[n:] for i in range(n + 1)]
    return tuple(tuple(back[i] for i in (m, m - 1) if 0 <= i <= n) for m in range(n + 2))


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

    Both oracles run under it, as ``@gc_paused()``.  They allocate many small
    tuples, dicts and complex values that form no reference cycles, so the
    collector's passes find nothing to free and only cost time.  Each builds
    its states in its own frame, so they die with it before the collector
    resumes instead of being promoted and walked by later full passes.
    Nothing is collected here: a caller that had the collector enabled gets
    it back enabled, one that had disabled it keeps it disabled, also when
    the block raises.
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
) -> complex:
    """Unit-modulus factor aligning the simulated conditional qubit with the law.

    Multiplying the detected logical-one amplitude by the returned factor makes
    the conditional state proportional to (alpha c_m, beta c_{m-1}).  Whether
    an outcome has two branches to align is the caller's decision; see
    :func:`reconcile_outcomes`.  Logical 0 enters the transform on modes 1..m
    (resource term m), logical 1 on modes 0..m-1 (input photon plus term
    m-1): one cyclic shift apart, so the factor is :func:`fourier_phase` of
    the pattern.  It is a formula of the pattern alone, independent of the
    full interferometer simulation.  ``ValueError`` unless the pattern is n+1
    nonnegative integer counts summing to a success outcome m.
    """
    points = len(rc.amplitudes)
    m = checked_count("success outcome m", m, 1, points - 1)
    if len(pattern) != points or min(pattern) < 0 or sum(pattern) != m:
        raise ValueError(f"pattern {pattern} does not detect m={m} photons on {points} modes")
    try:
        return fourier_phase(pattern)
    except TypeError:  # a count that is not an integer indexes the phase table with a float
        raise ValueError(f"pattern {pattern} holds a count that is not an integer") from None


def reconcile_outcomes(
    rc: ResourceCoefficients,
    qubit: QubitAmplitudes,
    measured: Iterable[MeasurementOutcome],
    outcome_of: Callable[[Occupation], int],
    branches: Sequence[tuple[Occupation, ...]],
    phase_of: Callable[[Occupation, int], complex],
) -> list[TeleportOutcome]:
    """Check simulated detection patterns against the outcome law and aggregate by m.

    The encoding-independent half of both oracles, which call it with the
    collector paused (:func:`gc_paused`).  The encoding supplies ``measured``,
    the photon-count outcomes of its evolved protocol, read once;
    ``outcome_of(pattern)``, the outcome m of a pattern, which raises
    OracleMismatchError for a pattern the encoding cannot produce;
    ``branches[m]``, the branch occupations of the unmeasured modes for
    m = 0 .. n+1 (:func:`branch_table`: the lone spectator occupation of a
    failure, or the logical-zero and logical-one occupations of a success); and
    ``phase_of(pattern, m)``, the unit factor on the logical-one amplitude of
    a success pattern, which sees only the pattern so that it cannot borrow
    the phase from the simulation it checks.

    Every pattern, whatever its probability, may hold amplitude only on its
    branch occupations; any other key is refused, however small, as no noise
    bound applies: the unmeasured modes lie past the transform, where ``apply``
    moves no photon, so every other occupation is absent, not small.  As both
    branch occupations of a success share one spectator occupation, passing it
    also means the state factorizes as spectators x qubit mode.  A success
    pattern must fall at an m the law gives a conditional qubit, its branch
    magnitudes must match that qubit's and its phase-corrected qubit must match
    the qubit itself.  An outcome whose law has a single nonzero branch
    magnitude has no relative phase: its patterns record ``1 + 0j`` and
    ``phase_of`` is not asked.  The most probable pattern's corrected qubit
    represents each m.  Raises OracleMismatchError on any disagreement.

    The noise bounds allow for the Fock engine's two truncations.  ``apply``
    drops amplitudes of magnitude <= ``PRUNE_EPS``, which can move a normalized
    branch magnitude of a pattern of probability p by PRUNE_EPS / sqrt(p), so a
    success pattern's magnitudes and corrected fidelity are held to
    max(``ORACLE_TOL``, PRUNE_EPS / sqrt(p)), ``ORACLE_TOL`` for p >= 1e-10.
    ``measure_photon_counts`` omits patterns below ``OUTCOME_EPS``, so each m's
    aggregate, held to ``ORACLE_TOL``, may lack its pattern count times
    ``OUTCOME_EPS``: under 2.5e-11 at both oracle limits.  The n+2 aggregates
    put the total within (n+2) ``ORACLE_TOL`` of the law's.

    Every check runs on every pattern, the normalization of the corrected pair
    too (``fock._unit_pair``: its overflow, underflow and zero refusals and the
    ``NORM_TOL`` invariant of ``QubitAmplitudes``).  That pair stays two complex
    numbers with ``QubitAmplitudes.fidelity_with``'s formula (``fock._pair_fidelity``),
    so only each m's representative becomes a ``QubitAmplitudes``, once, with the same bits.
    """
    n = rc.n
    analytic = run_analytic(rc, qubit)
    # Per-m values, computed once: the records, the law's qubit and its magnitudes.
    per_m_patterns: list[list[PatternRecord]] = [[] for _ in analytic]
    laws = [law.conditional_qubit for law in analytic]
    magnitudes = [(abs(law.alpha), abs(law.beta)) if law is not None else None for law in laws]
    # m -> (probability, alpha, beta) of its most probable pattern's corrected pair.
    per_m_best: dict[int, tuple[float, complex, complex]] = {}

    for pattern, prob, conditional in measured:
        m = outcome_of(pattern)
        if not 0 <= m <= n + 1:
            raise OracleMismatchError(f"impossible outcome m={m} in pattern {pattern}")
        occupations = branches[m]
        amplitudes = conditional.amplitudes
        if not all(map(occupations.__contains__, amplitudes)):
            stray = next(occ for occ in amplitudes if occ not in occupations)
            raise OracleMismatchError(
                f"pattern {pattern} holds amplitude {amplitudes[stray]!r} on {stray}, "
                "outside its branch occupations"
            )
        records = per_m_patterns[m]
        if not 1 <= m <= n:
            records.append(PatternRecord(pattern, prob, 1 + 0j, float("nan")))
            continue

        law = laws[m]
        if law is None:
            raise OracleMismatchError(f"pattern {pattern} detected m={m}, which the law forbids")
        pat_tol = ORACLE_TOL if prob >= _PRUNE_CROSSOVER else PRUNE_EPS / math.sqrt(prob)
        amp0 = amplitudes.get(occupations[0], 0j)
        amp1 = amplitudes.get(occupations[1], 0j)
        expected0, expected1 = magnitudes[m]
        if abs(abs(amp0) - expected0) > pat_tol or abs(abs(amp1) - expected1) > pat_tol:
            raise OracleMismatchError(
                f"pattern {pattern} magnitudes ({abs(amp0):.12f}, {abs(amp1):.12f}) "
                f"differ from the law ({expected0:.12f}, {expected1:.12f})"
            )

        phase = phase_of(pattern, m) if expected0 and expected1 else 1 + 0j
        alpha, beta = _unit_pair(amp0, amp1 * phase)
        fidelity = _pair_fidelity(alpha, beta, law.alpha, law.beta)
        if fidelity < 1.0 - pat_tol:
            raise OracleMismatchError(
                f"pattern {pattern} corrected fidelity {fidelity!r} below tolerance"
            )
        best = per_m_best.get(m)
        if best is None or prob > best[0]:
            per_m_best[m] = (prob, alpha, beta)
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
        best = per_m_best.get(law.m)
        best_qubit = None if best is None else QubitAmplitudes(*best[1:])
        outcomes.append(
            replace(law, probability=prob, conditional_qubit=best_qubit, patterns=records)
        )
    return outcomes


@gc_paused()
def run_oracle(
    rc: ResourceCoefficients,
    qubit: QubitAmplitudes,
    *,
    limit: int = ORACLE_LIMIT,
) -> list[TeleportOutcome]:
    """Exact Fock-space simulation of the protocol, reconciled pattern by pattern.

    Builds :func:`protocol_input`, evolves its leading n+1 modes (the qubit and
    the front half) through the (n+1)-point Fourier transform, counts them, and
    hands the patterns to :func:`reconcile_outcomes` with their photon total as
    the outcome m, the branch occupations of :func:`branch_table` and phases
    from :func:`derive_phase_correction`, all under :func:`gc_paused`.  Raises
    ``ValueError`` before any work unless :func:`admit_oracle` admits n under
    ``limit``.
    """
    n = rc.n
    admit_oracle(n, limit)

    def phase_of(pattern: Occupation, m: int) -> complex:
        return derive_phase_correction(pattern, m, rc)

    transform = fourier_unitary(n + 1)
    measured = measure_photon_counts(
        apply(transform, protocol_input(rc, qubit)), transform.dimension
    )
    return reconcile_outcomes(rc, qubit, measured, sum, branch_table(n), phase_of)


def oracle_deviation(
    analytic: list[TeleportOutcome], oracle: list[TeleportOutcome]
) -> float:
    """Largest discrepancy between the two outcome tables (probabilities and qubits).

    Raises ``ValueError`` unless both tables list the same m's in the same order.
    """
    if [o.m for o in analytic] != [o.m for o in oracle]:
        raise ValueError("outcome tables do not pair up: their m columns differ")
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
    if not isinstance(raw, dict) or "n" not in raw or "c" not in raw:
        raise ValueError("coefficient file must be an object with keys 'n' and 'c'")
    n = checked_count("'n'", raw["n"], 1, RESOURCE_LIMIT)
    entries = raw["c"]
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
    """Divide coefficients by their norm: the rule for inline amplitudes and files.

    Deviations from unit norm up to ``STATE_NORM_TOL`` are corrected silently
    (the exact normalization the type requires); larger deviations are
    rejected unless ``renormalize`` is set.  A zero vector and a squared norm
    that overflows or falls below a normal float raise ``ValueError``.  The
    CLI's ``--squared`` moduli bypass it: they are judged by the same norm
    tolerance but divided by their sum.  ``ResourceCoefficients.from_weights``
    bypasses it too and takes weights that already sum to 1.
    """
    square = squared_norm(values, "coefficient")
    if square < sys.float_info.min:
        if any(values):
            raise ValueError("coefficient norm underflows a float")
        raise ValueError("coefficients cannot all be zero")
    nrm = math.sqrt(square)
    if abs(nrm - 1.0) > STATE_NORM_TOL and not renormalize:
        raise ValueError(
            f"coefficients deviate from unit norm by {abs(nrm - 1.0):.3e}; "
            "pass renormalize to accept"
        )
    return ResourceCoefficients(tuple(v / nrm for v in values))

