"""Mode-space unitaries acting on photon-number states.

Convention: a mode unitary U maps the creation operator of mode k to
sum_l U[l, k] * (creation operator of mode l).  A single photon therefore
transforms by plain matrix-vector multiplication with U.

Two independent routes evaluate the same physics.  ``apply`` evolves a whole
state by expanding prod_k (sum_l U[l, k] a_l^dag)^{S_k} one photon at a time,
skipping zero entries of U.  A k-mode U acts on the leading k modes, the ones
``measure_photon_counts`` measures, and each later mode passes through as a
single exact term.  It is the package's only Fock engine: both oracles evolve
their input through it, and so does the polarization correction circuit, as
one slot unitary.  ``transition_amplitude`` evaluates one matrix element as a
permanent,

    <T| U |S> = per(U[S, T]) / sqrt(prod(S_i!) * prod(T_l!))

where U[S, T] repeats column k S_k times and row l T_l times (Scheel,
quant-ph/0406127).  Permanents serve only ``transition_amplitude`` and
``permanent``, which the tests use as the reference for ``apply`` and for
the oracles' corrective phase.

That phase needs no permanent.  The N-point Fourier transform satisfies
U[l, k+1 mod N] = omega^l U[l, k] with omega = exp(2*pi*i/N), so shifting
every source photon by one mode multiplies row l of the permanent by
omega^l: two sources a cyclic shift apart reach |T> with equal magnitude and
relative phase omega^(sum_l l*T_l) (``teleport.fourier_phase``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import Occupation, PureState, _significant, checked_count

#: Tolerance for the unitarity check on construction.
UNITARY_TOL = 1e-12

#: Most photons one term may hold in ``apply``.  The factorial table covers
#: 0..MAX_PHOTONS, and since no mode can then hold 256 photons, one byte per
#: mode is enough for ``apply``'s packed monomials.
MAX_PHOTONS = 39
_FACTORIAL = [math.factorial(i) for i in range(MAX_PHOTONS + 1)]


@dataclass(frozen=True)
class ModeUnitary:
    """Unitary matrix over optical modes, verified unitary on construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"mode unitary must be square, got shape {mat.shape}")
        dim = mat.shape[0]
        if dim < 1:
            raise ValueError("mode unitary needs at least one mode")
        # A unitary's entries are finite with modulus at most 1.  Any other is
        # refused before the Gram product, which it could overflow; NaN fails
        # the comparison.
        if not np.abs(mat).max() <= 1.0 + UNITARY_TOL:
            raise ValueError("matrix is not unitary: entries must be finite with modulus <= 1")
        deviation = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
        if not deviation <= UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {deviation:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def fourier_unitary(points: int) -> ModeUnitary:
    """Discrete-Fourier mode transform: entry (l, k) = exp(2*pi*i*k*l/points)/sqrt(points)."""
    points = checked_count("point count", points)
    idx = np.arange(points)
    mat = np.exp(2j * np.pi * np.outer(idx, idx) / points) / math.sqrt(points)
    return ModeUnitary(mat)


def _permanent_rows(rows: list[list[complex]]) -> complex:
    """Permanent of a small square matrix given as a list of rows.

    Inclusion-exclusion over column subsets with Gray-code updates, so each
    step costs O(k); total O(2^k * k).
    """
    k = len(rows)
    if k == 0:
        return 1 + 0j
    if k == 1:
        return rows[0][0]
    cols = list(zip(*rows))
    sums = [0j] * k
    total = 0j
    gray = 0
    for idx in range(1, 1 << k):
        new_gray = idx ^ (idx >> 1)
        bit = gray ^ new_gray
        j = bit.bit_length() - 1
        col = cols[j]
        if new_gray & bit:
            for i in range(k):
                sums[i] += col[i]
        else:
            for i in range(k):
                sums[i] -= col[i]
        gray = new_gray
        term = 1 + 0j
        for s in sums:
            term *= s
        if (k - gray.bit_count()) & 1:
            total -= term
        else:
            total += term
    return total


def permanent(matrix) -> complex:
    """Permanent of a square complex matrix; the empty matrix has permanent 1."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {mat.shape}")
    return complex(_permanent_rows([list(row) for row in mat]))


def _expand(occupation: Sequence[int]) -> list[int]:
    return [idx for idx, count in enumerate(occupation) for _ in range(count)]


def transition_amplitude(u: ModeUnitary, source: Occupation, target: Occupation) -> complex:
    """Amplitude <target| U |source>; zero when photon numbers differ."""
    if len(source) != u.dimension or len(target) != u.dimension:
        raise ValueError("occupations must match the unitary's mode count")
    if any(k < 0 for k in source) or any(k < 0 for k in target):
        raise ValueError("occupations must be nonnegative")
    if sum(source) != sum(target):
        return 0j
    cols = _expand(source)
    rows = _expand(target)
    mat = u.matrix
    sub = [[mat[r, c] for c in cols] for r in rows]
    for row in sub:
        if not any(row):
            return 0j
    fact = 1
    for k in source:
        fact *= _FACTORIAL[k]
    for k in target:
        fact *= _FACTORIAL[k]
    return complex(_permanent_rows(sub)) / math.sqrt(fact)


def apply(u: ModeUnitary, state: PureState) -> PureState:
    """Evolve a photon-number state through a mode unitary.

    Each source term |S> = prod_k (a_k^dag)^{S_k} / sqrt(prod S_k!) |0> is
    multiplied out photon by photon, adding U[l, k] times the running
    coefficient for every nonzero entry of column k; a monomial
    prod_l (a_l^dag)^{T_l} then contributes sqrt(prod T_l! / prod S_k!) to the
    amplitude of |T>.  Photon number is conserved; amplitudes below the
    pruning threshold are dropped from the result.

    A k-mode ``u`` acts on the state's leading k modes.  Each later mode gets
    the identity column, 1 + 0j on itself, so its photons stay put and every
    amplitude matches the identity-padded matrix's to the last bit.

    Bounds: ``u`` must fit the state, the state must be normalized (within
    1e-9) and no source term may hold more than ``MAX_PHOTONS`` photons, or
    ``ValueError`` is raised.
    While expanding, a monomial is one integer with a byte per mode, mode 0
    most significant, so placing a photon in mode l adds 256^(modes-1-l); the
    photon bound keeps every byte below 256, and integer order is the
    lexicographic order of the occupations.
    """
    block = u.dimension
    modes = state.mode_count
    if block > modes:
        raise ValueError(f"a {block}-mode unitary does not fit a {modes}-mode state")
    state.require_normalized()
    heaviest = max(map(sum, state.amplitudes))
    if heaviest > MAX_PHOTONS:
        raise ValueError(
            f"a term holds {heaviest} photons; apply supports at most {MAX_PHOTONS} per term"
        )
    mat = u.matrix
    place = [1 << 8 * (modes - 1 - l) for l in range(modes)]
    # Only columns of occupied modes are ever read; past the block, the
    # identity's 1 + 0j is multiplied in, not skipped, as it may flip a zero's
    # sign.  Sparsest first: spectator photons are placed while the expansion
    # is still a single term.
    occupied = [k for k, counts in enumerate(zip(*state.amplitudes)) if any(counts)]
    columns = {k: [(place[k], 1 + 0j)] for k in occupied if k >= block}
    for k in occupied:
        if k < block:
            columns[k] = [(place[l], complex(mat[l, k])) for l in np.flatnonzero(mat[:, k])]
    order = sorted(occupied, key=lambda k: len(columns[k]))
    targets: dict[int, tuple[Occupation, int]] = {}
    out: dict[int, complex] = {}
    for occ, amp in state.amplitudes.items():
        monomials = {0: amp}
        src_fact = 1
        for k in order:
            count = occ[k]
            src_fact *= _FACTORIAL[count]
            for _ in range(count):
                grown: dict[int, complex] = {}
                for mono, coeff in monomials.items():
                    for step, entry in columns[k]:
                        key = mono + step
                        grown[key] = grown.get(key, 0j) + coeff * entry
                monomials = grown
        for code, coeff in monomials.items():
            target = targets.get(code)
            if target is None:
                key = tuple(code.to_bytes(modes, "big"))
                tgt_fact = 1
                for t in key:
                    tgt_fact *= _FACTORIAL[t]
                target = targets[code] = (key, tgt_fact)
            out[code] = out.get(code, 0j) + coeff * math.sqrt(target[1] / src_fact)

    terms = _significant((targets[code][0], a) for code, a in out.items())
    result = PureState._derived(modes, terms)
    drift = abs(result.norm() - 1.0)
    if drift > 1e-10:
        raise RuntimeError(f"unitary application lost normalization (drift {drift:.3e})")
    return result
