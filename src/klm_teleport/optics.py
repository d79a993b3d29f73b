"""Mode-space unitaries acting on photon-number states.

Convention: a mode unitary U maps the creation operator of mode k to
sum_l U[l, k] * (creation operator of mode l).  A single photon therefore
transforms by plain matrix-vector multiplication with U.

Two independent routes evaluate the same physics.  ``apply`` evolves a whole
state by expanding prod_k (sum_l U[l, k] a_l^dag)^{S_k} one photon at a time,
skipping zero entries of U.  A k-mode U acts on the leading k modes, the ones
``measure_photon_counts`` measures; photons on later modes never meet U.  It
is the package's only Fock engine: both oracles evolve their input through
it, and so does the polarization correction circuit, as one slot unitary.
Its integer bookkeeping depends only on a term's structure (zero pattern of
U and occupation), so a structure that comes back is planned once and then
replayed with only the complex multiply-adds, bit for bit; a structure seen
once is expanded directly.
``transition_amplitude`` evaluates one matrix element as a permanent,

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
from array import array
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fock import Occupation, PureState, _significant, checked_count

#: Tolerance of the one unitarity rule, :func:`require_unitary`.
UNITARY_TOL = 1e-12
#: Most that ``apply``'s output norm may differ from its input's.
DRIFT_TOL = 1e-10

#: Most photons one term may hold in ``apply``.  The factorial table covers
#: 0..MAX_PHOTONS, and since no mode can then hold 256 photons, one byte per
#: mode is enough for ``apply``'s packed monomials.
MAX_PHOTONS = 39
_FACTORIAL = [math.factorial(i) for i in range(MAX_PHOTONS + 1)]
#: Most photons ``transition_amplitude`` takes: its O(2^k k) permanent is ~0.3 s at k = 16.
MAX_PERMANENT = 16


def require_unitary(mat: np.ndarray) -> None:
    """``ValueError`` unless mat^dag mat is the identity within ``UNITARY_TOL``."""
    # Orthonormal columns have finite entries of modulus at most 1.  Any other
    # entry is refused before the Gram product, which it could overflow; NaN
    # fails the comparison.
    if not np.abs(mat).max() <= 1.0 + UNITARY_TOL:
        raise ValueError("matrix is not unitary: entries must be finite with modulus <= 1")
    deviation = float(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))))
    if not deviation <= UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (deviation {deviation:.3e})")


@dataclass(frozen=True)
class ModeUnitary:
    """Unitary matrix over optical modes, verified unitary on construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"mode unitary must be square, got shape {mat.shape}")
        if mat.shape[0] < 1:
            raise ValueError("mode unitary needs at least one mode")
        require_unitary(mat)
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
    """Amplitude <target| U |source>; zero when photon numbers differ.

    More than ``MAX_PERMANENT`` source photons raise ``ValueError`` before any permanent.
    """
    if len(source) != u.dimension or len(target) != u.dimension:
        raise ValueError("occupations must match the unitary's mode count")
    source = [checked_count("source photon count", k, 0) for k in source]
    target = [checked_count("target photon count", k, 0) for k in target]
    photons = sum(source)
    if photons > MAX_PERMANENT:
        raise ValueError(
            f"the source holds {photons} photons; "
            f"transition_amplitude supports at most {MAX_PERMANENT}"
        )
    if photons != sum(target):
        return 0j
    cols = _expand(source)
    rows = _expand(target)
    mat = u.matrix
    sub = [[mat[r, c] for c in cols] for r in rows]
    for row in sub:
        if not any(row):
            return 0j
    fact = math.prod([_FACTORIAL[k] for k in source + target])
    return complex(_permanent_rows(sub)) / math.sqrt(fact)


def apply(u: ModeUnitary, state: PureState) -> PureState:
    """Evolve a photon-number state through a mode unitary.

    Each source term |S> = prod_k (a_k^dag)^{S_k} / sqrt(prod S_k!) |0> is
    multiplied out photon by photon, adding U[l, k] times the running
    coefficient for every nonzero entry of column k; a monomial
    prod_l (a_l^dag)^{T_l} then contributes sqrt(prod T_l! / prod S_k!) to the
    amplitude of |T>.  Photon number is conserved; amplitudes below the
    pruning threshold are dropped from the result, and an output norm farther
    than ``DRIFT_TOL`` from the input's own raises ``RuntimeError``.

    Bounds: ``u`` must fit the state, the state must be normalized (within
    ``STATE_NORM_TOL``) and no source term may hold more than ``MAX_PHOTONS``
    photons, or ``ValueError`` is raised.
    While expanding, a monomial is one integer with a byte per mode, mode 0
    most significant, so placing a photon in mode l adds 256^(modes-1-l); the
    photon bound keeps every byte below 256, and integer order is the
    lexicographic order of the occupations.

    A k-mode ``u`` acts on the state's leading k modes, and only their photons
    are expanded.  Photons on later modes stay put, so their bytes form one
    offset from which the term's expansion starts.  Every amplitude matches
    the identity-padded matrix's to the last bit: its unit entries can only
    flip the sign of a zero component (see Zeros).

    Plans.  A source term's structure (the zero pattern of ``u``, which fixes
    the block, and the occupation) fixes the whole bookkeeping of its
    expansion, photon by photon in mode order: the offset, which product
    lands on which monomial, in what order, and each output's occupation and
    weight; only the arithmetic reads the matrix.
    The first call on a structure expands the term and notes the structure;
    the second has ``_plan_term`` record the bookkeeping as a plan, which
    ``_replay`` then runs with only the complex multiply-adds, adding the same
    products into each output slot in the same order.  Both paths share
    ``_outputs``, the accumulation, the pruning and the drift check.  A build
    costs about 1.7 times the expansion (number oracle input, in process:
    9.3 against 5.6 ms at n = 5), so planning waits for the second call and a
    structure seen once, as in a one-shot run, costs only its expansion.
    Plans share one cache of ``_PLAN_BUDGET`` entries; once it is spent, new
    structures are expanded unplanned.

    Zeros.  A replayed slot starts at its first product, the expansion at
    ``0j + product``, so they may differ in the sign of a zero component.  No
    output shows it: the sign of a zero operand never changes a nonzero IEEE
    sum or product; ``apply`` accumulates every output from ``0j``, which
    turns a -0.0 component into +0.0; and ``_significant`` drops amplitudes
    that are entirely zero.
    """
    block = u.dimension
    modes = state.mode_count
    if block > modes:
        raise ValueError(f"a {block}-mode unitary does not fit a {modes}-mode state")
    square = state.require_normalized()
    heaviest = max(map(sum, state.amplitudes))
    if heaviest > MAX_PHOTONS:
        raise ValueError(
            f"a term holds {heaviest} photons; apply supports at most {MAX_PHOTONS} per term"
        )
    mat = u.matrix
    place = [1 << 8 * (modes - 1 - l) for l in range(block)]
    # Only columns of occupied block modes are read.
    occupied = [k for k, counts in zip(range(block), zip(*state.amplitudes)) if any(counts)]
    columns = {
        k: [(place[l], complex(mat[l, k])) for l in np.flatnonzero(mat[:, k])] for k in occupied
    }
    entries = {k: [entry for _, entry in column] for k, column in columns.items()}
    zeros = (mat != 0).tobytes()
    occupations: dict[int, Occupation] = {}
    out: dict[int, complex] = {}
    for occ, amp in state.amplitudes.items():
        offset = int.from_bytes(bytes(occ[block:]), "big")
        photons = [k for k in occupied for _ in range(occ[k])]
        structure = (zeros, occ)
        plan = _plans.get(structure)
        # Seen once: plan it if the budget has room.  The plan takes over the
        # one entry that marked the structure as seen.
        if type(plan) is int and plan - 1 <= _PLAN_BUDGET - _plan_entries:
            plan = _plan_term(offset, photons, columns, occ)
            _keep(structure, plan, plan.size - 1)
        if type(plan) is _Plan:
            targets, weights = plan.targets, plan.weights
            coeffs = map(_replay(plan, amp, entries).__getitem__, plan.slots)
        else:
            monomials, products = _expand_term(offset, amp, photons, columns)
            if plan is None:
                _keep(structure, _plan_size(products, len(monomials), modes), 1)
            targets, weights = _outputs(monomials, occ)
            coeffs = monomials.values()
        occupations.update(targets)
        for code, coeff, weight in zip(targets, coeffs, weights):
            out[code] = out.get(code, 0j) + coeff * weight

    terms = _significant(zip(map(occupations.__getitem__, out), out.values()))
    result = PureState._derived(modes, terms)
    drift = abs(result.norm() - math.sqrt(square))
    if drift > DRIFT_TOL:
        raise RuntimeError(f"unitary application lost normalization (drift {drift:.3e})")
    return result


#: Entries that ``apply``'s plans may hold together.  An entry is one number
#: a plan keeps: a product's index, or one of the modes + 3 that an output
#: monomial keeps (code, slot, weight, occupation).  Plans measured 12-14
#: bytes an entry (``tracemalloc``, 64-bit CPython 3.11), about 15 MiB in all:
#: room for every plan of the number oracle at n = 7 (479,032 entries) or the
#: polarization oracle at n = 5 (681,080); at n = 8 (2.0 million) all but the
#: two largest fit.  Once it is spent, new structures are expanded unplanned
#: and nothing is evicted, so a larger working set never cycles through builds.
_PLAN_BUDGET = 1 << 20

#: Plans by structure: a structure seen once maps to the entries its plan
#: would hold, a planned one to its ``_Plan``.
_plans: dict[tuple, _Plan | int] = {}
#: Entries held in ``_plans``: each plan's size, and 1 per structure seen once.
_plan_entries = 0


class _Plan(NamedTuple):
    """The bookkeeping of one source term's expansion, from its structure alone."""

    #: Per photon: its column's mode, and per fold depth d the product that
    #: each slot with more than d products adds at depth d.
    steps: list[tuple[int, list[array]]]
    #: The replay's slot of each output monomial, in expansion order.
    slots: array
    #: Output monomial code -> occupation, in expansion order.
    targets: dict[int, Occupation]
    #: sqrt(prod T_l! / prod S_k!) of each output monomial, in expansion order.
    weights: list[float]
    #: Entries the plan holds (see ``_PLAN_BUDGET``).
    size: int


def _plan_size(products: int, outputs: int, modes: int) -> int:
    return products + outputs * (modes + 3)


def _keep(key: tuple, entry: _Plan | int, cost: int) -> None:
    """Store ``entry`` under ``key`` if the budget has ``cost`` entries left."""
    global _plan_entries
    if cost <= _PLAN_BUDGET - _plan_entries:
        _plans[key] = entry
        _plan_entries += cost


def _expand_term(
    offset: int, amp: complex, photons: list[int], columns: dict[int, list[tuple[int, complex]]]
) -> tuple[dict[int, complex], int]:
    """One source term multiplied out: (monomial code -> coefficient, products formed).

    From the monomial ``offset`` on, each coefficient sums its products from
    ``0j``: by monomial of the previous step, then by entry of the column.
    """
    monomials = {offset: amp}
    products = 0
    for k in photons:
        column = columns[k]
        products += len(monomials) * len(column)
        grown: dict[int, complex] = {}
        for mono, coeff in monomials.items():
            for step, entry in column:
                key = mono + step
                grown[key] = grown.get(key, 0j) + coeff * entry
        monomials = grown
    return monomials, products


def _outputs(codes: Iterable[int], occ: Occupation) -> tuple[dict[int, Occupation], list[float]]:
    """Each output code's occupation T, and its weight sqrt(prod T_l! / prod S_k!)."""
    modes = len(occ)
    src_fact = math.prod(_FACTORIAL[count] for count in occ)
    targets = {}
    weights = []
    for code in codes:
        occupation = targets[code] = tuple(code.to_bytes(modes, "big"))
        tgt_fact = 1
        for count in occupation:
            tgt_fact *= _FACTORIAL[count]
        weights.append(math.sqrt(tgt_fact / src_fact))
    return targets, weights


def _plan_term(
    offset: int, photons: list[int], columns: dict[int, list[tuple[int, complex]]], occ: Occupation
) -> _Plan:
    """``_expand_term``'s bookkeeping for one source term, with no arithmetic.

    A step's products are ``[x * e for x in values for e in column]``, so
    product ``slot * width + j`` is that slot's value times the column's j-th
    nonzero entry.  Each new monomial lists its products in expansion order,
    as ``_expand_term`` adds them.  Slots are stored deepest first, so the
    monomials still adding at fold depth d are a prefix of the slots.
    """
    slot_of = {offset: 0}
    steps = []
    products = 0
    for k in photons:
        increments = [step for step, _ in columns[k]]
        width = len(increments)
        products += len(slot_of) * width
        sources: dict[int, list[int]] = {}
        for mono, slot in slot_of.items():
            for product, step in enumerate(increments, slot * width):
                sources.setdefault(mono + step, []).append(product)
        ranked = sorted(sources, key=lambda mono: len(sources[mono]), reverse=True)
        by_depth = [
            array("I", [sources[mono][d] for mono in ranked if len(sources[mono]) > d])
            for d in range(len(sources[ranked[0]]))
        ]
        steps.append((k, by_depth))
        rank = {mono: slot for slot, mono in enumerate(ranked)}
        slot_of = {mono: rank[mono] for mono in sources}
    targets, weights = _outputs(slot_of, occ)
    size = _plan_size(products, len(targets), len(occ))
    return _Plan(steps, array("I", slot_of.values()), targets, weights, size)


def _replay(plan: _Plan, amp: complex, entries: dict[int, list[complex]]) -> list[complex]:
    """The coefficients ``_expand_term`` gives the plan's term, by slot.

    A slot starts at its bare first product; ``apply`` (Zeros) says why.
    """
    values = [amp]
    for k, by_depth in plan.steps:
        column = entries[k]
        products = [x * e for x in values for e in column]
        pick = products.__getitem__
        first, *rest = by_depth
        values = list(map(pick, first))
        for adds in rest:
            values[: len(adds)] = [v + p for v, p in zip(values, map(pick, adds))]
    return values
