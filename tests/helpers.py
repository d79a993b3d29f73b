"""Shared test utilities: independent oracles and random generators.

The naive permanent here is the reference implementation the fast Gray-code
version is checked against; keep it dumb on purpose.  ``enumerate_basis``
lists every occupation of a photon-number sector, the reference for checks
that must visit all of them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from klm_teleport import PureState, QubitAmplitudes, ResourceCoefficients, SimplexPoint
from klm_teleport.teleport import normalize_coefficients


def naive_permanent(matrix) -> complex:
    """Permanent by explicit sum over permutations; reference oracle."""
    mat = np.asarray(matrix, dtype=complex)
    k = mat.shape[0]
    if k == 0:
        return 1 + 0j
    total = 0j
    for perm in itertools.permutations(range(k)):
        product = 1 + 0j
        for row, col in enumerate(perm):
            product *= mat[row, col]
        total += product
    return total


def enumerate_basis(modes: int, photons: int) -> list[tuple[int, ...]]:
    """Every occupation of ``photons`` photons in ``modes`` modes, in lexicographic order."""
    if modes == 1:
        return [(photons,)]
    return [
        (first, *rest)
        for first in range(photons + 1)
        for rest in enumerate_basis(modes - 1, photons - first)
    ]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with the standard phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_state(modes: int, photons: int, rng: np.random.Generator) -> PureState:
    """Random normalized state with a definite total photon number."""
    basis = enumerate_basis(modes, photons)
    amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    amps /= np.linalg.norm(amps)
    return PureState.from_terms(modes, dict(zip(basis, amps)))


def random_coefficients(n: int, rng: np.random.Generator) -> ResourceCoefficients:
    vals = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    # complex(v) makes abs(v) ** 2 a Python float power; numpy.float64 ** 2 may
    # differ in the last bit, and with it every coefficient.
    return normalize_coefficients([complex(v) for v in vals], renormalize=True)


def random_point(n: int, rng: np.random.Generator) -> SimplexPoint:
    """Dirichlet(1, ..., 1) point on the n-simplex, uniform over the weights."""
    return SimplexPoint.from_unnormalized(rng.dirichlet(np.ones(n + 1)))


def random_qubit(rng: np.random.Generator) -> QubitAmplitudes:
    return QubitAmplitudes.haar_random(rng)


def random_strict_weights(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Random simplex point with no two adjacent weights exactly equal."""
    while True:
        raw = rng.dirichlet(np.ones(n + 1))
        total = math.fsum(raw)
        weights = tuple(float(w) / total for w in raw)
        if all(a != b for a, b in zip(weights, weights[1:])):
            return weights
