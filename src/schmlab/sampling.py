"""Seeded random generators for states and search restarts.

A single user-facing seed is split into per-operation sub-seeds through
`derive_seed(seed, tag)`: SHA-256 of the little-endian seed bytes plus the
operation tag, truncated to 64 bits.  The scheme is stable across runs
and platforms, which is what makes certificates reproducible for a fixed
``--seed``.  Random channel constructors live in `schmlab.channels`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .linalg import BipartiteDims
from .states import DensityMatrix, PureState


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for one named operation."""
    digest = hashlib.sha256(
        int(seed).to_bytes(8, "little", signed=False) + tag.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(seed: int, tag: str | None = None) -> np.random.Generator:
    return np.random.default_rng(seed if tag is None else derive_seed(seed, tag))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary (QR of a Ginibre matrix, phase-fixed)."""
    return random_isometry(rng, d, d)


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """rows x cols matrix with orthonormal columns (rows >= cols)."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_state(rng: np.random.Generator, dims: BipartiteDims) -> PureState:
    amp = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
    return PureState.normalized(amp, dims)


def random_sr_pure_state(rng: np.random.Generator, dims: BipartiteDims,
                         r: int) -> PureState:
    """Random pure state with Schmidt rank exactly min(r, dimA, dimB).

    Built as sum_k c_k a_k ⊗ b_k with orthonormal local frames and strictly
    positive random coefficients.
    """
    r = min(r, dims.min_dim)
    a = random_isometry(rng, dims.dimA, r)
    b = random_isometry(rng, dims.dimB, r)
    c = rng.uniform(0.2, 1.0, size=r)
    coeff = (a * c) @ b.T
    return PureState.normalized(coeff.reshape(-1), dims)


def random_product_state(rng: np.random.Generator, dims: BipartiteDims) -> PureState:
    return random_sr_pure_state(rng, dims, 1)


def random_density_matrix(rng: np.random.Generator, dims: BipartiteDims,
                          rank: int | None = None) -> DensityMatrix:
    """Ginibre-induced random mixed state of the given rank."""
    n = dims.total
    rank = n if rank is None else min(rank, n)
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def random_sr_mixture(rng: np.random.Generator, dims: BipartiteDims, r: int,
                      members: int) -> DensityMatrix:
    """Random mixture of `members` pure states of Schmidt rank <= r.

    The generating ensemble is attached to the returned state.
    """
    weights = rng.dirichlet(np.ones(members))
    ens = [(float(w), random_sr_pure_state(rng, dims, r)) for w in weights]
    return DensityMatrix.from_ensemble(ens)


def random_povm(rng: np.random.Generator, d: int, outcomes: int) -> list[np.ndarray]:
    """Random POVM: PSD effects summing to the identity."""
    raw = []
    for _ in range(outcomes):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [inv_sqrt @ a @ inv_sqrt for a in raw]
