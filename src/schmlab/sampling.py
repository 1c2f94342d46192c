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
    return _phase_fixed_q(g)


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    """Q factors of a (..., rows, cols) Ginibre stack, times R's diagonal phases."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def random_pure_state(rng: np.random.Generator, dims: BipartiteDims) -> PureState:
    amp = rng.normal(size=dims.total) + 1j * rng.normal(size=dims.total)
    return PureState.normalized(amp, dims)


def random_sr_pure_state(rng: np.random.Generator, dims: BipartiteDims,
                         r: int) -> PureState:
    """Random pure state with Schmidt rank exactly min(r, dimA, dimB).

    The one-row case of `random_sr_amplitudes`.
    """
    return PureState(random_sr_amplitudes([rng], dims, r)[0], dims)


def random_sr_amplitudes(rngs, dims: BipartiteDims, r: int) -> np.ndarray:
    """(len(rngs), dims.total) unit rows of Schmidt rank exactly min(r, dimA, dimB).

    Row i is sum_k c_k a_k ⊗ b_k with orthonormal local frames and strictly
    positive random coefficients, drawn from ``rngs[i]`` alone in the order
    A frame, B frame, coefficients.  The frames of all rows come from one
    batched QR per side, so a row has the same bits however many are drawn.
    """
    r = min(r, dims.min_dim)
    draws = [(rng.normal(size=(dims.dimA, r)) + 1j * rng.normal(size=(dims.dimA, r)),
              rng.normal(size=(dims.dimB, r)) + 1j * rng.normal(size=(dims.dimB, r)),
              rng.uniform(0.2, 1.0, size=r)) for rng in rngs]
    ga, gb, c = (np.stack(part) for part in zip(*draws))
    a, b = _phase_fixed_q(ga), _phase_fixed_q(gb)
    rows = ((a * c[:, None, :]) @ b.transpose(0, 2, 1)).reshape(len(draws), -1)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


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
