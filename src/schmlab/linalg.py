"""Dense complex linear algebra with bipartite index bookkeeping.

Conventions used everywhere in this package:

* Matrices are 2-D ``numpy.complex128`` arrays in row-major (C) order.
* A composite A|B space is flattened A-major: the basis pair ``(iA, iB)``
  maps to the flat index ``iA * dimB + iB``.  ``numpy.kron`` follows the
  same rule, so ``np.kron(opA, opB)`` acts on flattened composite vectors.
* Eigenvalues and singular values are returned in descending order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionLimitError, NumericError, ValidationError

# Hard cap on the total dimension dimA * dimB of a bipartite space: every
# command works on dense (dimA * dimB)^2 operators.
MAX_DIM = 4096

# Relative Frobenius deviation above which a matrix is rejected as
# non-Hermitian instead of being silently symmetrized.
HERMITICITY_TOL = 1e-8

# Factorization residual allowed for eigh/svd, relative to the input norm.
RESIDUAL_TOL = 1e-9

# Relative cutoff separating numerical zero from signal in spectra: a
# singular value, eigenvalue or Schmidt coefficient below RANK_CUTOFF times
# the largest one counts as zero wherever a rank is counted.
RANK_CUTOFF = 1e-8


@dataclass(frozen=True)
class BipartiteDims:
    """Declared factorization of a composite index space into A x B."""

    dimA: int
    dimB: int

    def __post_init__(self):
        if self.dimA < 1 or self.dimB < 1:
            raise ValidationError(f"dimensions must be positive, got {self}")
        if self.dimA * self.dimB > MAX_DIM:
            raise DimensionLimitError(
                f"dimensions are capped at {MAX_DIM} in total (dimA * dimB), got {self}")

    @property
    def total(self) -> int:
        return self.dimA * self.dimB

    @property
    def min_dim(self) -> int:
        return min(self.dimA, self.dimB)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    arr = np.ascontiguousarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D complex128 array."""
    arr = np.ascontiguousarray(v, dtype=np.complex128).reshape(-1)
    if arr.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def partial_trace(m, dims: BipartiteDims, side: str) -> np.ndarray:
    """Trace out one factor of a square operator on the composite space.

    ``side`` names the factor that is traced out: ``side="B"`` returns the
    dimA x dimA reduction, ``side="A"`` the dimB x dimB one.
    """
    m = as_matrix(m)
    n = dims.total
    if m.shape != (n, n):
        raise ValidationError(
            f"operator shape {m.shape} does not match dims {dims} (total {n})"
        )
    blocks = m.reshape(dims.dimA, dims.dimB, dims.dimA, dims.dimB)
    if side == "B":
        return np.einsum("ijkj->ik", blocks)
    if side == "A":
        return np.einsum("ijil->jl", blocks)
    raise ValidationError(f"side must be 'A' or 'B', got {side!r}")


def hermitize(m) -> np.ndarray:
    """Return the Hermitian part (m + m†)/2; reject larger deviations.

    The threshold is HERMITICITY_TOL relative to max(1, ||m||_F), so that
    roundoff-sized asymmetry passes while genuinely non-Hermitian inputs
    are refused.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got {m.shape}")
    dev = np.linalg.norm(m - m.conj().T)
    if dev > HERMITICITY_TOL * max(1.0, np.linalg.norm(m)):
        raise ValidationError(
            f"matrix deviates from Hermitian by {dev:.3e} (tolerance {HERMITICITY_TOL:.1e})"
        )
    return (m + m.conj().T) / 2


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues descending.

    Returns ``(values, vectors)`` with ``vectors[:, i]`` the i-th
    eigenvector, and verifies the reconstruction residual.
    """
    h = hermitize(m)
    vals, vecs = np.linalg.eigh(h)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    residual = np.linalg.norm((vecs * vals) @ vecs.conj().T - h)
    if residual > RESIDUAL_TOL * max(1.0, np.linalg.norm(h)):
        raise NumericError("eigendecomposition failed to converge", residual=residual)
    return vals, vecs


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition (thin), singular values descending."""
    m = as_matrix(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    residual = np.linalg.norm((u * s) @ vh - m)
    if residual > RESIDUAL_TOL * max(1.0, np.linalg.norm(m)):
        raise NumericError("singular value decomposition failed", residual=residual)
    return u, s, vh


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of the symmetrized input."""
    h = hermitize(m)
    return float(np.linalg.eigvalsh(h)[0])


def trace_distance(a, b) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b."""
    diff = as_matrix(a) - as_matrix(b)
    diff = (diff + diff.conj().T) / 2
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def relative_rank(values: np.ndarray) -> int:
    """How many descending `values` are >= RANK_CUTOFF * the largest; 0 if none is positive."""
    if values.size == 0 or values[0] <= 0.0:
        return 0
    return int(np.count_nonzero(values >= RANK_CUTOFF * values[0]))


def matrix_rank(m) -> int:
    """Numerical rank: singular values >= RANK_CUTOFF * largest."""
    return relative_rank(np.linalg.svd(as_matrix(m), compute_uv=False))


def support_kernel(m):
    """Split a Hermitian PSD operator into support/kernel bases.

    Returns ``(support_vectors, support_values, kernel_vectors)`` where
    the support columns carry eigenvalues >= RANK_CUTOFF * largest.  A
    numerically zero operator has no support and is refused.
    """
    vals, vecs = eigh(m)
    if vals[0] <= 0.0:
        raise ValidationError("operator is numerically zero")
    rank = relative_rank(vals)
    return vecs[:, :rank], vals[:rank], vecs[:, rank:]
