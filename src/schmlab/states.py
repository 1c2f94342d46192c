"""Bipartite pure and mixed states.

Schmidt decomposition and rank, purification, finite-rank truncation and
local filtering.  All state objects are immutable value types; the Schmidt
cache of a pure state is computed at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    FilterDegenerateError,
    TruncationDegenerateError,
    ValidationError,
)
from .linalg import BipartiteDims

# State-object validation thresholds.
NORM_TOL = 1e-10
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9

# Mass below which ensemble members are dropped as numerically absent.
MEMBER_FLOOR = 1e-14


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt decomposition: psi = sum_i c_i |left_i> ⊗ |right_i>."""

    coefficients: np.ndarray  # nonnegative, descending
    left: np.ndarray          # (dimA, n) orthonormal columns
    right: np.ndarray         # (dimB, n) orthonormal columns


class PureState:
    """Unit vector over a declared bipartite index space."""

    __slots__ = ("amplitudes", "dims", "_schmidt")

    def __init__(self, amplitudes, dims: BipartiteDims):
        amp = linalg.as_vector(amplitudes, "amplitudes")
        if amp.size != dims.total:
            raise ValidationError(
                f"amplitude length {amp.size} does not match dims {dims}"
            )
        with np.errstate(over="ignore"):  # huge entries give norm inf, refused below
            norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {float(norm)} is not 1 within {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_schmidt", None)

    def __setattr__(self, name, value):
        raise AttributeError("PureState is immutable")

    @classmethod
    def normalized(cls, amplitudes, dims: BipartiteDims) -> "PureState":
        """Build a state from an unnormalized vector."""
        amp = linalg.as_vector(amplitudes, "amplitudes")
        norm = np.linalg.norm(amp)
        if norm <= 1e-12:
            raise ValidationError("cannot normalize a (numerically) zero vector")
        return cls(amp / norm, dims)

    def coefficient_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (dimA, dimB), A-major."""
        return self.amplitudes.reshape(self.dims.dimA, self.dims.dimB)

    @property
    def schmidt(self) -> SchmidtData:
        cached = self._schmidt
        if cached is None:
            u, s, vh = linalg.svd(self.coefficient_matrix())
            # Rows of vh are the B-side kets: psi = sum_i s_i u_i ⊗ vh[i].
            cached = SchmidtData(coefficients=s, left=u, right=vh.T.copy())
            object.__setattr__(self, "_schmidt", cached)
        return cached

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


Ensemble = tuple[tuple[float, PureState], ...]


def _validated_ensemble(matrix: np.ndarray, dims: BipartiteDims,
                        members: Sequence[tuple[float, PureState]]) -> Ensemble:
    weights = np.array([w for w, _ in members], dtype=float)
    if np.any(weights < -1e-12):
        raise ValidationError("ensemble weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-10:
        raise ValidationError(f"ensemble weights sum to {float(weights.sum())}, not 1")
    mix = np.zeros_like(matrix)
    for w, psi in members:
        if psi.dims != dims:
            raise ValidationError("ensemble member dims do not match the state")
        mix += w * psi.projector()
    dist = linalg.trace_distance(mix, matrix)
    if dist > 1e-8:
        raise ValidationError(
            f"ensemble reconstructs the state only to trace distance {dist:.3e}"
        )
    return tuple((float(w), psi) for w, psi in members)


class DensityMatrix:
    """Trace-one PSD operator with a declared bipartite factorization.

    ``ensemble``, when present, is a convex decomposition into pure states
    that reconstructs the matrix (validated at construction).  Builders
    attach their generating ensembles here; certification uses them as
    upper-bound evidence.
    """

    __slots__ = ("matrix", "dims", "psd_slack", "ensemble")

    def __init__(self, matrix, dims: BipartiteDims,
                 ensemble: Optional[Sequence[tuple[float, PureState]]] = None):
        m = linalg.as_matrix(matrix, "density matrix")
        if m.shape != (dims.total, dims.total):
            raise ValidationError(f"matrix shape {m.shape} does not match dims {dims}")
        # Huge entries overflow to inf or NaN here; the trace check refuses both.
        with np.errstate(over="ignore", invalid="ignore"):
            dev = np.linalg.norm(m - m.conj().T)
            if dev > HERM_TOL * max(1.0, np.linalg.norm(m)):
                raise ValidationError(f"density matrix deviates from Hermitian by {dev:.3e}")
            m = (m + m.conj().T) / 2
            tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValidationError(f"trace {tr!r} is not 1 within {TRACE_TOL}")
        slack = float(np.linalg.eigvalsh(m)[0])
        if slack < PSD_FLOOR:
            raise ValidationError(f"matrix has negative eigenvalue {slack:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "psd_slack", slack)
        object.__setattr__(
            self, "ensemble",
            None if ensemble is None else _validated_ensemble(m, dims, ensemble),
        )

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityMatrix":
        return cls(psi.projector(), psi.dims, ensemble=((1.0, psi),))

    @classmethod
    def from_ensemble(cls, members: Sequence[tuple[float, PureState]]) -> "DensityMatrix":
        if not members:
            raise ValidationError("ensemble is empty")
        dims = members[0][1].dims
        total = sum(w for w, _ in members)
        if total <= 0:
            raise ValidationError("ensemble has no weight")
        members = [(w / total, psi) for w, psi in members if w / total > MEMBER_FLOOR]
        mix = np.zeros((dims.total, dims.total), dtype=np.complex128)
        for w, psi in members:
            mix += w * psi.projector()
        return cls(mix, dims, ensemble=members)

    def reduced(self, side: str) -> np.ndarray:
        """Reduced operator with factor `side` traced out."""
        return linalg.partial_trace(self.matrix, self.dims, side)

    def with_ensemble(self, members: Sequence[tuple[float, PureState]]) -> "DensityMatrix":
        return DensityMatrix(self.matrix, self.dims, ensemble=members)


def schmidt_decompose(psi: PureState) -> SchmidtData:
    """Schmidt data of a pure state (SVD of its coefficient matrix)."""
    return psi.schmidt


def schmidt_rank(psi: PureState) -> int:
    """Number of Schmidt coefficients >= linalg.RANK_CUTOFF * largest."""
    return linalg.relative_rank(psi.schmidt.coefficients)


def maximally_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on d ⊗ d."""
    dims = BipartiteDims(d, d)  # validates d before anything is allocated
    amp = np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)
    return PureState(amp, dims)


def product_state(a, b) -> PureState:
    """Normalized a ⊗ b."""
    a = linalg.as_vector(a, "factor a")
    b = linalg.as_vector(b, "factor b")
    return PureState.normalized(np.kron(a, b), BipartiteDims(a.size, b.size))


def purify(rho_b) -> PureState:
    """Purification of a d-dim state on d ⊗ d with Tr_A |psi><psi| = rho_b.

    Construction: eigendecompose rho_b = sum p_i |e_i><e_i| and emit
    sum_i sqrt(p_i) |i> ⊗ |e_i>.
    """
    rho = linalg.as_matrix(rho_b, "rho_b")
    if rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"rho_b must be square, got {rho.shape}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"rho_b trace {tr!r} is not 1")
    vals, vecs = linalg.eigh(rho)
    if vals[-1] < PSD_FLOOR:
        raise ValidationError(f"rho_b has negative eigenvalue {vals[-1]:.3e}")
    d = rho.shape[0]
    coeff = np.sqrt(np.clip(vals, 0.0, None))[:, None] * vecs.T  # row i = sqrt(p_i) e_i^T
    return PureState.normalized(coeff.reshape(-1), BipartiteDims(d, d))


def local_filter(psi: PureState, a, b) -> PureState:
    """Normalized (A ⊗ B)|psi>."""
    a = linalg.as_matrix(a, "filter A")
    b = linalg.as_matrix(b, "filter B")
    dims = psi.dims
    if a.shape[1] != dims.dimA or b.shape[1] != dims.dimB:
        raise ValidationError(
            f"filter shapes {a.shape}, {b.shape} do not match dims {dims}"
        )
    filtered = a @ psi.coefficient_matrix() @ b.T
    norm = np.linalg.norm(filtered)
    if norm <= 1e-12:
        raise FilterDegenerateError("local filter annihilates the state")
    return PureState(filtered.reshape(-1) / norm, BipartiteDims(a.shape[0], b.shape[0]))


def truncate_state(omega: DensityMatrix, nA: int, nB: int) -> DensityMatrix:
    """Compress-project onto the leading local eigenspaces and renormalize.

    The projectors are spanned by the leading nA (resp. nB) eigenvectors of
    the reduced states, which maximizes the retained trace among projector
    choices of those ranks.  Output dims are (nA, nB); any attached ensemble
    is transported through the compression.
    """
    dims = omega.dims
    if not (1 <= nA <= dims.dimA and 1 <= nB <= dims.dimB):
        raise ValidationError(
            f"truncation ({nA},{nB}) is not within dims ({dims.dimA},{dims.dimB})"
        )
    _, vecsA = linalg.eigh(omega.reduced("B"))
    _, vecsB = linalg.eigh(omega.reduced("A"))
    w = np.kron(vecsA[:, :nA], vecsB[:, :nB])  # total x (nA*nB) isometry
    compressed = w.conj().T @ omega.matrix @ w
    overlap = float(np.trace(compressed).real)
    if overlap <= 1e-12:
        raise TruncationDegenerateError(
            f"truncation retains trace {overlap:.3e}; projection is vacuous"
        )
    out_dims = BipartiteDims(nA, nB)
    out = (compressed + compressed.conj().T) / (2 * overlap)

    members = None
    if omega.ensemble is not None:
        carried = []
        for weight, psi in omega.ensemble:
            vec = w.conj().T @ psi.amplitudes
            mass = float(np.vdot(vec, vec).real)
            if weight * mass / overlap > MEMBER_FLOOR:
                carried.append((weight * mass / overlap,
                                PureState.normalized(vec, out_dims)))
        total = sum(wgt for wgt, _ in carried)
        if total > 0:
            members = [(wgt / total, psi) for wgt, psi in carried]
            # Transport is exact only when the compression captures the
            # whole ensemble; otherwise fall back to no metadata.
            try:
                return DensityMatrix(out, out_dims, ensemble=members)
            except ValidationError:
                members = None
    return DensityMatrix(out, out_dims, ensemble=members)
