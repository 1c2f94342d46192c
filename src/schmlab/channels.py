"""Quantum channels: Kraus lists, Choi matrices, k-PEB certification.

A channel is k-partially entanglement breaking (k-PEB) when every output
of Phi ⊗ Id has Schmidt number <= k.  At finite dimension this reduces to
the Schmidt number of one Choi state built from any pure reference with
full-rank marginals, so certification delegates to `schmlab.schmidt` on
that state.  The Kraus decomposition of the Choi state is attached as
upper-bound evidence: members (V_i ⊗ I)|psi_ref> have Schmidt rank at most
rank(V_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, schmidt
from .errors import NumericError, ReferenceStateError, ValidationError
from .linalg import BipartiteDims
from .sampling import random_density_matrix, random_isometry, random_povm
from .states import (
    MEMBER_FLOOR,
    DensityMatrix,
    PureState,
    maximally_entangled,
    schmidt_rank,
)

# Trace-preservation deviation above which a Kraus list is rejected.
TP_TOL = 1e-6


class QuantumChannel:
    """CPTP map stored as a Kraus list; immutable after construction."""

    __slots__ = ("kraus", "dim_in", "dim_out", "_choi_cache")

    def __init__(self, kraus: Sequence[np.ndarray]):
        if not kraus:
            raise ValidationError("channel needs at least one Kraus operator")
        ops = tuple(linalg.as_matrix(v, "Kraus operator") for v in kraus)
        dim_out, dim_in = ops[0].shape
        for v in ops:
            if v.shape != (dim_out, dim_in):
                raise ValidationError("all Kraus operators must share one shape")
        total = sum(v.conj().T @ v for v in ops)
        deviation = np.linalg.norm(total - np.eye(dim_in))
        if deviation > TP_TOL:
            raise ValidationError(
                f"Kraus list is not trace preserving: ||sum V†V - I|| = {deviation:.3e}"
            )
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "dim_in", dim_in)
        object.__setattr__(self, "dim_out", dim_out)
        object.__setattr__(self, "_choi_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumChannel is immutable")

    def apply(self, rho) -> np.ndarray:
        """Phi(rho) = sum_i V_i rho V_i†."""
        rho = linalg.as_matrix(rho, "rho")
        if rho.shape != (self.dim_in, self.dim_in):
            raise ValidationError(
                f"input shape {rho.shape} does not match dim_in {self.dim_in}"
            )
        out = np.zeros((self.dim_out, self.dim_out), dtype=np.complex128)
        for v in self.kraus:
            out += v @ rho @ v.conj().T
        return out

    def choi(self, psi_ref: Optional[PureState] = None) -> DensityMatrix:
        """Choi state; the default (maximally entangled) reference is cached."""
        if psi_ref is None:
            cached = self._choi_cache
            if cached is None:
                cached = kraus_to_choi(self)
                object.__setattr__(self, "_choi_cache", cached)
            return cached
        return kraus_to_choi(self, psi_ref)


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel([np.eye(d, dtype=np.complex128)])


def completely_depolarizing(d: int) -> QuantumChannel:
    """rho -> Tr(rho) I/d, built from d^2 rank-one Kraus operators."""
    kraus = []
    for i in range(d):
        for j in range(d):
            v = np.zeros((d, d), dtype=np.complex128)
            v[i, j] = 1.0 / np.sqrt(d)
            kraus.append(v)
    return QuantumChannel(kraus)


def _reference_schmidt(psi_ref: PureState, dim_in: int):
    if psi_ref.dims != BipartiteDims(dim_in, dim_in):
        raise ReferenceStateError(
            f"reference dims {psi_ref.dims} do not match dim_in {dim_in}"
        )
    data = psi_ref.schmidt
    if schmidt_rank(psi_ref) < dim_in:
        raise ReferenceStateError("reference state must have full Schmidt rank")
    return data


def kraus_to_choi(channel: QuantumChannel,
                  psi_ref: Optional[PureState] = None) -> DensityMatrix:
    """(Phi ⊗ Id)(|psi_ref><psi_ref|) with the Kraus ensemble attached.

    The output lives on (dim_out, dim_in); its partial trace over the
    output factor equals the reference's reduced state.
    """
    if psi_ref is None:
        psi_ref = maximally_entangled(channel.dim_in)
    _reference_schmidt(psi_ref, channel.dim_in)
    ref_matrix = psi_ref.coefficient_matrix()
    dims = BipartiteDims(channel.dim_out, channel.dim_in)
    members = []
    total = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for v in channel.kraus:
        vec = (v @ ref_matrix).reshape(-1)
        weight = float(np.vdot(vec, vec).real)
        total += np.outer(vec, vec.conj())
        if weight > MEMBER_FLOOR:
            members.append((weight, PureState.normalized(vec, dims)))
    norm = sum(w for w, _ in members)
    members = [(w / norm, psi) for w, psi in members]
    return DensityMatrix(total, dims, ensemble=members)


def choi_to_kraus(choi: DensityMatrix,
                  psi_ref: Optional[PureState] = None) -> list[np.ndarray]:
    """Kraus operators of the channel whose Choi state this is.

    Eigenvectors of the Choi matrix are unvectorized against the reference
    state: V = sqrt(mu) U conj(B) diag(1/s) A† where psi_ref has Schmidt
    data (s, A, B).  The list length equals the Choi rank, counted at
    `linalg.RANK_CUTOFF`.
    """
    dim_out, dim_in = choi.dims.dimA, choi.dims.dimB
    if psi_ref is None:
        psi_ref = maximally_entangled(dim_in)
    data = _reference_schmidt(psi_ref, dim_in)

    ref_reduced = linalg.partial_trace(psi_ref.projector(), psi_ref.dims, "A")
    marginal = linalg.partial_trace(choi.matrix, choi.dims, "A")
    deviation = np.linalg.norm(marginal - ref_reduced)
    if deviation > 1e-8:
        raise ValidationError(
            f"Choi marginal deviates from the reference state by {deviation:.3e}"
        )

    unmix = data.right.conj() @ np.diag(1.0 / data.coefficients) @ data.left.conj().T
    vals, vecs = linalg.eigh(choi.matrix)
    rank = int(np.count_nonzero(vals >= linalg.RANK_CUTOFF * vals[0]))
    kraus = []
    for i in range(rank):
        u = vecs[:, i].reshape(dim_out, dim_in)
        kraus.append(np.sqrt(vals[i]) * u @ unmix)
    total = sum(v.conj().T @ v for v in kraus)
    deviation = np.linalg.norm(total - np.eye(dim_in))
    if deviation > TP_TOL:
        raise NumericError(
            "reconstructed Kraus list is not trace preserving", residual=deviation
        )
    return kraus


@dataclass(frozen=True)
class PEBCertificate:
    """Two-sided bound on the partially-entanglement-breaking order.

    The channel is k_peb_upper-PEB (witnessed by a decomposition of its
    Choi state) and is not (k_peb_lower - 1)-PEB (witnessed by a map
    violation on the Choi state).
    """

    k_peb_upper: int
    k_peb_lower: int
    evidence: schmidt.SchmidtCertificate
    reference: PureState


def certify_peb(channel: QuantumChannel, budget: int = 500, seed: int = 0,
                psi_ref: Optional[PureState] = None) -> PEBCertificate:
    """Certify PEB order through the Schmidt number of the Choi state."""
    schmidt._check_budget(budget)
    choi = channel.choi(psi_ref)
    if psi_ref is None:
        psi_ref = maximally_entangled(channel.dim_in)
    cert = schmidt.certify(choi, budget=budget, seed=seed)
    return PEBCertificate(k_peb_upper=cert.upper, k_peb_lower=cert.lower,
                          evidence=cert, reference=psi_ref)


@dataclass(frozen=True)
class KrausRankProfile:
    """Numerical ranks of the stored and the canonical Kraus operators."""

    ranks: tuple[int, ...]
    canonical_ranks: tuple[int, ...]

    @property
    def min_canonical_rank(self) -> int:
        return min(self.canonical_ranks)


def kraus_rank_profile(channel: QuantumChannel) -> KrausRankProfile:
    """Rank of each stored Kraus operator plus the eigen-Choi ranks."""
    ranks = tuple(linalg.matrix_rank(v) for v in channel.kraus)
    canonical_ranks = tuple(linalg.matrix_rank(v) for v in choi_to_kraus(channel.choi()))
    return KrausRankProfile(ranks=ranks, canonical_ranks=canonical_ranks)


def restrict_channel(channel: QuantumChannel, n: int) -> QuantumChannel:
    """Precompose with the inclusion of the first n basis vectors."""
    if not 1 <= n <= channel.dim_in:
        raise ValidationError(f"restriction {n} outside 1..{channel.dim_in}")
    inclusion = np.eye(channel.dim_in, n, dtype=np.complex128)
    return QuantumChannel([v @ inclusion for v in channel.kraus])


# ---------------------------------------------------------------------------
# Random channel constructors
# ---------------------------------------------------------------------------

def random_channel(rng: np.random.Generator, dim_in: int, dim_out: int,
                   n_kraus: int) -> QuantumChannel:
    """Random CPTP channel via a Haar Stinespring isometry."""
    if dim_out * n_kraus < dim_in:
        raise ValidationError(
            f"no isometry into {dim_out}x{n_kraus} from {dim_in}; "
            "increase n_kraus"
        )
    v = random_isometry(rng, dim_out * n_kraus, dim_in)
    return QuantumChannel([v[i * dim_out:(i + 1) * dim_out, :]
                           for i in range(n_kraus)])


def random_bounded_rank_channel(rng: np.random.Generator, dim_in: int,
                                dim_out: int, n_kraus: int,
                                max_rank: int) -> QuantumChannel:
    """Random channel whose every Kraus operator has rank <= max_rank.

    Rank-bounded blocks W_i are right-normalized by S^(-1/2) with
    S = sum W_i† W_i, which preserves each rank bound and restores trace
    preservation exactly.
    """
    r = min(max_rank, dim_in, dim_out)
    if n_kraus * r < dim_in:
        raise ValidationError(
            f"{n_kraus} rank-{r} blocks cannot span a {dim_in}-dim input; "
            "increase n_kraus"
        )
    blocks = []
    for _ in range(n_kraus):
        x = rng.normal(size=(dim_out, r)) + 1j * rng.normal(size=(dim_out, r))
        y = rng.normal(size=(dim_in, r)) + 1j * rng.normal(size=(dim_in, r))
        blocks.append(x @ y.conj().T)
    s = sum(w.conj().T @ w for w in blocks)
    vals, vecs = np.linalg.eigh(s)
    if vals[0] <= 1e-12:
        raise NumericError("degenerate Kraus draw; retry with a fresh generator")
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return QuantumChannel([w @ inv_sqrt for w in blocks])


def measure_prepare_channel(rng: np.random.Generator, dim_in: int, dim_out: int,
                            outcomes: int) -> QuantumChannel:
    """Random measure-and-prepare channel rho -> sum_i Tr(M_i rho) sigma_i.

    All Kraus operators are rank one, so the channel is entanglement
    breaking by construction.
    """
    povm = random_povm(rng, dim_in, outcomes)
    kraus = []
    for effect in povm:
        sigma = random_density_matrix(rng, BipartiteDims(dim_out, 1)).matrix
        evals, evecs = np.linalg.eigh(effect)
        svals, svecs = np.linalg.eigh(sigma)
        for c in range(dim_in):
            if evals[c] <= 1e-14:
                continue
            for b in range(dim_out):
                if svals[b] <= 1e-14:
                    continue
                kraus.append(np.sqrt(svals[b] * evals[c])
                             * np.outer(svecs[:, b], evecs[:, c].conj()))
    return QuantumChannel(kraus)
