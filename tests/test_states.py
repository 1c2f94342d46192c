"""State types, Schmidt data, purification, truncation and filtering."""

import numpy as np
import pytest

from schmlab.errors import (
    FilterDegenerateError,
    TruncationDegenerateError,
    ValidationError,
)
from schmlab.linalg import RANK_CUTOFF, BipartiteDims, partial_trace
from schmlab.sampling import (
    random_product_state,
    random_pure_state,
    random_sr_mixture,
    random_sr_pure_state,
    rng_for,
)
from schmlab.schmidt import ensemble_max_sr, sn_upper_bound
from schmlab.states import (
    DensityMatrix,
    PureState,
    local_filter,
    maximally_entangled,
    product_state,
    purify,
    schmidt_decompose,
    schmidt_rank,
    truncate_state,
)


def test_pure_state_norm_validation():
    dims = BipartiteDims(2, 2)
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0, 0.0, 0.0]), dims)
    psi = PureState.normalized(np.array([1.0, 1.0, 0.0, 0.0]), dims)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)


def test_density_matrix_validation():
    dims = BipartiteDims(2, 2)
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4), dims)  # trace 4
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]), dims)  # negative eigenvalue
    dm = DensityMatrix(np.eye(4) / 4, dims)
    assert dm.psd_slack >= 0.0


def test_schmidt_product_state():
    psi = product_state([1, 0], [1, 0])
    data = schmidt_decompose(psi)
    assert np.allclose(data.coefficients, [1.0, 0.0], atol=1e-12)
    assert schmidt_rank(psi) == 1


def test_schmidt_bell_state():
    data = schmidt_decompose(maximally_entangled(2))
    assert np.allclose(data.coefficients, [1 / np.sqrt(2)] * 2)


def test_schmidt_reconstruction_random():
    # Oracle: rebuild the amplitudes from the Schmidt triple.
    rng = rng_for(0, "states/reconstruct")
    psi = random_pure_state(rng, BipartiteDims(3, 3))
    data = schmidt_decompose(psi)
    assert np.sum(data.coefficients ** 2) == pytest.approx(1.0, abs=1e-10)
    rebuilt = np.zeros(9, dtype=complex)
    for i, c in enumerate(data.coefficients):
        rebuilt += c * np.kron(data.left[:, i], data.right[:, i])
    assert np.linalg.norm(rebuilt - psi.amplitudes) <= 1e-9


def test_schmidt_rank_examples():
    assert schmidt_rank(maximally_entangled(3)) == 3
    mu = np.array([0.99995, 0.01])
    mu = mu / np.linalg.norm(mu)
    amp = np.zeros(4, dtype=complex)
    amp[0] = mu[0]
    amp[3] = mu[1]
    assert schmidt_rank(PureState(amp, BipartiteDims(2, 2))) == 2


def test_schmidt_rank_matches_reduced_rank():
    # Rank of the reduced state counted on its square-root spectrum, which
    # is the same cutoff the coefficients use.
    rng = rng_for(1, "states/rankmatch")
    for _ in range(20):
        dims = BipartiteDims(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        psi = random_sr_pure_state(rng, dims, int(rng.integers(1, dims.min_dim + 1)))
        reduced = partial_trace(psi.projector(), dims, "B")
        vals = np.clip(np.linalg.eigvalsh(reduced), 0.0, None)
        vals[vals < 1e-14 * vals.max()] = 0.0  # eigh noise floor, not signal
        roots = np.sqrt(vals)
        reduced_rank = int(np.count_nonzero(roots >= RANK_CUTOFF * roots.max()))
        assert schmidt_rank(psi) == reduced_rank


def test_purify_maximally_mixed():
    psi = purify(np.eye(2) / 2)
    assert np.allclose(psi.schmidt.coefficients, [1 / np.sqrt(2)] * 2)


def test_purify_pure_input():
    psi = purify(np.diag([1.0, 0.0]).astype(complex))
    assert schmidt_rank(psi) == 1


def test_purify_round_trip():
    rng = rng_for(2, "states/purify")
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    psi = purify(rho)
    recovered = partial_trace(psi.projector(), psi.dims, "A")
    assert np.linalg.norm(recovered - rho) <= 1e-9


def test_purify_rejects_non_psd():
    with pytest.raises(ValidationError):
        purify(np.diag([1.5, -0.5]))


def test_truncate_supported_block_unchanged():
    # Product of diagonal states with distinct spectra: the leading local
    # eigenvectors are the first basis vectors, so truncation acts as the
    # identity on the supported block.
    rho_a = np.diag([0.7, 0.3, 0.0])
    rho_b = np.diag([0.6, 0.4, 0.0])
    omega = DensityMatrix(np.kron(rho_a, rho_b), BipartiteDims(3, 3))
    out = truncate_state(omega, 2, 2)
    expected = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
    assert np.linalg.norm(out.matrix - expected) <= 1e-10


def test_truncate_maximally_entangled():
    # Oracle: direct projection onto the first two basis vectors per side.
    omega = DensityMatrix.from_pure(maximally_entangled(3))
    out = truncate_state(omega, 2, 2)
    vals = np.linalg.eigvalsh(out.matrix)
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)  # still pure
    reduced = partial_trace(out.matrix, out.dims, "B")
    assert np.linalg.norm(reduced - np.eye(2) / 2) <= 1e-9
    p = np.eye(3)[:, :2]
    proj = np.kron(p, p)
    direct = proj.conj().T @ omega.matrix @ proj
    direct /= np.trace(direct).real
    assert np.linalg.norm(out.matrix - direct) <= 1e-9


def test_truncate_reduces_schmidt_rank():
    rng = rng_for(3, "states/truncsr")
    psi = random_sr_pure_state(rng, BipartiteDims(3, 3), 3)
    out = truncate_state(DensityMatrix.from_pure(psi), 2, 2)
    vals, vecs = np.linalg.eigh(out.matrix)
    top = PureState.normalized(vecs[:, -1], out.dims)
    assert schmidt_rank(top) <= 2


def test_truncate_degenerate_overlap():
    # Both reduced states of (|01><01| + |10><10|)/2 are maximally mixed,
    # so the leading 1x1 local projectors select |00>, which the state
    # does not touch at all.
    omega = DensityMatrix(np.diag([0.0, 0.5, 0.5, 0.0]), BipartiteDims(2, 2))
    with pytest.raises(TruncationDegenerateError):
        truncate_state(omega, 1, 1)
    with pytest.raises(ValidationError):
        truncate_state(omega, 3, 1)  # out of range


def test_truncation_monotone_upper_bound():
    # Mixtures of Schmidt rank <= k pure states keep upper bound <= k
    # under truncation at every level.
    rng = rng_for(4, "states/truncmono")
    for k in (1, 2):
        omega = random_sr_mixture(rng, BipartiteDims(4, 4), k, 5)
        for n in (2, 3, 4):
            out = truncate_state(omega, n, n)
            upper, _ = sn_upper_bound(out, budget=0)
            assert upper <= k


def test_local_filter_identity():
    psi = maximally_entangled(2)
    out = local_filter(psi, np.eye(2), np.eye(2))
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_local_filter_projective():
    out = local_filter(maximally_entangled(2), np.eye(2), np.diag([1.0, 0.0]))
    assert schmidt_rank(out) == 1


def test_local_filter_annihilation():
    psi = product_state([1, 0], [1, 0])
    with pytest.raises(FilterDegenerateError):
        local_filter(psi, np.diag([0.0, 1.0]), np.eye(2))


def test_local_filter_rank_bound_random():
    rng = rng_for(5, "states/filterrank")
    psi = random_sr_pure_state(rng, BipartiteDims(3, 3), 3)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert schmidt_rank(local_filter(psi, a, b)) <= 3


def test_filter_monotonicity_suite():
    # 500 random (psi, A, B): Schmidt rank never increases under filtering.
    rng = rng_for(6, "states/monotone")
    violations = 0
    for _ in range(500):
        dims = BipartiteDims(int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        r = int(rng.integers(1, dims.min_dim + 1))
        psi = random_sr_pure_state(rng, dims, r)
        a = rng.normal(size=(dims.dimA, dims.dimA)) \
            + 1j * rng.normal(size=(dims.dimA, dims.dimA))
        b = rng.normal(size=(dims.dimB, dims.dimB)) \
            + 1j * rng.normal(size=(dims.dimB, dims.dimB))
        try:
            out = local_filter(psi, a, b)
        except FilterDegenerateError:
            continue
        if schmidt_rank(out) > schmidt_rank(psi):
            violations += 1
    assert violations == 0


def test_ensemble_attachment_validation():
    dims = BipartiteDims(2, 2)
    members = [(0.5, product_state([1, 0], [1, 0])),
               (0.5, product_state([0, 1], [0, 1]))]
    dm = DensityMatrix.from_ensemble(members)
    assert ensemble_max_sr(dm.ensemble) == 1
    with pytest.raises(ValidationError):
        DensityMatrix(np.eye(4) / 4, dims, ensemble=members)  # wrong average


def test_ensemble_survives_truncation():
    rng = rng_for(7, "states/enstrunc")
    omega = random_sr_mixture(rng, BipartiteDims(3, 3), 1, 4)
    out = truncate_state(omega, 2, 2)
    assert out.ensemble is not None
    assert ensemble_max_sr(out.ensemble) <= 1
