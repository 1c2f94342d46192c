"""Channel conversions, PEB certification and rank profiles."""

import numpy as np
import pytest

from schmlab.channels import (
    QuantumChannel,
    certify_peb,
    choi_to_kraus,
    completely_depolarizing,
    identity_channel,
    kraus_rank_profile,
    kraus_to_choi,
    measure_prepare_channel,
    random_bounded_rank_channel,
    random_channel,
    restrict_channel,
)
from schmlab.errors import ReferenceStateError, ValidationError
from schmlab.linalg import BipartiteDims, partial_trace
from schmlab.sampling import random_density_matrix, random_pure_state, rng_for
from schmlab.states import DensityMatrix, PureState, maximally_entangled, schmidt_rank


def random_state_matrix(rng, d):
    return random_density_matrix(rng, BipartiteDims(d, 1)).matrix


def test_channel_validation():
    with pytest.raises(ValidationError):
        QuantumChannel([np.eye(2) * 2.0])  # not trace preserving
    with pytest.raises(ValidationError):
        QuantumChannel([])


def test_apply_identity_and_depolarizing():
    rng = rng_for(0, "channels/apply")
    rho = random_state_matrix(rng, 2)
    assert np.allclose(identity_channel(2).apply(rho), rho)
    assert np.allclose(completely_depolarizing(2).apply(rho), np.eye(2) / 2)


def test_apply_matches_choi_contraction():
    # Oracle: apply through the Choi matrix, Phi(rho) = d * Tr_B[(I ⊗ rho^T) C].
    rng = rng_for(1, "channels/contract")
    ch = random_channel(rng, 3, 3, 3)
    choi = ch.choi()
    rho = random_state_matrix(rng, 3)
    lifted = np.kron(np.eye(3), rho.T)
    expected = 3 * partial_trace(lifted @ choi.matrix, choi.dims, "A").T
    # Tr_B of C (I ⊗ rho^T) gives Phi(rho) for the maximally entangled ref.
    blocks = choi.matrix.reshape(3, 3, 3, 3)
    oracle = 3 * np.einsum("ajbk,kj->ab", blocks, rho.T)
    assert np.allclose(ch.apply(rho), oracle, atol=1e-9)
    del expected


def test_choi_of_identity_and_depolarizing():
    choi = identity_channel(2).choi()
    assert np.linalg.norm(choi.matrix - maximally_entangled(2).projector()) <= 1e-12
    choi = completely_depolarizing(2).choi()
    assert np.linalg.norm(choi.matrix - np.eye(4) / 4) <= 1e-12


def test_choi_marginal_matches_reference():
    rng = rng_for(2, "channels/marginal")
    ch = random_channel(rng, 3, 2, 2)
    psi = maximally_entangled(3)
    choi = kraus_to_choi(ch, psi)
    marginal = partial_trace(choi.matrix, choi.dims, "A")
    expected = partial_trace(psi.projector(), psi.dims, "A")
    assert np.linalg.norm(marginal - expected) <= 1e-9


def test_choi_rejects_rank_deficient_reference():
    ch = identity_channel(2)
    bad_ref = PureState(np.array([1, 0, 0, 0], dtype=complex), BipartiteDims(2, 2))
    with pytest.raises(ReferenceStateError):
        kraus_to_choi(ch, bad_ref)


def test_choi_to_kraus_identity():
    kraus = choi_to_kraus(identity_channel(3).choi())
    assert len(kraus) == 1
    phase = kraus[0][0, 0]
    assert np.allclose(kraus[0], phase * np.eye(3))
    assert abs(abs(phase) - 1.0) <= 1e-9


def test_choi_to_kraus_maximally_mixed():
    d = 2
    choi = DensityMatrix(np.eye(d * d) / (d * d), BipartiteDims(d, d))
    kraus = choi_to_kraus(choi)
    assert len(kraus) == d * d
    for v in kraus:
        assert np.linalg.matrix_rank(v, tol=1e-8) == 1


def test_choi_to_kraus_rejects_wrong_marginal():
    dims = BipartiteDims(2, 2)
    skew = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]), dims)
    with pytest.raises(ValidationError):
        choi_to_kraus(skew)


def test_round_trip_action_equivalence():
    rng = rng_for(3, "channels/roundtrip")
    for _ in range(10):
        d_in = int(rng.integers(2, 5))
        d_out = int(rng.integers(2, 5))
        n_k = max(int(rng.integers(1, 4)), -(-d_in // d_out))
        ch = random_channel(rng, d_in, d_out, n_k)
        rebuilt = QuantumChannel(choi_to_kraus(ch.choi()))
        for _ in range(10):
            rho = random_state_matrix(rng, d_in)
            assert np.linalg.norm(ch.apply(rho) - rebuilt.apply(rho)) <= 1e-8


def test_choi_fixed_point():
    rng = rng_for(4, "channels/fixed")
    ch = random_channel(rng, 3, 3, 2)
    once = ch.choi().matrix
    twice = QuantumChannel(choi_to_kraus(ch.choi())).choi().matrix
    assert np.linalg.norm(once - twice) <= 1e-9


def test_certify_peb_identity_qutrit():
    cert = certify_peb(identity_channel(3), budget=50, seed=0)
    assert (cert.k_peb_lower, cert.k_peb_upper) == (3, 3)


def test_certify_peb_depolarizing():
    cert = certify_peb(completely_depolarizing(2), budget=50, seed=0)
    assert (cert.k_peb_lower, cert.k_peb_upper) == (1, 1)


def test_certify_peb_keeps_a_near_maxent_reference():
    # A reference within np.allclose of maxent is still the reference used.
    rng = rng_for(15, "channels/near-maxent")
    amp = maximally_entangled(3).amplitudes + 3e-9 * rng.normal(size=9)
    psi_ref = PureState.normalized(amp, BipartiteDims(3, 3))
    cert = certify_peb(identity_channel(3), budget=20, seed=0, psi_ref=psi_ref)
    assert cert.reference is psi_ref
    rebuilt = sum(w * psi.projector() for w, psi in cert.evidence.upper_evidence)
    assert np.linalg.norm(rebuilt - psi_ref.projector()) <= 1e-12


def test_certify_peb_kraus_rank_bound():
    rng = rng_for(5, "channels/rankbound")
    for k in (1, 2, 3):
        for i in range(10):
            d = int(rng.integers(max(2, k), 5))
            ch = random_bounded_rank_channel(rng, d, d, max(3, -(-d // k)), k)
            cert = certify_peb(ch, budget=20, seed=i)
            assert cert.k_peb_upper <= k


def test_measure_prepare_entanglement_breaking():
    rng = rng_for(6, "channels/mp")
    for i in range(5):
        ch = measure_prepare_channel(rng, 3, 3, 4)
        cert = certify_peb(ch, budget=20, seed=i)
        assert cert.k_peb_upper == 1


def conditioned_reference(rng, d):
    """Random full-Schmidt-rank reference with bounded coefficient spread.

    A severely skewed reference filters the Choi state hard enough to wash
    out marginal map detections, so the sampler keeps the coefficients
    within a factor ~1.7 of uniform.
    """
    from schmlab.sampling import random_unitary

    c = rng.uniform(0.6, 1.0, size=d)
    c /= np.linalg.norm(c)
    ua, ub = random_unitary(rng, d), random_unitary(rng, d)
    coeff = (ua * c) @ ub.T
    return PureState.normalized(coeff.reshape(-1), BipartiteDims(d, d))


def test_single_reference_sufficiency():
    # Class membership from the canonical reference agrees with a random
    # full-Schmidt-rank reference on this seeded family.
    from schmlab.schmidt import sn_lower_bound

    rng = rng_for(7, "channels/suff2")
    for _ in range(50):
        d = int(rng.integers(2, 4))
        ch = random_channel(rng, d, d, int(rng.integers(1, 3)))
        lower_canonical, _ = sn_lower_bound(kraus_to_choi(ch))
        ref = conditioned_reference(rng, d)
        assert schmidt_rank(ref) == d
        lower_random, _ = sn_lower_bound(kraus_to_choi(ch, ref))
        assert lower_canonical == lower_random


def test_kraus_rank_profile():
    prof = kraus_rank_profile(completely_depolarizing(3))
    assert all(r == 1 for r in prof.canonical_ranks)
    assert prof.min_canonical_rank == 1
    prof = kraus_rank_profile(identity_channel(4))
    assert prof.ranks == (4,)
    rng = rng_for(8, "channels/mixu")
    from schmlab.sampling import random_unitary

    mixing = QuantumChannel([np.sqrt(0.5) * random_unitary(rng, 3),
                             np.sqrt(0.5) * random_unitary(rng, 3)])
    prof = kraus_rank_profile(mixing)
    assert prof.ranks == (3, 3)


def test_restrict_channel():
    ch = identity_channel(4)
    rest = restrict_channel(ch, 2)
    assert (rest.dim_in, rest.dim_out) == (2, 4)
    rho = np.diag([0.25, 0.75]).astype(complex)
    out = rest.apply(rho)
    assert np.allclose(out[:2, :2], rho)
    assert np.allclose(out[2:, 2:], 0.0)
    # n == dim_in leaves the action unchanged.
    rng = rng_for(9, "channels/restrict")
    ch = random_channel(rng, 3, 3, 2)
    same = restrict_channel(ch, 3)
    rho = random_state_matrix(rng, 3)
    assert np.allclose(ch.apply(rho), same.apply(rho))


def test_restrict_channel_peb_monotone():
    # Restriction precomposes with an isometry, so the certified upper
    # bound cannot grow.
    rng = rng_for(10, "channels/restrictpeb")
    for i in range(5):
        ch = random_bounded_rank_channel(rng, 4, 4, 4, 2)
        full = certify_peb(ch, budget=20, seed=i)
        rest = certify_peb(restrict_channel(ch, 3), budget=20, seed=i)
        assert rest.k_peb_upper <= full.k_peb_upper
