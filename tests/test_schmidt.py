"""Lambda-map bounds, decomposition search and certificates."""

import numpy as np
import pytest

from schmlab.constructions import isotropic_state
from schmlab.linalg import BipartiteDims, eigh, min_eigenvalue, partial_trace
from schmlab.sampling import (
    random_density_matrix,
    random_sr_mixture,
    random_sr_pure_state,
    random_unitary,
    rng_for,
)
from schmlab.schmidt import (
    apply_lambda_on_b,
    certify,
    eigen_ensemble,
    ensemble_max_sr,
    lambda_map,
    sn_lower_bound,
    sn_upper_bound,
    witness_from_lambda,
)
from schmlab.states import (
    DEFAULT_TOL,
    DensityMatrix,
    PureState,
    maximally_entangled,
    schmidt_rank,
)


def equal_coefficient_state(r, dims):
    amp = np.zeros(dims.total, dtype=complex)
    for i in range(r):
        amp[i * dims.dimB + i] = 1.0 / np.sqrt(r)
    return PureState(amp, dims)


def test_lambda_map_identity():
    out = lambda_map(np.eye(4), t=0.3)
    assert np.allclose(out, (4 - 0.3) * np.eye(4))


def test_lambda_map_t_zero_psd():
    rng = rng_for(0, "schmidt/t0")
    rho = random_density_matrix(rng, BipartiteDims(4, 1)).matrix
    assert min_eigenvalue(lambda_map(rho, 0.0)) >= -1e-12


@pytest.mark.parametrize("r", [2, 3, 4])
def test_lambda_on_pure_state_oracle(r):
    # Oracle: build rho_A ⊗ I - t |psi><psi| directly and eigendecompose.
    dims = BipartiteDims(4, 4)
    t = 0.37
    psi = equal_coefficient_state(r, dims)
    out = apply_lambda_on_b(psi.projector(), dims, t)
    rho_a = partial_trace(psi.projector(), dims, "B")
    oracle = np.kron(rho_a, np.eye(4)) - t * psi.projector()
    assert np.linalg.norm(out - oracle) <= 1e-12
    # The state direction carries eigenvalue 1/r - t.
    val = np.vdot(psi.amplitudes, out @ psi.amplitudes).real
    assert val == pytest.approx(1.0 / r - t, abs=1e-12)


def test_lambda_positivity_boundary():
    # Lambda_{1/r} keeps Schmidt rank <= r states positive; the
    # equal-coefficient rank-(r+1) state dips to exactly 1/(r+1) - 1/r.
    dims = BipartiteDims(4, 4)
    rng = rng_for(1, "schmidt/boundary")
    for r in (1, 2, 3):
        for _ in range(100):
            psi = random_sr_pure_state(rng, dims, r)
            ev = min_eigenvalue(apply_lambda_on_b(psi.projector(), dims, 1.0 / r))
            assert ev >= -1e-9
        psi = equal_coefficient_state(r + 1, dims)
        ev = min_eigenvalue(apply_lambda_on_b(psi.projector(), dims, 1.0 / r))
        assert ev == pytest.approx(1.0 / (r + 1) - 1.0 / r, abs=1e-9)


def test_sn_lower_product_state():
    rng = rng_for(2, "schmidt/product")
    rho_a = random_density_matrix(rng, BipartiteDims(3, 1)).matrix
    rho_b = random_density_matrix(rng, BipartiteDims(3, 1)).matrix
    omega = DensityMatrix(np.kron(rho_a, rho_b), BipartiteDims(3, 3))
    lower, evidence = sn_lower_bound(omega)
    assert lower == 1 and evidence is None


def test_sn_lower_maximally_entangled():
    # Oracle: eigenvalue 1/d - t on the state direction, so the violation at
    # k = d-1 is 1/3 - 1/2 = -1/6 for d = 3.
    omega = DensityMatrix.from_pure(maximally_entangled(3))
    lower, evidence = sn_lower_bound(omega)
    assert lower == 3
    assert evidence.t == pytest.approx(0.5)
    assert evidence.eigenvalue == pytest.approx(1.0 / 3.0 - 0.5, abs=1e-12)


def test_sn_lower_local_unitary_invariance():
    rng = rng_for(3, "schmidt/luinv")
    dims = BipartiteDims(3, 3)
    for _ in range(100):
        omega = random_sr_mixture(rng, dims, int(rng.integers(1, 4)), 3)
        u = np.kron(random_unitary(rng, 3), random_unitary(rng, 3))
        rotated = DensityMatrix(u @ omega.matrix @ u.conj().T, dims)
        assert sn_lower_bound(rotated)[0] == sn_lower_bound(omega)[0]


def test_sn_upper_pure_state():
    rng = rng_for(4, "schmidt/upure")
    psi = random_sr_pure_state(rng, BipartiteDims(3, 3), 2)
    upper, ens = sn_upper_bound(DensityMatrix.from_pure(psi), budget=0)
    assert upper == 2 and len(ens) == 1


def test_sn_upper_product_mixture_hint():
    # The generating ensemble certifies 1; feed it as a hint, since the
    # randomized search alone need not reach an exact product split.
    rng = rng_for(5, "schmidt/uhint")
    dims = BipartiteDims(3, 3)
    mix = random_sr_mixture(rng, dims, 1, 3)
    bare = DensityMatrix(mix.matrix, dims)
    upper, ens = sn_upper_bound(bare, budget=100, seed=0, hints=[mix.ensemble])
    assert upper == 1
    assert ensemble_max_sr(ens) == 1


def test_sn_upper_maximally_mixed():
    omega = DensityMatrix(np.eye(4) / 4, BipartiteDims(2, 2))
    upper, ens = sn_upper_bound(omega, budget=100, seed=0)
    assert upper == 1
    mix = sum(w * psi.projector() for w, psi in ens)
    assert np.linalg.norm(mix - omega.matrix) <= 1e-10


def sequential_remix(omega, budget, seed, floor):
    """Reference: the remix search run one trial after another.

    Returns (k, ensemble, improvements as (trial, k), trials run).
    """
    from schmlab.schmidt import _columns_max_sr, _ensemble_from_columns, _schmidt_factors

    dims = omega.dims
    best_k, best_ens = sn_upper_bound(omega, budget=0)
    improvements, trial = [], -1
    vals, vecs = eigh(omega.matrix)
    rank = max(1, int(np.count_nonzero(vals > 1e-12)))
    factor = vecs[:, :rank] * np.sqrt(np.clip(vals[:rank], 0.0, None))
    for trial in range(budget if best_k > max(1, floor) else 0):
        size = rank + trial % (rank + 1)
        rng = rng_for(seed, f"sn_upper/remix/{trial}")
        g = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
        co_iso = np.linalg.qr(g)[0].conj().T
        cols = factor @ co_iso
        for _ in range(60):
            a, bh = _schmidt_factors(cols.T.reshape(size, dims.dimA, dims.dimB), best_k - 1)
            truncated = (a @ bh).reshape(size, -1).T
            u, _, vh = np.linalg.svd(factor.conj().T @ truncated, full_matrices=False)
            new_cols = factor @ (u @ vh)
            if np.linalg.norm(new_cols - cols) < 1e-12:
                cols = new_cols
                break
            cols = new_cols
        k = _columns_max_sr(cols, dims, DEFAULT_TOL)
        if k < best_k:
            best_k, best_ens = k, _ensemble_from_columns(cols, dims)
            improvements.append((trial, k))
            if best_k <= max(1, floor):
                break
    return best_k, best_ens, improvements, trial + 1


def bare_mixture(rng, d, r):
    mix = random_sr_mixture(rng, BipartiteDims(d, d), r, 3)
    return DensityMatrix(mix.matrix, mix.dims)


@pytest.mark.parametrize("make, budget, seed, floor, improvements, trials", [
    # Nothing improves on the eigen-ensemble: every chunk is read in full.
    (lambda: bare_mixture(rng_for(0, "schmidt/remix-bare"), 3, 2), 40, 0, 1, [], 40),
    # An improvement at trial 1; the rest of the run polishes toward rank 1.
    (lambda: isotropic_state(3, 0.2), 100, 0, 1, [(1, 2)], 100),
    (lambda: isotropic_state(3, 0.5), 100, 0, 1, [(6, 2)], 100),
    # The floor stops the search at its first improvement.
    (lambda: isotropic_state(3, 0.5), 100, 0, 2, [(6, 2)], 7),
    # Trial 5 improves inside the chunk of trials 3..6; trial 6 improves
    # again only when it is polished anew toward the lower target.
    (lambda: bare_mixture(rng_for(3, "schmidt/remix-4x4"), 4, 1), 64, 3, 1, [(5, 2), (6, 1)], 7),
], ids=["no-improvement", "trial-1", "trial-6", "floor-stop", "chunk-tail"])
def test_remix_batches_match_sequential_trials(make, budget, seed, floor,
                                               improvements, trials):
    omega = make()
    k, ens = sn_upper_bound(omega, budget=budget, seed=seed, floor=floor)
    ref_k, ref_ens, ref_improvements, ref_trials = sequential_remix(omega, budget, seed, floor)
    assert (ref_improvements, ref_trials) == (improvements, trials)
    assert k == ref_k and len(ens) == len(ref_ens)
    for (w, psi), (ref_w, ref_psi) in zip(ens, ref_ens):
        assert np.array_equal(w, ref_w)
        assert np.array_equal(psi.amplitudes, ref_psi.amplitudes)


def test_eigen_ensemble_reconstructs():
    rng = rng_for(6, "schmidt/eig")
    omega = random_density_matrix(rng, BipartiteDims(2, 3))
    ens = eigen_ensemble(omega)
    mix = sum(w * psi.projector() for w, psi in ens)
    assert np.linalg.norm(mix - omega.matrix) <= 1e-10
    assert sum(w for w, _ in ens) == pytest.approx(1.0, abs=1e-12)


def test_certify_maximally_entangled():
    cert = certify(DensityMatrix.from_pure(maximally_entangled(3)), budget=50)
    assert (cert.lower, cert.upper) == (3, 3)
    assert cert.consistent


def test_certify_product_mixture():
    rng = rng_for(7, "schmidt/cprod")
    rho_a = random_density_matrix(rng, BipartiteDims(2, 1)).matrix
    rho_b = random_density_matrix(rng, BipartiteDims(2, 1)).matrix
    omega = DensityMatrix(np.kron(rho_a, rho_b), BipartiteDims(2, 2))
    cert = certify(omega, budget=50)
    assert (cert.lower, cert.upper) == (1, 1)


def test_certificate_sandwich_library():
    # States with known Schmidt number: lower == SN == upper throughout.
    rng = rng_for(8, "schmidt/library")
    cases = []
    for d in (2, 3, 4):
        cases.append((DensityMatrix.from_pure(maximally_entangled(d)), d))
    for k in (2, 3):
        psi = random_sr_pure_state(rng, BipartiteDims(3, 3), k)
        cases.append((DensityMatrix.from_pure(psi), k))
    mix = random_sr_mixture(rng, BipartiteDims(3, 3), 1, 4)
    cases.append((mix, 1))
    for omega, sn in cases:
        cert = certify(omega, budget=50, seed=1)
        assert cert.lower <= sn <= cert.upper
        assert cert.lower == cert.upper == sn


def test_certify_mixture_bounds_order():
    # Heavily mixed Schmidt rank 2 states: bounds may not meet, but the
    # certificate must stay ordered and flagged consistent.
    rng = rng_for(9, "schmidt/order")
    omega = random_sr_mixture(rng, BipartiteDims(3, 3), 2, 6)
    cert = certify(omega, budget=50, seed=0)
    assert cert.consistent
    assert 1 <= cert.lower <= cert.upper <= 3


def test_schmidt_factors_match_per_matrix_truncation():
    # The batched kernel gives the same bits as truncating one matrix at a
    # time, and what it drops is exactly the discarded Schmidt weight.
    from schmlab.schmidt import _schmidt_factors

    rng = rng_for(12, "schmidt/factors")
    stack = rng.normal(size=(7, 3, 4)) + 1j * rng.normal(size=(7, 3, 4))
    r = 2
    a, bh = _schmidt_factors(stack, r)
    assert a.shape == (7, 3, r) and bh.shape == (7, r, 4)
    for m, truncated in zip(stack, a @ bh):
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        assert np.array_equal(truncated, (u[:, :r] * s[:r]) @ vh[:r, :])
        residual = np.linalg.norm(m - truncated) ** 2
        assert residual == pytest.approx(np.sum(s[r:] ** 2), rel=1e-12)


def test_min_overlap_sr_matches_per_restart_descent():
    # All restarts descend together as rows of one array and are then
    # finished by one batched seesaw; the result must match running each
    # restart on its own with a direct solve and a one-row seesaw.
    from schmlab.schmidt import OVERLAP_SHIFT, _seesaw_min_overlap, min_overlap_sr

    dims = BipartiteDims(3, 3)
    rng = rng_for(13, "schmidt/overlap-reference")
    q, _ = np.linalg.qr(rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6)))
    p = q @ q.conj().T  # rank-6 projector: no product state in its kernel
    r, restarts, seed = 1, 16, 3
    value, argmin = min_overlap_sr(p, r, dims, restarts=restarts, seed=seed)

    shifted = p + OVERLAP_SHIFT * np.eye(dims.total)
    reference = []
    for restart in range(restarts):
        phi = random_sr_pure_state(rng_for(seed, f"min_overlap/{restart}"), dims, r).amplitudes
        current = np.vdot(phi, p @ phi).real
        for _ in range(150):
            u, s, vh = np.linalg.svd(np.linalg.solve(shifted, phi).reshape(3, 3))
            phi = ((u[:, :r] * s[:r]) @ vh[:r, :]).reshape(-1)
            phi /= np.linalg.norm(phi)
            previous, current = current, np.vdot(phi, p @ phi).real
            if abs(current - previous) < 1e-14:
                break
        frame = np.linalg.svd(phi.reshape(3, 3))[2][:r, :].T
        finished = _seesaw_min_overlap(p.reshape(3, 3, 3, 3), dims, r, frame[None], 80)[0]
        assert finished[0] <= current + 1e-12
        reference.append(finished[0])
    assert value > 1e-3
    assert value == pytest.approx(min(reference), abs=1e-12)
    assert np.vdot(argmin.amplitudes, p @ argmin.amplitudes).real == pytest.approx(value, abs=1e-12)
    assert schmidt_rank(argmin) == r


def test_witness_from_lambda():
    omega = DensityMatrix.from_pure(maximally_entangled(2))
    w = witness_from_lambda(omega)
    assert w is not None and w.order == 2
    assert np.trace(w.matrix @ omega.matrix).real == pytest.approx(w.margin, abs=1e-9)
    assert w.margin < -1e-9
    # Nonnegative on 200 random product states.
    rng = rng_for(10, "schmidt/wlam")
    for _ in range(200):
        sigma = random_sr_pure_state(rng, BipartiteDims(2, 2), 1)
        assert np.vdot(sigma.amplitudes, w.matrix @ sigma.amplitudes).real >= -1e-9
    sep = DensityMatrix(np.eye(4) / 4, BipartiteDims(2, 2))
    assert witness_from_lambda(sep) is None


@pytest.mark.parametrize("dA, dB, r", [(2, 2, 1), (3, 3, 2), (4, 5, 3)])
def test_seesaw_rows_match_single_row_calls(dA, dB, r):
    # All starts descend together as rows of one stack; every row must give
    # the same bits as a call on that row alone, however early it freezes.
    from schmlab.schmidt import _seesaw_min_overlap, _schmidt_factors

    dims = BipartiteDims(dA, dB)
    rng = rng_for(14, f"schmidt/seesaw/{dA}x{dB}")
    n = dims.total
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    p4 = (g @ g.conj().T).reshape(dA, dB, dA, dB)
    cold = rng.normal(size=(4, dB, r)) + 1j * rng.normal(size=(4, dB, r))
    # Restarting from a converged row's own B frame settles within two sweeps.
    _, settled = _seesaw_min_overlap(p4, dims, r, cold[:2], 80)
    warm = _schmidt_factors(settled.reshape(-1, dA, dB), r)[1].transpose(0, 2, 1)
    frames = np.concatenate([cold[:2], warm, cold[2:]])

    def run_rows(sweeps):
        values, phis = _seesaw_min_overlap(p4, dims, r, frames, sweeps)
        for row in range(len(frames)):
            alone = _seesaw_min_overlap(p4, dims, r, frames[row:row + 1], sweeps)
            assert np.array_equal(alone[0], values[row:row + 1])
            assert np.array_equal(alone[1], phis[row:row + 1])
        return values, phis

    early, full = run_rows(2), run_rows(80)
    frozen = [np.array_equal(early[1][row], full[1][row]) for row in range(len(frames))]
    assert frozen[2:4] == [True, True] and not all(frozen)
    assert np.allclose(np.linalg.norm(full[1], axis=1), 1.0)
