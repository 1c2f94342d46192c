"""Lambda-map bounds, decomposition search and certificates."""

import numpy as np
import pytest

from schmlab.constructions import isotropic_state
from schmlab.errors import ValidationError
from schmlab.linalg import BipartiteDims, eigh, min_eigenvalue, partial_trace, trace_distance
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
    edge_decompose,
    eigen_ensemble,
    ensemble_max_sr,
    lambda_map,
    sn_lower_bound,
    sn_upper_bound,
    witness_from_lambda,
)
from schmlab.states import (
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


def test_sn_upper_product_mixture_bare():
    # Without its generating ensemble, the remix search alone must find an
    # exact product split of a bare product mixture.
    rng = rng_for(5, "schmidt/uhint")
    dims = BipartiteDims(3, 3)
    mix = random_sr_mixture(rng, dims, 1, 3)
    bare = DensityMatrix(mix.matrix, dims)
    upper, ens = sn_upper_bound(bare, budget=100, seed=0)
    assert upper == 1
    assert ensemble_max_sr(ens) == 1


def test_sn_upper_maximally_mixed():
    omega = DensityMatrix(np.eye(4) / 4, BipartiteDims(2, 2))
    upper, ens = sn_upper_bound(omega, budget=100, seed=0)
    assert upper == 1
    mix = sum(w * psi.projector() for w, psi in ens)
    assert np.linalg.norm(mix - omega.matrix) <= 1e-10


def assert_exact_evidence(omega, ens, r):
    mix = sum(w * psi.projector() for w, psi in ens)
    assert trace_distance(mix, omega.matrix) <= 1e-8
    assert all(schmidt_rank(psi) <= r for _, psi in ens)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d, r", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_sn_upper_reaches_generating_rank(d, r, seed):
    # Bare mixtures of three Schmidt-rank-r states: the remix, aimed at the
    # certified floor, must find a decomposition at the generating rank.
    # (3, 2) seed 0 converges only at trial 1, after trial 0 stalls.
    dims = BipartiteDims(d, d)
    mix = random_sr_mixture(rng_for(seed, f"schmidt/generating/{d}x{d}-r{r}"), dims, r, 3)
    omega = DensityMatrix(mix.matrix, dims)
    cert = certify(omega, budget=500)
    assert (cert.lower, cert.upper) == (r, r)
    assert_exact_evidence(omega, cert.upper_evidence, r)


@pytest.mark.parametrize("seed", [0, 1])
def test_sn_upper_converges_on_a_small_budget(seed):
    # The bare 2x2 r1 mixture converges at trial 0 within a few dozen
    # Anderson-mixed iterations, well inside the 600 row-iterations of budget
    # 10; the plain alternating projection needs over a thousand.
    dims = BipartiteDims(2, 2)
    mix = random_sr_mixture(rng_for(seed, "schmidt/generating/2x2-r1"), dims, 1, 3)
    omega = DensityMatrix(mix.matrix, dims)
    cert = certify(omega, budget=10)
    assert (cert.lower, cert.upper) == (1, 1)
    assert_exact_evidence(omega, cert.upper_evidence, 1)


def tiles_upb_state():
    e = np.eye(3)
    tiles = [(e[0], e[0] - e[1]), (e[0] - e[1], e[2]), (e[2], e[1] - e[2]),
             (e[1] - e[2], e[0]), (e.sum(axis=0), e.sum(axis=0))]
    vecs = [np.kron(a, b) / np.linalg.norm(np.kron(a, b)) for a, b in tiles]
    return DensityMatrix((np.eye(9) - sum(np.outer(v, v) for v in vecs)) / 4,
                         BipartiteDims(3, 3))


def test_sn_upper_above_a_loose_floor():
    # The 3x3 tiles UPB state (Bennett et al., PRL 82, 5385 (1999)) is PPT,
    # so the Lambda scan certifies only 1, yet its Schmidt number is 2: the
    # target-1 rows fail and target 2 must still be reached.
    omega = tiles_upb_state()
    assert sn_lower_bound(omega)[0] == 1
    upper, ens = sn_upper_bound(omega, budget=50, seed=0, floor=1)
    assert upper == 2
    assert_exact_evidence(omega, ens, 2)


def remix_factor(omega):
    """M with M M† = omega, from the eigenvectors of nonzero eigenvalues."""
    vals, vecs = eigh(omega.matrix)
    rank = max(1, int(np.count_nonzero(vals > 1e-12)))
    return vecs[:, :rank] * np.sqrt(np.clip(vals[:rank], 0.0, None))


def polish_one_trial(factor, dims, target, seed, trial, cap):
    """Reference: polish one remix trial on its own; (cols, status, iterations).

    Each pass evaluates a co-isometry U.  A plain step is always kept; an
    Anderson candidate is kept only if its total tail (the squared Schmidt
    coefficients beyond `target`, summed over members) is strictly below the
    kept point's, else the pairs are dropped and the plain step follows.  A
    kept point's plain step g(U) is the Procrustes refit to its truncated
    members; once depth + 1 pairs (U, g(U)) are kept in a row, the next point
    is their Anderson mix projected to a co-isometry.  Asserts that the kept
    tails never rise: a kept candidate is strictly lower, and a plain step is
    an alternating projection, which can rise only by roundoff.
    """
    from schmlab.schmidt import ANDERSON_DEPTH as depth

    rank = factor.shape[1]
    size = rank + trial % (rank + 1)
    rng = rng_for(seed, f"sn_upper/remix/{trial}")
    draw = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    point = np.linalg.qr(draw)[0].conj().T
    pairs, kept_tails = [], []  # kept (U, g(U)) since the last drop; every kept tail
    mixed, settled, checkpoint = False, False, np.inf
    for done in range(cap):
        cols = factor @ point
        u, s, vh = np.linalg.svd(cols.T.reshape(size, dims.dimA, dims.dimB),
                                 full_matrices=False)
        s2 = s * s
        tail = s2[:, target:].sum(axis=1).sum()
        keep = not mixed or tail < kept_tails[-1]
        if keep:
            kept_cols = cols
            kept_tails.append(tail)
            largest = max((row[target:].sum() / row.sum() for row in s2
                           if row.sum() > 1e-14), default=0.0)
        else:
            pairs = []
        assert all(b <= a * (1 + 1e-12) for a, b in zip(kept_tails, kept_tails[1:]))
        if largest < 1e-20:
            return kept_cols, "converged", done + 1
        if settled or (done % 100 == 0 and largest > 0.81 * checkpoint):
            return kept_cols, "stalled", done + 1
        if done + 1 >= cap:
            return kept_cols, "capped", done + 1
        if done % 100 == 0:
            checkpoint = largest
        if keep:
            truncated = ((u[..., :target] * s[:, None, :target]) @ vh[:, :target, :]
                         ).reshape(size, -1).T
            u, _, vh = np.linalg.svd(factor.conj().T @ truncated, full_matrices=False)
            step = u @ vh
            pairs = (pairs + [(point, step)])[-depth - 1:]
        mixed = len(pairs) == depth + 1
        point = step
        if mixed:
            res = np.diff([(g - x).reshape(-1) for x, g in pairs], axis=0)
            steps = np.diff([g.reshape(-1) for _, g in pairs], axis=0)
            last = (step - pairs[-1][0]).reshape(-1, 1)
            gram = res.conj() @ res.T
            ridge = 1e-10 * np.trace(gram).real + np.finfo(float).tiny
            gamma = np.linalg.solve(gram + ridge * np.eye(depth), res.conj() @ last)
            mix = step.reshape(-1, 1) - steps.T @ gamma
            u, _, vh = np.linalg.svd(mix.reshape(rank, size), full_matrices=False)
            point = u @ vh
        settled = np.linalg.norm(factor @ point - kept_cols, axis=(0, 1)) < 1e-12


def sequential_remix(omega, budget, seed, floor):
    """Reference: the remix search run one trial after another.

    Targets ascend from the floor; each gets the budget left over the
    targets left, its trials restart at 0, and every trial of a chunk
    (1, 2, 4, ... 64 trials) is capped at what was left of the share when
    the chunk began.  Returns (k, ensemble, accepted (trial, k) pairs,
    trials read).
    """
    from schmlab.schmidt import REMIX_CAP, _exact_ensemble

    dims = omega.dims
    best_k, best_ens = sn_upper_bound(omega, budget=0)
    factor = remix_factor(omega)
    left, read = budget * 60, 0
    for target in range(max(1, floor), best_k):
        share, used = left // (best_k - target), 0
        trial, chunk_end, chunk = 0, 0, 1
        while used < share:
            if trial == chunk_end:
                cap = min(REMIX_CAP, share - used)
                chunk_end, chunk = chunk_end + chunk, min(2 * chunk, 64)
            cols, status, iters = polish_one_trial(factor, dims, target, seed, trial, cap)
            read += 1
            exact = _exact_ensemble(omega, cols, target) if status == "converged" else None
            if exact is not None:
                return target, exact.ensemble, [(trial, target)], read
            used += iters
            trial += 1
        left -= used
    return best_k, best_ens, [], read


def bare_mixture(rng, d, r):
    mix = random_sr_mixture(rng, BipartiteDims(d, d), r, 3)
    return DensityMatrix(mix.matrix, mix.dims)


@pytest.mark.parametrize("make, budget, seed, floor, accepted, trials", [
    # The tiles UPB state (Schmidt number 2) from its loose floor 1 at a small
    # budget: target 1 stalls until its share runs out inside the chunk of
    # trials 3..6, and target 2 caps.
    (tiles_upb_state, 5, 0, 1, [], 5),
    # A separable state: target 1 converges at trial 0.
    (lambda: isotropic_state(3, 0.2), 100, 0, 1, [(0, 1)], 1),
    # SN 2 from floor 1: 51 target-1 trials stall, then target 2 converges.
    (lambda: isotropic_state(3, 0.5), 100, 0, 1, [(0, 2)], 52),
    # The same state from its certified floor skips target 1.
    (lambda: isotropic_state(3, 0.5), 100, 0, 2, [(0, 2)], 1),
    # A 4x4 product mixture: target 1 converges at trial 0.
    (lambda: bare_mixture(rng_for(3, "schmidt/remix-4x4"), 4, 1), 64, 3, 1, [(0, 1)], 1),
    # Trial 2 converges before trial 1 in the chunk of trials 1..2, but
    # trial 1 comes first in trial order and wins.
    (lambda: bare_mixture(rng_for(0, "schmidt/generating/3x3-r2"), 3, 2), 500, 0, 2,
     [(1, 2)], 2),
], ids=["no-improvement", "trial-1", "trial-6", "floor-stop", "chunk-tail", "trial-order"])
def test_remix_batches_match_sequential_trials(make, budget, seed, floor,
                                               accepted, trials):
    omega = make()
    k, ens = sn_upper_bound(omega, budget=budget, seed=seed, floor=floor)
    ref_k, ref_ens, ref_accepted, ref_trials = sequential_remix(omega, budget, seed, floor)
    assert (ref_accepted, ref_trials) == (accepted, trials)
    assert k == ref_k and len(ens) == len(ref_ens)
    for (w, psi), (ref_w, ref_psi) in zip(ens, ref_ens):
        assert np.array_equal(w, ref_w)
        assert np.array_equal(psi.amplitudes, ref_psi.amplitudes)


@pytest.mark.parametrize("make, target, cap, statuses", [
    # Rows that hit a small cap and rows that stop moving.
    (tiles_upb_state, 1, 40, ["capped", "capped", "stalled", "stalled",
                              "stalled", "stalled", "capped", "stalled"]),
    # A row whose tail stops falling, then rows that converge.
    (lambda: bare_mixture(rng_for(0, "schmidt/generating/3x3-r2"), 3, 2), 2, 10000,
     ["stalled", "converged", "converged"]),
], ids=["stall-and-cap", "converge"])
def test_remix_rows_match_single_trial_polish(make, target, cap, statuses):
    from schmlab.schmidt import _remix_polish

    omega = make()
    factor = remix_factor(omega)
    trials = range(len(statuses))
    # Trials rank + 1 apart share a size; each size group polishes in its
    # own call, and the rows are read back in trial order.
    sizes = factor.shape[1] + 1
    rows = [None] * len(trials)
    for first in trials[:sizes]:
        group = trials[first::sizes]
        for trial, row in zip(group, _remix_polish(factor, omega.dims, target, 0, group, cap)):
            rows[trial] = row
    assert [status for _, status, _ in rows] == statuses
    for trial, (cols, status, iters) in zip(trials, rows):
        ref_cols, ref_status, ref_iters = polish_one_trial(
            factor, omega.dims, target, 0, trial, cap)
        assert (status, iters) == (ref_status, ref_iters)
        assert np.array_equal(cols, ref_cols)


def test_remix_polishes_no_size_group_after_the_winner(monkeypatch):
    # The trial-order case: trial 1 wins in the chunk of trials 1..2, and
    # trial 2, a size group of its own there, is never polished.
    from schmlab import schmidt

    omega = bare_mixture(rng_for(0, "schmidt/generating/3x3-r2"), 3, 2)
    polished = []
    polish = schmidt._remix_polish

    def recording(factor, dims, target, seed, trials, cap):
        polished.extend(trials)
        return polish(factor, dims, target, seed, trials, cap)

    monkeypatch.setattr(schmidt, "_remix_polish", recording)
    k, ens = sn_upper_bound(omega, budget=500, seed=0, floor=2)
    assert polished == [0, 1]
    monkeypatch.undo()
    ref_k, ref_ens, ref_accepted, _ = sequential_remix(omega, 500, 0, 2)
    assert ref_accepted == [(1, 2)]
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
    # At r >= 2 all restarts descend together as rows of one array and are
    # then finished by one batched seesaw; the result must match running
    # each restart on its own with a dense direct solve and a one-row seesaw.
    from schmlab.schmidt import OVERLAP_SHIFT, _factored, _seesaw_min_overlap, min_overlap_sr

    dA, dB = 4, 4
    dims = BipartiteDims(dA, dB)
    rng = rng_for(13, "schmidt/overlap-reference")
    q, _ = np.linalg.qr(rng.normal(size=(16, 13)) + 1j * rng.normal(size=(16, 13)))
    p = q @ q.conj().T  # rank-13 projector: no Schmidt-rank-2 state in its kernel
    r, restarts, seed = 2, 16, 3
    value, argmin = min_overlap_sr(p, r, dims, restarts=restarts, seed=seed)

    shifted = p + OVERLAP_SHIFT * np.eye(dims.total)
    form = _factored(p, r, dims)
    reference = []
    for restart in range(restarts):
        phi = random_sr_pure_state(rng_for(seed, f"min_overlap/{restart}"), dims, r).amplitudes
        current = np.vdot(phi, p @ phi).real
        for _ in range(150):
            u, s, vh = np.linalg.svd(np.linalg.solve(shifted, phi).reshape(dA, dB))
            phi = ((u[:, :r] * s[:r]) @ vh[:r, :]).reshape(-1)
            phi /= np.linalg.norm(phi)
            previous, current = current, np.vdot(phi, p @ phi).real
            if abs(current - previous) < 1e-14:
                break
        frame = np.linalg.svd(phi.reshape(dA, dB))[2][:r, :].T
        finished = _seesaw_min_overlap(form, dims, frame[None], 80)[0]
        assert finished[0] <= current + 1e-12
        reference.append(finished[0])
    assert value > 1e-3
    assert value == pytest.approx(min(reference), abs=1e-12)
    assert np.vdot(argmin.amplitudes, p @ argmin.amplitudes).real == pytest.approx(value, abs=1e-12)
    assert schmidt_rank(argmin) == r


def test_min_overlap_sr_product_search_is_the_seesaw_from_each_start():
    # At r = 1 no descent runs: every restart's B factor goes straight into
    # the seesaw on the factored operator, so the result has the bits of
    # one-row seesaw calls.
    from schmlab.schmidt import (_factored, _schmidt_factors, _seesaw_min_overlap,
                                 min_overlap_sr)

    dims = BipartiteDims(3, 3)
    rng = rng_for(13, "schmidt/overlap-reference")
    q, _ = np.linalg.qr(rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6)))
    p = q @ q.conj().T  # rank-6 projector: no product state in its kernel
    p = (p + p.conj().T) / 2  # exactly Hermitian, so the search sees these bits
    restarts, seed = 16, 3
    value, argmin = min_overlap_sr(p, 1, dims, restarts=restarts, seed=seed)

    form = _factored(p, 1, dims)
    values, phis = [], []
    for restart in range(restarts):
        start = random_sr_pure_state(rng_for(seed, f"min_overlap/{restart}"), dims, 1)
        frame = _schmidt_factors(start.amplitudes.reshape(1, 3, 3), 1)[1].transpose(0, 2, 1)
        row_value, row_phi = _seesaw_min_overlap(form, dims, frame, 80)
        values.append(row_value[0])
        phis.append(row_phi[0])
    best = int(np.argmin(values))
    assert value > 1e-3
    assert np.array_equal(value, values[best])
    assert np.array_equal(argmin.amplitudes, phis[best])
    assert schmidt_rank(argmin) == 1


@pytest.mark.parametrize("dA, dB, r", [(3, 3, 1), (4, 5, 2), (2, 3, 3)])
def test_sr_amplitudes_match_per_restart_draws(dA, dB, r):
    # One batched draw gives every restart the state its own stream gives
    # alone, drawn in the order A frame, B frame, coefficients.
    from schmlab.sampling import random_isometry, random_sr_amplitudes

    dims = BipartiteDims(dA, dB)
    rows = random_sr_amplitudes([rng_for(5, f"min_overlap/{i}") for i in range(9)], dims, r)
    assert rows.shape == (9, dims.total)
    rank = min(r, dims.min_dim)
    for i, row in enumerate(rows):
        one = random_sr_pure_state(rng_for(5, f"min_overlap/{i}"), dims, r).amplitudes
        assert np.allclose(row, one, rtol=0, atol=1e-15)
        rng = rng_for(5, f"min_overlap/{i}")
        a, b = random_isometry(rng, dA, rank), random_isometry(rng, dB, rank)
        coeff = (a * rng.uniform(0.2, 1.0, size=rank)) @ b.T
        assert np.allclose(row, coeff.reshape(-1) / np.linalg.norm(coeff), rtol=0, atol=1e-15)
        assert schmidt_rank(PureState(row, dims)) == rank


def random_forms(rng, dims):
    """Forms (c, S, e) of a kernel projector, a dense operator and a mixed one."""
    from schmlab.schmidt import _factored

    n = dims.total
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    dense = _factored(g @ g.conj().T / n, 1, dims)
    return [(1.0, u[:, 3:], np.zeros(n - 3)), dense,
            (0.7, u[:, :n - 2], rng.uniform(0.0, 2.0, size=n - 2))]


def dense_operator(form):
    c, s, e = form
    return c * (np.eye(len(s)) - s @ s.conj().T) + (s * e) @ s.conj().T


@pytest.mark.parametrize("dA, dB, r", [(2, 3, 1), (2, 3, 2), (4, 3, 1), (4, 3, 2), (4, 3, 3)])
def test_seesaw_forms_match_einsum(dA, dB, r):
    # The contracted forms the seesaw builds from a factored operator equal
    # the three-operand einsum of the dense operator, on both sides, with
    # the form index ordered (frame column, free index).
    from schmlab.schmidt import _frame_forms

    rng = rng_for(16, f"schmidt/forms/{dA}x{dB}-r{r}")
    ob = np.linalg.qr(rng.normal(size=(5, dB, r)) + 1j * rng.normal(size=(5, dB, r)))[0]
    oa = np.linalg.qr(rng.normal(size=(5, dA, r)) + 1j * rng.normal(size=(5, dA, r)))[0]
    for form in random_forms(rng, BipartiteDims(dA, dB)):
        p4 = dense_operator(form).reshape(dA, dB, dA, dB)
        qa = np.einsum("aibj,nik,njl->nkalb", p4, ob.conj(), ob).reshape(-1, r * dA, r * dA)
        qb = np.einsum("aibj,nak,nbl->nkilj", p4, oa.conj(), oa).reshape(-1, r * dB, r * dB)
        s = form[1].reshape(dA, dB, -1)
        for_a = s.transpose(1, 0, 2).reshape(dB, -1)  # frame index first
        assert np.allclose(_frame_forms(form, ob, for_a), qa, rtol=0, atol=1e-13)
        assert np.allclose(_frame_forms(form, oa, s.reshape(dA, -1)), qb, rtol=0, atol=1e-13)


def test_factored_kernel_mass_keeps_its_precision():
    # A support vector plus a 1e-10 kernel component has kernel mass 1e-20;
    # reading it as ||phi||^2 - ||S† phi||^2 would leave only roundoff.
    from schmlab.schmidt import _overlaps

    rng = rng_for(18, "schmidt/kernel-mass")
    n = 20
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    support, kernel = u[:, :7], u[:, 7:]
    phis = support[:, :3].T + 1e-10 * kernel[:, :3].T
    masses = _overlaps((1.0, support, np.zeros(7)), phis)[0]
    assert np.allclose(masses, 1e-20, rtol=0, atol=1e-24)


@pytest.mark.parametrize("dA, dB, r", [(3, 3, 1), (4, 5, 2)])
def test_overlap_descent_rows_match_single_row_calls(dA, dB, r):
    # The Anderson-mixed descent runs all starts as rows of one array; every
    # row must give the same bits as a call on that row alone, however long
    # it runs and however often its candidates are refused.
    from schmlab.sampling import random_sr_amplitudes
    from schmlab.schmidt import _overlap_descent

    dims = BipartiteDims(dA, dB)
    rng = rng_for(17, f"schmidt/descent/{dA}x{dB}")
    n = dims.total
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    p = u[:, :n - 3] @ u[:, :n - 3].conj().T
    form = (1.0, u[:, n - 3:], np.zeros(3))  # P = I - S S†, S the last three columns
    starts = random_sr_amplitudes([rng_for(17, f"descent/{i}") for i in range(12)], dims, r)
    rows = _overlap_descent(form, starts, dims, r)
    for i in range(len(starts)):
        assert np.array_equal(_overlap_descent(form, starts[i:i + 1], dims, r), rows[i:i + 1])
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)
    for row in rows:
        assert schmidt_rank(PureState(row, dims)) <= r
    values = np.einsum("ij,ij->i", rows.conj(), rows @ p.T).real
    starts_values = np.einsum("ij,ij->i", starts.conj(), starts @ p.T).real
    assert np.all(values < starts_values)


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
    from schmlab.schmidt import _factored, _seesaw_min_overlap, _schmidt_factors

    dims = BipartiteDims(dA, dB)
    rng = rng_for(14, f"schmidt/seesaw/{dA}x{dB}")
    n = dims.total
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    form = _factored(g @ g.conj().T, r, dims)
    cold = rng.normal(size=(4, dB, r)) + 1j * rng.normal(size=(4, dB, r))
    # Restarting from a converged row's own B frame settles within two sweeps.
    _, settled = _seesaw_min_overlap(form, dims, cold[:2], 80)
    warm = _schmidt_factors(settled.reshape(-1, dA, dB), r)[1].transpose(0, 2, 1)
    frames = np.concatenate([cold[:2], warm, cold[2:]])

    def run_rows(sweeps):
        values, phis = _seesaw_min_overlap(form, dims, frames, sweeps)
        for row in range(len(frames)):
            alone = _seesaw_min_overlap(form, dims, frames[row:row + 1], sweeps)
            assert np.array_equal(alone[0], values[row:row + 1])
            assert np.array_equal(alone[1], phis[row:row + 1])
        return values, phis

    early, full = run_rows(2), run_rows(80)
    frozen = [np.array_equal(early[1][row], full[1][row]) for row in range(len(frames))]
    assert frozen[2:4] == [True, True] and not all(frozen)
    assert np.allclose(np.linalg.norm(full[1], axis=1), 1.0)


def test_edge_decompose_stops_stalled_projections(monkeypatch):
    # A generic rank-4 support in 3x3 holds no product vector, so every
    # subtraction row ends at a positive kernel overlap, the first round
    # finds nothing with the pool empty and the greedy split stops after it.
    # That round runs one overlap descent and seesaw over its starts; a
    # search that kept iterating toward an empty feasible set would show
    # here as extra truncation-kernel calls.
    from schmlab import schmidt

    calls = []
    truncate = schmidt._schmidt_factors

    def counting(*args, **kwargs):
        calls.append(1)
        return truncate(*args, **kwargs)

    monkeypatch.setattr(schmidt, "_schmidt_factors", counting)
    omega = random_density_matrix(rng_for(0, "schmidt/edgestop"), BipartiteDims(3, 3), rank=4)
    dec = schmidt.edge_decompose(omega, k=2, budget=240, seed=0)
    assert (dec.p, dec.rounds, dec.removed) == (1.0, 1, ())
    assert len(calls) <= 100


@pytest.mark.parametrize("search", [
    lambda omega: sn_upper_bound(omega, budget=-5),
    lambda omega: certify(omega, budget=-1),
    lambda omega: edge_decompose(omega, k=2, budget=-5),
], ids=["sn_upper_bound", "certify", "edge_decompose"])
def test_negative_budget_is_refused_before_any_work(monkeypatch, search):
    # A separable mixture that budget 240 splits with p = 0; a negative
    # budget once returned p = 1 and edge = omega, as if no split existed.
    from schmlab import linalg

    omega = bare_mixture(rng_for(0, "schmidt/budget"), 3, 1)

    def no_work(*args, **kwargs):
        raise AssertionError("the search started")

    for name in ("eigh", "min_eigenvalue", "support_kernel"):
        monkeypatch.setattr(linalg, name, no_work)
    with pytest.raises(ValidationError, match="budget"):
        search(omega)


def test_zero_budget_runs_no_search():
    omega = bare_mixture(rng_for(0, "schmidt/budget"), 3, 1)
    assert edge_decompose(omega, k=2, budget=240, seed=0).p == 0.0
    dec = edge_decompose(omega, k=2, budget=0, seed=0)
    assert (dec.p, dec.rounds, dec.removed) == (1.0, 0, ())
