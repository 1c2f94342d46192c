"""Witness construction, overlap minimization, subtraction, edge split."""

import numpy as np
import pytest

from schmlab import schmidt
from schmlab.constructions import isotropic_state
from schmlab.errors import ValidationError, WitnessDegenerateError
from schmlab.linalg import BipartiteDims, min_eigenvalue, support_kernel, trace_distance
from schmlab.sampling import (
    random_density_matrix,
    random_sr_mixture,
    random_sr_pure_state,
    rng_for,
)
from schmlab.schmidt import (
    build_witness,
    edge_decompose,
    max_subtraction,
    max_subtractable,
    min_overlap_grid,
    min_overlap_sr,
    sn_lower_bound,
)
from schmlab.states import (
    PSD_FLOOR,
    DensityMatrix,
    PureState,
    maximally_entangled,
    schmidt_rank,
)
from test_schmidt import tiles_upb_state


def batch_product_states(rng, dims, count):
    """Columns are product states a ⊗ b with Haar-ish local factors."""
    a = rng.normal(size=(dims.dimA, count)) + 1j * rng.normal(size=(dims.dimA, count))
    b = rng.normal(size=(dims.dimB, count)) + 1j * rng.normal(size=(dims.dimB, count))
    a /= np.linalg.norm(a, axis=0)
    b /= np.linalg.norm(b, axis=0)
    return np.einsum("ip,jp->ijp", a, b).reshape(dims.total, count)


def batch_sr_states(rng, dims, r, count):
    cols = np.zeros((dims.total, count), dtype=complex)
    for _ in range(r):
        cols += batch_product_states(rng, dims, count)
    cols /= np.linalg.norm(cols, axis=0)
    return cols


def test_min_overlap_identity():
    dims = BipartiteDims(3, 3)
    for r in (1, 2):
        eps, _ = min_overlap_sr(np.eye(9), r, dims, restarts=8, seed=0)
        assert eps == pytest.approx(1.0, abs=1e-9)


def test_min_overlap_bell_complement():
    # Best product overlap with the Bell state is 1/2, so the minimum of
    # I - |bell><bell| over products is 1/2.
    dims = BipartiteDims(2, 2)
    p = np.eye(4) - maximally_entangled(2).projector()
    eps, phi = min_overlap_sr(p, 1, dims, restarts=32, seed=0)
    assert eps == pytest.approx(0.5, abs=1e-9)
    assert schmidt_rank(phi) == 1


def test_min_overlap_separable_kernel():
    # Oracle: the support of a rank-deficient separable state contains its
    # generating product vectors, so the minimal overlap with the kernel
    # projector is 0; verify the argmin is a product state in the support.
    dims = BipartiteDims(3, 3)
    mix = random_sr_mixture(rng_for(0, "witness/sep"), dims, 1, 4)
    vals, vecs = np.linalg.eigh(mix.matrix)
    kernel = vecs[:, vals < 1e-10]
    p = kernel @ kernel.conj().T
    eps, phi = min_overlap_sr(p, 1, dims, restarts=32, seed=1)
    assert abs(eps) <= 1e-6
    assert schmidt_rank(phi) == 1
    assert np.linalg.norm(p @ phi.amplitudes) <= 1e-3


def test_min_overlap_full_rank_bound_is_min_eig():
    rng = rng_for(1, "witness/fullr")
    dims = BipartiteDims(2, 2)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    p = g @ g.conj().T
    eps, _ = min_overlap_sr(p, 2, dims, restarts=4, seed=0)
    assert eps == pytest.approx(float(np.linalg.eigvalsh(p)[0]), abs=1e-9)


def test_min_overlap_sr_reaches_grid_minimum_above_16():
    # At total dimension 20 the shift-and-invert descent alone once stopped
    # 4.9e-8 above the minimum, which would overstate eps for a witness.
    # Product searches now run the exact seesaw from every start, and must
    # still reach the grid oracle's minimum.
    dims = BipartiteDims(4, 5)
    delta = random_density_matrix(rng_for(38, "witness/overshoot"), dims, rank=8)
    vals, vecs = np.linalg.eigh(delta.matrix)
    kernel = vecs[:, vals < 1e-10]
    p = kernel @ kernel.conj().T
    eps, phi = min_overlap_sr(p, 1, dims, restarts=64, seed=0)
    assert eps <= min_overlap_grid(p, 1, dims, samples=128, seed=1)[0] + 1e-12
    assert schmidt_rank(phi) == 1


@pytest.mark.parametrize("restarts", [0, -3])
def test_min_overlap_sr_refuses_empty_search(restarts):
    dims = BipartiteDims(3, 3)
    with pytest.raises(ValidationError, match="restart count"):
        min_overlap_sr(np.eye(9), 1, dims, restarts=restarts)


@pytest.mark.parametrize("samples", [0, -1])
def test_min_overlap_grid_refuses_empty_search(samples):
    dims = BipartiteDims(3, 3)
    with pytest.raises(ValidationError, match="sample count"):
        min_overlap_grid(np.eye(9), 1, dims, samples=samples)


def test_grid_oracle_agrees_on_bell():
    dims = BipartiteDims(2, 2)
    p = np.eye(4) - maximally_entangled(2).projector()
    eps, _ = min_overlap_grid(p, 1, dims, samples=64, seed=0)
    assert eps == pytest.approx(0.5, abs=1e-6)


def test_build_witness_bell():
    delta = DensityMatrix.from_pure(maximally_entangled(2))
    w = build_witness(delta, 2, seed=0)
    assert w.recipe["epsilon"] == pytest.approx(0.5, abs=1e-6)
    assert w.margin == pytest.approx(-0.5, abs=1e-6)
    expected = w.recipe["P"] - 0.5 * np.eye(4)
    assert np.linalg.norm(w.matrix - expected) <= 1e-6


def test_build_witness_qutrit_order3():
    delta = DensityMatrix.from_pure(maximally_entangled(3))
    w = build_witness(delta, 3, seed=0)
    # Best Schmidt rank 2 overlap with the projector complement: 1 - 2/3.
    assert w.recipe["epsilon"] == pytest.approx(1.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("dA, dB", [(3, 3), (3, 4), (4, 4), (5, 4), (5, 5)])
def test_build_witness_pure_delta_is_closed_form(dA, dB, monkeypatch):
    # For delta = |psi><psi|, P = I - |psi><psi| and eps is 1 minus the k-1
    # largest squared Schmidt coefficients, met by psi's own truncation;
    # no search runs.
    def no_search(*args, **kwargs):
        raise AssertionError("a pure delta ran the overlap search")

    monkeypatch.setattr(schmidt, "min_overlap_sr", no_search)
    dims = BipartiteDims(dA, dB)
    for k in range(2, dims.min_dim + 1):
        psi = random_sr_pure_state(rng_for(k, f"witness/pure/{dA}x{dB}"), dims, dims.min_dim)
        s = np.linalg.svd(psi.coefficient_matrix(), compute_uv=False)
        w = build_witness(DensityMatrix.from_pure(psi), k, seed=0)
        eps = w.recipe["epsilon"]
        assert eps == pytest.approx(1.0 - np.sum(s[:k - 1] ** 2), abs=1e-12)
        phi = w.recipe["argmin"]
        assert schmidt_rank(PureState(phi, dims)) == k - 1
        assert np.vdot(phi, w.recipe["P"] @ phi).real == pytest.approx(eps, abs=1e-12)


@pytest.mark.parametrize("sr, k", [(1, 2), (2, 3), (2, 4)])
def test_build_witness_pure_delta_within_order_is_degenerate(sr, k):
    # k-1 >= SR(psi): psi itself has Schmidt rank <= k-1, so eps is 0.
    psi = random_sr_pure_state(rng_for(sr, "witness/pure-degenerate"), BipartiteDims(3, 3), sr)
    with pytest.raises(WitnessDegenerateError):
        build_witness(DensityMatrix.from_pure(psi), k, seed=0)


def test_build_witness_full_rank_rejected():
    rng = rng_for(2, "witness/fullrank")
    delta = random_density_matrix(rng, BipartiteDims(2, 2))
    with pytest.raises(ValidationError):
        build_witness(delta, 2)


def test_build_witness_degenerate_kernel():
    # A separable state with a kernel reachable by product states leaves no
    # positive margin for the order-2 construction.
    mix = random_sr_mixture(rng_for(3, "witness/deg"), BipartiteDims(3, 3), 1, 4)
    with pytest.raises(WitnessDegenerateError):
        build_witness(mix, 2, seed=0)


def test_witness_soundness_sampled():
    # 10^4 random states of Schmidt rank <= k-1 stay nonnegative; the
    # target keeps a strictly negative margin.
    rng = rng_for(4, "witness/sound")
    for d, k in ((2, 2), (3, 3)):
        dims = BipartiteDims(d, d)
        delta = DensityMatrix.from_pure(maximally_entangled(d))
        w = build_witness(delta, k, seed=0)
        cols = batch_sr_states(rng, dims, k - 1, 10_000)
        values = np.einsum("dp,de,ep->p", cols.conj(), w.matrix, cols).real
        assert values.min() >= -1e-9
        assert w.margin < -1e-9


def test_max_subtraction_self():
    rng = rng_for(5, "witness/self")
    omega = random_density_matrix(rng, BipartiteDims(2, 2))
    assert max_subtraction(omega, omega) == pytest.approx(1.0, abs=1e-9)


def test_max_subtraction_outside_support():
    dims = BipartiteDims(2, 2)
    omega = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), dims)
    sigma = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]), dims)
    assert max_subtraction(omega, sigma) == 0.0


def test_max_subtraction_bell_from_mixed():
    omega = DensityMatrix(np.eye(4) / 4, BipartiteDims(2, 2))
    bell = DensityMatrix.from_pure(maximally_entangled(2))
    assert max_subtraction(omega, bell) == pytest.approx(0.25, abs=1e-9)


def test_max_subtraction_keeps_psd():
    rng = rng_for(6, "witness/psd")
    dims = BipartiteDims(3, 3)
    omega = random_density_matrix(rng, dims, rank=5)
    sigma = DensityMatrix.from_pure(random_sr_pure_state(rng, dims, 2))
    lam = max_subtraction(omega, sigma)
    if lam > 0:
        assert float(np.linalg.eigvalsh(omega.matrix - lam * sigma.matrix)[0]) >= -1e-9


def weights_setup():
    """A rank-5 3x3 state, its split, omega^+ and five unit rows in its support."""
    omega = random_density_matrix(rng_for(0, "witness/weights"), BipartiteDims(3, 3), rank=5)
    spectral = support_kernel(omega.matrix)
    rng = rng_for(1, "witness/weights")
    rows = spectral[0] @ (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    rows = (rows / np.linalg.norm(rows, axis=0)).T
    pinv = np.linalg.pinv(omega.matrix, rcond=1e-8, hermitian=True)
    return omega, spectral, pinv, rows


def test_subtraction_weights_in_support_rows():
    # A unit row inside the support weighs 1/<phi|omega^+|phi>.
    omega, spectral, pinv, rows = weights_setup()
    weights = schmidt._subtraction_weights(omega.matrix, spectral, rows[:, :, None])
    expected = 1.0 / np.einsum("ij,jk,ik->i", rows.conj(), pinv, rows).real
    assert np.all(weights > 0)
    assert np.allclose(weights, expected, rtol=1e-12, atol=0)


def test_subtraction_weights_leaking_row_is_zero():
    omega, spectral, _, rows = weights_setup()
    leaky = rows[0] + 1e-3 * spectral[2][:, 0]
    leaky /= np.linalg.norm(leaky)
    weights = schmidt._subtraction_weights(
        omega.matrix, spectral, np.stack([rows[0], leaky])[:, :, None])
    assert weights[0] > 0 and weights[1] == 0.0


def test_subtraction_weights_failed_floor_is_zero_not_shaved():
    # A kernel leak of 1e-11 passes the rank-cutoff leak check, but the
    # full weight leaves a remainder below the exact floor.  Shaving the
    # weight by half a percent would pass the floor; the kernel refuses the
    # row instead.
    omega, spectral, pinv, rows = weights_setup()
    eps = 1e-11
    phi = np.sqrt(1 - eps) * rows[0] + np.sqrt(eps) * spectral[2][:, 0]
    full = 1.0 / np.vdot(phi, pinv @ phi).real
    sigma = np.outer(phi, phi.conj())
    assert min_eigenvalue(omega.matrix - full * sigma) < -schmidt.CERT_MARGIN
    assert min_eigenvalue(omega.matrix - 0.995 * full * sigma) >= -schmidt.CERT_MARGIN
    weights = schmidt._subtraction_weights(omega.matrix, spectral, phi[None, :, None])
    assert weights[0] == 0.0


@pytest.mark.parametrize("m", [1, 2])
def test_subtraction_weights_stack_matches_one_row_calls(m):
    omega, spectral, _, rows = weights_setup()
    leaky = rows[0] + 1e-3 * spectral[2][:, 0]
    stack = np.concatenate([rows, leaky[None] / np.linalg.norm(leaky)])
    # Factor i holds rows i and i-1, so the leaky last row spoils one factor
    # at m = 1 and two at m = 2.
    factors = np.stack([stack, np.roll(stack, 1, axis=0)], axis=2)[:, :, :m] / np.sqrt(m)
    weights = schmidt._subtraction_weights(omega.matrix, spectral, factors)
    assert weights[-1] == 0.0 and np.count_nonzero(weights) == len(stack) - m
    for i, factor in enumerate(factors):
        one = schmidt._subtraction_weights(omega.matrix, spectral, factor[None])
        assert np.array_equal(one, weights[i:i + 1])


def counted_floor_checks(monkeypatch):
    """Record the weight of every `_floor_holds` call from now on."""
    checked = []
    holds = schmidt._floor_holds

    def counting(matrix, weight, factor):
        checked.append(weight)
        return holds(matrix, weight, factor)

    monkeypatch.setattr(schmidt, "_floor_holds", counting)
    return checked


def heavier_failing(unchecked, checked):
    """How many rows fail the floor before the heaviest row that holds it."""
    order = np.argsort(-unchecked, kind="stable")
    walked = checked[order][unchecked[order] > 0]
    holds = np.flatnonzero(walked > 0)
    return int(holds[0]) if holds.size else len(walked)


def test_heaviest_within_floor_stops_at_the_first_row_that_holds(monkeypatch):
    # Twice the heaviest weight overshoots the floor: the walk checks that
    # row, then the heaviest true weight, and nothing lighter.
    omega, spectral, _, rows = weights_setup()
    factors = rows[:, :, None]
    weights = schmidt._unchecked_weights(spectral, factors)
    heaviest = int(np.argmax(weights))
    weights = np.append(weights, 2 * weights[heaviest])
    factors = np.concatenate([factors, factors[heaviest:heaviest + 1]])
    checked = counted_floor_checks(monkeypatch)
    assert schmidt._heaviest_within_floor(omega.matrix, weights, factors) == heaviest
    assert checked == [weights[-1], weights[heaviest]]
    # When every positive weight overshoots, each is checked once, a zero
    # weight never, and no row wins.
    overshoot = 2 * weights[:5]
    overshoot[0] = 0.0
    del checked[:]
    assert schmidt._heaviest_within_floor(omega.matrix, overshoot, factors[:5]) == -1
    assert sorted(checked) == sorted(overshoot[1:])


@pytest.mark.parametrize("r, restarts", [(1, 48), (2, 24)])
def test_max_subtractable_matches_checking_every_row(monkeypatch, r, restarts):
    mix = random_sr_mixture(rng_for(7, "witness/best"), BipartiteDims(3, 3), r, 4)
    support, vals, kernel = spectral = support_kernel(mix.matrix)
    weights, phis, scaled = schmidt._subtractable_candidates(mix.matrix, spectral, mix.dims,
                                                             r, restarts, 0)
    tr = float(np.trace(mix.matrix).real)
    every = schmidt._subtraction_weights(scaled, (support, vals / tr, kernel), phis[:, :, None])
    best = int(np.argmax(every))  # first maximum
    assert every[best] > 0
    checked = counted_floor_checks(monkeypatch)
    lam, phi = max_subtractable(mix, r=r, restarts=restarts, seed=0)
    assert lam == every[best]
    assert np.array_equal(phi.amplitudes, phis[best])
    assert len(checked) <= heavier_failing(weights, every) + 1


def test_max_subtractable_finds_members():
    # On a product mixture the best product subtraction is at least the
    # best generating member's weight.
    mix = random_sr_mixture(rng_for(7, "witness/best"), BipartiteDims(3, 3), 1, 4)
    member_best = max(
        max_subtraction(mix, DensityMatrix.from_pure(psi)) for _, psi in mix.ensemble
    )
    lam, phi = max_subtractable(mix, r=1, restarts=48, seed=0)
    assert lam >= 0.9 * member_best
    assert schmidt_rank(phi) == 1


@pytest.mark.parametrize("r, k, label", [
    (1, 2, "witness/edgemix"),
    (2, 3, "witness/edgemix-sr2"),
], ids=["sr1-k2", "sr2-k3"])
def test_edge_decompose_product_mixture(r, k, label):
    # A bare mixture of Schmidt-rank-(k-1) states: the exact remix splits it
    # with p = 0 before any greedy round.
    dims = BipartiteDims(3, 3)
    mix = random_sr_mixture(rng_for(8, label), dims, r, 4)
    bare = DensityMatrix(mix.matrix, dims)
    dec = edge_decompose(bare, k=k, budget=2000, seed=0)
    assert (dec.p, dec.rounds, dec.edge) == (0.0, 0, None)
    rebuilt = sum(w * psi.projector() for w, psi in dec.removed)
    assert trace_distance(rebuilt, bare.matrix) <= 1e-8
    assert np.linalg.norm(dec.within.matrix - bare.matrix) == 0.0
    for _, psi in dec.removed:
        s = np.linalg.svd(psi.amplitudes.reshape(3, 3), compute_uv=False)
        assert s[k - 1:].max() <= 1e-12 * s[0]  # rank <= k-1 exactly, not at a cutoff


def test_edge_decompose_skips_remix_above_the_floor(monkeypatch):
    # The Lambda scan certifies Schmidt number 2, so no class-1 split exists
    # and the remix must not run.
    omega = random_density_matrix(rng_for(0, "witness/edgegate"), BipartiteDims(3, 3), rank=4)
    assert sn_lower_bound(omega)[0] == 2

    def forbidden(*args, **kwargs):
        raise AssertionError("remix ran above the Lambda floor")

    monkeypatch.setattr(schmidt, "_remix_polish", forbidden)
    dec = edge_decompose(omega, k=2, budget=24, seed=0)
    assert dec.rounds > 0


def test_edge_decompose_admits_only_candidates_that_hold_the_floor(monkeypatch):
    # The subtraction search hands the edge loop unchecked weights, and the
    # loop floor-checks every candidate: with every check failing it admits
    # none and stops after its first round.  The Lambda scan certifies
    # Schmidt number 3, so the remix is skipped and the greedy rounds run.
    omega = isotropic_state(3, 0.9)
    assert edge_decompose(omega, k=2, budget=24, seed=0).removed
    checked = []

    def failing(matrix, weight, factor):
        checked.append(weight)
        return False

    monkeypatch.setattr(schmidt, "_floor_holds", failing)
    dec = edge_decompose(omega, k=2, budget=24, seed=0)
    assert (dec.p, dec.rounds, dec.removed) == (1.0, 1, ())
    assert checked


def test_edge_decompose_falls_back_when_the_remix_fails():
    # The tiles UPB state passes the Lambda scan (floor 1), but its range
    # holds no product vector: the remix finds nothing and the greedy loop
    # runs, and removes nothing.
    omega = tiles_upb_state()
    assert sn_lower_bound(omega)[0] == 1
    dec = edge_decompose(omega, k=2, budget=50, seed=0)
    assert dec.rounds > 0
    assert dec.p == 1.0
    assert dec.removed == ()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_decompose_greedy_split_of_rank_deficient_state(seed):
    # Half a Schmidt-rank-2 state and half a product mixture: rank 5 in 3x3
    # and certified entangled, so the remix is skipped and the greedy loop
    # searches inside omega's thin support.  It sheds the product half, down
    # to the packing gap at the rank cutoff, on every seed: the subtraction
    # search must find the product members on a thin support, and none may
    # leak out of it.
    dims = BipartiteDims(3, 3)
    rng = rng_for(seed, "witness/edgegreedy")
    psi = random_sr_pure_state(rng, dims, 2)
    products = random_sr_mixture(rng, dims, 1, 4)
    omega = DensityMatrix(0.5 * psi.projector() + 0.5 * products.matrix, dims)
    assert np.linalg.matrix_rank(omega.matrix) == 5 and sn_lower_bound(omega)[0] == 2
    dec = edge_decompose(omega, k=2, budget=120, seed=0)
    assert dec.rounds > 0 and dec.p <= 0.500001
    rebuilt = (1 - dec.p) * dec.within.matrix + dec.p * dec.edge.matrix
    assert trace_distance(rebuilt, omega.matrix) <= 1e-8
    assert dec.removed and all(schmidt_rank(m) == 1 for _, m in dec.removed)
    kernel = support_kernel(omega.matrix)[2]
    for _, m in dec.removed:
        assert np.linalg.norm(kernel.conj().T @ m.amplitudes) ** 2 <= 1e-12


def test_edge_decompose_pure_high_rank():
    rng = rng_for(9, "witness/edgepure")
    dims = BipartiteDims(3, 3)
    psi = random_sr_pure_state(rng, dims, 3)
    dec = edge_decompose(DensityMatrix.from_pure(psi), k=3, budget=200, seed=0)
    assert dec.p == 1.0
    assert dec.rounds == 0
    assert dec.within is None
    assert np.linalg.norm(dec.edge.matrix - psi.projector()) <= 1e-10


def test_edge_decompose_certified_lower_class():
    mix = random_sr_mixture(rng_for(10, "witness/edgecert"), BipartiteDims(3, 3), 1, 4)
    dec = edge_decompose(mix, k=2, budget=100, seed=0)  # ensemble certifies class 1
    assert dec.p == 0.0
    assert dec.edge is None
    assert np.linalg.norm(dec.within.matrix - mix.matrix) <= 1e-10


def test_edge_remainder_resists_subtraction():
    # After the greedy split, a fresh search finds no Schmidt rank <= k-1
    # state with subtraction weight above 1e-4.
    dims = BipartiteDims(2, 2)
    # Bell state mixed with a little product noise: the edge part should
    # shed the product component.
    rng = rng_for(11, "witness/edgeres")
    bell = maximally_entangled(2)
    noise = random_sr_mixture(rng, dims, 1, 3)
    omega = DensityMatrix(0.7 * bell.projector() + 0.3 * noise.matrix, dims)
    dec = edge_decompose(omega, k=2, budget=3000, seed=0)
    assert dec.edge is not None and 0 < dec.p < 1
    lam, _ = max_subtractable(dec.edge, r=1, restarts=64, seed=1)
    assert lam <= 1e-4


@pytest.mark.parametrize("i, dims, rank", [(3, (3, 3), 9), (4, (2, 3), 6)])
def test_edge_of_general_state_resists_subtraction(i, dims, rank):
    # A generic mixed state leaves a genuine edge: once the packing barrier
    # runs down to the rank cutoff, no product state keeps a subtraction
    # weight above 1e-4 in it.
    omega = random_density_matrix(rng_for(i, "gen/recon"), BipartiteDims(*dims), rank)
    dec = edge_decompose(omega, k=2, budget=240, seed=1)
    assert dec.edge is not None and 0 < dec.p < 1
    rebuilt = (1 - dec.p) * dec.within.matrix + dec.p * dec.edge.matrix
    assert trace_distance(rebuilt, omega.matrix) <= 1e-9
    lam, _ = max_subtractable(dec.edge, r=1, restarts=64, seed=1)
    assert lam <= 1e-4


def test_edge_decompose_scale_mixture_remainder_holds_floor():
    # Pool members of this 6x6 split leak up to the search's 1e-13 kernel
    # mass; a barrier driven to the rank cutoff regardless amplified that
    # into a remainder eigenvalue of -4.1e-9 and a rebuild error of 5.5e-9.
    dims = BipartiteDims(6, 6)
    mix = random_sr_mixture(rng_for(5, "e/6"), dims, 3, 10)
    omega = DensityMatrix(mix.matrix, dims)
    dec = edge_decompose(omega, k=4, budget=240, seed=1)
    assert dec.edge is not None and 0 < dec.p < 0.558572
    assert min_eigenvalue(omega.matrix - (1 - dec.p) * dec.within.matrix) >= PSD_FLOOR
    rebuilt = (1 - dec.p) * dec.within.matrix + dec.p * dec.edge.matrix
    assert trace_distance(rebuilt, omega.matrix) <= 1e-9


def test_packing_weights_pack_a_generating_pool():
    # The generating members of a product mixture pack to total weight 1;
    # the barrier runs down to the rank cutoff, so almost none is left over.
    mix = random_sr_mixture(rng_for(1, "pack/a"), BipartiteDims(3, 3), 1, 4)
    pool = np.stack([psi.amplitudes for _, psi in mix.ensemble])
    support = support_kernel(mix.matrix)[0]
    weights = schmidt._packing_weights(mix.matrix, support, pool, np.zeros(len(pool)))
    assert np.all(weights >= 0) and weights.sum() >= 1 - 1e-6


def test_packing_weights_leaking_pool_holds_floor():
    # The same pool, each member moved out of the support by a kernel mass
    # of 9e-14, just under the search's 1e-13 floor: the barrier stops at
    # the last stage whose full remainder holds -CERT_MARGIN.
    mix = random_sr_mixture(rng_for(1, "pack/a"), BipartiteDims(3, 3), 1, 4)
    support, _, kernel = support_kernel(mix.matrix)
    pool = np.stack([psi.amplitudes for _, psi in mix.ensemble])
    pool = pool + 3e-7 * kernel[:, :len(pool)].T
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    weights = schmidt._packing_weights(mix.matrix, support, pool, np.zeros(len(pool)))
    remainder = mix.matrix - (pool.T * weights) @ pool.conj()
    assert min_eigenvalue(remainder) >= -schmidt.CERT_MARGIN
    assert weights.sum() >= 1 - 1e-3
