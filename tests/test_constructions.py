"""Rotation-group example states, Fourier families and the isotropic family."""

import inspect
import warnings

import numpy as np
import pytest

from schmlab.constructions import (
    FourierVector,
    RotationGrid,
    build_rotation_state,
    build_sn_k_state,
    fourier_profile,
    isotropic_state,
    isotropic_threshold,
    orthogonal_fourier_family,
    rotation_erosion_sweep,
    rotation_unitary,
)
from schmlab.errors import ValidationError
from schmlab.linalg import BipartiteDims
from schmlab.schmidt import (
    certify,
    ensemble_max_sr,
    sn_lower_bound,
    sn_upper_bound,
)
from schmlab.states import DensityMatrix, maximally_entangled, schmidt_rank


def test_rotation_unitary_identity():
    assert np.allclose(rotation_unitary(0.0, 3), np.eye(7))


def test_rotation_unitary_group_law():
    x, y = 0.7, 2.9
    left = rotation_unitary(x, 2) @ rotation_unitary(y, 2)
    right = rotation_unitary((x + y) % (2 * np.pi), 2)
    assert np.linalg.norm(left - right) <= 1e-12


def test_rotation_unitary_mode_action():
    # |k=1> sits at index m+1 and picks up the phase e^{ix}.
    m, x = 2, 1.1
    e = np.zeros(2 * m + 1, dtype=complex)
    e[m + 1] = 1.0
    out = rotation_unitary(x, m) @ e
    assert np.allclose(out, np.exp(1j * x) * e)


def test_fourier_vector_validation():
    with pytest.raises(ValidationError):
        FourierVector(np.ones(5), mode_cutoff=1)  # wrong length
    with pytest.raises(ValidationError):
        FourierVector(np.ones(3), mode_cutoff=1)  # not normalized


def test_orthogonal_family_single():
    fam = orthogonal_fourier_family(1, 3)
    assert np.allclose(fam[0].coefficients, fourier_profile(3).coefficients)


def test_orthogonal_family_gram():
    fam = orthogonal_fourier_family(3, 4)
    stack = np.stack([v.coefficients for v in fam], axis=1)
    gram = stack.conj().T @ stack
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-10


def test_orthogonal_family_nonvanishing():
    for k, m in ((2, 2), (3, 4), (4, 5)):
        for v in orthogonal_fourier_family(k, m):
            assert v.min_coefficient() >= 1e-6


def test_rotation_state_single_point():
    phi = fourier_profile(2)
    state = build_rotation_state(phi, phi, RotationGrid(points=1))
    expected = np.outer(np.kron(phi.coefficients, phi.coefficients),
                        np.kron(phi.coefficients, phi.coefficients).conj())
    assert np.linalg.norm(state.matrix - expected) <= 1e-12


def test_rotation_state_separable():
    phi = fourier_profile(2)
    for n in (5, 8):
        state = build_rotation_state(phi, phi, RotationGrid(points=n))
        lower, _ = sn_lower_bound(state)
        assert lower == 1
        assert ensemble_max_sr(state.ensemble) == 1


def test_rotation_state_discrete_symmetry():
    # Invariance under conjugation by V_{2 pi / N} ⊗ V_{2 pi / N}.
    phi = fourier_profile(3)
    n = 8
    state = build_rotation_state(phi, phi, RotationGrid(points=n))
    step = 2 * np.pi / n
    u = np.kron(rotation_unitary(step, 3), rotation_unitary(step, 3))
    rotated = u @ state.matrix @ u.conj().T
    assert np.linalg.norm(rotated - state.matrix) <= 1e-9


def test_erosion_trend():
    rows = rotation_erosion_sweep(3, [4, 8, 16], samples=40, seed=0)
    values = [row["max_subtraction"] for row in rows]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier * 1.10
    # Oracle: each level's optimum is at least the best generating member.
    for row in rows:
        assert row["max_subtraction"] >= row["member_best"] - 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_erosion_sweep_optimizer_reaches_the_members(seed):
    # The generating members are subtractable product states, so the
    # optimized weight must reach the best of them on every grid; at grid 8
    # a search that misses them stops at 0.124375 < 0.125.
    rows = rotation_erosion_sweep(3, [4, 8, 16, 32], samples=50, seed=seed)
    for row in rows:
        assert row["optimized"] >= row["member_best"] - 1e-12


@pytest.mark.parametrize("m", range(4, 13))
def test_rotation_rows_reach_the_members_weight(m):
    # On the full circle from 4m+1 points on, the members' weight is
    # exactly 1/(4m+1); the searched product weight must reach it from
    # m = 4 on.  Rows m = 1-3 still stop below it.
    row = rotation_erosion_sweep(m, [4 * m + 1], samples=64, seed=1)[0]
    assert -1e-9 <= row["optimized"] - 1 / (4 * m + 1) <= 1e-7


def test_erosion_sweep_matches_checking_every_row(monkeypatch):
    # The sweep floor-checks its candidates and its generating members only
    # until the heaviest that holds; its rows equal those of a sweep that
    # checks every row.
    from schmlab import linalg, schmidt
    from schmlab.constructions import PROFILE_DECAY
    from schmlab.sampling import derive_seed
    from test_witness import counted_floor_checks, heavier_failing

    grids, samples, seed = [4, 8], 20, 1
    phi = fourier_profile(3, PROFILE_DECAY)
    expected, bound = [], 0
    for n in grids:
        state = build_rotation_state(phi, phi, RotationGrid(points=n))
        support, vals = spectral = linalg.support_kernel(state.matrix)[:2]
        rows, _ = schmidt._subtractable_candidates(
            state.matrix, spectral, state.dims, 1, samples, derive_seed(seed, f"erosion/{n}"))
        tr = float(np.trace(state.matrix).real)
        weights = schmidt._unchecked_weights((support, vals / tr), rows[:, :, None])
        every = schmidt._subtraction_weights(state.matrix / tr, (support, vals / tr),
                                             rows[:, :, None])
        members = np.stack([psi.amplitudes for _, psi in state.ensemble])[:, :, None]
        member_every = schmidt._subtraction_weights(state.matrix, spectral, members)
        lam, member_best = float(np.max(every, initial=0.0)), member_every.max()
        expected.append({"grid": n, "max_subtraction": float(max(lam, member_best)),
                         "optimized": lam, "member_best": float(member_best)})
        bound += heavier_failing(weights, every) + 1
        bound += heavier_failing(schmidt._unchecked_weights(spectral, members), member_every) + 1
    checked = counted_floor_checks(monkeypatch)
    assert rotation_erosion_sweep(3, grids, samples=samples, seed=seed) == expected
    assert len(checked) <= bound


def test_erosion_sweep_refuses_negative_samples_before_any_work(monkeypatch):
    from schmlab import constructions

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(constructions, "build_rotation_state", no_work)
    with pytest.raises(ValidationError, match="sample count must be >= 0"):
        rotation_erosion_sweep(3, [13], samples=-1)


def test_sn_k_state_single_point_is_seed():
    left = orthogonal_fourier_family(2, 2, seed=0)
    right = orthogonal_fourier_family(2, 2, seed=1)
    state = build_sn_k_state(left, right, RotationGrid(points=1, arc=1 / 16))
    vals = np.linalg.eigvalsh(state.matrix)
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)  # pure seed
    assert ensemble_max_sr(state.ensemble) == 2
    assert schmidt_rank(state.ensemble[0][1]) == 2


def test_sn_k_state_upper_bound_from_ensemble():
    left = orthogonal_fourier_family(2, 2, seed=0)
    right = orthogonal_fourier_family(2, 2, seed=1)
    for n_points in (4, 8):
        state = build_sn_k_state(left, right,
                                 RotationGrid(points=n_points, arc=1 / 16))
        upper, _ = sn_upper_bound(state, budget=0)
        assert upper <= 2


def test_sn_k_state_lower_bound_large_n():
    left = orthogonal_fourier_family(2, 2, seed=0)
    right = orthogonal_fourier_family(2, 2, seed=1)
    state = build_sn_k_state(left, right, RotationGrid(points=8, arc=1 / 16))
    lower, _ = sn_lower_bound(state)
    assert lower == 2


def test_sn_k_state_lower_never_exceeds_k():
    left = orthogonal_fourier_family(3, 3, seed=2)
    right = orthogonal_fourier_family(3, 3, seed=3)
    for n, points in ((2, 4), (16, 8)):
        state = build_sn_k_state(left, right, RotationGrid(points=points, arc=1 / n))
        lower, _ = sn_lower_bound(state)
        assert lower <= 3


def test_sn_k_state_rejects_nonorthogonal():
    phi = fourier_profile(2)
    with pytest.raises(ValidationError):
        build_sn_k_state([phi, phi], [phi, phi], RotationGrid(points=2, arc=0.5))


def ensemble_bytes(state):
    return (state.matrix.tobytes(),
            [(np.float64(w).tobytes(), psi.amplitudes.tobytes()) for w, psi in state.ensemble])


def test_rotation_state_is_the_k1_sn_k_state():
    # One member loop builds both families: the rotation state is the k = 1
    # rank-k state byte for byte, and both match the average of rotated
    # product states (V_x phi1) ⊗ (V_x phi2) written out here.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # coarse grids warn by design
        for m in range(5):
            dims = BipartiteDims(2 * m + 1, 2 * m + 1)
            modes = np.arange(-m, m + 1)
            for phi1, phi2 in ((fourier_profile(m), fourier_profile(m)),
                               (fourier_profile(m), fourier_profile(m, 0.4))):
                for arc in (1.0, 0.5, 1 / 16):
                    for points in range(1, 33):
                        grid = RotationGrid(points=points, arc=arc)
                        rotation = build_rotation_state(phi1, phi2, grid)
                        snk = build_sn_k_state([phi1], [phi2], grid)
                        assert rotation.dims == snk.dims == dims
                        assert ensemble_bytes(rotation) == ensemble_bytes(snk)
                        reference = []
                        for x in grid.xs():
                            phases = np.exp(1j * x * modes)
                            vec = np.kron(phases * phi1.coefficients,
                                          phases * phi2.coefficients)
                            reference.append((vec / np.linalg.norm(vec)).tobytes())
                        assert [amp for _, amp in ensemble_bytes(rotation)[1]] == reference


@pytest.mark.parametrize("builder", ["rotation", "snk"])
def test_aliasing_warning_names_the_callers_line(builder):
    # Both builders share one member loop, and the warning still points at
    # the line that called the builder, not at the builders' module.
    phi = fourier_profile(2)
    left = orthogonal_fourier_family(2, 2, seed=0)
    right = orthogonal_fourier_family(2, 2, seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if builder == "rotation":
            build_rotation_state(phi, phi, RotationGrid(points=3))
            line = inspect.currentframe().f_lineno - 1
        else:
            build_sn_k_state(left, right, RotationGrid(points=3, arc=1 / 16))
            line = inspect.currentframe().f_lineno - 1
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]
    assert "grid of 3 points under-resolves modes up to 2" in str(caught[0].message)


def test_isotropic_extremes():
    d = 3
    mixed = isotropic_state(d, 1.0 / d ** 2)
    assert np.linalg.norm(mixed.matrix - np.eye(d * d) / d ** 2) <= 1e-12
    assert sn_lower_bound(mixed)[0] == 1
    pure = isotropic_state(d, 1.0)
    assert np.linalg.norm(pure.matrix
                          - maximally_entangled(d).projector()) <= 1e-12
    assert sn_lower_bound(pure)[0] == d


def isotropic_lambda_min(d, fidelity, t):
    """Closed-form spectrum of (Id ⊗ Lambda_t) on the isotropic family.

    The output is (1/d) I - t omega_F, whose eigenvalues are 1/d - t F on
    the maximally entangled direction and 1/d - t (1-F)/(d^2-1) elsewhere.
    """
    return min(1.0 / d - t * fidelity,
               1.0 / d - t * (1.0 - fidelity) / (d * d - 1.0))


def test_isotropic_threshold_matches_closed_form():
    d = 3
    for k in (1, 2):
        found = isotropic_threshold(d, k)
        assert abs(found - k / d) <= 0.01
        # Oracle: bisection of the closed-form minimum eigenvalue.
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if isotropic_lambda_min(d, mid, 1.0 / k) < -1e-9:
                hi = mid
            else:
                lo = mid
        oracle = 0.5 * (lo + hi)
        assert abs(found - oracle) <= 2e-3


def test_constructed_states_are_valid():
    phi = fourier_profile(2)
    states = [
        build_rotation_state(phi, phi, RotationGrid(points=6)),
        isotropic_state(3, 0.5),
    ]
    for state in states:
        assert isinstance(state, DensityMatrix)
        assert state.psd_slack >= -1e-9
        assert abs(np.trace(state.matrix).real - 1.0) <= 1e-10


def test_certify_snk_full():
    left = orthogonal_fourier_family(2, 2, seed=0)
    right = orthogonal_fourier_family(2, 2, seed=1)
    state = build_sn_k_state(left, right, RotationGrid(points=8, arc=1 / 16))
    cert = certify(state, budget=50, seed=0)
    assert (cert.lower, cert.upper) == (2, 2)


def test_grid_validation_and_warning():
    with pytest.raises(ValidationError):
        RotationGrid(points=0)
    assert RotationGrid(points=4096).points == 4096
    with pytest.raises(ValidationError, match="capped at 4096, got 4097"):
        RotationGrid(points=4097)
    with pytest.raises(ValidationError):
        RotationGrid(points=4, arc=0.0)
    phi = fourier_profile(3)
    with pytest.warns(UserWarning):
        build_rotation_state(phi, phi, RotationGrid(points=3))


def test_full_circle_grid_is_exact_from_4m_plus_1_points():
    # At m = 3 the phases reach |k+l-k'-l'| = 12, so 13 points give the
    # group average exactly and 12 points do not.
    phi = fourier_profile(3)
    with pytest.warns(UserWarning, match="grid of 12 points under-resolves modes up to 3"):
        coarse = build_rotation_state(phi, phi, RotationGrid(points=12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = build_rotation_state(phi, phi, RotationGrid(points=13))
    fine = build_rotation_state(phi, phi, RotationGrid(points=32))
    assert np.max(np.abs(exact.matrix - fine.matrix)) <= 1e-12
    assert np.max(np.abs(coarse.matrix - fine.matrix)) > 1e-4
    # A short arc is never exact and keeps the 2m+1 rule.
    left = orthogonal_fourier_family(2, 3, seed=0)
    right = orthogonal_fourier_family(2, 3, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_sn_k_state(left, right, RotationGrid(points=7, arc=1 / 16))
    with pytest.warns(UserWarning, match="grid of 6 points"):
        build_sn_k_state(left, right, RotationGrid(points=6, arc=1 / 16))
