"""Tensor-core operations against brute-force oracles."""

import numpy as np
import pytest

from schmlab.errors import DimensionLimitError, NumericError, ValidationError
from schmlab.linalg import (
    BipartiteDims,
    eigh,
    hermitize,
    matrix_rank,
    min_eigenvalue,
    partial_trace,
    relative_rank,
    svd,
    trace_distance,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def _random_psd(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T


# numpy.kron is the A-major product that partial_trace and the builders rely on.
def test_kron_identity():
    assert np.allclose(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal():
    out = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_flip_on_basis_vector():
    # Oracle: brute-force index expansion of (X ⊗ X)|00> = |11>.
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    big = np.kron(x, x)
    expected = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected[i * 2 + j, k * 2 + l] = x[i, k] * x[j, l]
    assert np.allclose(big, expected)
    e00 = np.zeros(4)
    e00[0] = 1.0
    assert np.allclose(big @ e00, [0, 0, 0, 1])


def test_dimension_cap():
    # The cap is on dimA * dimB, the side of every dense operator's axes.
    assert BipartiteDims(4096, 1).dimA == 4096
    assert BipartiteDims(64, 64).total == 4096
    for dims in [(4097, 1), (1, 4097), (65, 64), (300, 300)]:
        with pytest.raises(DimensionLimitError):
            BipartiteDims(*dims)


def test_kron_associativity_random():
    rng = _rng(1)
    for _ in range(5):
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        left = np.kron(np.kron(a, b), c)
        right = np.kron(a, np.kron(b, c))
        assert np.linalg.norm(left - right) <= 1e-12 * max(1.0, np.linalg.norm(left))


def test_partial_trace_product_state():
    rng = _rng(2)
    rho_a = _random_psd(rng, 3)
    rho_b = _random_psd(rng, 2)
    dims = BipartiteDims(3, 2)
    reduced = partial_trace(np.kron(rho_a, rho_b), dims, "B")
    assert np.allclose(reduced, rho_a * np.trace(rho_b))
    reduced_b = partial_trace(np.kron(rho_a, rho_b), dims, "A")
    assert np.allclose(reduced_b, rho_b * np.trace(rho_a))


def test_partial_trace_bell():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, BipartiteDims(2, 2), "B"), np.eye(2) / 2)


def test_partial_trace_block_sum_oracle():
    # Oracle: elementwise summation over the traced index.
    rng = _rng(3)
    dims = BipartiteDims(3, 2)
    m = _random_psd(rng, 6)
    expected = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for k in range(3):
            for j in range(2):
                expected[i, k] += m[i * 2 + j, k * 2 + j]
    assert np.allclose(partial_trace(m, dims, "B"), expected)
    expected_b = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for l in range(2):
            for i in range(3):
                expected_b[j, l] += m[i * 2 + j, i * 2 + l]
    assert np.allclose(partial_trace(m, dims, "A"), expected_b)


def test_partial_trace_preserves_trace():
    rng = _rng(4)
    for dims in (BipartiteDims(2, 2), BipartiteDims(3, 4), BipartiteDims(5, 2)):
        m = _random_psd(rng, dims.total)
        tr = np.trace(m)
        for side in ("A", "B"):
            assert abs(np.trace(partial_trace(m, dims, side)) - tr) <= 1e-12 * abs(tr)


def test_partial_trace_shape_error():
    with pytest.raises(ValidationError):
        partial_trace(np.eye(5), BipartiteDims(2, 2), "B")


def test_eigh_sorted_descending():
    vals, _ = eigh(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, 1.0])


def test_eigh_rank_one_projector():
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    vals, _ = eigh(np.outer(psi, psi.conj()))
    assert np.allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_eigh_reconstruction():
    rng = _rng(5)
    m = _random_hermitian(rng, 6)
    vals, vecs = eigh(m)
    assert np.linalg.norm((vecs * vals) @ vecs.conj().T - m) <= 1e-9 * np.linalg.norm(m)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitize_symmetrizes_small_noise():
    m = np.eye(2) + 1e-12 * np.array([[0, 1], [0, 0]])
    out = hermitize(m)
    assert np.allclose(out, out.conj().T)


def test_svd_identity_and_rank_one():
    _, s, _ = svd(np.eye(3))
    assert np.allclose(s, np.ones(3))
    u = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    v = np.array([1, -1, 0], dtype=complex) / np.sqrt(2)
    _, s, _ = svd(np.outer(u, v.conj()))
    assert np.allclose(s, [1.0, 0.0], atol=1e-12)


def test_svd_reconstruction():
    rng = _rng(6)
    m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    u, s, vh = svd(m)
    assert np.linalg.norm((u * s) @ vh - m) <= 1e-9 * np.linalg.norm(m)


@pytest.mark.parametrize("n", range(2, 13))
def test_factorization_residuals_random_suite(n):
    # 100 random inputs per shape for both factorizations.
    rng = _rng(100 + n)
    for _ in range(100):
        h = _random_hermitian(rng, n)
        vals, vecs = eigh(h)
        assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) \
            <= 1e-9 * max(1.0, np.linalg.norm(h))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u, s, vh = svd(m)
        assert np.linalg.norm((u * s) @ vh - m) <= 1e-9 * max(1.0, np.linalg.norm(m))


def test_min_eigenvalue_psd_diag():
    assert min_eigenvalue(np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert min_eigenvalue(np.diag([1.0, -0.5])) == pytest.approx(-0.5)


def test_min_eigenvalue_scaled_state():
    # rho - 2 rho = -rho, so the minimum is minus the largest eigenvalue.
    rng = _rng(7)
    rho = _random_psd(rng, 4)
    rho /= np.trace(rho).real
    top = float(np.linalg.eigvalsh(rho)[-1])
    assert min_eigenvalue(rho - 2 * rho) == pytest.approx(-top, abs=1e-12)


def test_matrix_rank_cutoff():
    assert matrix_rank(np.diag([1.0, 1e-5, 1e-12])) == 2
    assert matrix_rank(np.zeros((3, 3))) == 0


def test_relative_rank_counts_at_the_cutoff_of_the_largest():
    assert relative_rank(np.array([2.0, 2e-8, 1.9e-8, 0.0])) == 2
    assert relative_rank(np.array([0.0, 0.0])) == 0
    assert relative_rank(np.zeros(0)) == 0


def test_trace_distance():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
