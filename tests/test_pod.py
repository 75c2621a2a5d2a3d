"""Tests for snapshot management and the reduced-order model."""

import numpy as np
import pytest
import scipy.sparse

from picardrom import coupling, numerics, pod
from picardrom.errors import DimensionMismatch, SingularReducedSystem, TooFewSnapshots


def _window(columns, capacity=None):
    w = pod.SnapshotWindow(capacity or len(columns))
    for c in columns:
        w.push(c)
    return w


def test_fifo_eviction():
    a, b, c = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])
    w = pod.SnapshotWindow(2)
    w.push(a)
    w.push(b)
    w.push(c)
    assert len(w) == 2
    assert np.array_equal(w.matrix(), np.column_stack([b, c]))


def test_fifo_keeps_last_capacity():
    rng = np.random.default_rng(0)
    cols = [rng.standard_normal(4) for _ in range(7)]
    w = _window(cols, capacity=5)
    assert len(w) == 5
    assert np.array_equal(w.matrix(), np.column_stack(cols[2:]))


def test_push_dimension_mismatch():
    w = _window([np.array([1.0, 2.0])], capacity=3)
    with pytest.raises(DimensionMismatch):
        w.push(np.array([1.0, 2.0, 3.0]))


def test_build_basis_requires_two_snapshots():
    w = _window([np.array([1.0, 2.0])], capacity=3)
    with pytest.raises(TooFewSnapshots):
        pod.build_basis_svd(w, 1e-7)


def test_identical_snapshots_degenerate_to_mean():
    u = np.array([1.0, 2.0, 3.0])
    w = _window([u, u.copy(), u.copy()])
    basis = pod.build_basis_svd(w, 1e-7)
    assert basis.size == 0
    assert np.allclose(basis.mean, u, atol=1e-15)
    sol = pod.rom_solve(basis, np.eye(3), np.zeros(3))
    assert np.array_equal(sol.full_field, basis.mean)


def test_rank_one_family_gives_m_one():
    rng = np.random.default_rng(1)
    mean = rng.standard_normal(40)
    w_dir = rng.standard_normal(40)
    window = _window([mean + rng.standard_normal() * w_dir for _ in range(6)])
    basis = pod.build_basis_svd(window, 1e-7)
    assert basis.size == 1
    v = basis.basis
    for u in window.matrix().T:
        centered = u - basis.mean
        proj_err = numerics.norm2(centered - v @ (v.T @ centered))
        assert proj_err <= 1e-10 * max(1.0, numerics.norm2(u))


def test_energy_truncation_sigma_211():
    # centered singular values (2, 1, 1); threshold 0.75 -> cumulative 4/6, 5/6 -> M=2
    rng = np.random.default_rng(2)
    n, k = 12, 4
    u, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    ones = np.ones((k, 1)) / np.sqrt(k)
    proj = np.eye(k) - ones @ ones.T
    q, _ = np.linalg.qr(proj @ rng.standard_normal((k, 3)))
    centered = u @ np.diag([2.0, 1.0, 1.0]) @ q.T  # columns sum to zero
    mean = rng.standard_normal(n)
    window = _window([mean + centered[:, j] for j in range(k)])
    assert np.allclose(np.sort(np.linalg.svd(centered, compute_uv=False))[::-1][:3],
                       [2.0, 1.0, 1.0], atol=1e-12)
    basis = pod.build_basis_svd(window, 0.5)
    assert basis.size == 2


def test_energy_monotonicity():
    rng = np.random.default_rng(3)
    window = _window([rng.standard_normal(30) for _ in range(8)])
    sizes = [pod.build_basis_svd(window, e).size for e in (0.9, 0.5, 0.1, 1e-3, 1e-7)]
    assert sizes == sorted(sizes)


def test_basis_orthonormality():
    rng = np.random.default_rng(4)
    window = _window([rng.standard_normal(50) for _ in range(5)])
    basis = pod.build_basis_svd(window, 1e-7)
    gram = basis.basis.T @ basis.basis
    assert numerics.norm2(gram - np.eye(basis.size)) <= 1e-9


def test_rom_solve_exact_when_solution_in_span():
    rng = np.random.default_rng(6)
    n = 15
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    mean = rng.standard_normal(n)
    window = _window([mean + rng.standard_normal() * rng.standard_normal(n)
                      for _ in range(4)])
    basis = pod.build_basis_svd(window, 1e-9)
    u = basis.mean + basis.basis @ rng.standard_normal(basis.size)
    f = a @ u
    sol = pod.rom_solve(basis, a, f)
    assert sol.residual_norm <= 1e-9 * numerics.norm2(f)
    # the reduced solution lies in the affine span: projecting it changes nothing
    v, full = basis.basis, sol.full_field
    assert np.allclose(v @ (v.T @ (full - basis.mean)) + basis.mean, full,
                       atol=1e-12, rtol=0)


def test_rom_solve_full_basis_matches_direct():
    rng = np.random.default_rng(7)
    n = 10
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    f = rng.standard_normal(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    basis = pod.ReducedBasis(basis=q, mean=np.zeros(n),
                             singular_values=np.ones(n))
    sol = pod.rom_solve(basis, a, f)
    assert np.allclose(sol.full_field, numerics.solve_dense(a, f), atol=1e-9)


def test_rom_error_bound():
    # with one system and L_1 = 1 the step bound is ||A^{-1}|| * ||r||
    g = coupling.DependenceGraph(1, l_consts=[0.0, 1.0])
    assert coupling.delta_single(g, 1, 2.0, 0.5) == 1.0
    assert coupling.delta_single(g, 1, 3.0, 0.0) == 0.0
    rng = np.random.default_rng(8)
    for _ in range(25):
        b = rng.standard_normal((10, 10))
        a = b @ b.T + 10 * np.eye(10)
        inv_norm = 1.0 / np.linalg.svd(a, compute_uv=False)[-1]
        f = rng.standard_normal(10)
        u_exact = numerics.solve_dense(a, f)
        u_rb = u_exact + 0.1 * rng.standard_normal(10)
        r = numerics.norm2(a @ u_rb - f)
        assert numerics.norm2(u_exact - u_rb) <= coupling.delta_single(g, 1, inv_norm, r) + 1e-9


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_rom_solve_refuses_a_singular_projection_of_a_nonsingular_operator(sparse):
    """A skew-symmetric A has v^T A v = 0 for every v: nonsingular in full
    order, its one-column projection is the zero matrix."""
    a = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert abs(np.linalg.det(a)) == 1.0
    if sparse:
        a = scipy.sparse.csr_matrix(a)
    basis = pod.ReducedBasis(basis=np.eye(4)[:, :1], mean=np.zeros(4),
                             singular_values=np.ones(1))
    with pytest.raises(SingularReducedSystem):
        pod.rom_solve(basis, a, np.ones(4))
