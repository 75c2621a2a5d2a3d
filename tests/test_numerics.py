"""Tests for the linear-algebra substrate (dense and sparse paths)."""

import numpy as np
import pytest
import scipy.sparse

from picardrom import numerics
from picardrom.errors import DimensionMismatch, SingularMatrix


def test_solve_identity():
    x = numerics.solve_dense(np.eye(3), [1.0, 2.0, 3.0])
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=0, rtol=0)


def test_solve_diagonal():
    x = numerics.solve_dense(np.diag([2.0, 4.0]), [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0], atol=0, rtol=0)


def test_solve_spd_backward_residual():
    rng = np.random.default_rng(7)
    for _ in range(20):
        b_mat = rng.standard_normal((20, 20))
        a = b_mat @ b_mat.T + 20.0 * np.eye(20)
        b = rng.standard_normal(20)
        x = numerics.solve_dense(a, b)
        assert numerics.norm2(a @ x - b) <= numerics.SOLVE_RTOL * numerics.norm2(b)


def test_solve_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((12, 12)) + 12 * np.eye(12)
    b = rng.standard_normal(12)
    x1 = numerics.solve_dense(a, b)
    x2 = numerics.solve_dense(a.copy(), b.copy())
    assert np.array_equal(x1, x2)


def test_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        numerics.solve_dense(a, [1.0, 1.0])


def test_solve_zero_matrix_raises():
    with pytest.raises(SingularMatrix):
        numerics.solve_dense(np.zeros((3, 3)), [1.0, 0.0, 0.0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        numerics.solve_dense(np.eye(3), [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        numerics.lu_factorize(np.ones((2, 3)))


def test_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        numerics.as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        numerics.as_matrix([[np.inf, 1.0], [0.0, 1.0]])


def test_svd_diagonal():
    res = numerics.svd(np.diag([3.0, 1.0]))
    assert np.allclose(res.singular_values, [3.0, 1.0], atol=1e-14)


def test_svd_zero_matrix():
    res = numerics.svd(np.zeros((4, 3)))
    assert np.all(res.singular_values <= 1e-13)


def test_svd_rank_one():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(30)
    u *= 2.0 / numerics.norm2(u)
    v = rng.standard_normal(8)
    v /= numerics.norm2(v)
    res = numerics.svd(np.outer(u, v))
    assert abs(res.singular_values[0] - 2.0) <= 1e-12
    assert np.all(res.singular_values[1:] <= 1e-13 * res.singular_values[0])


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    for rows, cols in ((200, 50), (17, 23), (6, 6)):
        a = rng.standard_normal((rows, cols))
        res = numerics.svd(a)
        recon = res.left @ np.diag(res.singular_values) @ res.right
        assert numerics.frobenius(recon - a) <= numerics.SVD_RTOL * numerics.frobenius(a)
        r = res.singular_values.size
        assert numerics.frobenius(res.left.T @ res.left - np.eye(r)) <= numerics.ORTHO_TOL
        assert numerics.frobenius(res.right @ res.right.T - np.eye(r)) <= numerics.ORTHO_TOL
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)


def test_norms():
    assert numerics.norm2([3.0, 4.0]) == 5.0
    assert numerics.norm2(np.zeros(7)) == 0.0
    assert numerics.frobenius(np.eye(4)) == 2.0


def random_dominant(rng, n, density=0.2):
    """Sparse CSC matrix with random off-diagonals and a dominant diagonal."""
    off = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(off, 0.0)
    dominance = np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n)
    return scipy.sparse.csc_array(off + np.diag(dominance))


def test_as_matrix_keeps_csc():
    a = scipy.sparse.csc_array(np.eye(3))
    assert numerics.as_matrix(a) is a
    converted = numerics.as_matrix(scipy.sparse.csr_array(np.eye(3)))
    assert converted.format == "csc"


def test_sparse_singular_raises():
    zero_row = scipy.sparse.csc_array(np.array([[1.0, 0.0], [0.0, 0.0]]))
    exact = scipy.sparse.csc_array(np.array([[1.0, 2.0], [2.0, 4.0]]))
    for a in (zero_row, exact, scipy.sparse.csc_array((3, 3))):
        with pytest.raises(SingularMatrix):
            numerics.solve_dense(a, np.ones(a.shape[0]))


def test_sparse_tiny_pivot_raises():
    a = scipy.sparse.csc_array(np.array([[1.0, 1.0], [1.0, 1.0 + 4e-15]]))
    with pytest.raises(SingularMatrix):
        numerics.lu_factorize(a)


def test_sparse_rejects_nonfinite():
    for bad in (np.nan, np.inf):
        a = scipy.sparse.csc_array(np.array([[1.0, bad], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            numerics.as_matrix(a)
        with pytest.raises(ValueError):
            numerics.lu_factorize(a)


def test_sparse_dimension_mismatch():
    a = scipy.sparse.csc_array(np.eye(3))
    with pytest.raises(DimensionMismatch):
        numerics.solve_dense(a, [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        numerics.lu_apply(numerics.lu_factorize(a), np.ones(4))
    with pytest.raises(DimensionMismatch):
        numerics.lu_factorize(scipy.sparse.csc_array(np.ones((2, 3))))


def test_sparse_matches_dense():
    rng = np.random.default_rng(21)
    for n in (1, 5, 40, 200):
        a = random_dominant(rng, n)
        b = rng.standard_normal(n)
        x_sparse = numerics.solve_dense(a, b)
        x_dense = numerics.solve_dense(a.toarray(), b)
        assert numerics.norm2(x_sparse - x_dense) <= 1e-12 * max(1.0, numerics.norm2(x_dense))


def test_sparse_backward_residual():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_dominant(rng, 60)
        b = rng.standard_normal(60)
        factors = numerics.lu_factorize(a)
        x = numerics.lu_apply(factors, b)
        assert numerics.norm2(a @ x - b) <= numerics.SOLVE_RTOL * numerics.norm2(b)


def with_values(rng, a):
    """Dominant CSC matrix with ``a``'s sparsity pattern and fresh values."""
    mask = a.toarray() != 0.0
    off = rng.standard_normal(a.shape) * mask
    np.fill_diagonal(off, 0.0)
    dominance = np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, a.shape[0])
    b = scipy.sparse.csc_array(off + np.diag(dominance))
    assert np.array_equal(b.indptr, a.indptr) and np.array_equal(b.indices, a.indices)
    return b


def assert_reordered_matches_fresh(matrices, rng):
    """Refactoring with the previous handle solves bitwise like a fresh splu."""
    previous = numerics.lu_factorize(matrices[0])
    assert previous.columns is None
    for a in matrices[1:]:
        factors = numerics.lu_factorize(a, previous)
        assert factors.columns is not None
        assert np.array_equal(factors.columns.order, np.argsort(previous.lu.perm_c)
                              if previous.columns is None else previous.columns.order)
        fresh = numerics.lu_factorize(a)
        for _ in range(3):
            b = rng.standard_normal(a.shape[0])
            assert np.array_equal(numerics.lu_apply(factors, b),
                                  numerics.lu_apply(fresh, b))
        previous = factors


def thermal_matrices():
    """Flow and heat matrices of the thermal demo at three iterates."""
    from picardrom import problems
    prob = problems.make_coupled_problem(problems.ThermalFlowSurrogate())
    rng = np.random.default_rng(5)
    flows, heats = [], []
    for _ in range(3):
        x = rng.uniform(0.0, 0.2, prob.x0.size)
        a1, f1 = prob.assemblers[0](x, [])
        a2, _ = prob.assemblers[1](x, [numerics.solve_dense(a1, f1)])
        flows.append(a1)
        heats.append(a2)
    return flows, heats


def test_reordered_factorization_matches_fresh_on_thermal_matrices():
    rng = np.random.default_rng(17)
    for matrices in thermal_matrices():
        assert_reordered_matches_fresh(matrices, rng)


def test_reordered_factorization_matches_fresh_on_random_patterns():
    rng = np.random.default_rng(29)
    for n in (1, 7, 40, 150):
        for density in (0.05, 0.3):
            a = random_dominant(rng, n, density)
            assert_reordered_matches_fresh([a] + [with_values(rng, a) for _ in range(4)],
                                           rng)


def test_changed_pattern_gets_a_fresh_ordering():
    from picardrom import problems
    grid = problems.Grid2D(6, 9)
    u = np.linspace(0.5, 1.5, grid.n)
    eye = scipy.sparse.identity(grid.n, format="csc")
    up = (eye + problems.upwind_advection(grid, u)[0]).tocsc()
    down = (eye + problems.upwind_advection(grid, -u)[0]).tocsc()
    assert not np.array_equal(up.indices, down.indices)
    previous = numerics.lu_factorize(up)
    factors = numerics.lu_factorize(down, previous)
    assert factors.columns is None
    b = np.random.default_rng(3).standard_normal(grid.n)
    assert np.array_equal(numerics.lu_apply(factors, b),
                          numerics.lu_apply(numerics.lu_factorize(down), b))
    # a dense or differently sized matrix ignores a sparse previous handle
    small = scipy.sparse.csc_array(np.diag([2.0, 4.0]))
    assert numerics.lu_factorize(small, previous).columns is None
    assert isinstance(numerics.lu_factorize(down.toarray(), previous), tuple)


def test_reordered_path_keeps_singularity_and_length_checks():
    previous = numerics.lu_factorize(
        scipy.sparse.csc_array(np.array([[1.0, 2.0], [2.0, 5.0]])))
    for singular in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0 + 4e-15]]):
        with pytest.raises(SingularMatrix):
            numerics.lu_factorize(scipy.sparse.csc_array(np.array(singular)), previous)
    factors = numerics.lu_factorize(
        scipy.sparse.csc_array(np.array([[3.0, 2.0], [2.0, 5.0]])), previous)
    assert factors.columns is not None
    with pytest.raises(DimensionMismatch):
        numerics.lu_apply(factors, np.ones(3))
    x = numerics.lu_apply(factors, np.array([5.0, 7.0]))
    assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-15)
