"""Tests for the linear-algebra substrate (dense and sparse paths)."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from picardrom import numerics
from picardrom.errors import DimensionMismatch, SingularMatrix, SvdFailure

# Accuracy the kernels are held to.
SOLVE_RTOL = 1e-10      # backward residual of well-conditioned solves
SVD_RTOL = 1e-10        # relative reconstruction error of the SVD
ORTHO_TOL = 1e-10       # orthonormality of computed factors


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
        assert numerics.norm2(a @ x - b) <= SOLVE_RTOL * numerics.norm2(b)


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


def test_svd_failure_is_reported(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    with pytest.raises(SvdFailure, match="did not converge"):
        numerics.svd(np.eye(3))


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    for rows, cols in ((200, 50), (17, 23), (6, 6)):
        a = rng.standard_normal((rows, cols))
        res = numerics.svd(a)
        recon = res.left @ np.diag(res.singular_values) @ res.right
        assert numerics.norm2(recon - a) <= SVD_RTOL * numerics.norm2(a)
        r = res.singular_values.size
        assert numerics.norm2(res.left.T @ res.left - np.eye(r)) <= ORTHO_TOL
        assert numerics.norm2(res.right @ res.right.T - np.eye(r)) <= ORTHO_TOL
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)


def test_norms():
    assert numerics.norm2([3.0, 4.0]) == 5.0
    assert numerics.norm2(np.zeros(7)) == 0.0
    assert numerics.norm2(np.eye(4)) == 2.0


def test_norms_equal_numpys_bit_for_bit():
    rng = np.random.default_rng(17)
    block = rng.standard_normal((40, 30)) * 10.0 ** rng.uniform(-5, 5, (40, 30))
    for v in (rng.standard_normal(101), block[:, 3], block[::3, 1], block.ravel()[::7],
              rng.integers(-9, 9, 13)):
        assert numerics.norm2(v) == np.linalg.norm(v)
    for a in (block, block.T, block[::2, 1::3], np.asfortranarray(block), block[:5, :0]):
        assert numerics.norm2(a) == np.linalg.norm(a, "fro")
        assert numerics.norm2(a) == np.linalg.norm(a)


def random_dominant(rng, n, density=0.2):
    """Sparse CSC matrix with random off-diagonals and a dominant diagonal."""
    off = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(off, 0.0)
    dominance = np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n)
    return scipy.sparse.csc_array(off + np.diag(dominance))


def dia_of(dense, padding=0.0):
    """DIA array of the nonzero diagonals of ``dense``: offsets ascending, one
    ``data`` column per matrix column, ``padding`` outside the matrix."""
    rows, cols = dense.shape
    offsets = [o for o in range(1 - rows, cols) if np.diagonal(dense, o).any()]
    data = np.full((len(offsets), cols), padding)
    for k, o in enumerate(offsets):
        diag = np.diagonal(dense, o)
        data[k, max(o, 0):max(o, 0) + diag.size] = diag
    return scipy.sparse.dia_array((data, np.array(offsets, dtype=int)), shape=dense.shape)


def test_as_matrix_returns_dia():
    dense = np.diag([1.0, 2.0, 3.0]) + np.diag([4.0, 5.0], -1) + np.diag([6.0], 2)
    a = dia_of(dense)
    assert numerics.as_matrix(a) is a
    descending = scipy.sparse.dia_array((a.data[::-1], a.offsets[::-1]), shape=a.shape)
    narrow = scipy.sparse.dia_array((a.data[:, :2], a.offsets), shape=a.shape)
    integer = scipy.sparse.dia_array((a.data.astype(int), a.offsets), shape=a.shape)
    for other in (scipy.sparse.csc_array(dense), scipy.sparse.csr_array(dense),
                  scipy.sparse.coo_array(dense), scipy.sparse.csr_matrix(dense),
                  descending, narrow, integer):
        converted = numerics.as_matrix(other)
        assert converted.format == "dia" and converted.dtype == np.float64
        assert list(converted.offsets) == sorted(set(converted.offsets))
        assert converted.data.shape[1] == converted.shape[1]
        expected = narrow.toarray() if other is narrow else dense
        assert np.array_equal(converted.toarray(), expected)


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
        assert numerics.norm2(a @ x - b) <= SOLVE_RTOL * numerics.norm2(b)


@st.composite
def banded_systems(draw):
    """Sparse CSC matrix with random, asymmetric bandwidths and duplicate
    entries, plus a right-hand side; the package reads it as a DIA array.

    The diagonal is nonzero and the band's outermost diagonals each hold at
    least one entry, so ``kl``/``ku`` are exactly the drawn ones.
    ``dominant`` says whether the diagonal dominates its row.
    """
    n = draw(st.integers(1, 60))
    kl = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    ku = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    dominant = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    band = (offsets <= kl) & (-offsets <= ku)
    mask = band & (rng.random((n, n)) < draw(st.floats(0.0, 1.0)))
    mask[np.arange(n), np.arange(n)] = True
    for k in (kl, -ku):
        i = rng.integers(max(k, 0), n + min(k, 0))
        mask[i, i - k] = True
    rows, cols = np.nonzero(mask)
    vals = rng.standard_normal(rows.size)
    if dominant:
        off = np.zeros((n, n))
        off[rows, cols] = vals
        off[np.arange(n), np.arange(n)] = 0.0
        vals[rows == cols] = np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n)
    # split some entries in two, so the CSC holds duplicates that must be summed
    split = rng.random(rows.size) < 0.3
    part = rng.uniform(-1.0, 2.0, split.sum()) * vals[split]
    vals[split] -= part
    rows = np.concatenate([rows, rows[split]])
    cols = np.concatenate([cols, cols[split]])
    vals = np.concatenate([vals, part])
    order = np.lexsort((rng.random(rows.size), cols))  # by column, rows shuffled
    indptr = np.searchsorted(cols[order], np.arange(n + 1))
    a = scipy.sparse.csc_array((vals[order], rows[order], indptr), shape=(n, n))
    return a, kl, ku, dominant, rng.standard_normal(n)


def backward_error(a, x, b):
    return numerics.norm2(a @ x - b) / (
        np.linalg.norm(a, 2) * numerics.norm2(x) + numerics.norm2(b))


@settings(deadline=None, max_examples=200)
@given(banded_systems())
def test_banded_lu_solves_random_band_matrices(system):
    a, kl, ku, dominant, b = system
    dense = a.toarray()  # sums the duplicate entries
    try:
        factors = numerics.lu_factorize(a)
    except SingularMatrix:
        assert not dominant
        return
    assert (factors.kl, factors.ku) == (kl, ku)
    x = numerics.lu_apply(factors, b)
    assert backward_error(dense, x, b) <= SOLVE_RTOL
    if dominant:
        x_dense = numerics.solve_dense(dense, b)
        assert numerics.norm2(x - x_dense) <= 1e-12 * max(1.0, numerics.norm2(x_dense))


@settings(deadline=None, max_examples=200)
@given(banded_systems(), st.data())
def test_banded_lu_raises_on_singular_band_matrices(system, data):
    a, _, _, dominant, _ = system
    dense = a.toarray()
    n = dense.shape[0]
    k = data.draw(st.integers(0, n - 1))
    if n == 1 or not dominant or data.draw(st.booleans()):
        dense[:, k] = 0.0
    else:
        # Another row repeats row k. Row k is zero left of its diagonal, and
        # its diagonal, a power of two, outgrows every other entry of column k
        # during elimination (growth stays below 2 on dominant rows). So both
        # copies reach step k unchanged, one becomes the pivot, and the
        # multiplier 1.0 cancels the other exactly. A repeated row in general
        # position cancels only up to rounding, and the pivot test may miss it.
        dense[k, :k] = 0.0
        dense[k, k] = 2.0 ** np.ceil(np.log2(4.0 * np.abs(dense).max()))
        other = data.draw(st.integers(0, n - 2))
        dense[other + (other >= k)] = dense[k]
    with pytest.raises(SingularMatrix):
        numerics.lu_factorize(scipy.sparse.csc_array(dense))


def assert_views_inside_band_buffer(factors):
    """Both triangle views read the buffer ``dgbtrf`` factored in place, at
    element offsets ``kl + ku`` (L) and ``kl`` (U), and end inside it."""
    buffer = factors.lub.base
    start, end = buffer.ctypes.data, buffer.ctypes.data + buffer.nbytes
    assert factors.lub.ctypes.data == start
    for view, offset in ((factors.lower, factors.kl + factors.ku), (factors.upper, factors.kl)):
        assert view.base is buffer and view.shape == factors.lub.shape
        assert view.ctypes.data == start + offset * buffer.itemsize
        assert view.ctypes.data + view.nbytes <= end


@settings(deadline=None, max_examples=200)
@given(banded_systems())
def test_banded_lu_solves_with_triangle_views_exactly_when_no_row_was_swapped(system):
    a, _, _, _, b = system
    dense = a.toarray()
    try:
        factors = numerics.lu_factorize(a)
    except SingularMatrix:
        return
    n = dense.shape[0]
    no_swaps = np.array_equal(factors.ipiv, np.arange(n))
    assert (factors.lower is not None) == no_swaps
    assert (factors.upper is not None) == no_swaps
    if no_swaps:
        assert_views_inside_band_buffer(factors)
    x = numerics.lu_apply(factors, b)
    x_ref, info = scipy.linalg.lapack.dgbtrs(factors.lub, factors.kl, factors.ku, b,
                                             factors.ipiv)
    assert info == 0
    # the two solutions differ by no more than a backward error allows
    scale = np.linalg.norm(dense, 2) * numerics.norm2(x_ref) + numerics.norm2(b)
    assert numerics.norm2(dense @ (x - x_ref)) <= SOLVE_RTOL * scale
    assert backward_error(dense, x, b) <= SOLVE_RTOL


def test_column_dominant_band_matrix_solves_with_triangle_views():
    n = 12
    dense = (np.diag(np.full(n, 4.0)) + np.diag(np.full(n - 1, -1.0), -1)
             + np.diag(np.full(n - 2, -1.5), 2))
    factors = numerics.lu_factorize(scipy.sparse.csc_array(dense))
    assert (factors.kl, factors.ku) == (1, 2)
    assert np.array_equal(factors.ipiv, np.arange(n))
    assert_views_inside_band_buffer(factors)
    b = np.linspace(-1.0, 2.0, n)
    b_before = b.copy()
    x = numerics.lu_apply(factors, b)
    assert np.array_equal(b, b_before)
    assert backward_error(dense, x, b) <= SOLVE_RTOL


def test_band_matrix_that_needs_a_row_swap_solves_with_dgbtrs():
    dense = np.array([[1e-3, 1.0], [1.0, 1.0]])
    factors = numerics.lu_factorize(scipy.sparse.csc_array(dense))
    assert not np.array_equal(factors.ipiv, np.arange(2))
    assert factors.lower is None and factors.upper is None
    b = np.array([1.0, 2.0])
    x = numerics.lu_apply(factors, b)
    assert backward_error(dense, x, b) <= SOLVE_RTOL
    assert numerics.norm2(x - np.linalg.solve(dense, b)) <= 1e-14 * numerics.norm2(x)


def factor_or_error(a):
    try:
        return numerics.lu_factorize(a)
    except SingularMatrix:
        return SingularMatrix


@settings(deadline=None, max_examples=200)
@given(banded_systems())
def test_banded_lu_is_independent_of_the_sparse_format(system):
    """The CSC draw, duplicates included, its CSR form and DIA forms with
    zero and with NaN padding factor to identical bands and pivots, and solve
    to identical vectors."""
    a, kl, ku, _, b = system
    dense = a.toarray()   # sums the duplicate entries
    forms = [a, a.tocsr(), dia_of(dense), dia_of(dense, padding=np.nan)]
    results = [factor_or_error(form) for form in forms]
    if results[0] is SingularMatrix:
        assert all(r is SingularMatrix for r in results)
        return
    x = numerics.lu_apply(results[0], b)
    for factors in results[1:]:
        assert (factors.kl, factors.ku) == (kl, ku)
        assert np.array_equal(factors.lub, results[0].lub)
        assert np.array_equal(factors.ipiv, results[0].ipiv)
        assert np.array_equal(numerics.lu_apply(factors, b), x)


def test_full_band_factors_without_a_sparse_warning():
    """A band of 119 diagonals, which scipy's own DIA conversion warns about,
    converts and factors silently."""
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((60, 60)) + 60.0 * np.eye(60)
    b = rng.standard_normal(60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factors = numerics.lu_factorize(scipy.sparse.csc_array(dense))
        x = numerics.lu_apply(factors, b)
    assert (factors.kl, factors.ku) == (59, 59)
    assert backward_error(dense, x, b) <= SOLVE_RTOL
