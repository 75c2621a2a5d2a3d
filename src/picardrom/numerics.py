"""Minimal linear-algebra substrate.

Everything here is a thin, contract-checked layer over LAPACK (via numpy and
scipy): direct solve with singularity detection, SVD, and the two norms used
throughout the package. Full-order operators are 5-point stencils in
natural order, hence band matrices of half-width ``nx``, stored as scipy
``dia_array`` (one row of ``data`` per diagonal) from assembly through
factorization to the certificate: banded LU copies each diagonal into its
LAPACK band row, with no pattern to index or cache, and factors without row
swaps solve with two BLAS triangular band solves. Reduced systems and other
small matrices stay dense and factor with LAPACK dense LU, called directly.
Both kinds go through the same :func:`lu_factorize` / :func:`lu_apply` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import DimensionMismatch, SingularMatrix, SvdFailure

# Library tolerances (read-only).
PIVOT_RTOL = 1e-14      # pivot magnitude below this (relative) is singular
RANK_RTOL = 1e-13       # singular values below this (relative) count as zero


def as_vector(data) -> np.ndarray:
    """Validate and return a finite 1-D float array."""
    v = np.asarray(data, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected nonempty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(data):
    """Validate and return a finite 2-D float matrix.

    Sparse input comes back as a ``dia_array`` with strictly ascending
    offsets and one ``data`` column per matrix column (the same object when it
    already is one, of floats); anything else comes back as a dense array.
    Only the entries inside the matrix must be finite: see :func:`diagonals`.
    """
    if scipy.sparse.issparse(data):
        a = data
        offsets = a.offsets.tolist() if a.format == "dia" else None
        if not (offsets is not None and a.data.shape[1] == a.shape[1]
                and all(o < p for o, p in zip(offsets, offsets[1:]))):
            a = _dia(a)
        a = a.astype(float, copy=False)
        finite = np.isfinite(a.data).all() or all(
            np.isfinite(d).all() for _, _, d in diagonals(a))
    else:
        a = np.asarray(data, dtype=float)
        finite = np.isfinite(a).all()
    if a.ndim != 2 or 0 in a.shape:
        raise DimensionMismatch(f"expected nonempty 2-D matrix, got shape {a.shape}")
    if not finite:
        raise ValueError("matrix entries must be finite")
    return a


def _dia(a):
    """The sparse matrix ``a`` as a new ``dia_array``: duplicates summed,
    offsets ascending, zero padding and one ``data`` column per matrix column.
    Built from its COO form directly, so a wide band converts without scipy's
    ``SparseEfficiencyWarning``."""
    coo = scipy.sparse.coo_array(a)
    coo.sum_duplicates()
    offsets, row = np.unique(coo.col - coo.row, return_inverse=True)
    values = np.zeros((offsets.size, coo.shape[1]), dtype=coo.dtype)
    values[row, coo.col] = coo.data
    return scipy.sparse.dia_array((values, offsets), shape=coo.shape)


def diagonals(a):
    """``(offset, start, values)`` for each stored diagonal of the DIA matrix
    ``a`` that reaches inside the matrix, in storage order.

    ``values`` is the view ``a.data[k, start:stop]``: entry ``a[j - offset, j]``
    for each column ``start <= j < stop`` inside the matrix. The rest of
    ``a.data``, the first ``-offset`` columns of a subdiagonal and the last
    ``offset`` of a superdiagonal, is padding that no matrix entry reads.
    """
    rows, cols = a.shape
    for offset, row in zip(a.offsets.tolist(), a.data):
        start = max(offset, 0)
        values = row[start:max(min(rows + offset, cols), 0)]
        if values.size:
            yield offset, start, values


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD of a matrix: ``left @ diag(singular_values) @ right``."""

    left: np.ndarray            # (rows, r), orthonormal columns
    singular_values: np.ndarray  # (r,), nonincreasing, nonnegative
    right: np.ndarray           # (r, cols), orthonormal rows


@dataclass(frozen=True)
class BandFactors:
    """LAPACK banded LU (``dgbtrf``) of a square matrix with ``kl`` diagonals
    below and ``ku`` above its own."""

    lub: np.ndarray   # (2*kl + ku + 1, n) band storage of L and U, Fortran order
    ipiv: np.ndarray  # row interchanges, 0-based
    kl: int
    ku: int
    lower: np.ndarray | None = None  # without row swaps: dtbsv band of unit-lower L,
    upper: np.ndarray | None = None  # and of U; views into lub's buffer


def _band_view(flat: np.ndarray, offset: int, shape: tuple[int, int]) -> np.ndarray:
    """Fortran-order ``shape`` view of ``flat`` from element ``offset`` on."""
    ldab, n = shape
    return flat[offset:offset + ldab * n].reshape(n, ldab).T


def lu_factorize(a):
    """LU-factor a square matrix, raising SingularMatrix on tiny pivots.

    Returns an opaque handle for :func:`lu_apply`; factor once, solve often.
    Dense input factors with LAPACK ``dgetrf``. Sparse input, as the DIA
    array :func:`as_matrix` returns, factors with LAPACK banded LU
    (``dgbtrf``, partial pivoting) over the band its stored diagonals span,
    ``kl`` below and ``ku`` above the main one, in place. Each diagonal's
    entries inside the matrix are copied straight into their band row. The
    band array holds ``(2*kl + ku + 1) * n`` doubles: cheap for the narrow
    bands of the stencil operators (half-width ``nx`` in natural order), but
    up to about 3x dense storage when entries lie far from the diagonal;
    factors without row swaps also carry views of it.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if scipy.sparse.issparse(a):
        diags = list(diagonals(a))
        offsets = [o for o, _, _ in diags] or [0]
        kl, ku = max(-offsets[0], 0), max(offsets[-1], 0)   # offsets ascend
        scale = np.abs(np.concatenate([d for _, _, d in diags] or [[0.0]])).max()
        # Entry a[i, j] goes to row kl + ku + i - j of column j; the top kl
        # rows stay free for the fill-in of partial pivoting, and kl + ku spare
        # zeros after the band keep the triangle views below inside the buffer.
        ldab, n = 2 * kl + ku + 1, a.shape[1]
        flat = np.zeros(ldab * n + kl + ku)
        ab = _band_view(flat, 0, (ldab, n))
        for o, start, d in diags:
            ab[kl + ku - o, start:start + d.size] = d
        lub, ipiv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
        if info < 0:
            raise ValueError(f"dgbtrf rejected argument {-info}")
        if info > 0:
            raise SingularMatrix(f"numerically singular matrix (zero pivot {info})")
        # Factored in place without row swaps, U has ku superdiagonals (its kl
        # fill rows stay zero) and L kl subdiagonals: views from offset kl + ku
        # and kl put L's diagonal in row 0 and U's in row ku.
        no_swaps = lub is ab and (ipiv == np.arange(ipiv.size, dtype=ipiv.dtype)).all()
        views = [_band_view(flat, k, lub.shape) for k in (kl + ku, kl)] if no_swaps else []
        factors = BandFactors(lub, ipiv, kl, ku, *views)
        pivots = np.abs(lub[kl + ku])
    else:
        scale = np.abs(a).max()
        # info > 0 reports an exactly zero pivot, which the check below rejects
        lu, piv, info = scipy.linalg.lapack.dgetrf(a)
        if info < 0:
            raise ValueError(f"dgetrf rejected argument {-info}")
        factors = (lu, piv)
        pivots = np.abs(np.diag(lu))
    if scale == 0.0 or (pivots < PIVOT_RTOL * scale).any():
        raise SingularMatrix("numerically singular matrix (tiny pivot)")
    return factors


def lu_apply(factors, b: np.ndarray) -> np.ndarray:
    """Solve with a handle from :func:`lu_factorize`: BLAS ``dtbsv`` on L, then
    on U, for banded factors without row swaps, else ``dgbtrs`` or ``dgetrs``."""
    banded = isinstance(factors, BandFactors)
    n = factors.lub.shape[1] if banded else factors[0].shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch("right-hand side length does not match matrix")
    if banded and factors.lower is not None:
        dtbsv = scipy.linalg.blas.dtbsv
        y = dtbsv(factors.kl, factors.lower, b, lower=1, diag=1)
        return dtbsv(factors.ku, factors.upper, y, overwrite_x=1)
    if banded:
        x, info = scipy.linalg.lapack.dgbtrs(factors.lub, factors.kl, factors.ku, b,
                                             factors.ipiv)
    else:
        x, info = scipy.linalg.lapack.dgetrs(*factors, b)
    if info < 0:
        raise ValueError(f"{'dgbtrs' if banded else 'dgetrs'} rejected argument {-info}")
    return x


def solve_dense(a, b) -> np.ndarray:
    """Solve ``a x = b`` by LU with partial pivoting; ``a`` may be sparse.

    Deterministic for identical inputs; raises SingularMatrix when pivoting
    detects numerical singularity.
    """
    return lu_apply(lu_factorize(a), as_vector(b))


def svd(a) -> SvdResult:
    """Thin SVD; raises SvdFailure if the LAPACK kernel fails."""
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(left=u, singular_values=s, right=vh)


def norm2(v) -> float:
    """Euclidean norm of the entries (the Frobenius norm, for a matrix):
    ``sqrt(x . x)`` over the float entries raveled in memory order, what
    ``np.linalg.norm`` computes for real input, bit for bit, without its
    dispatch."""
    x = np.asarray(v, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))
