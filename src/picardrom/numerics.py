"""Minimal linear-algebra substrate.

Everything here is a thin, contract-checked layer over LAPACK (via numpy and
scipy): banded LU with singularity detection, SVD, and the two norms used
throughout the package. Full-order operators are 5-point stencils in
natural order, hence band matrices of half-width ``nx``, stored as scipy
``dia_array`` (one row of ``data`` per diagonal) from assembly through
factorization to the certificate: banded LU copies each diagonal into its
LAPACK band row, with no pattern to index or cache, and factors without row
swaps solve with two BLAS triangular band solves. :func:`as_matrix` reads
every matrix, dense input included, as the band of its nonzero diagonals,
so the package handles one matrix type. The reduced systems are
:mod:`pod`'s own to solve.
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
    """Validate and return a finite 2-D float matrix as a ``dia_array``.

    The result has strictly ascending offsets and one ``data`` column per
    matrix column; it is ``data`` itself when that already is one, of floats.
    Dense input and other sparse formats are converted by :func:`_dia`. Only
    the entries inside the matrix must be finite: see :func:`diagonals`.
    """
    a = data if scipy.sparse.issparse(data) else np.asarray(data, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        raise DimensionMismatch(f"expected nonempty 2-D matrix, got shape {a.shape}")
    offsets = a.offsets.tolist() if getattr(a, "format", None) == "dia" else None
    if not (offsets is not None and a.data.shape[1] == a.shape[1]
            and all(o < p for o, p in zip(offsets, offsets[1:]))):
        a = _dia(a)
    a = a.astype(float, copy=False)
    if not (np.isfinite(a.data).all() or all(
            np.isfinite(d).all() for _, _, d in diagonals(a))):
        raise ValueError("matrix entries must be finite")
    return a


def _dia(a):
    """The dense or sparse matrix ``a`` as a new ``dia_array`` of its nonzero
    entries: duplicates summed, offsets ascending, zero padding and one
    ``data`` column per matrix column. Built from its (row, column, value)
    triplets directly, so a wide band converts without scipy's
    ``SparseEfficiencyWarning``: a sparse matrix's COO form, or a dense
    array's ``np.nonzero``, which has no duplicates to sum."""
    if scipy.sparse.issparse(a):
        coo = scipy.sparse.coo_array(a)
        coo.sum_duplicates()
        rows, cols, entries = coo.row, coo.col, coo.data
    else:
        rows, cols = np.nonzero(a)
        entries = a[rows, cols]
    offsets, slot = np.unique(cols - rows, return_inverse=True)
    values = np.zeros((offsets.size, a.shape[1]), dtype=entries.dtype)
    values[slot, cols] = entries
    return scipy.sparse.dia_array((values, offsets), shape=a.shape)


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


def lu_factorize(a) -> BandFactors:
    """LU-factor a square matrix, raising SingularMatrix on tiny pivots.

    Returns the handle for :func:`lu_apply`; factor once, solve often.
    The input is read as the DIA array :func:`as_matrix` returns and factors
    with LAPACK banded LU (``dgbtrf``, partial pivoting) over the band its
    stored diagonals span, ``kl`` below and ``ku`` above the main one, in
    place. Each diagonal's entries inside the matrix are copied straight
    into their band row. The band array holds
    ``(2*kl + ku + 1) * n`` doubles: cheap for the narrow bands of the
    stencil operators (half-width ``nx`` in natural order), but up to about
    3x dense storage when entries lie far from the diagonal; factors without
    row swaps also carry views of it.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    diags = list(diagonals(a))
    offsets = [o for o, _, _ in diags] or [0]
    kl, ku = max(-offsets[0], 0), max(offsets[-1], 0)   # offsets ascend
    scale = max((np.abs(d).max() for _, _, d in diags), default=0.0)
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
    if scale == 0.0 or (np.abs(lub[kl + ku]) < PIVOT_RTOL * scale).any():
        raise SingularMatrix("numerically singular matrix (tiny pivot)")
    # Factored in place without row swaps, U has ku superdiagonals (its kl
    # fill rows stay zero) and L kl subdiagonals: views from offset kl + ku
    # and kl put L's diagonal in row 0 and U's in row ku.
    no_swaps = lub is ab and (ipiv == np.arange(ipiv.size, dtype=ipiv.dtype)).all()
    views = [_band_view(flat, k, lub.shape) for k in (kl + ku, kl)] if no_swaps else []
    return BandFactors(lub, ipiv, kl, ku, *views)


def lu_apply(factors: BandFactors, b: np.ndarray) -> np.ndarray:
    """Solve with the factors from :func:`lu_factorize`: BLAS ``dtbsv`` on L,
    then on U, when no row was swapped, else LAPACK ``dgbtrs``."""
    b = np.asarray(b, dtype=float)
    if b.shape != (factors.lub.shape[1],):
        raise DimensionMismatch("right-hand side length does not match matrix")
    if factors.lower is not None:
        dtbsv = scipy.linalg.blas.dtbsv
        y = dtbsv(factors.kl, factors.lower, b, lower=1, diag=1)
        return dtbsv(factors.ku, factors.upper, y, overwrite_x=1)
    x, info = scipy.linalg.lapack.dgbtrs(factors.lub, factors.kl, factors.ku, b,
                                         factors.ipiv)
    if info < 0:
        raise ValueError(f"dgbtrs rejected argument {-info}")
    return x


def svd(a) -> SvdResult:
    """Thin SVD of a finite, nonempty, dense 2-D array, such as the snapshot
    matrix of :func:`pod.build_basis_svd`; raises SvdFailure if the LAPACK
    kernel fails."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        raise DimensionMismatch(f"expected nonempty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
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
