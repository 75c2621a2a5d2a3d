"""Minimal linear-algebra substrate.

Everything here is a thin, contract-checked layer over LAPACK (via numpy and
scipy): direct solve with singularity detection, SVD, and the two norms used
throughout the package. Full-order operators are sparse CSC 5-point stencils
in natural order, hence band matrices of half-width ``nx``; they factor with
LAPACK banded LU. The band layout of a pattern is cached by the exact
pattern, so a matrix that repeats an earlier pattern with new values only
scatters the values; factors without row swaps solve with two BLAS
triangular band solves. Reduced systems and other small matrices stay dense
and factor with LAPACK dense LU, called directly. Both kinds go through the
same :func:`lu_factorize` / :func:`lu_apply` pair.
"""

from __future__ import annotations

import functools
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

    Sparse input comes back as CSC (the same object when it already is CSC
    of floats); anything else comes back as a dense array.
    """
    if scipy.sparse.issparse(data):
        a = data.tocsc().astype(float, copy=False)
        values = a.data
    else:
        a = values = np.asarray(data, dtype=float)
    if a.ndim != 2 or 0 in a.shape:
        raise DimensionMismatch(f"expected nonempty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(values).all():
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD of a matrix: ``left @ diag(singular_values) @ right``."""

    left: np.ndarray            # (rows, r), orthonormal columns
    singular_values: np.ndarray  # (r,), nonincreasing, nonnegative
    right: np.ndarray           # (r, cols), orthonormal rows


@dataclass(frozen=True)
class BandLayout:
    """Where the stored entries of one CSC pattern go in LAPACK band storage.

    ``index[e]`` is the position of stored entry ``e`` in the flat ``(n, ldab)``
    band array, ``ldab = 2*kl + ku + 1``. A layout holds for every matrix with
    the same shape, ``indptr`` and ``indices``, whatever its values.
    """

    index: np.ndarray
    kl: int
    ku: int


@dataclass(frozen=True)
class BandFactors:
    """LAPACK banded LU (``dgbtrf``) of a square matrix, and its band layout."""

    lub: np.ndarray   # (2*kl + ku + 1, n) band storage of L and U, Fortran order
    ipiv: np.ndarray  # row interchanges, 0-based
    layout: BandLayout
    lower: np.ndarray | None = None  # without row swaps: dtbsv band of unit-lower L,
    upper: np.ndarray | None = None  # and of U; views into lub's buffer

    @property
    def kl(self) -> int:
        return self.layout.kl

    @property
    def ku(self) -> int:
        return self.layout.ku


@functools.lru_cache(maxsize=8)
def _band_layout(shape: tuple[int, int], dtype: np.dtype, indptr: bytes,
                 indices: bytes) -> BandLayout:
    """Band layout of the CSC pattern whose ``indptr`` and ``indices`` hold
    these bytes of index ``dtype``, cached by that exact pattern; its
    ``index`` is read-only."""
    cols = np.repeat(np.arange(shape[1]), np.diff(np.frombuffer(indptr, dtype)))
    offsets = np.frombuffer(indices, dtype) - cols
    kl = max(int(offsets.max(initial=0)), 0)
    ku = max(int(-offsets.min(initial=0)), 0)
    index = cols * (2 * kl + ku + 1) + (kl + ku) + offsets
    index.setflags(write=False)
    return BandLayout(index, kl, ku)


def _band(a) -> tuple[np.ndarray, BandLayout]:
    """Flat LAPACK band storage of the CSC matrix ``a``, duplicates summed.

    Entry ``a[i, j]`` goes to row ``kl + ku + i - j`` of column ``j``; the
    top ``kl`` rows are left free for the fill-in of partial pivoting. The
    band is followed by ``kl + ku`` spare zeros that keep views offset by up
    to that many entries inside. The layout comes from :func:`_band_layout`.
    """
    dtype = a.indices.dtype
    layout = _band_layout(a.shape, dtype, a.indptr.astype(dtype, copy=False).tobytes(),
                          a.indices.tobytes())
    kl, ku = layout.kl, layout.ku
    flat = np.bincount(layout.index, weights=a.data,
                       minlength=(2 * kl + ku + 1) * a.shape[1] + kl + ku)
    return flat, layout


def _band_view(flat: np.ndarray, offset: int, shape: tuple[int, int]) -> np.ndarray:
    """Fortran-order ``shape`` view of ``flat`` from element ``offset`` on."""
    ldab, n = shape
    return flat[offset:offset + ldab * n].reshape(n, ldab).T


def lu_factorize(a):
    """LU-factor a square matrix, raising SingularMatrix on tiny pivots.

    Returns an opaque handle for :func:`lu_apply`; factor once, solve often.
    Dense input factors with LAPACK ``dgetrf``. Sparse input factors with
    LAPACK banded LU (``dgbtrf``, partial pivoting) over the band its pattern
    spans, ``kl = max(i - j)`` below and ``ku = max(j - i)`` above the
    diagonal, in place. The band array holds ``(2*kl + ku + 1) * n`` doubles:
    cheap for the narrow bands of the stencil operators (half-width ``nx`` in
    natural order), but up to about 3x dense storage when entries lie far
    from the diagonal; factors without row swaps also carry views of it.
    The band layout is cached per exact pattern (shape, index dtype,
    ``indptr`` and ``indices``), so a matrix that repeats a recent pattern
    with new values only scatters its values.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if scipy.sparse.issparse(a):
        scale = np.abs(a.data).max(initial=0.0)
        flat, layout = _band(a)
        kl, ku = layout.kl, layout.ku
        ab = _band_view(flat, 0, (2 * kl + ku + 1, a.shape[1]))
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
        factors = BandFactors(lub, ipiv, layout, *views)
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


def _root_sum_squares(a) -> float:
    """``sqrt(x . x)`` over the float entries of ``a`` raveled in memory
    order: what ``np.linalg.norm`` computes for real input, bit for bit,
    without its dispatch."""
    x = np.asarray(a, dtype=float).ravel(order="K")
    return math.sqrt(x.dot(x))


def norm2(v) -> float:
    """Euclidean norm of the entries (the Frobenius norm, for a matrix)."""
    return _root_sum_squares(v)


def frobenius(a) -> float:
    """Frobenius norm of a 2-D array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    return _root_sum_squares(a)
