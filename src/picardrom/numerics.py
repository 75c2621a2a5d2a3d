"""Minimal linear-algebra substrate.

Everything here is a thin, contract-checked layer over LAPACK (via numpy and
scipy): direct solve with singularity detection, SVD, and the two norms used
throughout the package. Full-order operators are sparse CSC 5-point stencils
in natural order, hence band matrices of half-width ``nx``; they factor with
LAPACK banded LU. Reduced systems and other small matrices stay dense and
factor with LAPACK dense LU. Both kinds go through the same
:func:`lu_factorize` / :func:`lu_apply` pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConvergenceFailure, DimensionMismatch, SingularMatrix

# Library tolerances (read-only).
SOLVE_RTOL = 1e-10      # backward residual target for well-conditioned solves
SVD_RTOL = 1e-10        # reconstruction target for the SVD kernel
PIVOT_RTOL = 1e-14      # pivot magnitude below this (relative) is singular
RANK_RTOL = 1e-13       # singular values below this (relative) count as zero
ORTHO_TOL = 1e-10       # orthonormality tolerance for computed factors


def as_vector(data) -> np.ndarray:
    """Validate and return a finite 1-D float array."""
    v = np.asarray(data, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
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
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD of a matrix: ``left @ diag(singular_values) @ right``."""

    left: np.ndarray            # (rows, r), orthonormal columns
    singular_values: np.ndarray  # (r,), nonincreasing, nonnegative
    right: np.ndarray           # (r, cols), orthonormal rows


@dataclass(frozen=True)
class BandFactors:
    """LAPACK banded LU (``dgbtrf``) of a square matrix of bandwidths ``kl``/``ku``."""

    lub: np.ndarray   # (2*kl + ku + 1, n) band storage of L and U, Fortran order
    ipiv: np.ndarray  # row interchanges
    kl: int
    ku: int


def _band(a) -> tuple[np.ndarray, int, int]:
    """LAPACK band storage of the CSC matrix ``a``, duplicate entries summed.

    Entry ``a[i, j]`` goes to row ``kl + ku + i - j`` of column ``j``; the
    top ``kl`` rows are left free for the fill-in of partial pivoting.
    """
    n = a.shape[1]
    cols = np.repeat(np.arange(n), np.diff(a.indptr))
    offsets = a.indices - cols
    kl = max(int(offsets.max(initial=0)), 0)
    ku = max(int(-offsets.min(initial=0)), 0)
    ldab = 2 * kl + ku + 1
    flat = np.bincount(cols * ldab + (kl + ku) + offsets, weights=a.data,
                       minlength=ldab * n)
    return flat.reshape(n, ldab).T, kl, ku


def lu_factorize(a):
    """LU-factor a square matrix, raising SingularMatrix on tiny pivots.

    Returns an opaque handle for :func:`lu_apply`; factor once, solve often.
    Dense input factors with LAPACK ``getrf``. Sparse input factors with
    LAPACK banded LU (``gbtrf``, partial pivoting) over the band its pattern
    spans, ``kl = max(i - j)`` below and ``ku = max(j - i)`` above the
    diagonal. The band array holds ``(2*kl + ku + 1) * n`` doubles: cheap for
    the narrow bands of the stencil operators (half-width ``nx`` in natural
    order), but up to about 3x dense storage when entries lie far from the
    diagonal.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if scipy.sparse.issparse(a):
        scale = np.abs(a.data).max(initial=0.0)
        ab, kl, ku = _band(a)
        lub, ipiv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
        if info < 0:
            raise ValueError(f"dgbtrf rejected argument {-info}")
        if info > 0:
            raise SingularMatrix(f"numerically singular matrix (zero pivot {info})")
        factors = BandFactors(lub, ipiv, kl, ku)
        pivots = np.abs(lub[kl + ku])
    else:
        scale = np.abs(a).max()
        with warnings.catch_warnings():
            # singularity is detected below via the pivot check
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            factors = scipy.linalg.lu_factor(a, check_finite=False)
        pivots = np.abs(np.diag(factors[0]))
    if scale == 0.0 or np.any(pivots < PIVOT_RTOL * scale):
        raise SingularMatrix("numerically singular matrix (tiny pivot)")
    return factors


def lu_apply(factors, b: np.ndarray) -> np.ndarray:
    """Solve with a handle from :func:`lu_factorize`."""
    banded = isinstance(factors, BandFactors)
    n = factors.lub.shape[1] if banded else factors[0].shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch("right-hand side length does not match matrix")
    if not banded:
        return scipy.linalg.lu_solve(factors, b, check_finite=False)
    x, info = scipy.linalg.lapack.dgbtrs(factors.lub, factors.kl, factors.ku, b,
                                         factors.ipiv)
    if info < 0:
        raise ValueError(f"dgbtrs rejected argument {-info}")
    return x


def solve_dense(a, b) -> np.ndarray:
    """Solve ``a x = b`` by LU with partial pivoting; ``a`` may be sparse.

    Deterministic for identical inputs; raises SingularMatrix when pivoting
    detects numerical singularity.
    """
    return lu_apply(lu_factorize(a), as_vector(b))


def svd(a) -> SvdResult:
    """Thin SVD; raises ConvergenceFailure if the LAPACK kernel fails."""
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return SvdResult(left=u, singular_values=s, right=vh)


def norm2(v) -> float:
    """Euclidean norm."""
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


def frobenius(a) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), "fro"))
