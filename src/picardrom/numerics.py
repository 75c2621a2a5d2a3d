"""Minimal linear-algebra substrate.

Everything here is a thin, contract-checked layer over LAPACK and SuperLU (via
numpy and scipy): direct solve with singularity detection, SVD, and the two
norms used throughout the package. Full-order operators are sparse CSC and
factor with SuperLU; reduced systems and other small matrices stay dense and
factor with LAPACK. Both kinds go through the same :func:`lu_factorize` /
:func:`lu_apply` pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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


def lu_factorize(a):
    """LU-factor a square matrix, raising SingularMatrix on tiny pivots.

    Sparse input factors with SuperLU, dense input with LAPACK. Returns an
    opaque handle for :func:`lu_apply`; factor once, solve often.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if scipy.sparse.issparse(a):
        scale = np.abs(a.data).max(initial=0.0)
        try:
            factors = scipy.sparse.linalg.splu(a)
        except RuntimeError as exc:  # SuperLU reports an exactly zero pivot
            raise SingularMatrix(f"numerically singular matrix ({exc})") from exc
        pivots = np.abs(factors.U.diagonal())
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
    sparse = isinstance(factors, scipy.sparse.linalg.SuperLU)
    n = factors.shape[0] if sparse else factors[0].shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch("right-hand side length does not match matrix")
    if sparse:
        return factors.solve(b)
    return scipy.linalg.lu_solve(factors, b, check_finite=False)


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
