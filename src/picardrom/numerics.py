"""Minimal linear-algebra substrate.

Everything here is a thin, contract-checked layer over LAPACK and SuperLU (via
numpy and scipy): direct solve with singularity detection, SVD, and the two
norms used throughout the package. Full-order operators are sparse CSC and
factor with SuperLU; reduced systems and other small matrices stay dense and
factor with LAPACK. Both kinds go through the same :func:`lu_factorize` /
:func:`lu_apply` pair. A sparse refactorization can be handed the previous
handle of a matrix with the same sparsity pattern; it then reuses that
pattern's COLAMD column ordering instead of computing it again.
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


@dataclass(frozen=True)
class _ColumnOrder:
    """A fixed column permutation of one CSC sparsity pattern.

    ``order`` is the column order SuperLU chose (``argsort(perm_c)``) for a
    matrix of this pattern; ``indptr``/``indices`` describe the permuted
    pattern and ``gather`` picks a matrix's ``data`` in permuted order.
    """

    order: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray

    @classmethod
    def of(cls, a, order: np.ndarray) -> "_ColumnOrder":
        counts = np.diff(a.indptr)[order]
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(a.indptr.dtype)
        gather = np.repeat(a.indptr[order] - indptr[:-1], counts) + np.arange(indptr[-1])
        return cls(order=order, indptr=indptr, indices=a.indices[gather], gather=gather)

    def permute(self, a):
        """``a[:, order]`` for a matrix ``a`` of this pattern."""
        return scipy.sparse.csc_array((a.data[self.gather], self.indices, self.indptr),
                                      shape=a.shape)


@dataclass(frozen=True)
class SparseFactors:
    """SuperLU factors of the CSC matrix ``matrix``.

    With ``columns`` unset, ``lu`` factors ``matrix`` under SuperLU's own
    COLAMD ordering. With ``columns`` set, ``lu`` factors
    ``matrix[:, columns.order]`` in natural order, and :func:`lu_apply`
    scatters the solution back.
    """

    lu: scipy.sparse.linalg.SuperLU
    matrix: scipy.sparse.csc_array
    columns: _ColumnOrder | None = None

    def same_pattern(self, a) -> bool:
        m = self.matrix
        return (a.shape == m.shape and np.array_equal(a.indptr, m.indptr)
                and np.array_equal(a.indices, m.indices))

    def column_order(self) -> _ColumnOrder:
        if self.columns is not None:
            return self.columns
        return _ColumnOrder.of(self.matrix, np.argsort(self.lu.perm_c))


def _splu(a, **options):
    try:
        return scipy.sparse.linalg.splu(a, **options)
    except RuntimeError as exc:  # SuperLU reports an exactly zero pivot
        raise SingularMatrix(f"numerically singular matrix ({exc})") from exc


def lu_factorize(a, previous=None):
    """LU-factor a square matrix, raising SingularMatrix on tiny pivots.

    Sparse input factors with SuperLU, dense input with LAPACK. Returns an
    opaque handle for :func:`lu_apply`; factor once, solve often.

    ``previous`` is an optional earlier handle. When it factors a sparse
    matrix with the same shape, ``indptr`` and ``indices`` as ``a``, the
    column ordering COLAMD chose for that pattern is reused: ``a``'s columns
    are permuted up front and SuperLU runs in natural order. COLAMD looks at
    the pattern only, so the factors, and every solution, are the same as
    those of a fresh factorization.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if scipy.sparse.issparse(a):
        scale = np.abs(a.data).max(initial=0.0)
        if isinstance(previous, SparseFactors) and previous.same_pattern(a):
            columns = previous.column_order()
            factors = SparseFactors(_splu(columns.permute(a), permc_spec="NATURAL"),
                                    a, columns)
        else:
            factors = SparseFactors(_splu(a), a)
        pivots = np.abs(factors.lu.U.diagonal())
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
    sparse = isinstance(factors, SparseFactors)
    n = factors.matrix.shape[0] if sparse else factors[0].shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionMismatch("right-hand side length does not match matrix")
    if not sparse:
        return scipy.linalg.lu_solve(factors, b, check_finite=False)
    z = factors.lu.solve(b)
    if factors.columns is None:
        return z
    x = np.empty_like(z)
    x[factors.columns.order] = z
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
