"""The projection-based reduced-order model: a POD basis and the reduced solve.

A centered SVD of recent full-order solutions, truncated by energy, gives
the basis; the run keeps those solutions (see :class:`driver._RomState`).
The reduced solve projects the full linear system onto that basis and
reports the full-space residual, from which the standard inverse-norm error
bound follows. Every matrix is read as the DIA array
:func:`numerics.as_matrix` returns. The projected system is small (k x k,
k the basis size) and dense, and is solved here with LAPACK dense LU; the
full-order band solves stay in :mod:`numerics`. Each basis keeps the
projection of the last matrix object it was solved with, so a reduced solve
on that same object again skips the sparse product, the projection and the
k x k factorization. An SVD failure, like a singular projected system,
leaves the reduced model unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from . import numerics
from .errors import DimensionMismatch, SingularReducedSystem, TooFewSnapshots


@dataclass(frozen=True)
class _Projection:
    """A matrix projected onto a basis by :func:`rom_solve`."""

    source: object          # the caller's matrix object, matched by identity
    matrix: object          # ``source`` as :func:`numerics.as_matrix` returned it
    reduced: np.ndarray     # V^T A V
    mean_image: np.ndarray  # V^T A u_mean
    lu: np.ndarray          # ``reduced`` factored by dgetrf, pivots checked
    piv: np.ndarray


@dataclass(frozen=True)
class ReducedBasis:
    """Orthonormal basis of the centered snapshot space plus the mean field.

    It also holds the projection of the last matrix :func:`rom_solve` solved
    with on it, so that projection lives exactly as long as the basis.
    """

    basis: np.ndarray            # (N, M), orthonormal columns
    mean: np.ndarray             # (N,)
    singular_values: np.ndarray  # centered singular values
    _projection = None           # a _Projection once rom_solve has projected a matrix

    @property
    def size(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def columns(self) -> np.ndarray:
        """``[basis | mean]``, built once, so one sparse product projects both."""
        return np.column_stack([self.basis, self.mean])


@dataclass(frozen=True)
class RomSolution:
    full_field: np.ndarray      # basis @ reduced coordinates + mean
    residual_norm: float


def build_basis_svd(snapshots, eps_rb: float) -> ReducedBasis:
    """POD basis of ``snapshots``, oldest first: centered SVD truncated by
    the energy criterion.

    The snapshots are the columns of an (N, k) array, the transpose of their
    row stack, so each snapshot is contiguous in memory and reductions along
    a row run over contiguous data. The basis size M is the smallest count
    whose captured energy fraction reaches ``1 - eps_rb**2``, capped at the
    numerical rank. Identical snapshots degenerate to M = 0 (mean field
    only). Raises TooFewSnapshots for fewer than two snapshots,
    DimensionMismatch for snapshots of unequal length, ValueError for
    non-finite entries and for finite ones whose centring overflows, and
    SvdFailure when the SVD kernel fails.
    """
    if not 0.0 < eps_rb < 1.0:
        raise ValueError("eps_rb must lie in (0, 1)")
    if len(snapshots) < 2:
        raise TooFewSnapshots("basis construction needs at least 2 snapshots")
    if len({np.shape(u) for u in snapshots}) > 1:
        raise DimensionMismatch("snapshots differ in length")
    phi = np.stack(snapshots).T
    # A non-finite snapshot entry, or a centring that overflows, leaves a
    # non-finite entry in its row, which numerics.svd refuses (ValueError).
    with np.errstate(over="ignore", invalid="ignore"):
        mean = phi.mean(axis=1)
        centred = phi - mean[:, None]
    dec = numerics.svd(centred)
    s = dec.singular_values
    scale = max(1.0, numerics.norm2(phi))
    if s.size == 0 or s[0] <= numerics.RANK_RTOL * scale:
        m = 0
    else:
        rank = int(np.count_nonzero(s > numerics.RANK_RTOL * s[0]))
        energy = np.cumsum(s**2) / np.sum(s**2)
        m = int(np.searchsorted(energy, 1.0 - eps_rb**2) + 1)
        m = min(m, rank)
    return ReducedBasis(
        basis=dec.left[:, :m].copy(),
        mean=mean,
        singular_values=s.copy(),
    )


def rom_solve(basis: ReducedBasis, a, f) -> RomSolution:
    """Solve the projected system and report the full-space residual.

    With V the basis and u_mean the mean snapshot, solves
    ``(V^T A V) v = V^T f - V^T A u_mean`` and returns
    ``V v + u_mean`` together with ``||A (V v + u_mean) - f||``. ``A`` is
    read as a band, dense input included, so the projection costs
    O(nnz(A) * M), one product ``A [V | u_mean]``.

    The basis keeps the last projection: ``a`` as validated, ``V^T A V``,
    ``V^T A u_mean`` and the checked factors of ``V^T A V``. A call with the
    same ``a`` object again (matched by identity, never by value, as
    :class:`driver.FactorCache` matches matrices) reuses them, so ``a`` must
    not be modified in place between calls. Such a call still validates
    ``f``, checks ``V^T f - V^T A u_mean`` for finite entries, and forms the
    residual from ``a``, so its result is bitwise that of a fresh projection.

    Raises DimensionMismatch for ``a`` or ``f`` of the wrong size, ValueError
    for non-finite entries in them or in the projected system, and
    SingularReducedSystem when LU with partial pivoting (LAPACK ``dgetrf``)
    meets a pivot below ``numerics.PIVOT_RTOL`` times ``max|V^T A V|``.
    """
    source = a
    kept = basis._projection
    if kept is not None and kept.source is source:
        a = kept.matrix
    else:
        kept, a = None, numerics.as_matrix(a)
    f = numerics.as_vector(f)
    n = basis.mean.size
    if a.shape != (n, n) or f.size != n:
        raise DimensionMismatch("system dimensions do not match the basis")
    v_mat = basis.basis
    if basis.size == 0:
        full = basis.mean.copy()
    else:
        if kept is None:
            a_cols = a @ basis.columns  # contiguous slices: strided ones round differently
            reduced_a = v_mat.T @ np.ascontiguousarray(a_cols[:, :-1])
            mean_image = v_mat.T @ np.ascontiguousarray(a_cols[:, -1])
        else:
            reduced_a, mean_image = kept.reduced, kept.mean_image
        reduced_rhs = v_mat.T @ f - mean_image
        if not (np.isfinite(reduced_a).all() and np.isfinite(reduced_rhs).all()):
            raise ValueError("projected system entries must be finite")
        if kept is None:
            lu, piv, _ = scipy.linalg.lapack.dgetrf(reduced_a)
            # an exactly zero pivot (dgetrf's info > 0) fails this test too
            scale = np.abs(reduced_a).max()
            if scale == 0.0 or (np.abs(np.diag(lu)) < numerics.PIVOT_RTOL * scale).any():
                raise SingularReducedSystem("numerically singular reduced system (tiny pivot)")
            kept = _Projection(source, a, reduced_a, mean_image, lu, piv)
            object.__setattr__(basis, "_projection", kept)
        coords, _ = scipy.linalg.lapack.dgetrs(kept.lu, kept.piv, reduced_rhs)
        full = v_mat @ coords + basis.mean
    residual = numerics.norm2(a @ full - f)
    return RomSolution(full_field=full, residual_norm=residual)
