"""Tests for the POD basis and the reduced-order model."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from picardrom import coupling, numerics, pod, problems
from picardrom.errors import DimensionMismatch, SingularReducedSystem, TooFewSnapshots


@pytest.mark.parametrize("k", range(2, 8))
def test_build_basis_bits_match_a_column_stacked_window(k):
    """Below 8 snapshots, numpy sums a row of the (N, k) snapshot matrix in
    order whether it is column-stacked (C order, contiguous rows) or a
    transposed row stack (F order): the basis, mean and singular values are
    those of the column-stacked build, bit for bit."""
    rng = np.random.default_rng(10 + k)
    columns = [rng.standard_normal(300) for _ in range(k)]
    basis = pod.build_basis_svd(columns, 1e-7)
    phi = np.column_stack(columns)
    mean = phi.mean(axis=1)
    left, s, _ = np.linalg.svd(phi - mean[:, None], full_matrices=False)
    assert basis.size == k - 1
    assert basis.mean.tobytes() == mean.tobytes()
    assert basis.singular_values.tobytes() == s.tobytes()
    assert basis.basis.tobytes() == np.ascontiguousarray(left[:, :k - 1]).tobytes()


def test_build_basis_requires_two_snapshots():
    with pytest.raises(TooFewSnapshots):
        pod.build_basis_svd([np.array([1.0, 2.0])], 1e-7)


def test_build_basis_refuses_unequal_lengths():
    with pytest.raises(DimensionMismatch):
        pod.build_basis_svd([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])], 1e-7)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_basis_refuses_nonfinite_snapshots(bad):
    with pytest.raises(ValueError, match="finite"):
        pod.build_basis_svd([np.array([1.0, 2.0]), np.array([bad, np.inf])], 1e-7)


@pytest.mark.parametrize("snapshots", [
    [np.full(3, 1.7e308), np.full(3, 1.7e308)],                  # the mean overflows
    [np.full(3, 1.7e308), np.full(3, -1.7e308), np.full(3, 1.7e308)],   # the centring does
], ids=["mean", "centring"])
def test_build_basis_refuses_finite_snapshots_whose_centring_overflows(snapshots):
    with pytest.raises(ValueError, match="finite"):
        pod.build_basis_svd(snapshots, 1e-7)


def test_identical_snapshots_degenerate_to_mean():
    u = np.array([1.0, 2.0, 3.0])
    basis = pod.build_basis_svd([u, u.copy(), u.copy()], 1e-7)
    assert basis.size == 0
    assert np.allclose(basis.mean, u, atol=1e-15)
    sol = pod.rom_solve(basis, np.eye(3), np.zeros(3))
    assert np.array_equal(sol.full_field, basis.mean)


def test_rank_one_family_gives_m_one():
    rng = np.random.default_rng(1)
    mean = rng.standard_normal(40)
    w_dir = rng.standard_normal(40)
    snapshots = [mean + rng.standard_normal() * w_dir for _ in range(6)]
    basis = pod.build_basis_svd(snapshots, 1e-7)
    assert basis.size == 1
    v = basis.basis
    for u in snapshots:
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
    snapshots = [mean + centered[:, j] for j in range(k)]
    assert np.allclose(np.sort(np.linalg.svd(centered, compute_uv=False))[::-1][:3],
                       [2.0, 1.0, 1.0], atol=1e-12)
    basis = pod.build_basis_svd(snapshots, 0.5)
    assert basis.size == 2


def test_energy_monotonicity():
    rng = np.random.default_rng(3)
    snapshots = [rng.standard_normal(30) for _ in range(8)]
    sizes = [pod.build_basis_svd(snapshots, e).size for e in (0.9, 0.5, 0.1, 1e-3, 1e-7)]
    assert sizes == sorted(sizes)


def test_basis_orthonormality():
    rng = np.random.default_rng(4)
    basis = pod.build_basis_svd([rng.standard_normal(50) for _ in range(5)], 1e-7)
    gram = basis.basis.T @ basis.basis
    assert numerics.norm2(gram - np.eye(basis.size)) <= 1e-9


def test_rom_solve_exact_when_solution_in_span():
    rng = np.random.default_rng(6)
    n = 15
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    mean = rng.standard_normal(n)
    snapshots = [mean + rng.standard_normal() * rng.standard_normal(n) for _ in range(4)]
    basis = pod.build_basis_svd(snapshots, 1e-9)
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
    assert np.allclose(sol.full_field, np.linalg.solve(a, f), atol=1e-9)


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
        u_exact = np.linalg.solve(a, f)
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


def with_entry(array, index, value):
    array = np.array(array, dtype=float)
    array[index] = value
    return array


FIRST_TWO = np.eye(4)[:, :2]
MIXED = np.array([[1.0], [1.0], [0.0], [0.0]]) / np.sqrt(2.0)


def _counting_dgetrf(monkeypatch) -> list:
    """Count pod's k x k factorizations: one per reduced solve that projects."""
    calls = []
    dgetrf = scipy.linalg.lapack.dgetrf

    def counted(*args, **kwargs):
        calls.append(1)
        return dgetrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", counted)
    return calls


@pytest.mark.parametrize("a, f, v, error, f_side", [
    (np.eye(3), np.ones(4), FIRST_TWO, DimensionMismatch, False),
    (np.eye(4), np.ones(3), FIRST_TWO, DimensionMismatch, True),
    (np.eye(4), with_entry(np.ones(4), 2, np.nan), FIRST_TWO, ValueError, True),
    # finite f whose projection overflows: V^T f = 1.7e308 * sqrt(2)
    (np.eye(4), np.array([1.7e308, 1.7e308, 0.0, 0.0]), MIXED, ValueError, True),
    (with_entry(np.eye(4), (0, 3), np.inf), np.ones(4), FIRST_TWO, ValueError, False),
    # finite A whose projection overflows: V^T A V = 2e308
    (scipy.linalg.block_diag(np.full((2, 2), 1e308), np.eye(2)), np.ones(4), MIXED,
     ValueError, False),
    # V^T A V = [[1, 1], [1, 1 + 4e-15]]: nonzero pivots, the second below
    # PIVOT_RTOL relative to max|V^T A V|
    (scipy.linalg.block_diag([[1.0, 1.0], [1.0, 1.0 + 4e-15]], np.eye(2)), np.ones(4),
     FIRST_TWO, SingularReducedSystem, False),
], ids=["a-shape", "f-length", "nan-in-f", "projected-f-overflows", "inf-in-a",
        "projection-overflows", "tiny-relative-pivot"])
def test_rom_solve_refusals(a, f, v, error, f_side, monkeypatch):
    """Each refusal holds on a fresh basis, and an ``f``-side one also on a
    (basis, ``a``) pair already projected, where the call reuses the kept
    projection (no factorization) and must still check ``f``."""
    def fresh_basis():
        return pod.ReducedBasis(basis=v, mean=np.zeros(4),
                                singular_values=np.ones(v.shape[1]))

    with np.errstate(over="ignore"), pytest.raises(error):
        pod.rom_solve(fresh_basis(), a, f)
    if f_side:
        basis = fresh_basis()
        pod.rom_solve(basis, a, np.ones(4))
        factored = _counting_dgetrf(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(error):
            pod.rom_solve(basis, a, f)
        assert factored == []


def _rd_operator():
    walls = {side: ("dirichlet", 0.0) for side in ("south", "north", "west", "east")}
    return problems.diffusion_operator(problems.Grid2D(32, 32), 0.02, walls)[0]


def _thermal_operator():
    surrogate = problems.ThermalFlowSurrogate()
    return problems.assemble_heat(surrogate, np.full(surrogate.grid.n, 0.5))[0]


@pytest.mark.parametrize("operator", [_rd_operator, _thermal_operator],
                         ids=["rd", "thermal"])
def test_rom_solve_on_a_kept_projection_is_bitwise_a_fresh_one(operator, monkeypatch):
    """A second solve with the same matrix object reuses the basis's
    projection and returns the bits of a solve on an equal copy, which
    projects afresh: a copy is never matched, only the object itself."""
    a = operator()
    n = a.shape[0]
    rng = np.random.default_rng(9)
    basis = pod.build_basis_svd([rng.standard_normal(n) for _ in range(5)], 1e-7)
    f, g = rng.standard_normal(n), rng.standard_normal(n)
    factored = _counting_dgetrf(monkeypatch)
    pod.rom_solve(basis, a, f)
    kept = pod.rom_solve(basis, a, g)
    assert len(factored) == 1
    copies = [pod.rom_solve(basis, a.copy(), g) for _ in range(2)]
    assert len(factored) == 3
    for sol in copies:
        assert sol.full_field.tobytes() == kept.full_field.tobytes()
        assert sol.residual_norm.hex() == kept.residual_norm.hex()
