"""Tests for the finite-difference demo problems."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from picardrom import coupling, numerics, problems
from picardrom.driver import (
    FactorCache,
    RunConfig,
    RunReport,
    accelerated_run,
    lockstep_verify,
    step,
)
from picardrom.errors import (
    ConfigError,
    DimensionMismatch,
    NonPositiveDiffusion,
    ViscosityOutOfRange,
)
from picardrom.problems import (
    Grid2D,
    ReactionDiffusionPair,
    ScalarToy,
    ThermalFlowSurrogate,
    assemble_flow,
    assemble_heat,
    diffusion_operator,
    kappa_analytic,
    make_coupled_problem,
)

DIRICHLET0 = {s: ("dirichlet", 0.0) for s in ("south", "north", "west", "east")}
ORACLE_GRIDS = ((3, 3), (5, 7), (16, 48), (32, 32))


def harmonic(a, b):
    return 2.0 * a * b / (a + b)


def node(grid, i, j):
    """Flat index of interior node (i, j), both 1-based, x fastest."""
    return (j - 1) * grid.nx + (i - 1)


def reference_diffusion_operator(grid, d, bc):
    """Node-by-node dense assembly of diffusion_operator (the former code)."""
    d = np.broadcast_to(np.asarray(d, dtype=float), (grid.n,))
    nx, ny = grid.nx, grid.ny
    hx2, hy2 = grid.hx**2, grid.hy**2
    a = np.zeros((grid.n, grid.n))
    f = np.zeros(grid.n)

    def side_values(side: str, count: int):
        kind, val = bc[side]
        vals = np.broadcast_to(np.asarray(val, dtype=float), (count,))
        return kind, vals

    for j in range(1, ny + 1):
        for i in range(1, nx + 1):
            n = node(grid, i, j)
            dn = d[n]
            # west
            if i > 1:
                m = node(grid, i - 1, j)
                w = harmonic(dn, d[m]) / hx2
                a[n, n] += w
                a[n, m] -= w
            else:
                kind, vals = side_values("west", ny)
                if kind == "dirichlet":
                    w = dn / hx2
                    a[n, n] += w
                    f[n] += w * vals[j - 1]
                else:  # neumann: conormal flux d*du/dn prescribed
                    f[n] += float(vals[j - 1]) / grid.hx
            # east
            if i < nx:
                m = node(grid, i + 1, j)
                w = harmonic(dn, d[m]) / hx2
                a[n, n] += w
                a[n, m] -= w
            else:
                kind, vals = side_values("east", ny)
                if kind == "dirichlet":
                    w = dn / hx2
                    a[n, n] += w
                    f[n] += w * vals[j - 1]
                else:
                    f[n] += float(vals[j - 1]) / grid.hx
            # south
            if j > 1:
                m = node(grid, i, j - 1)
                w = harmonic(dn, d[m]) / hy2
                a[n, n] += w
                a[n, m] -= w
            else:
                kind, vals = side_values("south", nx)
                if kind == "dirichlet":
                    w = dn / hy2
                    a[n, n] += w
                    f[n] += w * vals[i - 1]
                else:
                    f[n] += float(vals[i - 1]) / grid.hy
            # north
            if j < ny:
                m = node(grid, i, j + 1)
                w = harmonic(dn, d[m]) / hy2
                a[n, n] += w
                a[n, m] -= w
            else:
                kind, vals = side_values("north", nx)
                if kind == "dirichlet":
                    w = dn / hy2
                    a[n, n] += w
                    f[n] += w * vals[i - 1]
                else:
                    f[n] += float(vals[i - 1]) / grid.hy
    return a, f


def reference_upwind_advection(grid, u, inflow_value=0.0):
    """Node-by-node dense first-order upwind assembly of ``u * dtheta/dy``
    (the former code): the Dirichlet inlet value enters F for upward flow,
    and a zero-gradient ghost cancels the term at the outlet."""
    u = np.broadcast_to(np.asarray(u, dtype=float), (grid.n,))
    nx, ny = grid.nx, grid.ny
    hy = grid.hy
    a = np.zeros((grid.n, grid.n))
    f = np.zeros(grid.n)
    for j in range(1, ny + 1):
        for i in range(1, nx + 1):
            n = node(grid, i, j)
            un = u[n]
            if un > 0.0:
                a[n, n] += un / hy
                if j > 1:
                    a[n, node(grid, i, j - 1)] -= un / hy
                else:
                    f[n] += un / hy * inflow_value
            elif un < 0.0:
                if j < ny:
                    a[n, n] -= un / hy
                    a[n, node(grid, i, j + 1)] += un / hy
                # at the outlet the zero-gradient ghost cancels the term
    return a, f


def stencil_dia(dense, grid):
    """The DIA form of the dense 5-point stencil matrix ``dense`` on ``grid``:
    offsets ``-nx, -1, 0, 1, nx``, each diagonal's entries inside the matrix,
    zero padding."""
    n, nx = grid.n, grid.nx
    offsets = np.array([-nx, -1, 0, 1, nx])
    data = np.zeros((5, n))
    for k, o in enumerate(offsets):
        cols = np.arange(max(o, 0), min(n + o, n))
        data[k, cols] = dense[cols - o, cols]
    return scipy.sparse.dia_array((data, offsets), shape=(n, n))


def in_grid(grid):
    """Mask of the ``data`` entries of a stencil matrix on ``grid`` that hold
    a coefficient whose neighbour lies in the grid."""
    ones = np.ones((grid.ny, grid.nx))
    return reference_stencil_matrix(grid, ones, ones, ones, ones, ones).data != 0.0


def reference_stencil_matrix(grid, diag, west, east, south, north):
    """DIA form (:func:`stencil_dia`) of the COO-built matrix of a 5-point
    stencil: every coefficient whose neighbour lies in the grid, and none of
    the others."""
    n, nx, ny = grid.n, grid.nx, grid.ny
    i = np.arange(n) % nx
    j = np.arange(n) // nx
    rows, cols, vals = [], [], []
    for coef, shift, inside in ((diag, 0, i >= 0), (west, -1, i > 0), (east, 1, i < nx - 1),
                                (south, -nx, j > 0), (north, nx, j < ny - 1)):
        keep = np.flatnonzero(inside)
        rows.append(keep)
        cols.append(keep + shift)
        vals.append(coef.ravel()[keep])
    coo = scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return stencil_dia(coo.toarray(), grid)


def assert_same_dia(a, ref):
    """Equal DIA arrays: shape, offsets and data, padding included."""
    assert a.format == ref.format == "dia"
    assert a.shape == ref.shape
    assert np.array_equal(a.offsets, ref.offsets)
    assert np.array_equal(a.data, ref.data)


def assert_bitwise(x, y):
    """Equal dtype, shape and bytes: signed zeros and NaN payloads included."""
    assert x.dtype == y.dtype and x.shape == y.shape
    assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


def assert_same_sparse(a, ref):
    """Bitwise-equal sparse arrays of one format: every array the format keeps."""
    assert a.format == ref.format and a.shape == ref.shape
    for name in ("offsets", "indptr", "indices", "data"):
        if hasattr(ref, name):
            assert_bitwise(getattr(a, name), getattr(ref, name))


def boundary_mixes(grid, rng):
    """All-Dirichlet, all-Neumann and two mixed sets of side conditions."""
    sides = ("south", "north", "west", "east")
    along = {"south": grid.nx, "north": grid.nx, "west": grid.ny, "east": grid.ny}
    mixes = [DIRICHLET0, {s: ("neumann", 0.3) for s in sides}]
    for kinds in (("dirichlet", "neumann", "neumann", "dirichlet"),
                  ("neumann", "dirichlet", "dirichlet", "neumann")):
        mixes.append({
            s: (kind, rng.uniform(-1.0, 1.0, along[s]) if kind == "dirichlet"
                else rng.uniform(-1.0, 1.0))
            for s, kind in zip(sides, kinds)})
    return mixes


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid2D(2, 5)
    with pytest.raises(ConfigError):
        Grid2D(4, 4, width=-1.0)
    g = Grid2D(4, 9, width=2.0, height=6.0)
    assert g.hx == pytest.approx(0.4)
    assert g.hy == pytest.approx(0.6)
    assert g.n == 36


@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_diffusion_operator_matches_node_loop(nx, ny):
    grid = Grid2D(nx, ny, width=1.5, height=2.5)
    rng = np.random.default_rng(nx * 100 + ny)
    for d in (0.7, rng.uniform(0.01, 3.0, grid.n)):
        for bc in boundary_mixes(grid, rng):
            a, f = diffusion_operator(grid, d, bc)
            a_ref, f_ref = reference_diffusion_operator(grid, d, bc)
            assert_same_dia(a, stencil_dia(a_ref, grid))
            assert np.array_equal(a.toarray(), a_ref)
            assert np.array_equal(f, f_ref)


def heat_bc(surrogate):
    """The heat equation's side conditions, as assemble_heat applies them."""
    return {"south": ("dirichlet", surrogate.theta_in), "north": ("neumann", 0.0),
            "west": ("neumann", surrogate.theta_wall),
            "east": ("neumann", surrogate.theta_wall)}


@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_upwind_advection_matches_node_loop(nx, ny):
    """The heat assembly's upwind terms, on upward, downward, mixed and zero
    velocities, with and without an inflow temperature."""
    grid = Grid2D(nx, ny, width=1.5, height=2.5)
    rng = np.random.default_rng(nx * 100 + ny)
    u = rng.uniform(-2.0, 2.0, grid.n)
    u[rng.random(grid.n) < 0.2] = 0.0
    for inflow in (0.0, 0.4):
        surrogate = ThermalFlowSurrogate(grid=grid, theta_in=inflow)
        k_ref, k_f_ref = reference_diffusion_operator(grid, surrogate.k_t, heat_bc(surrogate))
        for vel in (u, np.abs(u), -np.abs(u), 0.0):
            a, f = assemble_heat(surrogate, vel)
            a_ref, f_ref = reference_upwind_advection(grid, vel, inflow_value=inflow)
            assert_same_dia(a, stencil_dia(k_ref + a_ref, grid))
            assert np.array_equal(f, k_f_ref + f_ref)


@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_stencil_matrix_matches_coo_build(nx, ny):
    grid = Grid2D(nx, ny)
    rng = np.random.default_rng(nx * 10 + ny)
    for _ in range(20):
        # exact zeros inside the grid, and coefficients of neighbours outside
        # it that must not be read
        coefs = {name: rng.standard_normal((ny, nx)) * (rng.random((ny, nx)) < 0.8)
                 for name in ("diag", "west", "east", "south", "north")}
        assert_same_dia(problems._stencil_matrix(grid, **coefs),
                        reference_stencil_matrix(grid, **coefs))


def stencil_cases(grid, rng):
    """Coefficients with every in-grid entry nonzero, and the upwind stencils
    of a zero and of a mixed-sign velocity, which hold exact zeros in the grid
    and zero west/east coefficients."""
    full = {name: rng.uniform(0.5, 1.5, (grid.ny, grid.nx))
            for name in ("diag", "west", "east", "south", "north")}
    full["west"][:, 0] = full["east"][:, -1] = 0.0
    full["south"][0, :] = full["north"][-1, :] = 0.0
    mixed = rng.uniform(-2.0, 2.0, grid.n)
    mixed[rng.random(grid.n) < 0.2] = 0.0
    return [full] + [upwind_stencil(grid, u) for u in (0.0, mixed)]


def upwind_stencil(grid, u):
    """The upwind terms of assemble_heat alone, as stencil coefficients."""
    up, down = problems._upwind_split(grid, u)
    zero = np.zeros_like(up)
    return {"diag": up - down, "west": zero, "east": zero, "south": -up, "north": down}


@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_stencil_matrix_stores_every_in_grid_coefficient(nx, ny):
    grid = Grid2D(nx, ny)
    full, still, mixed = stencil_cases(grid, np.random.default_rng(nx * 7 + ny))
    inside = in_grid(grid)
    assert inside.sum() == 5 * grid.n - 2 * (nx + ny)
    for coefs in (full, still, mixed):
        a = problems._stencil_matrix(grid, **coefs)
        assert_same_dia(a, reference_stencil_matrix(grid, **coefs))
        assert np.all(a.data[~inside] == 0.0)
    assert np.all(problems._stencil_matrix(grid, **full).data[inside] != 0.0)
    assert np.all(problems._stencil_matrix(grid, **still).data == 0.0)
    rows, cols = problems._stencil_matrix(grid, **mixed).nonzero()
    assert np.all(np.isin(np.abs(rows - cols), (0, nx)))


@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_assemblers_store_no_zero_coefficient(nx, ny):
    """Every in-grid entry of diffusion_operator, on positive diffusion
    fields, and of assemble_heat, on finite velocities of both signs with
    some exact zeros, is nonzero: no assembled coefficient cancels. (The
    other entries of the DIA ``data``, neighbours outside the grid and
    padding, hold zeros.)"""
    grid = Grid2D(nx, ny, width=2.0, height=6.0)
    rng = np.random.default_rng(nx * 17 + ny)
    surrogate = ThermalFlowSurrogate(grid=grid)
    inside = in_grid(grid)
    for _ in range(5):
        d = rng.uniform(1e-3, 10.0, grid.n)
        for bc in boundary_mixes(grid, rng):
            assert np.all(diffusion_operator(grid, d, bc)[0].data[inside] != 0.0)
        u = rng.uniform(-5.0, 5.0, grid.n)
        u[rng.random(grid.n) < 0.3] = 0.0
        for vel in (u, np.abs(u), -np.abs(u), 0.0):
            assert np.all(assemble_heat(surrogate, vel)[0].data[inside] != 0.0)


def test_stencil_matrices_do_not_share_their_arrays():
    grid = Grid2D(5, 7)
    for coefs in stencil_cases(grid, np.random.default_rng(3)):
        first = problems._stencil_matrix(grid, **coefs)
        for arr in (first.offsets, first.data):
            arr[:] = arr[::-1]
        assert_same_dia(problems._stencil_matrix(grid, **coefs),
                        reference_stencil_matrix(grid, **coefs))


@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_stencil_matrices_behave_like_constructed_ones(nx, ny):
    """Every matrix built on the grid's template, with or without zeros,
    computes what a matrix built by the ``dia_array`` constructor, with its
    checks, from the same arrays computes."""
    grid = Grid2D(nx, ny)
    rng = np.random.default_rng(nx * 13 + ny)
    cases = stencil_cases(grid, rng) + [
        problems._diffusion_stencil(grid, rng.uniform(0.1, 2.0, grid.n), bc)[0]
        for bc in boundary_mixes(grid, rng)]
    v = rng.standard_normal(grid.n)
    m = rng.standard_normal((grid.n, 3))
    for coefs in cases:
        a = problems._stencil_matrix(grid, **coefs)
        ref = scipy.sparse.dia_array((a.data.copy(), a.offsets.copy()), shape=a.shape)
        assert_bitwise(a.toarray(), ref.toarray())
        assert_bitwise(a @ v, ref @ v)
        assert_bitwise(a @ m, ref @ m)
        assert_same_sparse(a.tocsr(), ref.tocsr())
        assert_same_sparse(abs(a), abs(ref))
        assert_same_sparse(a + a, ref + ref)
        assert_same_sparse(a @ a, ref @ ref)


def test_stencil_template_cache_is_bounded():
    cached = problems._stencil_template
    for nx in range(3, 9):
        for ny in range(3, 9):
            grid = Grid2D(nx, ny)
            diag = np.ones((ny, nx))
            zero = np.zeros((ny, nx))
            a = problems._stencil_matrix(grid, diag, zero, zero, zero, zero)
            assert np.array_equal(a.toarray(), np.eye(grid.n))
    info = cached.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize < 36


def boundary_data_cases(grid, rng):
    """Side conditions whose values are a scalar zero, an array of zeros or a
    nonzero array, on all four sides and mixed side by side."""
    sides = ("south", "north", "west", "east")
    along = {"south": grid.nx, "north": grid.nx, "west": grid.ny, "east": grid.ny}
    makers = (lambda count: 0.0, np.zeros, lambda count: rng.uniform(-1.0, 1.0, count))
    cases = [{s: (kind, make(along[s])) for s in sides}
             for kind in ("dirichlet", "neumann") for make in makers]
    for _ in range(6):
        cases.append({s: (("dirichlet", "neumann")[rng.integers(2)],
                          makers[rng.integers(3)](along[s])) for s in sides})
    return cases


@pytest.mark.parametrize("nx,ny", ORACLE_GRIDS)
def test_boundary_data_matches_node_loop_bitwise(nx, ny):
    grid = Grid2D(nx, ny, width=2.0, height=6.0)
    rng = np.random.default_rng(nx * 31 + ny)
    for d in (0.04, rng.uniform(0.01, 3.0, grid.n)):
        for bc in boundary_data_cases(grid, rng):
            a, f = diffusion_operator(grid, d, bc)
            a_ref, f_ref = reference_diffusion_operator(grid, d, bc)
            assert_same_sparse(a, stencil_dia(a_ref, grid))
            assert_bitwise(f, f_ref)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
def test_boundary_data_of_the_wrong_length_is_refused(kind):
    grid = Grid2D(5, 7)
    for values in (np.zeros(grid.nx + 1), np.ones(grid.nx - 1)):
        bc = dict(DIRICHLET0, south=(kind, values))
        with pytest.raises(ValueError):
            diffusion_operator(grid, 1.0, bc)


@pytest.mark.parametrize("theta_in", [0.0, 0.3])
def test_thermal_assemblies_match_node_loop_bitwise(theta_in):
    """The flow set (inlet profile south, Neumann 0 north, Dirichlet 0 walls)
    and the heat set, with and without an inflow temperature."""
    surrogate = ThermalFlowSurrogate(theta_in=theta_in)
    grid = surrogate.grid
    rng = np.random.default_rng(int(theta_in * 10) + 3)
    flow_bc = {"south": ("dirichlet", surrogate.inlet_profile()), "north": ("neumann", 0.0),
               "west": ("dirichlet", 0.0), "east": ("dirichlet", 0.0)}
    k_ref, k_f_ref = reference_diffusion_operator(grid, surrogate.k_t, heat_bc(surrogate))
    stencil, f_bc = surrogate.heat_diffusion
    assert_same_sparse(problems._stencil_matrix(grid, **stencil), stencil_dia(k_ref, grid))
    assert_bitwise(f_bc, k_f_ref)
    for _ in range(5):
        theta = rng.uniform(-0.5, 1.0, grid.n)
        a, f = assemble_flow(surrogate, theta)
        a_ref, f_ref = reference_diffusion_operator(grid, surrogate.viscosity(theta), flow_bc)
        assert_same_sparse(a, stencil_dia(a_ref, grid))
        assert_bitwise(f, surrogate.beta * problems.GRAVITY * theta + f_ref)
        u = rng.uniform(-2.0, 2.0, grid.n)
        u[rng.random(grid.n) < 0.2] = 0.0
        a, f = assemble_heat(surrogate, u)
        up_ref, up_f_ref = reference_upwind_advection(grid, u, theta_in)
        assert_same_sparse(a, stencil_dia(k_ref + up_ref, grid))
        assert_bitwise(f, k_f_ref + up_f_ref)


def test_homogeneous_problem_is_zero():
    grid = Grid2D(6, 6)
    a, f_bc = diffusion_operator(grid, 1.0, DIRICHLET0)
    u = np.linalg.solve(a.toarray(), f_bc + np.zeros(grid.n))
    assert numerics.norm2(u) <= 1e-12


def test_manufactured_solution_second_order():
    errors = []
    for n in (15, 31):
        grid = Grid2D(n, n)
        xs, ys = np.meshgrid(grid.xcoords(), grid.hy * np.arange(1, n + 1), indexing="xy")
        xs, ys = xs.ravel(), ys.ravel()
        exact = np.sin(np.pi * xs) * np.sin(np.pi * ys)
        rhs = 2.0 * np.pi ** 2 * exact
        a, f_bc = diffusion_operator(grid, 1.0, DIRICHLET0)
        u = np.linalg.solve(a.toarray(), rhs + f_bc)
        errors.append(grid.hx * numerics.norm2(u - exact))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_discrete_maximum_principle():
    grid = Grid2D(8, 8)
    bc = {s: ("dirichlet", 0.3) for s in ("south", "north", "west", "east")}
    a, f_bc = diffusion_operator(grid, 2.0, bc)
    u = np.linalg.solve(a.toarray(), f_bc)
    assert u.min() >= -1e-13


def test_variable_coefficient_rejects_nonpositive():
    grid = Grid2D(4, 4)
    d = np.ones(grid.n)
    d[3] = 0.0
    with pytest.raises(NonPositiveDiffusion):
        diffusion_operator(grid, d, DIRICHLET0)


def test_neumann_conduction_flux():
    # 1-D cross-channel conduction: -k u'' = 0, flux q at both walls,
    # Dirichlet 0 at south; compare wall-normal gradient with q/k to O(h)
    surrogate = ThermalFlowSurrogate(grid=Grid2D(32, 16, width=2.0, height=6.0))
    a, f = assemble_heat(surrogate, np.zeros(surrogate.grid.n))
    theta = np.linalg.solve(a.toarray(), f)
    grid = surrogate.grid
    theta2d = theta.reshape(grid.ny, grid.nx)
    mid = grid.ny // 2
    grad_wall = (theta2d[mid, 0] - theta2d[mid, 1]) / grid.hx
    expected = surrogate.theta_wall / surrogate.k_t
    assert grad_wall == pytest.approx(expected, rel=0.2)


def test_heat_zero_wall_flux_zero_solution():
    surrogate = ThermalFlowSurrogate(theta_wall=0.0)
    a, f = assemble_heat(surrogate, np.zeros(surrogate.grid.n))
    theta = np.linalg.solve(a.toarray(), f)
    assert numerics.norm2(theta) <= 1e-12


def test_heat_assembly_matches_summed_operators():
    """One stencil build equals the sum of the diffusion and upwind matrices."""
    surrogate = ThermalFlowSurrogate(theta_in=0.3)
    grid = surrogate.grid
    a_diff, f_bc = diffusion_operator(grid, surrogate.k_t, heat_bc(surrogate))
    rng = np.random.default_rng(41)
    for trial in range(50):
        u = rng.uniform(-2.0, 2.0, grid.n) * 10.0 ** rng.uniform(-3.0, 1.0)
        u[rng.random(grid.n) < 0.2] = 0.0
        if trial % 10 == 0:
            u = np.abs(u) if trial % 20 == 0 else -np.abs(u)
        a_adv, f_adv = reference_upwind_advection(grid, u, inflow_value=surrogate.theta_in)
        expected = stencil_dia(a_diff.toarray() + a_adv, grid)
        a, f = assemble_heat(surrogate, u)
        assert_same_dia(a, expected)
        assert a.data.dtype == np.float64
        assert np.array_equal(f, f_bc + f_adv)


def test_upwind_is_m_matrix():
    """Upwinding keeps the heat matrix a Z-matrix with nonnegative row sums."""
    surrogate = ThermalFlowSurrogate(grid=Grid2D(5, 7))
    rng = np.random.default_rng(0)
    u = rng.uniform(-2.0, 2.0, surrogate.grid.n)
    a, _ = assemble_heat(surrogate, u)
    a = a.toarray()
    off = a - np.diag(np.diag(a))
    assert np.all(off <= 0.0)
    assert np.all(a.sum(axis=1) >= -1e-12)


def test_viscosity_law():
    s = ThermalFlowSurrogate()
    nu0 = s.viscosity(np.array([0.0]))[0]
    assert nu0 == pytest.approx(0.005 * math.exp(20.0 / 9.0), rel=1e-12)
    thetas = np.linspace(-8.0, 1.0, 50)
    nus = s.viscosity(thetas)
    assert np.all(np.diff(nus) < 0)  # monotone decreasing
    with pytest.raises(ViscosityOutOfRange):
        s.viscosity(np.array([-8.6]))


def test_run_into_the_viscosity_singularity_stops_cleanly():
    """Cooled walls drive the temperature below the singularity of a
    viscosity law whose pole sits just below zero: the run raises from the
    next flow assembly, after finite iterates and without a numpy warning."""
    surrogate = ThermalFlowSurrogate(theta_wall=-0.12, visc_c=-0.55)
    problem = make_coupled_problem(surrogate)
    finite = []

    def observer(ev):
        finite.append(bool(np.isfinite(ev["x_next"]).all()))

    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        with pytest.raises(ViscosityOutOfRange):
            accelerated_run(problem, RunConfig(eps=1e-8, rom_set=frozenset({1})),
                            observer=observer)
    assert finite and all(finite)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_velocity_reaching_the_heat_assembly_raises(bad):
    surrogate = ThermalFlowSurrogate()
    problem = make_coupled_problem(surrogate)
    n = surrogate.grid.n
    u = np.ones(n)
    u[n // 3] = bad
    with pytest.raises(ValueError, match="finite"):
        problem.assemblers[1](problem.x0, [u])
    with pytest.raises(ValueError, match="finite"):
        assemble_heat(ThermalFlowSurrogate(), u)


def test_flow_unforced_zero():
    # beta = 0 and a zero inlet profile leave the velocity identically zero
    s = ThermalFlowSurrogate(beta=0.0)
    bc = {"south": ("dirichlet", 0.0), "north": ("neumann", 0.0),
          "west": ("dirichlet", 0.0), "east": ("dirichlet", 0.0)}
    a0, f0 = diffusion_operator(s.grid, s.viscosity(np.zeros(s.grid.n)), bc)
    u = np.linalg.solve(a0.toarray(), f0)
    assert numerics.norm2(u) <= 1e-12


def test_flow_assembly_with_prebuilt_boundary_data_is_bitwise_the_same():
    """Repeated flow and heat assemblies, which reuse the surrogate's cached
    boundary data and k_T stencil, equal the first assembly of a fresh
    equal surrogate."""
    s = ThermalFlowSurrogate(theta_in=0.3)
    rng = np.random.default_rng(5)
    fields = [rng.uniform(-0.5, 1.0, s.grid.n) for _ in range(3)]
    for assemble in (assemble_flow, assemble_heat):
        repeated = [assemble(s, v) for v in fields]
        for v, (a, f) in zip(fields, repeated):
            a_fresh, f_fresh = assemble(ThermalFlowSurrogate(theta_in=0.3), v)
            assert_same_sparse(a, a_fresh)
            assert_bitwise(f, f_fresh)


def test_thermal_surrogate_is_frozen_and_its_cached_arrays_are_read_only():
    s = ThermalFlowSurrogate()
    assemble_flow(s, np.zeros(s.grid.n))
    assemble_heat(s, np.zeros(s.grid.n))
    stencil, f_bc = s.heat_diffusion
    assert s.heat_diffusion is s.__dict__["heat_diffusion"]
    assert s.flow_bc is s.__dict__["flow_bc"]
    for arr in (s.flow_bc["south"][1], *stencil.values(), f_bc):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.k_t = 1.0


def test_flow_symmetry_for_constant_theta():
    s = ThermalFlowSurrogate()
    theta = 0.05 * np.ones(s.grid.n)
    a, f = assemble_flow(s, theta)
    u = np.linalg.solve(a.toarray(), f).reshape(s.grid.ny, s.grid.nx)
    assert np.allclose(u, u[:, ::-1], atol=1e-10)


def test_kappa_analytic_unit_square():
    s_val, d = 0.1, 0.5
    pair = ReactionDiffusionPair(n=8, d1=d, d2=d, s12=s_val, s21=s_val)
    # kappa sums the absolute coupling slopes
    expected = (1.0 / (2.0 * math.pi ** 2)) * (2 * s_val) / d
    assert kappa_analytic(pair) == pytest.approx(expected, rel=1e-12)


def test_kappa_zero_for_uncoupled():
    pair = ReactionDiffusionPair(n=8, d1=1.0, d2=1.0, s12=0.0, s21=0.0)
    assert kappa_analytic(pair) == 0.0


def test_kappa_below_golden_ratio_satisfies_condition4():
    pair = ReactionDiffusionPair(n=8, s12=0.1, s21=0.1)
    kappa = kappa_analytic(pair)
    assert kappa < (math.sqrt(5.0) - 1.0) / 2.0
    g = coupling.DependenceGraph(2, {(1, 0): kappa, (2, 1): kappa})
    rep = coupling.sufficient_conditions(g)
    assert rep.conditions[3].applicable and rep.conditions[3].satisfied


def test_rd_pair_rejects_nonpositive_diffusion():
    for d in (0.0, -0.02, math.nan):
        with pytest.raises(NonPositiveDiffusion):
            ReactionDiffusionPair(d2=d)


def test_rd_zero_coupling_converges_after_first_solve():
    pair = ReactionDiffusionPair(n=8, s12=0.0, s21=0.0)
    prob = make_coupled_problem(pair)
    cfg = RunConfig(eps=1e-12, rom_set=frozenset(), validation_loop=False)
    report = accelerated_run(prob, cfg)
    assert report.converged
    assert report.iterations <= 3


def test_rd_fixed_point_matches_newton_oracle():
    pair = ReactionDiffusionPair(n=8, d2=0.03)
    prob = make_coupled_problem(pair)
    eps = 1e-10
    cfg = RunConfig(eps=eps, rom_set=frozenset(), validation_loop=False)
    x = accelerated_run(prob, cfg).x
    # monolithic oracle: solve the coupled linear system directly
    n = pair.grid.n
    a1, f1 = diffusion_operator(pair.grid, pair.d1, DIRICHLET0)
    a2, f2 = diffusion_operator(pair.grid, pair.d2, DIRICHLET0)
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = a1.toarray()
    big[:n, n:] = -pair.s12 * np.eye(n)
    big[n:, n:] = a2.toarray()
    big[n:, :n] = -pair.s21 * np.eye(n)
    rhs = np.concatenate([pair.q1 + f1, pair.q2 + f2])
    exact = np.linalg.solve(big, rhs)
    assert numerics.norm2(x - exact) <= 10 * eps


def test_rd_exact_constants_are_valid_bounds():
    for n in (3, 8, 16):
        pair = ReactionDiffusionPair(n=n)
        prob = make_coupled_problem(pair, exact_constants=True)
        fc = prob.fixed_constants
        for d, bound in zip((pair.d1, pair.d2), fc.inv_norms):
            a, _ = diffusion_operator(pair.grid, d, DIRICHLET0)
            true_inv = 1.0 / np.linalg.svd(a.toarray(), compute_uv=False)[-1]
            assert true_inv <= bound <= true_inv * (1 + 1e-6)
        assert fc.lipschitz < 1.0


def test_negative_couplings_certify_their_absolute_slopes():
    positive = ReactionDiffusionPair(n=8)
    m1 = make_coupled_problem(positive, exact_constants=True).fixed_constants.inv_norms[0]
    for s12, s21 in ((-0.15, 0.15), (-0.15, -0.15)):
        pair = dataclasses.replace(positive, s12=s12, s21=s21)
        prob = make_coupled_problem(pair, exact_constants=True)
        assert prob.graph.k(1, 0) == 0.15 * m1
        assert prob.graph.k(2, 1) == 0.15 * m1
        assert kappa_analytic(pair) == kappa_analytic(positive)
        cfg = RunConfig(eps=1e-8, rom_set=frozenset({1}))
        assert accelerated_run(prob, cfg).converged
        assert lockstep_verify(prob, cfg) <= cfg.eps


@settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.filter_too_much])
@given(n=st.integers(3, 6), log_d=st.tuples(st.floats(-3.0, 0.0), st.floats(-3.0, 0.0)),
       s=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
def test_exact_constants_hold_on_random_contractive_pairs(n, log_d, s):
    pair = ReactionDiffusionPair(n=n, d1=math.exp(log_d[0]), d2=math.exp(log_d[1]),
                                 s12=s[0], s21=s[1])
    prob = make_coupled_problem(pair, exact_constants=True)
    assume(prob.fixed_constants.lipschitz < 1.0)
    a1, _ = prob.assemblers[0](prob.x0, [])
    true_inv = 1.0 / np.linalg.svd(a1.toarray(), compute_uv=False)[-1]
    # the dense reference carries rounding of its own
    assert prob.graph.k(1, 0) >= abs(pair.s12) * true_inv * (1 - 1e-12)
    assert kappa_analytic(pair) >= 0.0
    for rom_set in ({1}, {2}, {1, 2}):
        cfg = RunConfig(eps=1e-8, rom_set=frozenset(rom_set), criterion="propagation")
        assert accelerated_run(prob, cfg).converged
        assert lockstep_verify(prob, cfg) <= cfg.eps


def spied(monkeypatch, name, module=problems):
    """Arguments of each call of ``<module>.<name>``, which still runs."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def sine_start(grid):
    """The discrete sine mode of the grid's Dirichlet Laplacian, in natural
    order: the Perron vector of a constant-coefficient operator."""
    sx = np.sin(np.pi * np.arange(1, grid.nx + 1) / (grid.nx + 1))
    sy = np.sin(np.pi * np.arange(1, grid.ny + 1) / (grid.ny + 1))
    return np.outer(sy, sx).ravel()


def test_rd_pair_with_equal_fields_builds_and_certifies_one_operator(monkeypatch):
    pair = ReactionDiffusionPair(n=8)
    built = spied(monkeypatch, "diffusion_operator")
    certified = spied(monkeypatch, "spd_inverse_norm")
    prob = make_coupled_problem(pair, exact_constants=True)
    assert len(built) == len(certified) == 1
    monkeypatch.undo()
    x = np.zeros(2 * pair.grid.n)
    a1, _ = prob.assemblers[0](x, [])
    a2, _ = prob.assemblers[1](x, [np.zeros(pair.grid.n)])
    assert a2 is a1
    # certified on the pair's Perron vector; the shared bound is the one
    # system 2's own operator gets on it
    [(_, start)] = certified
    np.testing.assert_allclose(start, sine_start(pair.grid), rtol=1e-14)
    a2_own, _ = diffusion_operator(pair.grid, pair.d2, DIRICHLET0)
    expected = problems.spd_inverse_norm(a2_own, start)
    assert prob.fixed_constants.inv_norms == (expected, expected)
    report = accelerated_run(prob, RunConfig(eps=1e-8, rom_set=frozenset({1})))
    assert report.converged and report.factorizations == [1, 0]


def test_rd_pair_with_different_fields_builds_and_certifies_two(monkeypatch):
    pair = dataclasses.replace(ReactionDiffusionPair(n=8), d2=0.03)
    built = spied(monkeypatch, "diffusion_operator")
    certified = spied(monkeypatch, "spd_inverse_norm")
    prob = make_coupled_problem(pair, exact_constants=True)
    assert [d for _, d, _ in built] == [0.02, 0.03]
    assert len(certified) == 2
    monkeypatch.undo()
    # both are certified on the pair's Perron vector: d only scales the operator
    start = certified[0][1]
    assert certified[1][1] is start
    np.testing.assert_allclose(start, sine_start(pair.grid), rtol=1e-14)
    m1, m2 = prob.fixed_constants.inv_norms
    for d, m in ((pair.d1, m1), (pair.d2, m2)):
        a, _ = diffusion_operator(pair.grid, d, DIRICHLET0)
        assert m == problems.spd_inverse_norm(a, start)
    assert m2 < m1      # the larger diffusion has the smaller inverse
    report = accelerated_run(prob, RunConfig(eps=1e-8, rom_set=frozenset({1})))
    assert report.converged and report.factorizations == [1, 1]


def test_rd_exact_constants_factor_nothing(monkeypatch):
    factored = spied(monkeypatch, "lu_factorize", module=numerics)
    prob = make_coupled_problem(ReactionDiffusionPair(n=32), exact_constants=True)
    assert prob.fixed_constants is not None and factored == []


@pytest.mark.parametrize("n", [3, 8, 16, 32, 64, 129])
def test_a_scalar_coefficient_builds_the_operator_of_its_constant_field(n):
    """A scalar d's face weights are computed once; the operator, F_bc and
    the certified constants are bitwise those of d as one value per node."""
    grid = Grid2D(n, n)
    bc = {"south": ("dirichlet", 0.5), "north": ("neumann", 0.0),
          "west": ("dirichlet", 0.0), "east": ("neumann", 0.3)}
    for d in (1e-3, 0.02, 0.1 + 0.2, 1.0, 7.3):
        for walls in (DIRICHLET0, bc):
            a, f = diffusion_operator(grid, d, walls)
            a_ref, f_ref = diffusion_operator(grid, np.full(grid.n, d), walls)
            assert_same_sparse(a, a_ref)
            assert_bitwise(f, f_ref)
        pair = ReactionDiffusionPair(n=n, d1=d, d2=2.0 * d)
        ops = [diffusion_operator(grid, c, DIRICHLET0)[0] for c in (pair.d1, pair.d2)]
        refs = [diffusion_operator(grid, np.full(grid.n, c), DIRICHLET0)[0]
                for c in (pair.d1, pair.d2)]
        assert (repr(problems._rd_exact_constants(pair, *ops))
                == repr(problems._rd_exact_constants(pair, *refs)))


@settings(deadline=None, max_examples=50)
@given(n=st.integers(3, 16), log_d=st.tuples(st.floats(-3.0, 0.0), st.floats(-3.0, 0.0)))
def test_rd_inverse_norms_are_certified_and_tight_on_the_perron_vector(n, log_d):
    pair = ReactionDiffusionPair(n=n, d1=math.exp(log_d[0]), d2=math.exp(log_d[1]))
    prob = make_coupled_problem(pair, exact_constants=True)
    for d, m in zip((pair.d1, pair.d2), prob.fixed_constants.inv_norms):
        a, _ = diffusion_operator(pair.grid, d, DIRICHLET0)
        truth = 1.0 / np.linalg.eigvalsh(a.toarray())[0]
        # the dense reference carries rounding of its own
        assert truth * (1 - 1e-12) <= m <= truth * (1 + 1e-9)


def test_inverse_norm_bound_is_tight_on_the_default_rd_operator():
    pair = ReactionDiffusionPair()
    assert pair.n == 32
    prob = make_coupled_problem(pair)
    a, _ = prob.assemblers[0](prob.x0, [])
    true_inv = 1.0 / np.linalg.eigvalsh(a.toarray())[0]
    bound = problems.spd_inverse_norm(a, sine_start(pair.grid))
    assert true_inv <= bound <= true_inv * (1 + 1e-9)


SIDES = ("south", "north", "west", "east")


@st.composite
def m_matrix_operators(draw):
    """diffusion_operator on a random small grid: positive, spatially varying
    d and random walls, at least one of them Dirichlet."""
    grid = Grid2D(draw(st.integers(3, 8)), draw(st.integers(3, 8)),
                  width=draw(st.floats(0.5, 3.0)), height=draw(st.floats(0.5, 3.0)))
    log_d = draw(st.lists(st.floats(-2.0, 2.0), min_size=grid.n, max_size=grid.n))
    dirichlet = draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
    bc = {side: ("dirichlet", 0.0) if wall else ("neumann", 0.0)
          for side, wall in zip(SIDES, dirichlet)}
    return diffusion_operator(grid, np.exp(log_d), bc)[0]


def certificate(a, start):
    """``spd_inverse_norm(a, start)``, or the message of its ConfigError."""
    try:
        return problems.spd_inverse_norm(a, start)
    except ConfigError as exc:
        return str(exc)


def true_inverse_norm(a):
    return 1.0 / np.linalg.svd(a.toarray(), compute_uv=False)[-1]


@settings(deadline=None, max_examples=100)
@given(m_matrix_operators(), st.data())
def test_inverse_norm_bound_is_certified(a, data):
    # a random positive start, drawn toward A^-1 1 by a random weight so
    # that some draws certify: it either certifies a or is refused as a start
    noise = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=a.shape[0],
                                        max_size=a.shape[0])))
    solution = numerics.lu_apply(numerics.lu_factorize(a), np.ones(a.shape[0]))
    weight = data.draw(st.floats(0.0, 1.0))
    start = (1.0 - weight) * noise + weight * solution / solution.max()
    bound = certificate(a, start)
    if isinstance(bound, float):
        # the dense reference carries rounding of its own
        assert bound >= true_inverse_norm(a) * (1 - 1e-12)
    else:
        assert bound == problems.NO_CERTIFICATE


@settings(deadline=None, max_examples=100)
@given(m_matrix_operators())
def test_inverse_norm_bound_is_certified_on_the_solution_for_ones(a):
    """``y = A^{-1} 1`` gives ``A y = 1 > 0`` up to rounding: the start the
    flow matrices of later steps are to be certified on."""
    start = numerics.lu_apply(numerics.lu_factorize(a), np.ones(a.shape[0]))
    assert problems.spd_inverse_norm(a, start) >= true_inverse_norm(a) * (1 - 1e-12)


def test_ones_do_not_certify_a_dirichlet_laplacian():
    """An interior row of the Laplacian sums to 0, so ``A 1`` is not
    positive: the start is refused, not the matrix."""
    a, _ = diffusion_operator(Grid2D(5, 4), 1.0, DIRICHLET0)
    with pytest.raises(ConfigError) as refused:
        problems.spd_inverse_norm(a, np.ones(20))
    assert str(refused.value) == problems.NO_CERTIFICATE


def _no_certificate_cases():
    surrogate = ThermalFlowSurrogate(grid=Grid2D(6, 9, width=2.0, height=6.0))
    heat, _ = assemble_heat(surrogate, np.ones(surrogate.grid.n))
    grid = Grid2D(5, 4)
    a, _ = diffusion_operator(grid, 1.0, DIRICHLET0)
    positive = a.tolil()
    positive[3, 4] = positive[4, 3] = 1.0
    neumann = {side: ("neumann", 0.0) for side in SIDES}
    singular, _ = diffusion_operator(grid, 1.0, neumann)
    lam_min = np.linalg.eigvalsh(a.toarray())[0]
    indefinite = a - 2.0 * lam_min * scipy.sparse.eye_array(grid.n, format="csc")
    # DIA forms of a, with an offset-2 superdiagonal and no mirror, with one
    # in-matrix entry of the +1 diagonal changed, and with a positive pair of
    # mirrored in-grid entries
    unmirrored = scipy.sparse.dia_array(
        (np.insert(a.data, 4, -0.5, axis=0), np.insert(a.offsets, 4, 2)), shape=a.shape)
    unequal, positive_pair = a.copy(), a.copy()
    unequal.data[3, 2] *= 0.5
    positive_pair.data[1, 2] = positive_pair.data[3, 3] = 1.0
    return {"nonsymmetric-heat": (heat, surrogate.grid),
            "positive-offdiagonal": (positive.tocsc(), grid),
            "singular-neumann": (singular, grid), "indefinite": (indefinite, grid),
            "dia-unmirrored-superdiagonal": (unmirrored, grid),
            "dia-unequal-mirror": (unequal, grid),
            "dia-positive-subdiagonal": (positive_pair, grid)}


@pytest.mark.parametrize("start", ["ones", "sine"])
@pytest.mark.parametrize("case", list(_no_certificate_cases()))
def test_inverse_norm_bound_refuses_matrices_without_a_certificate(case, start):
    a, grid = _no_certificate_cases()[case]
    # the singular and indefinite matrices pass the structural checks, and no
    # positive start certifies them
    symmetric_z_matrix = case in ("singular-neumann", "indefinite")
    with pytest.raises(ConfigError) as refused:
        problems.spd_inverse_norm(a, sine_start(grid) if start == "sine" else np.ones(grid.n))
    assert str(refused.value) == (problems.NO_CERTIFICATE if symmetric_z_matrix
                                  else problems.NOT_M_MATRIX)


def with_padding(a, values):
    """A copy of the DIA array ``a`` whose padding cycles through ``values``."""
    padded = a.copy()
    inside = np.zeros(a.data.shape, dtype=bool)
    for k, o in enumerate(a.offsets):
        inside[k, max(o, 0):min(a.shape[0] + o, a.shape[1])] = True
    padded.data[~inside] = np.resize(values, (~inside).sum())
    return padded


@pytest.mark.parametrize("values", [[np.nan, 1e300], [1e300, -7.0, 3.0]],
                         ids=["nan-and-huge", "positive-asymmetric"])
def test_padding_is_never_read(values):
    """An operator whose padding holds NaN and 1e300, or positive values that
    differ between mirrored diagonals, factors, solves and certifies (or
    refuses a start) bit for bit like its CSC twin; as_matrix takes it as it
    is."""
    grid = Grid2D(6, 5)
    rng = np.random.default_rng(8)
    a, _ = diffusion_operator(grid, rng.uniform(0.5, 2.0, grid.n), DIRICHLET0)
    padded = with_padding(a, values)
    assert not np.array_equal(padded.data, a.data, equal_nan=True)
    assert numerics.as_matrix(padded) is padded
    twin = a.tocsc()
    b = rng.standard_normal(grid.n)
    got, want = numerics.lu_factorize(padded), numerics.lu_factorize(twin)
    assert_bitwise(got.lub, want.lub)
    assert_bitwise(got.ipiv, want.ipiv)
    assert_bitwise(numerics.lu_apply(got, b), numerics.lu_apply(want, b))
    # the sine mode does not certify this varying-coefficient operator; A^-1 1 does
    starts = (sine_start(grid), numerics.lu_apply(want, np.ones(grid.n)))
    results = [(certificate(padded, y), certificate(twin, y)) for y in starts]
    assert results[0] == (problems.NO_CERTIFICATE,) * 2
    assert isinstance(results[1][0], float) and results[1][0] == results[1][1]


@pytest.mark.parametrize("start, error", [
    (np.ones(19), DimensionMismatch),
    (np.r_[np.ones(19), 0.0], ConfigError),
    (np.r_[np.ones(19), np.nan], ValueError),
], ids=["short", "zero", "nan"])
def test_inverse_norm_bound_refuses_a_start_that_is_not_positive_of_length_n(start, error):
    a, _ = diffusion_operator(Grid2D(5, 4), 1.0, DIRICHLET0)
    with pytest.raises(error, match="vector"):
        problems.spd_inverse_norm(a, start)


def test_thermal_coupled_fixed_point_contracts():
    prob = make_coupled_problem(ThermalFlowSurrogate())
    cfg = RunConfig(eps=1e-6, rom_set=frozenset(), validation_loop=False, k_max=300)
    report = accelerated_run(prob, cfg)
    assert report.converged
    # the successive step ratios an online ledger would sample as L
    norms = [row.step_norm for row in report.trace]
    assert max(b / a for a, b in zip(norms[1:], norms[2:])) < 1.0


def test_make_problem_rejects_unknown_spec():
    with pytest.raises(ConfigError):
        make_coupled_problem(object())
    with pytest.raises(ConfigError):
        make_coupled_problem(ThermalFlowSurrogate(), exact_constants=True)


def test_scalar_toy_problem():
    prob = make_coupled_problem(ScalarToy(rate=0.5), exact_constants=True)
    res = step(prob, np.array([1.0]), RunReport(p=1), FactorCache())
    assert res.x_next == pytest.approx([0.5])
    assert prob.fixed_constants.lipschitz == 0.5


def test_scalar_toy_is_frozen():
    """The toy's certified constants capture its rate when the problem is
    built, and its assembler reads the rate at each call: a rate changed
    afterwards would leave the certified L describing another map."""
    toy = ScalarToy(rate=0.5)
    make_coupled_problem(toy, exact_constants=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        toy.rate = 1.5
