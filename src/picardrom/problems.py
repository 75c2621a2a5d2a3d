"""Built-in finite-difference demo problems.

Two coupled demos exercise the accelerated driver: a reaction-diffusion pair
on the unit square (linear couplings, homogeneous Dirichlet walls) and a
quasi-linear thermal-flow surrogate on a 2 x 6 vertical channel, where a
scalar vertical-velocity diffusion equation with a temperature-dependent
viscosity and Boussinesq forcing is coupled to an upwinded heat
advection-diffusion equation.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import coupling, numerics
from .driver import CoupledProblem
from .errors import (
    ConfigError,
    DimensionMismatch,
    NonPositiveDiffusion,
    ViscosityOutOfRange,
)

GRAVITY = 9.81

# spd_inverse_norm stops once its per-node Collatz-Wielandt ratios agree to
# INV_NORM_RTOL, on its start vector or after a sweep of inverse iteration, or
# after INV_NORM_MAX_SWEEPS sweeps; every certificate it takes is a valid
# bound, so the cap only costs tightness.
INV_NORM_RTOL = 1e-9
INV_NORM_MAX_SWEEPS = 200
NOT_M_MATRIX = "exact constants need a symmetric nonsingular M-matrix"


@dataclass(frozen=True)
class Grid2D:
    """Uniform interior-node grid on a rectangle (nodes exclude the boundary)."""

    nx: int
    ny: int
    width: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ConfigError("grid needs at least 3 interior points per direction")
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("domain extents must be positive")

    @property
    def hx(self) -> float:
        return self.width / (self.nx + 1)

    @property
    def hy(self) -> float:
        return self.height / (self.ny + 1)

    @property
    def n(self) -> int:
        return self.nx * self.ny

    def xcoords(self) -> np.ndarray:
        return self.hx * np.arange(1, self.nx + 1)


def _node_field(grid: Grid2D, values) -> np.ndarray:
    """``values``, a scalar or one value per node, as a ``(ny, nx)`` float array."""
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n,):
        v = np.broadcast_to(v, (grid.n,))
    return v.reshape(grid.ny, grid.nx)


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


@functools.lru_cache(maxsize=8)
def _stencil_template(nx: int, ny: int):
    """DIA template of the 5-point stencils of an ``nx`` by ``ny`` grid:
    offsets ``-nx, -1, 0, 1, nx`` (read-only), ``data`` all zeros. scipy's
    constructor checks it once, here."""
    n = nx * ny
    template = scipy.sparse.dia_array((np.zeros((5, n)), [-nx, -1, 0, 1, nx]), shape=(n, n))
    template.offsets.setflags(write=False)
    return template


def _stencil_matrix(grid: Grid2D, diag, west, east, south, north):
    """DIA matrix of a 5-point stencil given per-node coefficients.

    Each argument is a ``(ny, nx)`` array: ``west[j, i]`` multiplies the west
    neighbour of node (j, i), and so on. Coefficients of neighbours outside
    the grid are not read; every other coefficient is stored, zero or not.

    Row ``k`` of ``data`` is the diagonal at offset ``-nx, -1, 0, 1, nx``, so
    column ``c`` holds the coefficients of node ``c``'s north, east, own, west
    and south neighbour rows: ``south[c + nx]``, ``west[c + 1]``, ``diag[c]``,
    ``east[c - 1]`` and ``north[c - nx]``. An entry whose neighbour lies
    outside the grid, and the padding, is zero. The result is a shallow copy
    of the grid's template (:func:`_stencil_template`) with the new ``data``
    and its own copy of the offsets, so scipy's constructor need not check
    them again and the returned matrix owns its arrays.
    """
    template = _stencil_template(grid.nx, grid.ny)
    data = np.empty((5, grid.ny, grid.nx))
    data[0, :-1], data[0, -1] = south[1:], 0.0
    data[1, :, :-1], data[1, :, -1] = west[:, 1:], 0.0
    data[2] = diag
    data[3, :, 1:], data[3, :, 0] = east[:, :-1], 0.0
    data[4, 1:], data[4, 0] = north[:-1], 0.0
    matrix = copy.copy(template)
    matrix.data = data.reshape(5, grid.n)
    matrix.offsets = template.offsets.copy()
    return matrix


def diffusion_operator(grid: Grid2D, d: np.ndarray, bc: dict):
    """Assemble -div(d grad u) on interior nodes with per-side conditions.

    ``bc`` maps side names "south"/"north"/"west"/"east" to either
    ("dirichlet", values) where values is a scalar or an array along the side,
    or ("neumann", flux) with the prescribed conormal flux d*du/dn (scalar).
    Returns (A, F_bc): A as a sparse DIA matrix, with boundary contributions
    already moved to F_bc.
    """
    stencil, f = _diffusion_stencil(grid, d, bc)
    return _stencil_matrix(grid, **stencil), f


def _diffusion_stencil(grid: Grid2D, d: np.ndarray, bc: dict):
    """Stencil coefficients (keyword arguments of :func:`_stencil_matrix`)
    and F_bc of :func:`diffusion_operator`.

    The face weights are written once, padded with the boundary faces:
    ``fx[:, i]`` is the face west of column ``i`` and ``fy[j, :]`` the face
    south of row ``j``. A boundary face weighs ``d / h**2`` on a Dirichlet
    side and 0 on a Neumann side, so each node's diagonal sums its west,
    east, south and north faces in that order, and each off-diagonal is a
    view of the negated faces; the boundary entries of the off-diagonals lie
    outside the grid and are not read.
    """
    d = _node_field(grid, d)
    if d.min() <= 0.0:
        raise NonPositiveDiffusion("diffusion field must be strictly positive")
    ny, nx = grid.ny, grid.nx
    fx = np.empty((ny, nx + 1))
    fy = np.empty((ny + 1, nx))
    np.divide(_harmonic(d[:, :-1], d[:, 1:]), grid.hx**2, out=fx[:, 1:-1])
    np.divide(_harmonic(d[:-1, :], d[1:, :]), grid.hy**2, out=fy[1:-1, :])
    f = np.zeros((ny, nx))
    # boundary face, boundary node slice and spacing of each side, in the
    # order their contributions are summed at every node
    sides = (("west", fx[:, 0], np.s_[:, 0], grid.hx),
             ("east", fx[:, -1], np.s_[:, -1], grid.hx),
             ("south", fy[0, :], np.s_[0, :], grid.hy),
             ("north", fy[-1, :], np.s_[-1, :], grid.hy))
    for side, face, edge, h in sides:
        kind, val = bc[side]
        val = np.asarray(val, dtype=float)
        if val.shape not in ((), face.shape):
            val = np.broadcast_to(val, face.shape)
        dirichlet = kind == "dirichlet"
        if dirichlet:
            np.divide(d[edge], h**2, out=face)
        else:  # neumann: conormal flux d*du/dn prescribed
            face[:] = 0.0
        if val.any():  # boundary data that is exactly zero adds nothing
            f[edge] += face * val if dirichlet else val / h
    diag = fx[:, :-1] + fx[:, 1:] + fy[:-1, :] + fy[1:, :]
    fx, fy = -fx, -fy
    stencil = {"diag": diag, "west": fx[:, :-1], "east": fx[:, 1:],
               "south": fy[:-1, :], "north": fy[1:, :]}
    return stencil, f.ravel()


def _upwind_split(grid: Grid2D, u: np.ndarray):
    """First-order upwind coefficients of ``u * dtheta/dy`` (vertical
    velocity only): ``max(u/hy, 0)`` and ``min(u/hy, 0)`` as ``(ny, nx)``
    arrays, the latter zero on the outlet row, where the zero-gradient ghost
    cancels the term. Upward flow adds the first to the diagonal and
    subtracts it from the south coefficient; downward flow subtracts the
    second from the diagonal and adds it to the north coefficient."""
    c = _node_field(grid, u) / grid.hy
    down = np.minimum(c, 0.0)
    down[-1, :] = 0.0
    return np.maximum(c, 0.0), down


@dataclass(frozen=True)
class ReactionDiffusionPair:
    """Two diffusion equations on the unit square coupled by linear reactions.

    ``-d1 lap y1 = s12*y2 + q1`` and ``-d2 lap y2 = s21*y1 + q2`` on an
    ``n`` x ``n`` grid of interior nodes, with homogeneous Dirichlet walls.
    The alternate scheme lags ``y2`` in the first equation and uses the fresh
    ``y1`` in the second. The assemblers and the certified constants read
    these same fields.
    """

    n: int = 32
    d1: float = 0.02
    d2: float = 0.02
    s12: float = 0.15   # df1/dy2
    s21: float = 0.15   # df2/dy1
    q1: float = 1.0
    q2: float = 0.5

    def __post_init__(self):
        if not (self.d1 > 0.0 and self.d2 > 0.0):
            raise NonPositiveDiffusion("diffusion coefficients must be strictly positive")

    @property
    def grid(self) -> Grid2D:
        return Grid2D(self.n, self.n)


def rectangle_poincare_constant(width: float, height: float) -> float:
    """Poincare constant of a W x H rectangle (from the first Dirichlet eigenvalue)."""
    return 1.0 / (math.pi * math.sqrt(1.0 / width**2 + 1.0 / height**2))


def kappa_analytic(pair: ReactionDiffusionPair) -> float:
    """Analytic contraction estimate for the pair's Picard iteration."""
    c_p = rectangle_poincare_constant(pair.grid.width, pair.grid.height)
    return c_p**2 * (abs(pair.s12) + abs(pair.s21)) / min(pair.d1, pair.d2)


@dataclass(frozen=True)
class ThermalFlowSurrogate:
    """Scalar vertical-velocity / temperature coupling on a heated channel.

    The velocity equation keeps the exponential viscosity law and the
    Boussinesq forcing of the mixed formulation it replaces; the temperature
    equation advects with the computed velocity. Flow enters at the bottom
    with a parabolic profile and leaves at the top. :attr:`flow_bc` and
    :attr:`heat_diffusion` are built at first use and kept, arrays read-only.
    """

    grid: Grid2D = field(default_factory=lambda: Grid2D(16, 48, width=2.0, height=6.0))
    beta: float = 0.1
    visc_a: float = 0.005
    visc_b: float = 20.0
    visc_c: float = -9.0
    k_t: float = 0.04
    theta_wall: float = 0.12
    theta_in: float = 0.0
    theta_margin: float = 0.5

    def viscosity(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if (theta <= self.visc_c + self.theta_margin).any():
            raise ViscosityOutOfRange(
                f"temperature reached the viscosity singularity near {self.visc_c}"
            )
        return self.visc_a * np.exp(self.visc_b / (theta - self.visc_c))

    def inlet_profile(self) -> np.ndarray:
        x = self.grid.xcoords()
        return 1.8 * x * (2.0 - x)

    @functools.cached_property
    def flow_bc(self) -> dict:
        """Boundary data of the flow equation: parabolic inflow at the bottom."""
        inlet = self.inlet_profile()
        inlet.setflags(write=False)
        return {
            "south": ("dirichlet", inlet),
            "north": ("neumann", 0.0),
            "west": ("dirichlet", 0.0),
            "east": ("dirichlet", 0.0),
        }

    @functools.cached_property
    def heat_diffusion(self) -> tuple[dict, np.ndarray]:
        """Stencil coefficients and F_bc of ``-k_T lap`` with the heat
        equation's walls; independent of the iterate."""
        bc = {
            "south": ("dirichlet", self.theta_in),
            "north": ("neumann", 0.0),
            "west": ("neumann", self.theta_wall),
            "east": ("neumann", self.theta_wall),
        }
        stencil, f_bc = _diffusion_stencil(self.grid, self.k_t, bc)
        for arr in (*stencil.values(), f_bc):
            arr.setflags(write=False)
        return stencil, f_bc


def assemble_flow(surrogate: ThermalFlowSurrogate, theta: np.ndarray):
    """Vertical-velocity equation: -div(nu(theta) grad u) = beta*g*theta,
    with the surrogate's :attr:`~ThermalFlowSurrogate.flow_bc`."""
    nu = surrogate.viscosity(theta)
    a, f_bc = diffusion_operator(surrogate.grid, nu, surrogate.flow_bc)
    forcing = surrogate.beta * GRAVITY * np.asarray(theta, dtype=float)
    return a, forcing + f_bc


def assemble_heat(surrogate: ThermalFlowSurrogate, u: np.ndarray):
    """Temperature equation: -k_T lap(theta) + u dtheta/dy = 0, heated walls.

    The upwind terms (see :func:`_upwind_split`) are added to the diagonal,
    south and north coefficients of the surrogate's ``k_T`` stencil,
    :attr:`~ThermalFlowSurrogate.heat_diffusion`; its west and east
    coefficients are used as they are, and the matrix is built once.
    """
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("velocity field must be finite")
    diff, f_bc = surrogate.heat_diffusion
    grid = surrogate.grid
    up, down = _upwind_split(grid, u)
    stencil = dict(diff, diag=diff["diag"] + up - down, south=diff["south"] - up, north=diff["north"] + down)
    f = f_bc.copy()
    if surrogate.theta_in != 0.0:
        # upward flow carries the inlet value in through the south boundary
        f[:grid.nx] += up[0, :] * surrogate.theta_in
    return _stencil_matrix(grid, **stencil), f


@dataclass(frozen=True)
class ScalarToy:
    """One-dimensional affine map ``G(x) = rate * x + source`` via a 1x1 system."""

    rate: float = 0.5
    source: float = 0.0
    x0: float = 1.0


def _stack(x, ys):
    """The Picard combiner of the two-field demos: the solutions stacked."""
    return np.concatenate(ys)


def make_coupled_problem(spec, exact_constants: bool = False) -> CoupledProblem:
    """Wire a demo specification into a CoupledProblem (Picard combiner).

    ``exact_constants`` (the reaction-diffusion pair and the scalar toy) builds
    the problem with certified upper bounds on its constants as its
    ``fixed_constants``, so the error bounds are rigorous.
    """
    if isinstance(spec, ReactionDiffusionPair):
        return _make_rd_problem(spec, exact_constants)
    if isinstance(spec, ThermalFlowSurrogate):
        if exact_constants:
            raise ConfigError("exact constants unavailable for the quasi-linear surrogate")
        return _make_thermal_problem(spec)
    if isinstance(spec, ScalarToy):
        return _make_scalar_problem(spec, exact=exact_constants)
    raise ConfigError(f"unsupported problem spec {type(spec).__name__}")


def _make_rd_problem(pair: ReactionDiffusionPair, exact_constants: bool) -> CoupledProblem:
    grid = pair.grid
    n = grid.n
    walls = {side: ("dirichlet", 0.0) for side in ("south", "north", "west", "east")}
    operators = {}

    def operator(d):
        # Built on first use per distinct diffusion coefficient and then handed
        # out as the same object: the driver reuses its factorization for the
        # rest of a run, and shares it between equations with equal
        # coefficients.
        if d not in operators:
            operators[d] = diffusion_operator(grid, d, walls)
        return operators[d]

    def assemble_1(x, ys):
        a, f_bc = operator(pair.d1)
        return a, pair.s12 * x[n:] + pair.q1 + f_bc

    def assemble_2(x, ys):
        a, f_bc = operator(pair.d2)
        return a, pair.s21 * ys[0] + pair.q2 + f_bc

    constants = None
    if exact_constants:
        constants = _rd_exact_constants(pair, operator(pair.d1)[0], operator(pair.d2)[0])
    return CoupledProblem(
        assemblers=(assemble_1, assemble_2), combiner=_stack,
        graph=constants.graph if exact_constants else coupling.DependenceGraph(2),
        x0=np.zeros(2 * n), fixed_constants=constants,
    )


def spd_inverse_norm(a, y=None) -> float:
    """Certified upper bound on ``||A^{-1}||_2`` by an M-matrix certificate.

    ``A`` must be exactly symmetric with off-diagonal entries ``<= 0``. For
    such a matrix any ``y > 0`` with ``A y > 0`` proves that ``A`` is a
    nonsingular M-matrix, so ``A^{-1} >= 0`` (Berman & Plemmons, *Nonnegative
    Matrices in the Mathematical Sciences*, ch. 6), and the Collatz-Wielandt
    inequality gives ``||A^{-1}||_2 = rho(A^{-1}) <= max_i y_i / (A y)_i``
    (Varga, *Matrix Iterative Analysis*, sec. 2.1). ``(A y)_i`` is bounded
    below by its computed value less the componentwise rounding bound of the
    sparse product, so every certificate taken is a valid bound, and it falls
    toward the true norm as ``y`` nears the Perron vector.

    The certificate is taken first on the start ``y``, a finite, positive
    vector of length n (default all ones). When its per-node ratios agree to
    ``INV_NORM_RTOL``, as they do on a closed-form Perron vector, that bound
    is returned and nothing is factored. Otherwise ``A`` is factored and
    sweeps of inverse iteration from ``y`` supply new vectors until the
    ratios agree, or for ``INV_NORM_MAX_SWEEPS`` sweeps.

    Raises DimensionMismatch, ValueError or ConfigError for a start of the
    wrong length, non-finite or not positive; ConfigError when a check on
    ``A`` fails, so no certificate exists; and SingularMatrix when the
    factorization finds ``A`` singular. It never returns an uncertified
    number.
    """
    a = numerics.as_matrix(a)
    if not scipy.sparse.issparse(a):
        a = numerics.as_matrix(scipy.sparse.coo_array(a))
    diags = list(numerics.diagonals(a))
    # A is symmetric when each stored diagonal's in-matrix entries equal its
    # mirror's, entry by entry, and a Z-matrix when the subdiagonals' are <= 0
    inside = {o: d for o, _, d in diags}
    if not (a.shape[0] == a.shape[1] and inside.keys() == {-o for o in inside}
            and all(np.array_equal(d, inside[-o]) and np.all(d <= 0.0)
                    for o, d in inside.items() if o < 0)):
        raise ConfigError(NOT_M_MATRIX)
    if y is None:
        y = np.ones(a.shape[0])
    else:
        y = numerics.as_vector(y)
        if y.shape != (a.shape[0],):
            raise DimensionMismatch(
                f"start vector has {y.size} entries, matrix has {a.shape[0]} rows")
        if not np.all(y > 0.0):
            raise ConfigError("start vector must be positive")
    # |fl(A y) - A y| <= gamma_k |A| y when each row sums at most k products,
    # one per stored diagonal, with gamma_j = j u / (1 - j u); gamma_{k+2}
    # also covers the roundings of fl(|A| y), of its product with gamma and of
    # the subtraction
    u = np.finfo(float).eps / 2
    terms = len(diags) + 2
    gamma = terms * u / (1.0 - terms * u)
    for sweep in range(INV_NORM_MAX_SWEEPS + 1):
        if sweep:
            if sweep == 1:
                factors = numerics.lu_factorize(a)
            y = numerics.lu_apply(factors, y / y.max())
        # |A| y row by row, each row's terms added in column order, as A y adds them
        abs_y = np.zeros(a.shape[0])
        for o, start, d in diags:
            abs_y[start - o:start - o + d.size] += np.abs(d) * y[start:start + d.size]
        lo = a @ y - gamma * abs_y
        if not (np.all(y > 0.0) and np.all(lo > 0.0)):
            if not sweep:   # the start gives no certificate; sweep from it
                continue
            raise ConfigError(NOT_M_MATRIX)
        ratios = y / lo
        bound = float(ratios.max())
        if bound <= ratios.min() * (1.0 + INV_NORM_RTOL):
            break
    # margin for the roundings of the division and of this product
    return bound * (1.0 + 4.0 * u)


def _rd_perron_vector(pair: ReactionDiffusionPair) -> np.ndarray:
    """Perron vector of the pair's operators, in closed form and natural
    order: ``y[j, i] = sin(pi (i+1) h) sin(pi (j+1) h)`` with ``h = 1/(n+1)``,
    the discrete sine mode of the Dirichlet Laplacian on the unit square."""
    s = np.sin(math.pi * pair.grid.xcoords())
    return np.outer(s, s).ravel()


def _rd_exact_constants(pair: ReactionDiffusionPair, a1, a2) -> coupling.Constants:
    """Certified constants of the pair's problem: its graph's K and L, the
    inverse norms and the Lipschitz bound.

    Each ``||A_i^{-1}||`` is the certified upper bound of
    :func:`spd_inverse_norm` (an M-matrix certificate), taken on the pair's
    closed-form Perron vector (:func:`_rd_perron_vector`; ``d`` only scales
    the operator), so nothing is factored, and computed once when ``a2`` is
    ``a1``. The reactions are linear, so each K is the coupling's
    absolute slope times that bound, and the Lipschitz bound is the
    contraction bound of this graph, an upper bound on the true constant of G.
    """
    y = _rd_perron_vector(pair)
    m1 = spd_inverse_norm(a1, y)
    m2 = m1 if a2 is a1 else spd_inverse_norm(a2, y)
    graph = coupling.DependenceGraph(
        2, k_entries={(1, 0): abs(pair.s12) * m1, (2, 1): abs(pair.s21) * m2})
    return coupling.Constants((m1, m2), graph, coupling.contraction_bound(graph))


def _make_thermal_problem(surrogate: ThermalFlowSurrogate) -> CoupledProblem:
    n = surrogate.grid.n

    def assemble_1(x, ys):
        return assemble_flow(surrogate, x[n:])

    def assemble_2(x, ys):
        return assemble_heat(surrogate, ys[0])

    return CoupledProblem(
        assemblers=(assemble_1, assemble_2), combiner=_stack,
        graph=coupling.DependenceGraph(2), x0=np.zeros(2 * n),
    )


def _make_scalar_problem(toy: ScalarToy, exact: bool) -> CoupledProblem:
    identity = np.array([[1.0]])   # one object, so a run factors it once

    def assemble_1(x, ys):
        return identity, np.array([toy.rate * x[0] + toy.source])

    def combiner(x, ys):
        return ys[0].copy()

    rate = abs(toy.rate)
    graph = coupling.DependenceGraph(1, k_entries={(1, 0): rate})
    return CoupledProblem(
        assemblers=(assemble_1,), combiner=combiner, graph=graph, x0=np.array([toy.x0]),
        fixed_constants=coupling.Constants((1.0,), graph, rate) if exact else None,
    )
