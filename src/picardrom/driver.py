"""Fixed-point engine: exact, relaxed and ROM-accelerated Picard iterations.

The accelerated run keeps a running bound ``err`` on the distance between the
inexact sequence and the exact sequence restarted at the last full-order
point: a full-order refinement step contracts it (``err <- L*err``), an
accepted reduced step accumulates it (``err <- delta + L*err``), L being the
relaxed map's Lipschitz constant, and a step whose tentative bound exceeds
the solver tolerance is rejected and triggers a basis refinement. A reduced
step is rejected as soon as its partial bound fails the criterion, before any
downstream assembly or full-order solve, and the refinement step that follows
reuses the rejected step's assembly of system 1. An optional outer
validation loop applies the exact map once at apparent convergence.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import coupling, numerics, pod
from .coupling import Constants, ConstantsLedger, DependenceGraph
from .errors import ConfigError, MissingConstants, SingularReducedSystem, SvdFailure

log = logging.getLogger(__name__)

CRITERIA = ("residual", "upper_bound", "asymptotic", "propagation")


@dataclass(frozen=True)
class FixedConstants:
    """Certified constants for linear problems (bypass the online ledger).

    Each value must be an upper bound on its true constant, as the M-matrix
    certificate of :func:`picardrom.problems.spd_inverse_norm` gives for
    ``||A_i^{-1}||``; the error bounds are rigorous only then.
    """

    inv_norms: tuple[float, ...]  # upper bound on ||A_i^{-1}|| per system, index i-1
    lipschitz: float              # Lipschitz constant of G (or an upper bound)


@dataclass
class CoupledProblem:
    """p linear-system assemblers in topological order plus the combiner.

    ``assemblers[i-1](x, ys)`` receives the outer iterate and the solutions of
    systems 1..i-1 already computed this step, and returns ``(A_i, F_i)``.
    ``combiner(x, ys)`` maps the p solutions to the next outer iterate.
    Within a run, an assembler that returns the same ``A_i`` object again has
    its factorization reused, and the same object returned by two systems'
    assemblers shares one factorization (see :class:`FactorCache`), so a
    returned matrix must not be modified in place afterwards. Reuse goes by
    object identity only: an assembler whose matrix does not change should
    hand out one object, since an equal new matrix is factored again. A sparse
    ``A_i`` factors by banded LU over the band its pattern spans, so its
    unknowns should be ordered to keep entries near the diagonal, as the
    natural order of the 5-point stencils does. An assembler must be a
    deterministic function of ``(x, ys)``: after a rejected reduced step the
    refinement step at the same ``x`` reuses that step's ``(A_1, F_1)``
    instead of assembling system 1 again.
    """

    p: int
    block_dims: tuple[int, ...]
    assemblers: Sequence[Callable]
    combiner: Callable
    graph: DependenceGraph
    x0: np.ndarray
    fixed_constants: FixedConstants | None = None

    def __post_init__(self):
        if self.p != len(self.assemblers) or self.p != len(self.block_dims):
            raise ConfigError("assemblers/block_dims must match p")
        if self.p != self.graph.p:
            raise ConfigError("dependence graph order must match p")
        self.x0 = np.asarray(self.x0, dtype=float)


@dataclass
class RunConfig:
    eps: float
    k_max: int = 1000
    n_b: int = 5
    eps_rb: float = 1e-7
    rom_set: frozenset[int] = frozenset()
    criterion: str = "propagation"
    # Step weight lam in (0, 1]: 1.0 is plain Picard, another constant is
    # Krasnoselskij averaging, a function of the iteration k is a Mann schedule.
    relaxation: float | Callable[[int], float] = 1.0
    validation_loop: bool = True

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")
        if self.n_b < 2:
            raise ConfigError("n_b must be >= 2")
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        self.rom_set = frozenset(self.rom_set)


@dataclass(frozen=True)
class TraceRow:
    """One iteration of an accelerated run.

    ``delta`` is the step's error bound; on a reduced step rejected early it
    is the partial sum over the reduced systems solved before the rejection.
    """

    k: int
    err: float
    delta: float | None
    step_norm: float
    event: str          # fom | refine | rom | reject | validate-ok | validate-fail
    x_hash: str
    l_est: float


@dataclass
class RunReport:
    """Counters, verdicts and trace of one accelerated run.

    ``fom_solves[i-1]`` counts system i's full-order solves and
    ``factorizations[i-1]`` the full-order factorizations among them; a solve
    that reuses factors (see :class:`FactorCache`) counts no factorization.

    ``x`` is the final iterate: the last accepted or full-order iterate, or
    ``x0`` when the run took no step (``None`` before the run ends). It is a
    plain attribute, not a field, so comparisons, the repr,
    ``dataclasses.asdict`` and :meth:`to_dict` leave it out, and JSON reports
    hold counters and trace only.
    """

    p: int
    iterations: int = 0
    fom_solves: list[int] = field(default_factory=list)
    factorizations: list[int] = field(default_factory=list)
    assemblies: list[int] = field(default_factory=list)
    rom_solves: int = 0
    svds: int = 0
    basis_sizes: dict[int, int] = field(default_factory=dict)
    rejected: int = 0
    validation_cycles: int = 0
    converged: bool = False
    final_err: float = math.inf
    final_delta: float = math.inf
    final_residual: float = math.inf
    expansive_warning: bool = False
    trace: list[TraceRow] = field(default_factory=list)

    def __post_init__(self):
        self.x: np.ndarray | None = None
        if not self.fom_solves:
            self.fom_solves = [0] * self.p
        if not self.factorizations:
            self.factorizations = [0] * self.p
        if not self.assemblies:
            self.assemblies = [0] * self.p

    def to_dict(self) -> dict:
        """Every field in declaration order, with ``basis_sizes`` keyed by str."""
        out = asdict(self)
        out["basis_sizes"] = {str(k): v for k, v in self.basis_sizes.items()}
        return out


def _hash_state(x: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(x).data).hexdigest()[:12]


class FactorCache:
    """Full-order factorizations kept for one run, one entry per system.

    A system's factors are reused while its assembler returns the same matrix
    object, and shared with any other system whose entry holds that object.
    Matrices are matched by identity only, never by value: any other matrix
    is factored afresh and replaces the system's entry. Full-order matrices
    factor by LAPACK banded LU (see :func:`numerics.lu_factorize`, which
    caches band layouts per pattern).

    ``counts``, if given, receives one increment at index ``i`` per
    factorization of system ``i``.
    """

    def __init__(self, counts: list[int] | None = None):
        self._entries: dict[int, tuple] = {}
        self._counts = counts

    def solve(self, i: int, a, f) -> np.ndarray:
        """Solve system ``i``'s ``a y = f``, factoring ``a`` only on a miss."""
        f = numerics.as_vector(f)
        entry = next((e for e in self._entries.values() if e[0] is a), None)
        if entry is None:
            entry = (a, numerics.lu_factorize(a))
            if self._counts is not None:
                self._counts[i] += 1
        self._entries[i] = entry
        return numerics.lu_apply(entry[1], f)


@dataclass
class StepResult:
    x_next: np.ndarray
    solutions: list[np.ndarray]
    rhs_norms: list[float]
    systems: list[tuple[np.ndarray, np.ndarray]]


def exact_step(problem: CoupledProblem, x: np.ndarray,
               report: RunReport | None = None,
               factors: FactorCache | None = None,
               first_system: tuple | None = None) -> StepResult:
    """One full-order step: solve all p systems in order, then combine.

    ``factors`` carries factorizations over from earlier steps of the same
    run; without it every system is factored afresh. ``first_system`` is an
    ``(A_1, F_1)`` pair already assembled at ``x``, used instead of calling
    the first assembler again.
    """
    if factors is None:
        factors = FactorCache()
    ys: list[np.ndarray] = []
    rhs_norms: list[float] = []
    systems: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(problem.p):
        if i == 0 and first_system is not None:
            a, f = first_system
        else:
            a, f = problem.assemblers[i](x, ys)
            if report is not None:
                report.assemblies[i] += 1
        y = factors.solve(i, a, f)
        if report is not None:
            report.fom_solves[i] += 1
        ys.append(y)
        rhs_norms.append(numerics.norm2(f))
        systems.append((a, f))
    x_next = problem.combiner(x, ys)
    return StepResult(x_next=x_next, solutions=ys, rhs_norms=rhs_norms, systems=systems)


def _relaxation_factor(relaxation: float | Callable[[int], float], k: int) -> float:
    """Step weight of iteration ``k``: the constant, or the schedule at ``k``."""
    lam = relaxation(k) if callable(relaxation) else relaxation
    if not 0.0 < lam <= 1.0:
        raise ConfigError(f"relaxation factor must lie in (0, 1], got {lam}")
    return lam


def _relax(x: np.ndarray, gx: np.ndarray, lam: float) -> np.ndarray:
    """Relaxed update ``(1 - lam)*x + lam*gx``; ``gx`` itself at ``lam == 1``."""
    return gx if lam == 1.0 else (1.0 - lam) * x + lam * gx


def _relaxed_lipschitz(lipschitz: float, lam: float) -> float:
    """Lipschitz constant ``(1 - lam) + lam*L`` of the relaxed map
    ``(1 - lam)*x + lam*G(x)`` when ``lipschitz`` is G's L; L itself at
    ``lam == 1``."""
    return (1.0 - lam) + lam * lipschitz


def _reduced_solve(i: int, basis: pod.ReducedBasis, a, f, constants: Constants,
                   report: RunReport | None,
                   residuals: dict[int, float]) -> tuple[np.ndarray, float]:
    """Reduced solve of system ``i`` and its term of the step's error bound.

    Returns the reduced solution and ``coupling.delta_single`` of its residual,
    records that residual in ``residuals[i]`` and counts the solve in
    ``report``. ``(A_i, F_i)`` must be assembled at the mixed parameters: the
    reduced solutions of earlier systems substituted downstream where they were
    computed. A step's bound is the sum of these terms over its reduced
    systems in topological order, times the step weight. Raises
    SingularReducedSystem, counting nothing, when the projected system is
    singular.
    """
    sol = pod.rom_solve(basis, a, f)
    if report is not None:
        report.rom_solves += 1
    residuals[i] = sol.residual_norm
    term = coupling.delta_single(constants.graph, i, constants.inv_norms[i - 1],
                                 sol.residual_norm)
    return sol.full_field, term


def inexact_step(problem: CoupledProblem, x: np.ndarray,
                 bases: dict[int, pod.ReducedBasis], rom_set: frozenset[int],
                 constants: Constants, report: RunReport | None = None, lam: float = 1.0,
                 factors: FactorCache | None = None,
                 accept: Callable[[float, dict[int, float]], bool] | None = None,
                 systems: list | None = None):
    """One mixed FOM/ROM step at the mixed parameters.

    Systems in ``rom_set`` are solved with their reduced bases; every
    downstream assembler receives the perturbed solutions. The others are
    solved in full order, through ``factors`` as in :func:`exact_step`.
    Returns the next iterate, the summed error bound delta_k and the
    per-system residuals.

    ``accept(delta, residuals)``, if given, is the quality criterion. It is
    checked after each reduced system on the partial bound and residuals;
    delta_k is a sum of nonnegative per-system terms in topological order,
    and every criterion is monotone in these partial sums, so a partial
    failure is final. The step then stops before any downstream assembly or
    full-order solve and returns ``None`` as the next iterate, with the
    partial bound and residuals. ``systems``, if given, receives each
    ``(A_i, F_i)`` as it is assembled.
    """
    if factors is None:
        factors = FactorCache()
    ys: list[np.ndarray] = []
    residuals: dict[int, float] = {}
    total = 0.0
    for i in range(1, problem.p + 1):
        a, f = problem.assemblers[i - 1](x, ys)
        if report is not None:
            report.assemblies[i - 1] += 1
        if systems is not None:
            systems.append((a, f))
        if i in rom_set:
            y, term = _reduced_solve(i, bases[i], a, f, constants, report, residuals)
            total += term
            if accept is not None and not accept(lam * total, residuals):
                return None, lam * total, residuals
            ys.append(y)
        else:
            ys.append(factors.solve(i - 1, a, f))
            if report is not None:
                report.fom_solves[i - 1] += 1
    return _relax(x, problem.combiner(x, ys), lam), lam * total, residuals


def evaluate_criterion(kind: str, *, delta_k: float, err: float, constants: Constants,
                       eps: float, residuals: dict[int, float] | None = None,
                       lam: float = 1.0) -> bool:
    """Accept (True) or refine (False) the current reduced step of weight
    ``lam``; propagation carries ``err`` by :func:`_relaxed_lipschitz`."""
    if kind == "propagation":
        return delta_k + _relaxed_lipschitz(constants.lipschitz, lam) * err <= eps
    if kind == "upper_bound":
        return delta_k <= eps
    if kind == "residual":
        if not residuals:
            return False
        return sum(residuals.values()) <= eps
    if kind == "asymptotic":
        if not residuals:
            return False
        budget = coupling.asymptotic_residual_budget(constants, eps)
        if budget <= 0.0:
            return False
        r1 = residuals[min(residuals)]
        return r1 <= budget
    raise ConfigError(f"unknown criterion {kind!r}")


class _RomState:
    """Per-system snapshot windows with lazily rebuilt bases."""

    def __init__(self, config: RunConfig, report: RunReport):
        self.windows = {i: pod.SnapshotWindow(config.n_b) for i in config.rom_set}
        self.bases: dict[int, pod.ReducedBasis] = {}
        self.dirty = {i: True for i in config.rom_set}
        self.config = config
        self.report = report

    def push(self, solutions: list[np.ndarray]) -> None:
        for i in self.windows:
            self.windows[i].push(solutions[i - 1])
            self.dirty[i] = True

    def ready(self) -> bool:
        return all(len(w) >= w.capacity for w in self.windows.values())

    def basis_for(self, i: int) -> pod.ReducedBasis:
        if self.dirty[i]:
            window = self.windows[i]
            try:
                basis = pod.build_basis_svd(window, self.config.eps_rb)
            except SvdFailure:
                basis = pod.build_basis_gs(window)
            self.bases[i] = basis
            self.dirty[i] = False
            self.report.svds += 1
            self.report.basis_sizes[i] = basis.size
        return self.bases[i]

    def all_bases(self) -> dict[int, pod.ReducedBasis]:
        return {i: self.basis_for(i) for i in self.windows}


def _constants(problem: CoupledProblem, ledger: ConstantsLedger | None,
               rom_set: frozenset[int]) -> Constants | None:
    """The constants of a run's bounds and criteria.

    The problem's fixed constants when it supplies them, whatever ``ledger``
    is; otherwise ``ledger``'s current estimates, or ``None`` without a
    ledger. Online estimates give every system the ledger's M, and K_{2,1}
    enters the graph only when the run reduces a system. Fixed constants for
    p >= 2 take K_{1,2} = K[1,0] * L_2 from the graph: y_2 reaches the next
    y_1 only through the combiner's output x. Under the Picard combiner
    ``x = (y_1, y_2)``, so L_2 = 1 and K_{1,2} = K[1,0].
    """
    fc, graph = problem.fixed_constants, problem.graph
    if fc is not None:
        k12 = graph.k(1, 0) * float(graph.l_consts[2]) if problem.p >= 2 else 0.0
        return Constants(fc.inv_norms, graph, fc.lipschitz, k12)
    if ledger is None:
        return None
    if rom_set and problem.p >= 2:
        graph = graph.with_k({(2, 1): ledger.k21_est})
    return Constants((ledger.m_est,) * problem.p, graph, ledger.l_est, ledger.k12_est)


def _probe_delta(state: _RomState, systems, constants: Constants, lam, report):
    """Evaluate the fresh ROM on the systems just solved by FOM.

    Returns (delta, residuals); delta is +inf when a reduced solve fails.
    """
    residuals: dict[int, float] = {}
    total = 0.0
    for i in sorted(state.windows):
        a, f = systems[i - 1]
        try:
            _, term = _reduced_solve(i, state.basis_for(i), a, f, constants, report,
                                     residuals)
        except SingularReducedSystem:
            return math.inf, {}
        total += term
    return lam * total, residuals


def accelerated_run(problem: CoupledProblem, config: RunConfig,
                    observer: Callable[[dict], None] | None = None) -> RunReport:
    """On-the-fly accelerated inexact Picard iterations, as a state machine.

    Each iteration's state is its trace event:

    * ``fom``: a full-order step. Once the snapshot windows are full it
      probes the fresh reduced models on the systems it solved; their bound
      restarts ``err`` and the criterion's verdict on it sets ``rom_ok``.
    * ``rom``: a reduced step, tried while ``rom_ok`` holds and accepted if
      the criterion holds for its bound; then ``err <- delta + L*err``.
    * ``reject``: the reduced step failed the criterion or hit a singular
      reduced system. ``x`` stays, ``rom_ok`` is cleared, ``refine`` follows.
    * ``refine``: a full-order step that reuses the rejected step's assembly
      of system 1; ``err <- L*err``. Under the propagation criterion
      ``rom_ok`` becomes ``err <= eps``; under the others the reduced models
      are probed as after ``fom``.

    A step shorter than ``eps``, other than a rejection, ends the run, after
    one exact step at the new iterate if ``validation_loop`` is set
    (``validate-ok``, or ``validate-fail``, which clears ``err`` and
    ``rom_ok``). ``observer`` receives one event dict per iteration. Each
    row's ``l_est`` is the L of its step: :func:`_relaxed_lipschitz`.

    Every bound and criterion reads one :class:`coupling.Constants`: the
    problem's fixed constants, or the online ledger's estimates, rebuilt
    after each full-order step. Online estimates cover K_{2,1} only, so for
    p > 2 a run that reduces any system but the last raises MissingConstants
    before its first step.
    """
    if any(not 1 <= i <= problem.p for i in config.rom_set):
        raise ConfigError(f"rom_set must be a subset of 1..{problem.p}")
    constants = _constants(problem, None, config.rom_set)
    ledger = None   # online estimates, kept only without fixed constants
    if constants is None:
        if problem.p > 2 and any(i < problem.p for i in config.rom_set):
            raise MissingConstants(
                "online estimation only covers K_{2,1}; supply fixed constants for p > 2")
        ledger = ConstantsLedger()
        constants = _constants(problem, ledger, config.rom_set)
    report = RunReport(p=problem.p)
    factors = FactorCache(report.factorizations)   # per run: each run factors afresh
    rom = _RomState(config, report) if config.rom_set else None

    def holds(delta, residuals, err):
        return evaluate_criterion(
            config.criterion, delta_k=delta, err=err, constants=constants,
            eps=config.eps, residuals=residuals, lam=lam)

    x = problem.x0.copy()
    err = math.inf
    rom_ok = False                  # the criterion's last verdict
    rejected: tuple | None = None   # (A_1, F_1) of the step rejected at x
    k = 0
    while k < config.k_max and not report.converged:
        lam = _relaxation_factor(config.relaxation, k)
        if constants.lipschitz >= 1.0 and not report.expansive_warning:
            log.warning("estimated Lipschitz constant %.3g >= 1; propagation "
                        "guarantees void", constants.lipschitz)
            report.expansive_warning = True
        l_step = _relaxed_lipschitz(constants.lipschitz, lam)
        delta_k, fresh_start = None, False

        if rom_ok:
            assembled: list[tuple] = []
            try:
                x_t, delta_k, residuals = inexact_step(
                    problem, x, rom.all_bases(), config.rom_set, constants, report,
                    lam, factors, accept=lambda d, r: holds(d, r, err), systems=assembled)
                report.final_residual = sum(residuals.values())
            except SingularReducedSystem:
                x_t = None
            if x_t is not None:
                x_next, event = x_t, "rom"
                err = delta_k + l_step * err
            else:
                x_next, event = x.copy(), "reject"
                rejected, rom_ok = assembled[0], False
                report.rejected += 1
        else:
            refine = rejected is not None
            step = exact_step(problem, x, report, factors, first_system=rejected)
            rejected = None
            x_next = _relax(x, step.x_next, lam)
            event = "refine" if refine else "fom"
            if rom is not None:
                rom.push(step.solutions)
            if ledger is not None:
                ledger.observe(x_next, step.solutions, step.rhs_norms)
                constants = _constants(problem, ledger, config.rom_set)
                l_step = _relaxed_lipschitz(constants.lipschitz, lam)
            fresh_start = not refine and math.isinf(err)
            err = l_step * err if refine else math.inf
            rom_ok = refine and err <= config.eps
            if (rom is not None and rom.ready()
                    and not (refine and config.criterion == "propagation")):
                delta_k, residuals = _probe_delta(rom, step.systems, constants, lam, report)
                rom_ok = not math.isinf(delta_k) and holds(delta_k, residuals, 0.0)
                if residuals:
                    report.final_residual = sum(residuals.values())
                if not refine:
                    err = delta_k

        step_norm = numerics.norm2(x_next - x)
        if delta_k is not None:
            report.final_delta = delta_k
        validation = None
        if step_norm < config.eps and rejected is None:
            if not config.validation_loop:
                report.converged = True
            else:
                gx = _relax(x_next, exact_step(problem, x_next, report, factors).x_next, lam)
                if numerics.norm2(gx - x_next) < config.eps:
                    report.converged, validation = True, "validate-ok"
                else:
                    err, rom_ok, validation = math.inf, False, "validate-fail"
                    report.validation_cycles += 1

        report.trace.append(TraceRow(
            k=k, err=err, delta=delta_k, step_norm=step_norm,
            event=validation or event, x_hash=_hash_state(x_next),
            l_est=l_step))
        if observer is not None:
            observer({"k": k, "event": event, "x_prev": x, "x_next": x_next,
                      "err": err, "delta": delta_k, "fresh_start": fresh_start,
                      "validation": validation})
        x = x_next
        k += 1

    report.iterations = k
    report.final_err = err
    report.x = x
    return report


def lockstep_verify(problem: CoupledProblem, config: RunConfig) -> float:
    """Max true distance between accepted inexact iterates and the exact sequence.

    The exact companion sequence advances whenever the accelerated iterate
    advances and is restarted at the current point whenever the propagated
    error bound is restarted from a fresh delta (the bound assumes a common
    starting point). Returns 0.0 when no reduced step is ever accepted.
    """
    state = {"z": problem.x0.copy(), "max_dist": 0.0}
    scratch = RunReport(p=problem.p)
    factors = FactorCache()

    def advance(z: np.ndarray, k: int) -> np.ndarray:
        lam = _relaxation_factor(config.relaxation, k)
        return _relax(z, exact_step(problem, z, scratch, factors).x_next, lam)

    def observer(ev: dict) -> None:
        if ev["event"] in ("fom", "refine"):
            if ev["fresh_start"]:
                state["z"] = ev["x_prev"].copy()
            state["z"] = advance(state["z"], ev["k"])
        elif ev["event"] == "rom":
            state["z"] = advance(state["z"], ev["k"])
            dist = numerics.norm2(ev["x_next"] - state["z"])
            state["max_dist"] = max(state["max_dist"], dist)
        # rejected steps advance neither sequence

    accelerated_run(problem, config, observer=observer)
    return state["max_dist"]
