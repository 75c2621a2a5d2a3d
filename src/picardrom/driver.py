"""Fixed-point engine: exact, relaxed and ROM-accelerated Picard iterations.

The accelerated run keeps a running bound ``err`` on the distance between the
inexact sequence and the exact sequence restarted at the last full-order
point: a full-order refinement step contracts it (``err <- L*err``), an
accepted reduced step accumulates it (``err <- delta + L*err``), and a step
whose tentative bound exceeds the solver tolerance is rejected and triggers a
basis refinement. A reduced step is rejected as soon as its partial bound
fails the criterion, before any downstream assembly or full-order solve, and
the refinement step that follows reuses the rejected step's assembly of
system 1. An optional outer validation loop applies the exact map once at
apparent convergence.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse

from . import coupling, numerics, pod
from .coupling import ConstantsLedger, DependenceGraph
from .errors import ConfigError, MissingConstants, SingularReducedSystem

log = logging.getLogger(__name__)

CRITERIA = ("residual", "upper_bound", "asymptotic", "propagation")


@dataclass(frozen=True)
class FixedConstants:
    """Exact constants for linear problems (bypass the online ledger)."""

    inv_norms: tuple[float, ...]  # ||A_i^{-1}|| per system, index i-1
    lipschitz: float              # Lipschitz constant of G (or an upper bound)


@dataclass
class CoupledProblem:
    """p linear-system assemblers in topological order plus the combiner.

    ``assemblers[i-1](x, ys)`` receives the outer iterate and the solutions of
    systems 1..i-1 already computed this step, and returns ``(A_i, F_i)``.
    ``combiner(x, ys)`` maps the p solutions to the next outer iterate.
    Within a run, an assembler that returns the same ``A_i`` object again has
    its factorization reused (see :class:`FactorCache`), so a returned matrix
    must not be modified in place afterwards. A sparse ``A_i`` factors by
    banded LU over the band its pattern spans, so its unknowns should be
    ordered to keep entries near the diagonal, as the natural order of the
    5-point stencils does. An assembler must be a
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
    name: str = ""

    def __post_init__(self):
        if self.p != len(self.assemblers) or self.p != len(self.block_dims):
            raise ConfigError("assemblers/block_dims must match p")
        if self.p != self.graph.p:
            raise ConfigError("dependence graph order must match p")
        if self.p > 6:
            raise ConfigError("p > 6 not supported (path sets grow as 2**p)")
        self.x0 = np.asarray(self.x0, dtype=float)


@dataclass(frozen=True)
class Relaxation:
    """Step averaging: picard (lambda=1), krasnoselskij, or mann schedule."""

    kind: str = "picard"
    lam: float = 1.0
    schedule: Callable[[int], float] | None = None

    def factor(self, k: int) -> float:
        if self.kind == "picard":
            return 1.0
        if self.kind == "krasnoselskij":
            lam = self.lam
        elif self.kind == "mann":
            if self.schedule is None:
                raise ConfigError("mann relaxation needs a schedule")
            lam = self.schedule(k)
        else:
            raise ConfigError(f"unknown relaxation kind {self.kind!r}")
        if not 0.0 < lam <= 1.0:
            raise ConfigError(f"relaxation factor must lie in (0, 1], got {lam}")
        return lam


@dataclass
class RunConfig:
    eps: float
    k_max: int = 1000
    n_b: int = 5
    eps_rb: float = 1e-7
    rom_set: frozenset[int] = frozenset()
    criterion: str = "propagation"
    basis_method: str = "svd"
    relaxation: Relaxation = field(default_factory=Relaxation)
    validation_loop: bool = True
    tau_res: float | None = None   # residual-criterion tolerance, default eps
    ledger_window: int = 10

    def __post_init__(self):
        if self.eps <= 0.0:
            raise ConfigError("eps must be positive")
        if self.n_b < 2:
            raise ConfigError("n_b must be >= 2")
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if self.basis_method not in ("svd", "gs"):
            raise ConfigError(f"unknown basis method {self.basis_method!r}")
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
    p: int
    iterations: int = 0
    fom_solves: list[int] = field(default_factory=list)
    assemblies: list[int] = field(default_factory=list)
    rom_solves: int = 0
    projections: int = 0
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
        if not self.fom_solves:
            self.fom_solves = [0] * self.p
        if not self.assemblies:
            self.assemblies = [0] * self.p

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "iterations": self.iterations,
            "fom_solves": self.fom_solves,
            "assemblies": self.assemblies,
            "rom_solves": self.rom_solves,
            "projections": self.projections,
            "svds": self.svds,
            "basis_sizes": {str(k): v for k, v in self.basis_sizes.items()},
            "rejected": self.rejected,
            "validation_cycles": self.validation_cycles,
            "converged": self.converged,
            "final_err": self.final_err,
            "final_delta": self.final_delta,
            "final_residual": self.final_residual,
            "expansive_warning": self.expansive_warning,
            "trace": [
                {
                    "k": r.k,
                    "err": r.err,
                    "delta": r.delta,
                    "step_norm": r.step_norm,
                    "event": r.event,
                    "x_hash": r.x_hash,
                    "l_est": r.l_est,
                }
                for r in self.trace
            ],
        }


def _hash_state(x: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(x).tobytes()).hexdigest()[:12]


def _same_matrix(cached, a) -> bool:
    """Same object, or CSC matrices with bitwise-equal structure and values."""
    if a is cached:
        return True
    return (scipy.sparse.issparse(a) and scipy.sparse.issparse(cached)
            and a.format == cached.format == "csc" and a.shape == cached.shape
            and np.array_equal(a.indptr, cached.indptr)
            and np.array_equal(a.indices, cached.indices)
            and np.array_equal(a.data, cached.data))


class FactorCache:
    """Full-order factorizations kept for one run, one entry per system.

    A system's factors are reused while its assembler returns the same matrix
    object or a bitwise-equal CSC matrix; any other matrix is factored afresh
    and replaces the entry. Full-order matrices factor by LAPACK banded LU
    (see :func:`numerics.lu_factorize`).
    """

    def __init__(self):
        self._entries: dict[int, tuple] = {}

    def solve(self, i: int, a, f) -> np.ndarray:
        """Solve system ``i``'s ``a y = f``, factoring ``a`` only on a miss."""
        f = numerics.as_vector(f)
        entry = self._entries.get(i)
        if entry is None or not _same_matrix(entry[0], a):
            entry = self._entries[i] = (a, numerics.lu_factorize(a))
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


def inexact_step(problem: CoupledProblem, x: np.ndarray,
                 bases: dict[int, pod.ReducedBasis], rom_set: frozenset[int],
                 inv_norms: dict[int, float], graph: DependenceGraph,
                 report: RunReport | None = None, lam: float = 1.0,
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
            sol = pod.rom_solve(bases[i], a, f)
            if report is not None:
                report.rom_solves += 1
                report.projections += 1
            residuals[i] = sol.residual_norm
            total += coupling.delta_single(graph, i, inv_norms[i], sol.residual_norm)
            if accept is not None and not accept(lam * total, residuals):
                return None, lam * total, residuals
            ys.append(sol.full_field)
        else:
            ys.append(factors.solve(i - 1, a, f))
            if report is not None:
                report.fom_solves[i - 1] += 1
    x_next = problem.combiner(x, ys)
    if lam != 1.0:
        x_next = (1.0 - lam) * x + lam * x_next
    return x_next, lam * total, residuals


def propagation_bound(l_est: float, deltas: Sequence[float]) -> float:
    """Accumulated bound ``sum_i L**i * delta[k - i]`` from a common point."""
    if l_est < 0.0:
        raise ValueError("l_est must be nonnegative")
    total = 0.0
    for i, d in enumerate(reversed(list(deltas))):
        total += (l_est**i) * d
    return total


def evaluate_criterion(kind: str, *, delta_k: float, err: float, l_est: float,
                       ledger: ConstantsLedger, eps: float,
                       residuals: dict[int, float] | None = None,
                       tau_res: float | None = None) -> bool:
    """Accept (True) or refine (False) the current reduced step."""
    if kind == "propagation":
        return delta_k + l_est * err <= eps
    if kind == "upper_bound":
        return delta_k <= eps
    if kind == "residual":
        if not residuals:
            return False
        tau = eps if tau_res is None else tau_res
        return sum(residuals.values()) <= tau
    if kind == "asymptotic":
        if not residuals:
            return False
        budget = coupling.asymptotic_residual_budget(ledger, eps)
        if budget <= 0.0:
            return False
        r1 = residuals[min(residuals)]
        return r1 <= budget
    raise ConfigError(f"unknown criterion {kind!r}")


class _RomState:
    """Per-system snapshot windows with lazily rebuilt bases."""

    def __init__(self, problem: CoupledProblem, config: RunConfig, report: RunReport):
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
            if self.config.basis_method == "gs":
                basis = pod.build_basis_gs(window)
            else:
                try:
                    basis = pod.build_basis_svd(window, self.config.eps_rb)
                except pod.SvdFailure:
                    basis = pod.build_basis_gs(window)
            self.bases[i] = basis
            self.dirty[i] = False
            self.report.svds += 1
            self.report.basis_sizes[i] = basis.size
        return self.bases[i]

    def all_bases(self) -> dict[int, pod.ReducedBasis]:
        return {i: self.basis_for(i) for i in self.windows}


def _inv_norms(problem: CoupledProblem, ledger: ConstantsLedger,
               rom_set: frozenset[int]) -> dict[int, float]:
    if problem.fixed_constants is not None:
        return {i: problem.fixed_constants.inv_norms[i - 1] for i in rom_set}
    return {i: ledger.m_est for i in rom_set}


def _effective_graph(problem: CoupledProblem, ledger: ConstantsLedger,
                     rom_set: frozenset[int]) -> DependenceGraph:
    """Graph used for amplification factors, with online K estimates filled in."""
    if problem.fixed_constants is not None:
        return problem.graph
    if problem.p == 1:
        return problem.graph
    if problem.p == 2:
        return problem.graph.with_k({(2, 1): ledger.k21_est})
    if any(i < problem.p for i in rom_set):
        raise MissingConstants(
            "online estimation only covers K_{2,1}; supply fixed constants for p > 2"
        )
    return problem.graph


def _lipschitz(problem: CoupledProblem, ledger: ConstantsLedger) -> float:
    if problem.fixed_constants is not None:
        return problem.fixed_constants.lipschitz
    return ledger.l_est


def _probe_delta(state: _RomState, systems, inv_norms, graph, lam, report):
    """Evaluate the fresh ROM on the systems just solved by FOM.

    Returns (delta, residuals); delta is +inf when a reduced solve fails.
    """
    residuals: dict[int, float] = {}
    total = 0.0
    for i in sorted(state.windows):
        a, f = systems[i - 1]
        try:
            sol = pod.rom_solve(state.basis_for(i), a, f)
        except SingularReducedSystem:
            return math.inf, {}
        report.rom_solves += 1
        report.projections += 1
        residuals[i] = sol.residual_norm
        total += coupling.delta_single(graph, i, inv_norms[i], sol.residual_norm)
    return lam * total, residuals


def accelerated_run(problem: CoupledProblem, config: RunConfig,
                    observer: Callable[[dict], None] | None = None) -> RunReport:
    """On-the-fly accelerated inexact Picard iterations (full state machine).

    Full-order steps run while the quality criterion demands it, while the
    snapshot window is filling, or after a rejection; otherwise the reduced
    step is tried and accepted only if the criterion holds. The observer, if
    given, receives one event dict per iteration (used by lockstep_verify).
    """
    if any(not 1 <= i <= problem.p for i in config.rom_set):
        raise ConfigError(f"rom_set must be a subset of 1..{problem.p}")
    report = RunReport(p=problem.p)
    factors = FactorCache()   # per run: every run pays for its own factorizations
    rom = _RomState(problem, config, report) if config.rom_set else None
    if problem.fixed_constants is not None:
        fc = problem.fixed_constants
        ledger = ConstantsLedger.fixed(m=max(fc.inv_norms), l=fc.lipschitz)
    else:
        ledger = ConstantsLedger(window=config.ledger_window)

    x = problem.x0.copy()
    err = math.inf
    recompute = False
    rejected_system: tuple | None = None   # (A_1, F_1) of a rejected step at x
    converged = False
    rom_ok = False          # last criterion verdict; gates the reduced branch
    last_delta: float | None = None
    warned_expansive = False
    k = 0

    while k < config.k_max and not converged:
        lam = config.relaxation.factor(k)
        l_est = _lipschitz(problem, ledger)
        if l_est >= 1.0 and not warned_expansive:
            log.warning("estimated Lipschitz constant %.3g >= 1; propagation "
                        "guarantees void", l_est)
            report.expansive_warning = True
            warned_expansive = True

        use_fom = (not rom_ok) or (k < config.n_b) or recompute or rom is None
        delta_k: float | None = None
        event = "fom"
        fresh_start = False

        if use_fom:
            step = exact_step(problem, x, report, factors,
                              first_system=rejected_system)
            rejected_system = None
            x_next = step.x_next
            if lam != 1.0:
                x_next = (1.0 - lam) * x + lam * x_next
            if rom is not None:
                rom.push(step.solutions)
            ledger.observe(x_next, step.solutions, step.rhs_norms)
            l_est = _lipschitz(problem, ledger)
            if recompute:
                err = l_est * err
                recompute = False
                event = "refine"
                if config.criterion == "propagation":
                    rom_ok = err <= config.eps
                elif rom is not None and rom.ready():
                    inv_norms = _inv_norms(problem, ledger, config.rom_set)
                    graph = _effective_graph(problem, ledger, config.rom_set)
                    delta_k, residuals = _probe_delta(
                        rom, step.systems, inv_norms, graph, lam, report)
                    rom_ok = (not math.isinf(delta_k)) and evaluate_criterion(
                        config.criterion, delta_k=delta_k, err=0.0, l_est=l_est,
                        ledger=ledger, eps=config.eps, residuals=residuals,
                        tau_res=config.tau_res)
                    if residuals:
                        report.final_residual = sum(residuals.values())
                else:
                    rom_ok = False
            else:
                was_inf = math.isinf(err)
                if rom is not None and rom.ready():
                    inv_norms = _inv_norms(problem, ledger, config.rom_set)
                    graph = _effective_graph(problem, ledger, config.rom_set)
                    delta_k, residuals = _probe_delta(
                        rom, step.systems, inv_norms, graph, lam, report)
                    err = delta_k
                    rom_ok = (not math.isinf(delta_k)) and evaluate_criterion(
                        config.criterion, delta_k=delta_k, err=0.0, l_est=l_est,
                        ledger=ledger, eps=config.eps, residuals=residuals,
                        tau_res=config.tau_res)
                    if residuals:
                        report.final_residual = sum(residuals.values())
                    fresh_start = was_inf
                else:
                    err = math.inf
                    rom_ok = False
                    fresh_start = True
        else:
            inv_norms = _inv_norms(problem, ledger, config.rom_set)
            graph = _effective_graph(problem, ledger, config.rom_set)

            def verdict(delta, residuals):
                return evaluate_criterion(
                    config.criterion, delta_k=delta, err=err, l_est=l_est,
                    ledger=ledger, eps=config.eps, residuals=residuals,
                    tau_res=config.tau_res)

            assembled: list[tuple] = []
            try:
                x_t, delta_k, residuals = inexact_step(
                    problem, x, rom.all_bases(), config.rom_set, inv_norms,
                    graph, report, lam, factors, accept=verdict, systems=assembled)
                accept = x_t is not None and verdict(delta_k, residuals)
                report.final_residual = sum(residuals.values())
            except SingularReducedSystem:
                accept = False
            if accept:
                x_next = x_t
                err = delta_k + l_est * err
                event = "rom"
            else:
                x_next = x.copy()
                recompute = True
                rejected_system = assembled[0] if assembled else None
                report.rejected += 1
                event = "reject"

        step_norm = numerics.norm2(x_next - x)
        if delta_k is not None:
            report.final_delta = delta_k
        validation_event = None
        if step_norm < config.eps and not recompute:
            if config.validation_loop:
                gx = exact_step(problem, x_next, report, factors).x_next
                if lam != 1.0:
                    gx = (1.0 - lam) * x_next + lam * gx
                if numerics.norm2(gx - x_next) < config.eps:
                    converged = True
                    validation_event = "validate-ok"
                else:
                    err = math.inf
                    rom_ok = False
                    report.validation_cycles += 1
                    validation_event = "validate-fail"
            else:
                converged = True

        report.trace.append(TraceRow(
            k=k, err=err, delta=delta_k, step_norm=step_norm,
            event=validation_event or event, x_hash=_hash_state(x_next),
            l_est=l_est))
        if observer is not None:
            observer({
                "k": k, "event": event, "x_prev": x, "x_next": x_next,
                "err": err, "delta": delta_k, "fresh_start": fresh_start,
                "validation": validation_event,
            })
        x = x_next
        k += 1

    report.iterations = k
    report.converged = converged
    report.final_err = err
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
        lam = config.relaxation.factor(k)
        gz = exact_step(problem, z, scratch, factors).x_next
        return (1.0 - lam) * z + lam * gz if lam != 1.0 else gz

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
