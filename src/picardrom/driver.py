"""Fixed-point engine: exact, relaxed and ROM-accelerated Picard iterations.

Every step is one step function with a per-system solver plan: system i is
solved with its reduced basis when the plan has one, and in full order
otherwise, so an exact step is the step with an empty plan. The accelerated
run keeps a running bound ``err`` on the distance between the inexact
sequence and the exact sequence restarted at the last full-order point: a
full-order refinement step contracts it (``err <- L*err``), an accepted
reduced step accumulates it (``err <- delta + L*err``), L being the relaxed
map's Lipschitz constant, and a step whose tentative bound exceeds the
solver tolerance is rejected and triggers a basis refinement. A reduced step
is rejected as soon as its partial bound fails the criterion, before any
downstream assembly or full-order solve, and the refinement step that
follows reuses the rejected step's assembly of system 1. A reduced step is
only tried after a probe of the reduced models on a full-order step's
systems passes the criterion. An optional outer validation loop applies the
exact map once at apparent convergence.
"""

from __future__ import annotations

import logging
import math
import zlib
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import coupling, numerics, pod
from .coupling import Constants, ConstantsLedger, DependenceGraph
from .errors import ConfigError, MissingConstants, SingularReducedSystem, SvdFailure

log = logging.getLogger(__name__)

CRITERIA = ("residual", "upper_bound", "asymptotic", "propagation")


@dataclass
class CoupledProblem:
    """p linear-system assemblers in topological order plus the combiner.

    ``assemblers[i-1](x, ys)`` receives the outer iterate and the solutions of
    systems 1..i-1 already computed this step, and returns ``(A_i, F_i)``.
    ``combiner(x, ys)`` maps the p solutions to the next outer iterate.
    Within a run, an assembler that returns the same ``A_i`` object again has
    its factorization reused, and the same object returned by two systems'
    assemblers shares one factorization (see :class:`FactorCache`). A reduced
    solve with the object its basis last projected reuses that projection
    and its factors (see :func:`pod.rom_solve`). So a returned matrix must
    not be modified in place afterwards. Reuse goes by object identity only:
    an assembler whose matrix does not change should hand out one object,
    since an equal new matrix is factored and projected again. Every
    ``A_i``, dense ones included, is read as a DIA array (see
    :func:`numerics.as_matrix`) and factors by banded LU over the band its
    diagonals span (see :func:`numerics.lu_factorize`), so its unknowns
    should be ordered to keep entries near the diagonal, as the natural
    order of the 5-point stencils does. An
    assembler must be a deterministic function of ``(x, ys)``: after a
    rejected reduced step the refinement step at the same ``x`` reuses that
    step's ``(A_1, F_1)`` instead of assembling system 1 again.

    ``p`` is the number of assemblers and the order of ``graph``. Certified
    ``fixed_constants`` must be built on ``graph``; without them a run
    estimates its :class:`coupling.Constants` online.
    """

    assemblers: Sequence[Callable]
    combiner: Callable
    graph: DependenceGraph
    x0: np.ndarray
    fixed_constants: Constants | None = None

    def __post_init__(self):
        if self.graph.p != self.p:
            raise ConfigError(f"dependence graph of order {self.graph.p} for {self.p} assemblers")
        if self.fixed_constants is not None and self.fixed_constants.graph is not self.graph:
            raise ConfigError("fixed constants must be built on the problem's graph")
        self.x0 = np.asarray(self.x0, dtype=float)

    @property
    def p(self) -> int:
        return len(self.assemblers)


@dataclass(frozen=True)
class RunConfig:
    eps: float
    k_max: int = 1000
    n_b: int = 5
    eps_rb: float = 1e-7
    rom_set: frozenset[int] = frozenset()
    criterion: str = "propagation"
    # One step weight lam in (0, 1] for every step: 1.0 is plain Picard, a smaller
    # one is Krasnoselskij averaging.
    relaxation: float = 1.0
    validation_loop: bool = True

    def __post_init__(self):
        if not self.eps > 0.0:   # NaN too: no step norm is ever below it
            raise ConfigError("eps must be positive")
        for name, value in (("k_max", self.k_max), ("n_b", self.n_b)):
            if not hasattr(type(value), "__index__"):   # the types operator.index takes
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "rom_set", frozenset(self.rom_set))
        for i in self.rom_set:
            if not hasattr(type(i), "__index__"):
                raise ConfigError(f"rom_set entries must be integers, got {i!r}")
        if self.k_max < 1:
            raise ConfigError("k_max must be >= 1")
        if self.n_b < 2:
            raise ConfigError("n_b must be >= 2")
        if not 0.0 < self.eps_rb < 1.0:
            raise ConfigError("eps_rb must lie in (0, 1)")
        if self.criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {self.criterion!r}")
        if callable(self.relaxation) or not 0.0 < self.relaxation <= 1.0:   # NaN too
            raise ConfigError(f"relaxation factor must lie in (0, 1], got {self.relaxation}")


@dataclass(frozen=True)
class TraceRow:
    """One iteration of an accelerated run.

    ``delta`` is the step's error bound; on a reduced step rejected early it
    is the partial sum over the reduced systems solved before the rejection.
    On a ``fom`` or ``refine`` row it is the probe's predicted bound for a
    reduced step, ``None`` when the row probed nothing. ``l_est`` is the L of
    the row's ``err`` recurrence (:func:`_relaxed_lipschitz`), ``None`` in a
    run that reduces no system, which has no recurrence: its ``err`` stays inf.
    ``x_hash`` digests the iterate the row ends at (:func:`_hash_state`,
    CRC-32 over its bytes): an equality check for comparing runs, not a
    security digest.
    """

    k: int
    err: float
    delta: float | None
    step_norm: float
    event: str          # fom | refine | rom | reject | validate-ok | validate-fail
    x_hash: str
    l_est: float | None


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
    """CRC-32 of ``x``'s bytes in C order, as 8 hex digits."""
    return "%08x" % zlib.crc32(np.ascontiguousarray(x))


class FactorCache:
    """Full-order factorizations kept for one run, one entry per system.

    A system's factors are reused while its assembler returns the same matrix
    object, and shared with any other system whose entry holds that object.
    Matrices are matched by identity only, never by value: any other matrix
    is factored afresh and replaces the system's entry, with nothing kept
    from earlier factors. Full-order matrices factor by LAPACK banded LU (see
    :func:`numerics.lu_factorize`).

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


def _relax(x: np.ndarray, gx: np.ndarray, lam: float) -> np.ndarray:
    """Relaxed update ``(1 - lam)*x + lam*gx``; ``gx`` itself at ``lam == 1``."""
    return gx if lam == 1.0 else (1.0 - lam) * x + lam * gx


def _relaxed_lipschitz(lipschitz: float, lam: float) -> float:
    """Lipschitz constant ``(1 - lam) + lam*L`` of the relaxed map
    ``(1 - lam)*x + lam*G(x)`` when ``lipschitz`` is G's L; L itself at
    ``lam == 1``."""
    return (1.0 - lam) + lam * lipschitz


def _reduced_solve(i: int, basis: pod.ReducedBasis, a, f, constants: Constants,
                   report: RunReport,
                   residuals: dict[int, float]) -> tuple[np.ndarray, float]:
    """Reduced solve of system ``i`` and its term of the step's error bound.

    Returns the reduced solution and ``coupling.delta_single`` of its residual,
    records that residual in ``residuals[i]`` and counts the solve in
    ``report``. ``(A_i, F_i)`` must be assembled at the mixed parameters: the
    reduced solutions of earlier systems substituted downstream where they were
    computed. Raises SingularReducedSystem, counting nothing, when the
    projected system is singular.
    """
    sol = pod.rom_solve(basis, a, f)
    report.rom_solves += 1
    residuals[i] = sol.residual_norm
    term = coupling.delta_single(constants.graph, i, constants.inv_norms[i - 1],
                                 sol.residual_norm)
    return sol.full_field, term


@dataclass
class StepResult:
    """What :func:`step` did: ``x_next`` is ``G(x)`` without relaxation, or
    ``None`` when the step stopped early; ``systems`` holds each ``(A_i, F_i)``
    assembled so far; ``delta`` is the unweighted sum of the reduced terms so
    far, ``None`` when a reduced model was unavailable: its projected system
    singular or its basis not built because the SVD failed."""

    x_next: np.ndarray | None
    solutions: list[np.ndarray]
    systems: list[tuple]
    delta: float | None
    residuals: dict[int, float]


def step(problem: CoupledProblem, x: np.ndarray, report: RunReport, factors: FactorCache,
         plan: dict[int, pod.ReducedBasis] | _RomState | None = None,
         constants: Constants | None = None,
         accept: Callable[[float, dict[int, float]], bool] | None = None,
         first_system: tuple | None = None) -> StepResult:
    """One Picard step: assemble and solve the p systems in order, then combine.

    System i is solved with its reduced basis ``plan[i]`` (its bound term from
    ``constants``) if ``i in plan``, else in full order through the run's
    ``factors``, so an empty plan makes an exact step; a :class:`_RomState`
    plan builds each basis when the step first reads it. Each assembler
    receives the solutions so far, reduced ones included. ``first_system`` is
    an ``(A_1, F_1)`` pair already assembled at ``x``, used instead of calling
    the first assembler again.

    ``accept(delta, residuals)``, if given, is the quality criterion, checked
    after each reduced system on the partial bound and residuals. delta sums
    nonnegative per-system terms in topological order, and every criterion is
    monotone in these partial sums, so a partial failure is final: the step
    stops before any downstream assembly or full-order solve. An unavailable
    reduced model stops it too, with ``delta=None``: a singular projected
    system, or a basis the SVD failed to build (SvdFailure).
    """
    plan = plan or {}
    ys: list[np.ndarray] = []
    systems: list[tuple] = []
    residuals: dict[int, float] = {}
    total = 0.0
    for i in range(1, problem.p + 1):
        if i == 1 and first_system is not None:
            a, f = first_system
        else:
            a, f = problem.assemblers[i - 1](x, ys)
            report.assemblies[i - 1] += 1
        systems.append((a, f))
        if i in plan:
            try:
                y, term = _reduced_solve(i, plan[i], a, f, constants, report, residuals)
            except (SingularReducedSystem, SvdFailure):
                return StepResult(None, ys, systems, None, residuals)
            total += term
            if accept is not None and not accept(total, residuals):
                return StepResult(None, ys, systems, total, residuals)
        else:
            y = factors.solve(i - 1, a, f)
            report.fom_solves[i - 1] += 1
        ys.append(y)
    return StepResult(problem.combiner(x, ys), ys, systems, total, residuals)


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
        return bool(residuals) and sum(residuals.values()) <= eps
    if kind == "asymptotic":
        budget = coupling.asymptotic_residual_budget(constants, eps)
        return bool(residuals) and budget > 0.0 and residuals[min(residuals)] <= budget
    raise ConfigError(f"unknown criterion {kind!r}")


class _RomState:
    """Per-system snapshot windows and bases, and the plan of a reduced step.

    ``windows[i]`` is system i's FIFO of its last ``n_b`` full-order
    solutions, oldest first, each checked finite and copied at the push.
    ``rom[i]`` is system i's basis, built from that window when first read
    after a push (a push drops it); it raises SvdFailure, caching nothing,
    when the SVD fails, and DimensionMismatch when the solutions in the
    window differ in length."""

    def __init__(self, config: RunConfig, report: RunReport):
        self.windows = {i: deque(maxlen=config.n_b) for i in config.rom_set}
        self.bases: dict[int, pod.ReducedBasis] = {}
        self.config = config
        self.report = report

    def push(self, solutions: list[np.ndarray]) -> None:
        for i, window in self.windows.items():
            window.append(numerics.as_vector(solutions[i - 1]).copy())
            self.bases.pop(i, None)

    def ready(self) -> bool:
        return all(len(w) == w.maxlen for w in self.windows.values())

    def __contains__(self, i: int) -> bool:
        return i in self.windows

    def __getitem__(self, i: int) -> pod.ReducedBasis:
        if i not in self.bases:
            basis = pod.build_basis_svd(self.windows[i], self.config.eps_rb)
            self.bases[i] = basis
            self.report.svds += 1
            self.report.basis_sizes[i] = basis.size
        return self.bases[i]


def _probe_delta(state: _RomState, systems, constants: Constants, lam, report):
    """Evaluate the current reduced models on the systems just solved by FOM.

    Returns (delta, residuals); delta is +inf when a reduced model is
    unavailable: a singular projected system or an SVD failure.
    """
    residuals: dict[int, float] = {}
    total = 0.0
    for i in sorted(state.windows):
        a, f = systems[i - 1]
        try:
            _, term = _reduced_solve(i, state[i], a, f, constants, report, residuals)
        except (SingularReducedSystem, SvdFailure):
            return math.inf, {}
        total += term
    return lam * total, residuals


def check_run(problem: CoupledProblem, config: RunConfig) -> None:
    """Refuse, before any solve, a reduced system outside 1..p (ConfigError)
    and constants that can never serve the run (MissingConstants): online ones
    for p > 2 with a reduced system but the last, or, for the asymptotic
    criterion with one, p = 1 or certified K21, K12 or M not positive."""
    outside = sorted(i for i in config.rom_set if not 1 <= i <= problem.p)
    if outside:
        raise ConfigError(f"rom system {outside[0]} but problem has p={problem.p}")
    fixed = problem.fixed_constants
    if fixed is None and problem.p > 2 and any(i < problem.p for i in config.rom_set):
        raise MissingConstants("online estimates cover only K_{2,1}; p > 2 needs fixed constants")
    if config.criterion == "asymptotic" and config.rom_set and (problem.p < 2 or not (
            fixed is None or all(c > 0.0 for c in (fixed.k21, fixed.k12, fixed.m)))):   # NaN too
        raise MissingConstants("asymptotic criterion needs positive K21, K12 and M")


def accelerated_run(problem: CoupledProblem, config: RunConfig,
                    observer: Callable[[dict], None] | None = None) -> RunReport:
    """On-the-fly accelerated inexact Picard iterations, as a state machine.

    Each iteration's state is its trace event:

    * ``fom``: a full-order step. Its iterate is exact, so ``err`` restarts
      at 0 when the step probes, and at inf when it does not.
    * ``rom``: a reduced step, tried while ``rom_ok`` holds and accepted if
      the criterion holds for its bound; then ``err <- delta + L*err``.
    * ``reject``: the reduced step failed the criterion or hit an unavailable
      reduced model (a singular projected system or an SVD failure). ``x``
      stays, ``rom_ok`` is cleared, ``refine`` follows.
    * ``refine``: a full-order step that reuses the rejected step's assembly
      of system 1; ``err <- L*err``.

    After ``fom`` and ``refine`` the reduced models are probed on the systems
    the step solved, and ``rom_ok`` is the criterion's verdict on the probe's
    bound with the new ``err``; a probe of an unavailable model clears it.
    Until the run's first rejection the probe runs once the snapshot windows
    are full, on the bases that include this step's solutions; tested out of
    sample, early models whose reduced steps pass would fail it. From then on
    it runs on the bases built before them, so that it tests the models out
    of sample and a model that does not fit stops drawing reduced attempts.
    The accept check on the reduced step itself is the same either way.

    A step shorter than ``eps``, other than a rejection, ends the run, after
    one exact step at the new iterate if ``validation_loop`` is set
    (``validate-ok``, or ``validate-fail``, which clears ``err`` and
    ``rom_ok``). Every step is one :func:`step`: a ``rom`` step's plan is
    the run's :class:`_RomState`, the others' plan is empty.

    ``observer`` receives one dict per iteration with the keys ``k``,
    ``event`` (``fom``, ``refine``, ``rom`` or ``reject``), ``x_prev``,
    ``x_next``, ``err`` and ``delta`` (the row's values) and ``validation``
    (``None``, ``validate-ok`` or ``validate-fail``).

    Only a run that reduces a system reads constants, which bound its reduced
    solves: one :class:`coupling.Constants`, the problem's ``fixed_constants``
    as they are or a :class:`coupling.ConstantsLedger`'s estimates rebuilt
    after each full-order step, checked first by :func:`check_run`; estimates
    not yet sampled mean "refine". A plain run keeps no ledger and never warns.
    """
    check_run(problem, config)
    lam = config.relaxation
    report = RunReport(p=problem.p)
    factors = FactorCache(report.factorizations)   # per run: each run factors afresh
    rom = constants = ledger = l_step = None
    if config.rom_set:
        rom, constants = _RomState(config, report), problem.fixed_constants
        if constants is None:
            ledger = ConstantsLedger(problem.graph)
            constants = ledger.constants()
        l_step = _relaxed_lipschitz(constants.lipschitz, lam)

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
        if constants is not None and constants.lipschitz >= 1.0 and not report.expansive_warning:
            log.warning("estimated Lipschitz constant %.3g >= 1; propagation "
                        "guarantees void", constants.lipschitz)
            report.expansive_warning = True
        delta_k = None

        if rom_ok:
            s = step(problem, x, report, factors, rom, constants,
                     accept=lambda d, r: holds(lam * d, r, err))
            if s.delta is not None:
                delta_k = lam * s.delta
                report.final_residual = sum(s.residuals.values())
            if s.x_next is not None:
                x_next, event = _relax(x, s.x_next, lam), "rom"
                err = delta_k + l_step * err
            else:
                x_next, event = x.copy(), "reject"
                rejected, rom_ok = s.systems[0], False
                report.rejected += 1
        else:
            refine = rejected is not None
            s = step(problem, x, report, factors, first_system=rejected)
            rejected = None
            x_next = _relax(x, s.x_next, lam)
            event = "refine" if refine else "fom"
            if ledger is not None:
                ledger.observe(x_next, s.solutions, [numerics.norm2(f) for _, f in s.systems])
                constants = ledger.constants()
                l_step = _relaxed_lipschitz(constants.lipschitz, lam)
            probe = None
            if rom is not None:
                if report.rejected:   # out of sample: the bases before this step's snapshots
                    probe = _probe_delta(rom, s.systems, constants, lam, report)
                rom.push(s.solutions)
                if not report.rejected and rom.ready():
                    probe = _probe_delta(rom, s.systems, constants, lam, report)
            err = l_step * err if refine else (math.inf if probe is None else 0.0)
            rom_ok = False
            if probe is not None:
                delta_k, residuals = probe
                rom_ok = not math.isinf(delta_k) and holds(delta_k, residuals, err)
                if residuals:
                    report.final_residual = sum(residuals.values())

        step_norm = numerics.norm2(x_next - x)
        if delta_k is not None:
            report.final_delta = delta_k
        validation = None
        if step_norm < config.eps and rejected is None:
            if not config.validation_loop:
                report.converged = True
            else:
                gx = _relax(x_next, step(problem, x_next, report, factors).x_next, lam)
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
                      "err": err, "delta": delta_k, "validation": validation})
        x = x_next
        k += 1

    report.iterations = k
    report.final_err = err
    report.x = x
    return report


def lockstep_verify(problem: CoupledProblem, config: RunConfig) -> float:
    """Max true distance between accepted inexact iterates and the exact sequence.

    The exact companion sequence advances whenever the accelerated iterate
    advances, and restarts at the current point at every ``fom`` step, where
    the run restarts its error bound ``err`` (the bound assumes a common
    starting point). Returns 0.0 when no reduced step is ever accepted.
    """
    state = {"z": problem.x0.copy(), "max_dist": 0.0}
    scratch = RunReport(p=problem.p)
    factors = FactorCache()

    def observer(ev: dict) -> None:
        if ev["event"] != "reject":   # rejected steps advance neither sequence
            z = ev["x_prev"] if ev["event"] == "fom" else state["z"]
            state["z"] = _relax(z, step(problem, z, scratch, factors).x_next, config.relaxation)
        if ev["event"] == "rom":
            dist = numerics.norm2(ev["x_next"] - state["z"])
            state["max_dist"] = max(state["max_dist"], dist)

    accelerated_run(problem, config, observer=observer)
    return state["max_dist"]
