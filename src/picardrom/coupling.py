"""Dependence-structure combinatorics and error amplification.

The p auxiliary systems are solved in a fixed topological order; system i may
depend on the outer iterate (index 0) and on any earlier solution j < i, with
Lipschitz constant K[i, j]. Strictly decreasing index paths through this DAG
weight how a perturbation of one solution amplifies through the combiner,
giving both the contraction criterion and the per-step ROM error bounds.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import numerics
from .errors import InvalidRange

RATIO_GUARD = 1e-14  # skip ratio updates when the denominator is this small
LEDGER_WINDOW = 10   # iterations a ledger estimate is maximised over


@dataclass(frozen=True)
class DependenceGraph:
    """Lipschitz constants of the solution maps and of the combiner.

    ``DependenceGraph(p, k_entries, l_consts)``. ``k_entries`` maps each edge
    ``(i, j)``, 1 <= i <= p and 0 <= j < i (j = 0 is the dependence on the
    outer iterate), to K[i, j]; it is kept as a read-only map of the nonzero
    edges, so a missing edge is K = 0 and equal graphs compare equal.
    ``l_consts`` holds L_0 .. L_p for the combiner arguments, by default the
    Picard solver's (0, 1, ..., 1). Every constant must be nonnegative.
    """

    p: int
    k_entries: Mapping[tuple[int, int], float] | None = None
    l_consts: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.p < 1:
            raise InvalidRange("p must be >= 1")
        k = {}
        for (i, j), val in (self.k_entries or {}).items():
            _check_k_index(self.p, i, j)
            val = _nonnegative(val)
            if val:
                k[i, j] = val
        l = ((0.0,) + (1.0,) * self.p if self.l_consts is None   # Picard solver default
             else tuple(map(_nonnegative, self.l_consts)))
        if len(l) != self.p + 1:
            raise InvalidRange(f"l_consts must have length {self.p + 1}")
        object.__setattr__(self, "k_entries", MappingProxyType(k))
        object.__setattr__(self, "l_consts", l)

    def k(self, i: int, j: int) -> float:
        _check_k_index(self.p, i, j)
        return self.k_entries.get((i, j), 0.0)

    def with_k(self, updates: dict[tuple[int, int], float]) -> "DependenceGraph":
        return DependenceGraph(self.p, {**self.k_entries, **updates}, self.l_consts)


def _check_k_index(p: int, i: int, j: int) -> None:
    """Raise InvalidRange unless integers i, j name an edge K[i, j] of a graph of order p."""
    if not (i in range(1, p + 1) and j in range(p) and j < i):
        raise InvalidRange(f"K[{i},{j}] undefined for p={p}")


def _nonnegative(val) -> float:
    """``val`` as a float; InvalidRange when it is negative or NaN."""
    val = float(val)
    if not val >= 0.0:
        raise InvalidRange(f"constants must be nonnegative, got {val}")
    return val


def enumerate_paths(graph: DependenceGraph, i: int, j: int) -> list[tuple[int, ...]]:
    """All strictly decreasing integer sequences from j down to i.

    Deterministic lexicographic order; each path appears exactly once.
    """
    if not (0 <= i < j <= graph.p):
        raise InvalidRange(f"need 0 <= i < j <= p, got i={i}, j={j}, p={graph.p}")

    def descend(top: int) -> list[tuple[int, ...]]:
        if top == i:
            return [(i,)]
        out = []
        for nxt in range(i, top):
            out.extend((top,) + tail for tail in descend(nxt))
        return out

    return descend(j)


def contraction_bound(graph: DependenceGraph) -> float:
    """Upper estimate of the Lipschitz constant of the combined map G: the
    amplification of a perturbation of the outer iterate (index 0)."""
    return amplification_factor(graph, 0)


def amplification_factor(graph: DependenceGraph, i: int) -> float:
    """Coefficient multiplying the ROM error of system i in the delta bound;
    at ``i = 0``, the contraction bound."""
    if not 0 <= i <= graph.p:
        raise InvalidRange(f"system index {i} outside 0..{graph.p}")
    k, l_consts = graph.k_entries, graph.l_consts
    total = l_consts[i]
    s = {i: 1.0}   # s[m]: weighted sum of the decreasing paths from m down to i
    for m in range(i + 1, graph.p + 1):
        s[m] = sum(k[m, l] * s[l] for l in range(i, m) if (m, l) in k)
        if l_consts[m] != 0.0:
            total += l_consts[m] * s[m]
    return total


def delta_single(graph: DependenceGraph, i: int, inv_norm: float,
                 residual_norm: float) -> float:
    """Per-step error bound when only system i is solved by ROM."""
    if inv_norm < 0.0 or residual_norm < 0.0:
        raise ValueError("inv_norm and residual_norm must be nonnegative")
    return amplification_factor(graph, i) * inv_norm * residual_norm


@dataclass(frozen=True)
class ConditionStatus:
    applicable: bool
    satisfied: bool | None  # None when not applicable


@dataclass(frozen=True)
class SufficientConditionsReport:
    kappa: float
    lam: float
    picard_solver: bool
    weak_picard_solver: bool
    linearly_structured: bool
    conditions: tuple[ConditionStatus, ...]  # conditions 1..5


def sufficient_conditions(graph: DependenceGraph) -> SufficientConditionsReport:
    """Evaluate the five sufficient contraction conditions.

    Each condition is checked only when its structural premise holds; a failed
    premise yields (applicable=False, satisfied=None) rather than False.
    """
    p = graph.p
    tol = 1e-12
    k, l = graph.k_entries, graph.l_consts
    kappa = max(k.values(), default=0.0)
    lam = max(l)
    picard = abs(l[0]) <= tol and all(abs(l[i] - 1.0) <= tol for i in range(1, p + 1))
    weak_picard = abs(l[p] - 1.0) <= tol and all(abs(l[i]) <= tol for i in range(p))
    # every K[i, i-1] > 0 and no other edge (every stored edge is positive)
    linear = len(k) == p and all((i, i - 1) in k for i in range(1, p + 1))

    cond1 = ConditionStatus(True, lam * (kappa + 1.0) ** p < 1.0)
    cond2 = ConditionStatus(picard, kappa < 2.0 ** (1.0 / p) - 1.0 if picard else None)
    if linear:
        geom = sum(kappa**j for j in range(1, p + 1))
        cond3 = ConditionStatus(True, lam * (1.0 + geom) < 1.0)
    else:
        cond3 = ConditionStatus(False, None)
    if picard and linear:
        cond4 = ConditionStatus(True, kappa < 1.0 and kappa ** (p + 1) - 2.0 * kappa + 1.0 > 0.0)
    else:
        cond4 = ConditionStatus(False, None)
    if weak_picard and linear:
        prod = math.prod(graph.k(i, i - 1) for i in range(1, p + 1))
        cond5 = ConditionStatus(True, prod < 1.0)
    else:
        cond5 = ConditionStatus(False, None)

    return SufficientConditionsReport(
        kappa=kappa,
        lam=lam,
        picard_solver=picard,
        weak_picard_solver=weak_picard,
        linearly_structured=linear,
        conditions=(cond1, cond2, cond3, cond4, cond5),
    )


@dataclass(frozen=True)
class Constants:
    """The constants every bound and criterion of a run reads.

    ``inv_norms[i-1]`` bounds system i's ``||A_i^{-1}||`` and M is their
    maximum; ``graph`` holds every K and L of the dependence DAG; ``lipschitz``
    is L, the Lipschitz constant of the combined map. The error bounds are
    rigorous only when each value bounds its true constant from above, as the
    certificate of :func:`picardrom.problems.spd_inverse_norm` does for M.
    There must be one inverse norm per system of ``graph``, and every value
    must be nonnegative (not NaN); ``inv_norms`` is kept as a tuple of floats.
    """

    inv_norms: tuple[float, ...]
    graph: DependenceGraph
    lipschitz: float

    def __post_init__(self):
        inv_norms = tuple(map(_nonnegative, self.inv_norms))
        if len(inv_norms) != self.graph.p:
            raise InvalidRange(f"{len(inv_norms)} inverse norms for {self.graph.p} systems")
        _nonnegative(self.lipschitz)
        object.__setattr__(self, "inv_norms", inv_norms)

    @property
    def m(self) -> float:
        return max(self.inv_norms)

    @property
    def k21(self) -> float:
        return self.graph.k(2, 1) if self.graph.p >= 2 else 0.0

    @property
    def k12(self) -> float:
        """K_{1,2}, the dependence of the next y_1 on y_2: ``K[1,0] * L_2``,
        since y_2 reaches the next y_1 only through the combiner's output x;
        0 for p = 1."""
        return self.graph.k(1, 0) * self.graph.l_consts[2] if self.graph.p >= 2 else 0.0


class ConstantsLedger:
    """Online estimates of a run's :class:`Constants` from full-order iterates.

    Each observation samples five ratios of norms: M, the largest
    ``||y_i|| / ||F_i||``; L, ``||dx|| / ||dx'||``; K_{2,1},
    ``||dy_2|| / ||dy_1||``; L'_2, ``||dy_2|| / ||dy_2'||``; and K_{1,2}, the
    L'_2 estimate times ``||dy_1|| / ||dy_2'||``. ``d`` is the change since the
    previous observation and ``d'`` the change before it. A ratio whose
    denominator is not above zero or is below ``RATIO_GUARD`` times its
    numerator is skipped. Each estimate is the maximum of its last
    ``LEDGER_WINDOW`` samples, 0.0 before the first (single ratios tend to
    underestimate the true constants).

    The K_{1,2} sample takes the previous change of y_2 as the change of x
    that moved y_1, so it assumes the Picard combiner ``x = (y_1, y_2)``,
    where L_2 = 1 and K_{1,2} = K[1,0]. Every system gets the estimated M,
    and K_{2,1} and K_{1,2} enter ``graph`` as ``K[2,1]`` and ``K[1,0]`` only
    when ``rom_set`` is not empty and p >= 2. No other K is estimated, so for
    p > 2 a run may reduce only the last system, which
    :func:`picardrom.driver.check_run` enforces before the first step.
    """

    def __init__(self, graph: DependenceGraph, rom_set=frozenset()):
        self._graph = graph
        self._fills_k = bool(rom_set) and graph.p >= 2
        self._windows = {name: deque(maxlen=LEDGER_WINDOW)
                         for name in ("m", "k21", "k12", "l", "l2p")}
        self._last = None   # (x, [y_1, y_2], ||dx||, ||dy_2||) of the last observation

    def _sample(self, name: str, pairs, scale: float = 1.0) -> None:
        """Append ``scale`` times the largest unskipped ``num / den`` over
        ``pairs`` to the ``name`` window; nothing when every ratio is skipped."""
        ratios = [num / den for num, den in pairs
                  if not (den <= 0.0 or den < RATIO_GUARD * num)]
        if ratios:
            self._windows[name].append(scale * max(ratios))

    def _estimate(self, name: str) -> float:
        return max(self._windows[name], default=0.0)

    def observe(self, x, ys, rhs_norms) -> "ConstantsLedger":
        """Record a full-order iterate, its solutions and their rhs norms."""
        x = np.array(x, dtype=float)
        ys = [np.asarray(y, dtype=float) for y in ys]
        self._sample("m", [(numerics.norm2(y), float(f)) for y, f in zip(ys, rhs_norms)])
        dx = dy2 = None
        if self._last is not None:
            x_prev, y_prev, dx_prev, dy2_prev = self._last
            dx = numerics.norm2(x - x_prev)
            if dx_prev is not None:
                self._sample("l", [(dx, dx_prev)])
            if len(ys) >= 2:
                dy1 = numerics.norm2(ys[0] - y_prev[0])
                dy2 = numerics.norm2(ys[1] - y_prev[1])
                self._sample("k21", [(dy2, dy1)])
                if dy2_prev is not None:
                    self._sample("l2p", [(dy2, dy2_prev)])
                    self._sample("k12", [(dy1, dy2_prev)], scale=self._estimate("l2p"))
        self._last = (x, [y.copy() for y in ys[:2]], dx, dy2)
        return self

    def constants(self) -> Constants:
        """The current estimates as the constants of a run's bounds."""
        graph = self._graph
        if self._fills_k:
            graph = graph.with_k({(2, 1): self._estimate("k21"), (1, 0): self._estimate("k12")})
        return Constants((self._estimate("m"),) * graph.p, graph, self._estimate("l"))


def asymptotic_residual_budget(constants: Constants, eps: float) -> float:
    """Residual budget for the asymptotic quality criterion.

    Returns ``(1 - K21*K12) / (K21*(1+K21)*M) * eps``; nonpositive when the
    product K21*K12 reaches 1, and 0.0 while K21, K12 or M is not positive
    (not yet sampled online): no budget either way, so the caller refines.
    """
    k21, k12, m = constants.k21, constants.k12, constants.m
    if k21 <= 0.0 or m <= 0.0 or k12 <= 0.0:
        return 0.0
    return (1.0 - k21 * k12) / (k21 * (1.0 + k21) * m) * eps
