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
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InvalidRange, MissingConstants

RATIO_GUARD = 1e-14  # skip ratio updates when the denominator is this small
LEDGER_WINDOW = 10   # iterations a ledger estimate is maximised over


@dataclass(frozen=True)
class DependenceGraph:
    """Lipschitz constants of the solution maps and of the combiner.

    ``k_consts`` is (p+1) x (p+1); entry [i, j] is meaningful for
    1 <= i <= p, 0 <= j < i (j = 0 is the dependence on the outer iterate).
    ``l_consts`` holds L_0 .. L_p for the combiner arguments.
    """

    p: int
    k_consts: np.ndarray
    l_consts: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise InvalidRange("p must be >= 1")
        k = np.asarray(self.k_consts, dtype=float)
        l = np.asarray(self.l_consts, dtype=float)
        if k.shape != (self.p + 1, self.p + 1):
            raise InvalidRange(f"k_consts must be {(self.p + 1, self.p + 1)}")
        if l.shape != (self.p + 1,):
            raise InvalidRange(f"l_consts must have length {self.p + 1}")
        if np.any(k < 0) or np.any(l < 0):
            raise InvalidRange("Lipschitz constants must be nonnegative")
        if np.any(np.triu(k) != 0):
            raise InvalidRange("k_consts must be strictly lower triangular")
        object.__setattr__(self, "k_consts", k)
        object.__setattr__(self, "l_consts", l)

    def k(self, i: int, j: int) -> float:
        if not (1 <= i <= self.p and 0 <= j < i):
            raise InvalidRange(f"K[{i},{j}] undefined for p={self.p}")
        return float(self.k_consts[i, j])

    def with_k(self, updates: dict[tuple[int, int], float]) -> "DependenceGraph":
        k = self.k_consts.copy()
        for (i, j), val in updates.items():
            if not (1 <= i <= self.p and 0 <= j < i):
                raise InvalidRange(f"K[{i},{j}] undefined for p={self.p}")
            k[i, j] = val
        return DependenceGraph(self.p, k, self.l_consts.copy())


def make_graph(p: int, k_entries: dict[tuple[int, int], float] | None = None,
               l_consts=None) -> DependenceGraph:
    """Convenience constructor from sparse K entries and an L vector."""
    k = np.zeros((p + 1, p + 1))
    for (i, j), val in (k_entries or {}).items():
        k[i, j] = val
    if l_consts is None:
        l = np.ones(p + 1)
        l[0] = 0.0  # Picard solver default
    else:
        l = np.asarray(l_consts, dtype=float)
    return DependenceGraph(p=p, k_consts=k, l_consts=l)


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


def _path_sum(graph: DependenceGraph, i: int, j: int) -> float:
    """Sum of path weights over d_{i,j} without materializing the paths."""
    if j == i:
        return 1.0
    # s[m] = weighted sum of decreasing paths from m down to i
    s = {i: 1.0}
    for m in range(i + 1, j + 1):
        s[m] = sum(graph.k(m, l) * s[l] for l in range(i, m) if graph.k_consts[m, l] != 0.0)
    return s[j]


def contraction_bound(graph: DependenceGraph) -> float:
    """Upper estimate of the Lipschitz constant of the combined map G: the
    amplification of a perturbation of the outer iterate (index 0)."""
    return amplification_factor(graph, 0)


def amplification_factor(graph: DependenceGraph, i: int) -> float:
    """Coefficient multiplying the ROM error of system i in the delta bound;
    at ``i = 0``, the contraction bound."""
    if not 0 <= i <= graph.p:
        raise InvalidRange(f"system index {i} outside 0..{graph.p}")
    total = float(graph.l_consts[i])
    for j in range(i + 1, graph.p + 1):
        lj = float(graph.l_consts[j])
        if lj != 0.0:
            total += lj * _path_sum(graph, i, j)
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


def _is_linearly_structured(graph: DependenceGraph, tol: float = 0.0) -> bool:
    for i in range(1, graph.p + 1):
        for j in range(i):
            val = graph.k_consts[i, j]
            if j == i - 1 and val <= tol:
                return False
            if j != i - 1 and val != 0.0:
                return False
    return True


def sufficient_conditions(graph: DependenceGraph) -> SufficientConditionsReport:
    """Evaluate the five sufficient contraction conditions.

    Each condition is checked only when its structural premise holds; a failed
    premise yields (applicable=False, satisfied=None) rather than False.
    """
    p = graph.p
    tol = 1e-12
    l = graph.l_consts
    mask = np.tril(np.ones((p + 1, p + 1), dtype=bool), k=-1)
    mask[0, :] = False
    kappa = float(graph.k_consts[mask].max()) if mask.any() else 0.0
    lam = float(l.max())
    picard = abs(l[0]) <= tol and all(abs(l[i] - 1.0) <= tol for i in range(1, p + 1))
    weak_picard = abs(l[p] - 1.0) <= tol and all(abs(l[i]) <= tol for i in range(p))
    linear = _is_linearly_structured(graph)

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
    maximum; ``graph`` weights each system's term of the step bound and holds
    K_{2,1}; ``lipschitz`` is L, the Lipschitz constant of the combined map,
    and ``k12`` is K_{1,2}, the dependence of the next y_1 on y_2.
    """

    inv_norms: tuple[float, ...]
    graph: DependenceGraph
    lipschitz: float
    k12: float

    @property
    def m(self) -> float:
        return max(self.inv_norms)

    @property
    def k21(self) -> float:
        return self.graph.k(2, 1) if self.graph.p >= 2 else 0.0


class ConstantsLedger:
    """Online estimates of M, K_{2,1}, K_{1,2}, L and L'_2.

    Each estimate is the running maximum of per-iteration ratios over a
    sliding window (single ratios tend to underestimate the true constants).
    Ratios with near-zero denominators are skipped.
    """

    def __init__(self):
        self._m = deque(maxlen=LEDGER_WINDOW)
        self._k21 = deque(maxlen=LEDGER_WINDOW)
        self._k12 = deque(maxlen=LEDGER_WINDOW)
        self._l = deque(maxlen=LEDGER_WINDOW)
        self._l2p = deque(maxlen=LEDGER_WINDOW)
        self._x_hist = deque(maxlen=3)
        self._y_hist = deque(maxlen=3)

    @staticmethod
    def _ratio(num: float, den: float) -> float | None:
        if den <= 0.0 or den < RATIO_GUARD * num:
            return None
        return num / den

    @property
    def m_est(self) -> float:
        return max(self._m, default=0.0)

    @property
    def k21_est(self) -> float:
        return max(self._k21, default=0.0)

    @property
    def k12_est(self) -> float:
        return max(self._k12, default=0.0)

    @property
    def l_est(self) -> float:
        return max(self._l, default=0.0)

    @property
    def l2prime_est(self) -> float:
        return max(self._l2p, default=0.0)

    def observe(self, x, ys, rhs_norms) -> "ConstantsLedger":
        """Record a full-order iterate and update all ratio estimates."""
        x = np.asarray(x, dtype=float)
        ys = [np.asarray(y, dtype=float) for y in ys]
        # M: solution norm over right-hand-side norm, maximized over systems
        ratios = [r for y, f in zip(ys, rhs_norms)
                  if (r := self._ratio(numerics.norm2(y), float(f))) is not None]
        if ratios:
            self._m.append(max(ratios))
        if self._x_hist:
            x_prev = self._x_hist[-1]
            y_prev = self._y_hist[-1]
            if len(self._x_hist) >= 2:
                dx_new = numerics.norm2(x - x_prev)
                dx_old = numerics.norm2(x_prev - self._x_hist[-2])
                if (r := self._ratio(dx_new, dx_old)) is not None:
                    self._l.append(r)
            if len(ys) >= 2:
                dy1 = numerics.norm2(ys[0] - y_prev[0])
                dy2 = numerics.norm2(ys[1] - y_prev[1])
                if (r := self._ratio(dy2, dy1)) is not None:
                    self._k21.append(r)
                if len(self._y_hist) >= 2:
                    dy2_old = numerics.norm2(y_prev[1] - self._y_hist[-2][1])
                    if (r := self._ratio(dy2, dy2_old)) is not None:
                        self._l2p.append(r)
                    if (r := self._ratio(dy1, dy2_old)) is not None:
                        self._k12.append(self.l2prime_est * r)
        self._x_hist.append(x.copy())
        self._y_hist.append([y.copy() for y in ys])
        return self


def asymptotic_residual_budget(constants: Constants, eps: float) -> float:
    """Residual budget for the asymptotic quality criterion.

    Returns ``(1 - K21*K12) / (K21*(1+K21)*M) * eps``; nonpositive when the
    product K21*K12 reaches 1 (caller must then refine).
    """
    k21, k12, m = constants.k21, constants.k12, constants.m
    if k21 <= 0.0 or m <= 0.0 or k12 <= 0.0:
        raise MissingConstants("asymptotic criterion needs K21, K12 and M estimates")
    return (1.0 - k21 * k12) / (k21 * (1.0 + k21) * m) * eps
