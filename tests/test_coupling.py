"""Tests for dependence-graph combinatorics, bounds and online constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from picardrom import coupling, driver, numerics, pod
from picardrom.errors import InvalidRange, MissingConstants


def path_weight(graph, path):
    """Product of K along consecutive path pairs; empty product is 1."""
    w = 1.0
    for a, b in zip(path, path[1:]):
        w *= graph.k(a, b)
    return w


def uniform_graph(p, kappa, lam=None):
    k = {(i, j): kappa for i in range(1, p + 1) for j in range(i)}
    l = None if lam is None else [lam] * (p + 1)
    return coupling.DependenceGraph(p, k, l)


def test_enumerate_paths_basics():
    g = coupling.DependenceGraph(4)
    assert coupling.enumerate_paths(g, 0, 1) == [(1, 0)]
    assert sorted(coupling.enumerate_paths(g, 0, 2)) == [(2, 0), (2, 1, 0)]
    assert len(coupling.enumerate_paths(g, 0, 4)) == 8


def test_enumerate_paths_unique_and_decreasing():
    g = coupling.DependenceGraph(6)
    paths = coupling.enumerate_paths(g, 1, 6)
    assert len(set(paths)) == len(paths)
    for p in paths:
        assert p[0] == 6 and p[-1] == 1
        assert all(a > b for a, b in zip(p, p[1:]))


def test_path_weight():
    g = coupling.DependenceGraph(2, {(2, 1): 0.4, (1, 0): 0.3})
    assert path_weight(g, (2, 1, 0)) == pytest.approx(0.12, abs=1e-15)
    assert path_weight(g, (1, 0)) == 0.3
    assert path_weight(g, (1,)) == 1.0
    # with L = e_j the amplification factor of system i is the path sum from j
    # down to i, which must agree with the enumerated weights
    rng = np.random.default_rng(4)
    for p in (1, 2, 3, 5):
        k = {(i, j): rng.uniform(0.0, 1.0) * (rng.random() < 0.7)
             for i in range(1, p + 1) for j in range(i)}
        for j in range(1, p + 1):
            g = coupling.DependenceGraph(p, k, l_consts=np.eye(p + 1)[j])
            for i in range(j):
                direct = sum(path_weight(g, s) for s in coupling.enumerate_paths(g, i, j))
                assert coupling.amplification_factor(g, i) == pytest.approx(direct, rel=1e-14)


def test_contraction_bound_example():
    g = coupling.DependenceGraph(2, {(1, 0): 0.3, (2, 0): 0.2, (2, 1): 0.4},
                                 l_consts=[0.0, 1.0, 1.0])
    assert coupling.contraction_bound(g) == pytest.approx(0.62, abs=1e-15)


def test_contraction_bound_zero_constants():
    g = coupling.DependenceGraph(3, l_consts=[0.7, 1.0, 1.0, 1.0])
    assert coupling.contraction_bound(g) == 0.7


def test_contraction_bound_uniform_identity():
    for p in (1, 2, 3, 5):
        for kappa in (0.1, 0.5, 0.9):
            lam = 0.3
            g = uniform_graph(p, kappa, lam)
            expected = lam * (kappa + 1.0) ** p
            assert coupling.contraction_bound(g) == pytest.approx(expected, rel=1e-12)
            # cross-check against explicit enumeration
            total = lam
            for j in range(1, p + 1):
                total += lam * sum(path_weight(g, s)
                                   for s in coupling.enumerate_paths(g, 0, j))
            assert total == pytest.approx(expected, rel=1e-12)


def test_linear_structure_single_path():
    p = 5
    k = {(i, i - 1): 0.5 + 0.1 * i for i in range(1, p + 1)}
    g = coupling.DependenceGraph(p, k)
    for j in range(1, p + 1):
        weights = [path_weight(g, s) for s in coupling.enumerate_paths(g, 0, j)]
        expected = np.prod([k[(m, m - 1)] for m in range(1, j + 1)])
        assert sum(weights) == pytest.approx(expected, rel=1e-14)


def test_amplification_factor_special_cases():
    g1 = coupling.DependenceGraph(1, l_consts=[0.0, 0.7])
    assert coupling.amplification_factor(g1, 1) == 0.7
    g2 = coupling.DependenceGraph(2, {(2, 1): 0.4}, l_consts=[0.0, 1.0, 1.0])
    assert coupling.amplification_factor(g2, 1) == pytest.approx(1.4, abs=1e-15)
    assert coupling.amplification_factor(g2, 2) == 1.0
    # last system never amplifies downstream
    for p in (1, 2, 4):
        g = uniform_graph(p, 0.3)
        assert coupling.amplification_factor(g, p) == float(g.l_consts[p])


def test_delta_single_and_multi():
    g = coupling.DependenceGraph(2, {(2, 1): 0.4}, l_consts=[0.0, 1.0, 1.0])
    assert coupling.delta_single(g, 1, 2.0, 0.1) == pytest.approx(0.28, abs=1e-15)
    assert coupling.delta_single(g, 1, 2.0, 0.0) == 0.0
    # the run sums one term per reduced system, in topological order
    rng = np.random.default_rng(2)
    constants = coupling.Constants((2.0, 3.0), g, lipschitz=0.0)
    report, residuals, total = driver.RunReport(p=2), {}, 0.0
    expected = 0.0
    for i, amplification in ((1, 1.4), (2, 1.0)):
        a = np.diag(rng.uniform(1.0, 2.0, 4))
        f = rng.standard_normal(4)
        basis = pod.ReducedBasis(basis=np.eye(4)[:, :2], mean=np.zeros(4),
                                 singular_values=np.ones(2))
        y, term = driver._reduced_solve(i, basis, a, f, constants, report, residuals)
        assert residuals[i] == pytest.approx(np.linalg.norm(a @ y - f))
        assert residuals[i] > 0.0
        total += term
        expected += amplification * (2.0 if i == 1 else 3.0) * residuals[i]
    assert list(residuals) == [1, 2] and report.rom_solves == 2
    assert total == pytest.approx(expected, rel=1e-15)


def test_graph_validation():
    with pytest.raises(InvalidRange):
        coupling.DependenceGraph(2, {(1, 2): 0.3})  # upper-triangular entry
    with pytest.raises(InvalidRange):
        coupling.DependenceGraph(2, {(2, 1): -0.5})  # negative edge
    g = coupling.DependenceGraph(2)
    with pytest.raises(InvalidRange):
        g.k(1, 1)
    with pytest.raises(InvalidRange):
        coupling.enumerate_paths(g, 1, 1)
    # a negative index must not wrap around to another entry, nor a
    # fractional one name an edge
    for i, j in ((-1, 0), (2, -1), (3, 0), (2, 3), (1.5, 0), (2, 0.5)):
        with pytest.raises(InvalidRange):
            coupling.DependenceGraph(2, {(i, j): 0.5})
        with pytest.raises(InvalidRange):
            g.with_k({(i, j): 0.5})
        with pytest.raises(InvalidRange):
            g.k(i, j)


@pytest.mark.parametrize("p, k, l, match", [
    (0, {}, [0.0], "p must be >= 1"),
    (2, {(2, 1): -0.5}, None, "nonnegative"),
    (2, {}, [0.0, 1.0], "l_consts must have length 3"),
    (2, {(1, 1): 0.5}, None, r"K\[1,1\] undefined"),
    (2, {(2, 1): np.nan, (1, 0): 0.1}, None, "nonnegative, got nan"),
    (2, {}, [0.0, np.nan, 1.0], "nonnegative, got nan"),
], ids=["p-0", "k-negative", "l-length", "k-diagonal", "k-nan", "l-nan"])
def test_dependence_graph_refuses_malformed_constants(p, k, l, match):
    with pytest.raises(InvalidRange, match=match):
        coupling.DependenceGraph(p, k, l)


def test_dependence_graph_is_a_read_only_value():
    """Zero edges are dropped, so graphs with the same constants compare
    equal, and the stored edges cannot be changed in place."""
    g = coupling.DependenceGraph(2, {(2, 1): 0.4, (1, 0): 0.0})
    assert g == coupling.DependenceGraph(2, {(2, 1): 0.4}, l_consts=[0.0, 1.0, 1.0])
    assert g != coupling.DependenceGraph(2, {(2, 1): 0.5})
    assert coupling.DependenceGraph(2) == coupling.DependenceGraph(2)
    assert dict(g.k_entries) == {(2, 1): 0.4} and g.l_consts == (0.0, 1.0, 1.0)
    with pytest.raises(TypeError):
        g.k_entries[2, 1] = -5.0
    assert g.k(2, 1) == 0.4


def test_condition4_golden_ratio_boundary():
    rep = coupling.sufficient_conditions(uniform_graph_linear(2, 0.6))
    c4 = rep.conditions[3]
    assert c4.applicable and c4.satisfied
    rep = coupling.sufficient_conditions(uniform_graph_linear(2, 0.45))
    assert rep.conditions[3].satisfied


def uniform_graph_linear(p, kappa):
    return coupling.DependenceGraph(p, {(i, i - 1): kappa for i in range(1, p + 1)})


def test_condition5_weak_picard():
    g = coupling.DependenceGraph(2, {(1, 0): 1.5, (2, 1): 0.6},
                                 l_consts=[0.0, 0.0, 1.0])
    rep = coupling.sufficient_conditions(g)
    c5 = rep.conditions[4]
    assert c5.applicable and c5.satisfied  # product 0.9 < 1
    assert not rep.picard_solver and rep.weak_picard_solver


@pytest.mark.parametrize("k_entries", [
    {(1, 0): 0.3, (2, 0): 0.2, (2, 1): 0.4},
    {(1, 0): 0.2, (2, 1): 0.3, (3, 2): 0.4, (3, 1): 0.1},   # a p = 3 chain plus K[3,1]
    {(1, 0): 0.2, (3, 2): 0.4},                             # a p = 3 chain with K[2,1] = 0
], ids=["p2-edge-2-0", "p3-chain-plus-3-1", "p3-chain-without-2-1"])
def test_conditions_not_applicable(k_entries):
    """Off-chain edges break the linear structure, so conditions 3-5 have no
    premise; 1 and 2 are still evaluated for a Picard solver."""
    g = coupling.DependenceGraph(max(i for i, _ in k_entries), k_entries)
    rep = coupling.sufficient_conditions(g)
    assert not rep.linearly_structured and rep.picard_solver
    assert rep.conditions[2:] == (coupling.ConditionStatus(False, None),) * 3
    assert rep.conditions[0].applicable and rep.conditions[1].applicable


def test_ledger_geometric_sequence():
    ledger = coupling.ConstantsLedger(coupling.DependenceGraph(2))
    y = np.ones(3)
    for k in range(12):
        x = (0.9 ** k) * np.ones(3)
        ledger.observe(x, [x.copy(), x.copy()], [1.0, 1.0])
    assert ledger.constants().lipschitz == pytest.approx(0.9, abs=1e-12)


def test_ledger_k21_ratio():
    ledger = coupling.ConstantsLedger(coupling.DependenceGraph(2), {1})
    rng = np.random.default_rng(0)
    for k in range(10):
        y1 = (0.5 ** k) * np.ones(4) + k
        y2 = 2.0 * y1
        ledger.observe(np.concatenate([y1, y2]), [y1, y2], [1.0, 1.0])
    assert ledger.constants().k21 == pytest.approx(2.0, rel=1e-12)


def test_ledger_m_estimate():
    ledger = coupling.ConstantsLedger(coupling.DependenceGraph(1))
    y = np.array([3.0, 4.0])
    ledger.observe(y, [y], [2.0])
    assert ledger.constants().m == pytest.approx(2.5, abs=1e-14)


def test_ledger_skips_tiny_denominators():
    ledger = coupling.ConstantsLedger(coupling.DependenceGraph(2))
    y = np.ones(2)
    for _ in range(5):
        ledger.observe(y, [y, y], [0.0, 0.0])  # zero rhs norms -> no M update
    constants = ledger.constants()
    assert constants.m == 0.0
    assert constants.lipschitz == 0.0  # stagnating iterates skipped


def reference_ledger_estimates(history):
    """M, L, K_{2,1} and K_{1,2} recomputed from every ``(x, ys, rhs_norms)``
    observed so far: each ratio of the ledger's docstring, skipped as the
    guard says, maximised over the last ``LEDGER_WINDOW`` samples taken."""
    def ratio(num, den):
        return None if den <= 0.0 or den < coupling.RATIO_GUARD * num else num / den

    def change(t, part):
        return numerics.norm2(part(history[t]) - part(history[t - 1]))

    samples = {"m": [], "l": [], "k21": [], "l2p": [], "k12": []}

    def estimate(name):
        return max(samples[name][-coupling.LEDGER_WINDOW:], default=0.0)

    for t, (x, ys, rhs_norms) in enumerate(history):
        ms = [r for y, f in zip(ys, rhs_norms)
              if (r := ratio(numerics.norm2(y), f)) is not None]
        if ms:
            samples["m"].append(max(ms))
        if t >= 2 and (r := ratio(change(t, lambda o: o[0]),
                                  change(t - 1, lambda o: o[0]))) is not None:
            samples["l"].append(r)
        if t >= 1 and len(ys) >= 2:
            dy1, dy2 = change(t, lambda o: o[1][0]), change(t, lambda o: o[1][1])
            if (r := ratio(dy2, dy1)) is not None:
                samples["k21"].append(r)
            if t >= 2:
                dy2_old = change(t - 1, lambda o: o[1][1])
                if (r := ratio(dy2, dy2_old)) is not None:
                    samples["l2p"].append(r)
                if (r := ratio(dy1, dy2_old)) is not None:
                    samples["k12"].append(estimate("l2p") * r)
    return {name: estimate(name) for name in ("m", "l", "k21", "k12")}


@st.composite
def ledger_histories(draw):
    """A graph order, a reduced set and observations that sometimes repeat the
    previous iterate or have zero rhs norms, so the ratio guard fires."""
    p, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    rom_set = draw(st.sets(st.integers(1, p)))
    values = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(np.array)
    history = []
    for _ in range(draw(st.integers(1, 2 * coupling.LEDGER_WINDOW + 3))):
        if history and draw(st.booleans()):
            x, ys, _ = history[-1]
        else:
            x, ys = draw(values), [draw(values) for _ in range(p)]
        norm = st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(1e-3, 1e3)
        history.append((x, ys, [draw(norm) for _ in range(p)]))
    return p, rom_set, history


@settings(deadline=None, max_examples=200)
@given(ledger_histories())
def test_ledger_equals_its_estimates_recomputed_from_the_full_history(case):
    p, rom_set, history = case
    ledger = coupling.ConstantsLedger(coupling.DependenceGraph(p), rom_set)
    for t in range(len(history)):
        constants = ledger.observe(*history[t]).constants()
        expected = reference_ledger_estimates(history[:t + 1])
        fills = rom_set and p >= 2
        k21 = expected["k21"] if fills else 0.0
        k12 = expected["k12"] if fills else 0.0
        assert constants.inv_norms == (expected["m"],) * p
        assert constants.lipschitz == expected["l"]
        assert constants.k12 == k12
        assert constants.k21 == k21
        entries = {(2, 1): k21, (1, 0): k12} if p >= 2 else {}
        assert constants.graph == coupling.DependenceGraph(p, entries)


def test_ledger_refuses_a_reduced_system_whose_coupling_it_cannot_estimate():
    """The ledger estimates no K but K_{2,1} and K_{1,2}, so for p > 2 a run
    with online constants may reduce only the last system; ``check_run``
    refuses the others before any solve, the ledger itself builds."""
    def assemble(x, ys):
        return np.eye(1), np.ones(1)

    problem = driver.CoupledProblem((assemble,) * 3, lambda x, ys: np.concatenate(ys),
                                    coupling.DependenceGraph(3), np.zeros(3))
    with pytest.raises(MissingConstants, match="p > 2"):
        driver.check_run(problem, driver.RunConfig(eps=1e-8, rom_set={1}))
    driver.check_run(problem, driver.RunConfig(eps=1e-8, rom_set={3}))
    coupling.ConstantsLedger(coupling.DependenceGraph(3), {1})


def constants_with(m=2.0, k21=0.5, k12=0.4, lipschitz=0.0):
    """Two-system constants with M = ``m``, K_{2,1} = ``k21`` and K_{1,2} = ``k12``."""
    graph = coupling.DependenceGraph(2, {(2, 1): k21, (1, 0): k12}, l_consts=[0.0, 1.0, 1.0])
    return coupling.Constants((m / 2, m), graph, lipschitz)


def test_constants_read_m_and_k21_from_their_parts():
    constants = constants_with(m=2.0, k21=0.5)
    assert (constants.m, constants.k21) == (2.0, 0.5)
    # a single system has no K_{2,1}
    single = coupling.Constants((1.0,), coupling.DependenceGraph(1), 0.5)
    assert (single.m, single.k21) == (1.0, 0.0)


@pytest.mark.parametrize("inv_norms, lipschitz, match", [
    ((1.0,), 0.5, "1 inverse norms for 2 systems"),
    ((1.0, 1.0, 1.0), 0.5, "3 inverse norms for 2 systems"),
    ((np.nan, 1.0), 0.5, "nonnegative, got nan"),
    ((1.0, -1.0), 0.5, "nonnegative"),
    ((1.0, 1.0), -1.0, "nonnegative"),
    ((1.0, 1.0), np.nan, "nonnegative, got nan"),
], ids=["one-norm", "three-norms", "nan-norm", "negative-norm", "negative-l", "nan-l"])
def test_constants_refuse_values_no_bound_can_use(inv_norms, lipschitz, match):
    """A run reads one inverse norm per system and nonnegative constants, so
    anything else is refused when the constants are built, not mid-run."""
    with pytest.raises(InvalidRange, match=match):
        coupling.Constants(inv_norms, coupling.DependenceGraph(2), lipschitz)
    constants = coupling.Constants([np.float64(0.5), 2], coupling.DependenceGraph(2), 0.5)
    assert constants.inv_norms == (0.5, 2.0)
    assert all(type(m) is float for m in constants.inv_norms)


def test_asymptotic_budget():
    budget = coupling.asymptotic_residual_budget(constants_with(), 1e-6)
    assert budget == pytest.approx((1 - 0.2) / (0.5 * 1.5 * 2.0) * 1e-6, rel=1e-12)
    degenerate = constants_with(k21=2.0, k12=0.6)
    assert coupling.asymptotic_residual_budget(degenerate, 1e-6) <= 0.0
    # a constant not yet sampled leaves no budget: the criterion refines
    for missing in (constants_with(m=0.0), constants_with(k21=0.0), constants_with(k12=0.0)):
        assert coupling.asymptotic_residual_budget(missing, 1e-6) == 0.0
        assert not driver.evaluate_criterion("asymptotic", delta_k=0.0, err=0.0,
                                             constants=missing, eps=1e-6,
                                             residuals={1: 0.0})
