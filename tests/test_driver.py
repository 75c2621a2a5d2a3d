"""Tests for the fixed-point engine and the accelerated state machine."""

import dataclasses
import logging
import math
import zlib

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from picardrom import coupling, driver, numerics, pod, problems
from picardrom.driver import (
    CoupledProblem,
    FactorCache,
    RunConfig,
    RunReport,
    accelerated_run,
    evaluate_criterion,
    step,
)
from picardrom.errors import (
    ConfigError,
    DimensionMismatch,
    MissingConstants,
    SingularReducedSystem,
    SvdFailure,
)


def scalar_problem(rate=0.5, source=0.0, x0=1.0):
    def assemble(x, ys):
        return np.array([[1.0]]), np.array([rate * x[0] + source])

    graph = coupling.DependenceGraph(1, {(1, 0): abs(rate)}, l_consts=[0.0, 1.0])
    return CoupledProblem(assemblers=(assemble,),
                          combiner=lambda x, ys: ys[0].copy(), graph=graph,
                          x0=np.array([x0]))


def decoupled_problem():
    a1 = np.diag([2.0, 4.0])
    a2 = np.diag([5.0])

    def as1(x, ys):
        return a1, np.array([2.0, 8.0])

    def as2(x, ys):
        return a2, np.array([10.0])

    graph = coupling.DependenceGraph(2, l_consts=[0.0, 1.0, 1.0])
    return CoupledProblem(assemblers=(as1, as2),
                          combiner=lambda x, ys: np.concatenate(ys),
                          graph=graph, x0=np.zeros(3))


def test_coupled_problem_refuses_a_graph_that_is_not_its_own():
    prob = decoupled_problem()
    with pytest.raises(ConfigError, match="order 3 for 2 assemblers"):
        CoupledProblem(prob.assemblers, prob.combiner, coupling.DependenceGraph(3), prob.x0)
    # constants on an equal graph that is not the problem's are refused too
    other = coupling.Constants((1.0, 1.0), coupling.DependenceGraph(2), 0.5)
    with pytest.raises(ConfigError, match="problem's graph"):
        CoupledProblem(prob.assemblers, prob.combiner, prob.graph, prob.x0,
                       fixed_constants=other)
    own = coupling.Constants((1.0, 1.0), prob.graph, 0.5)
    assert CoupledProblem(prob.assemblers, prob.combiner, prob.graph, prob.x0,
                          fixed_constants=own).p == 2


def full_order(problem, x, factors=None):
    """One step with an empty plan, on fresh factors unless given."""
    return step(problem, x, RunReport(p=problem.p), factors or FactorCache())


def test_exact_step_scalar_contraction():
    prob = scalar_problem()
    report = RunReport(p=1)
    res = step(prob, np.array([1.0]), report, FactorCache())
    assert res.x_next == pytest.approx([0.5])
    assert (res.delta, res.residuals) == (0.0, {})
    assert report.fom_solves == [1] and report.rom_solves == 0


def test_exact_step_decoupled_matches_independent_solves():
    res = full_order(decoupled_problem(), np.zeros(3))
    assert np.allclose(res.x_next, [1.0, 2.0, 2.0], atol=1e-14)


def relaxed_step(problem, x, lam):
    """Averaged step ``(1 - lam) x + lam G(x)``."""
    return (1.0 - lam) * x + lam * full_order(problem, x).x_next


def test_relaxed_step_identity_at_lambda_one():
    prob = scalar_problem()
    x = np.array([0.8])
    plain = full_order(prob, x).x_next
    relaxed = relaxed_step(prob, x, 1.0)
    assert np.array_equal(plain, relaxed)


def test_relaxed_step_averages_oscillation():
    prob = scalar_problem(rate=-1.0)  # G(x) = -x
    x = np.array([0.7])
    out = relaxed_step(prob, x, 0.5)
    assert out == pytest.approx([0.0], abs=1e-15)


def test_relaxed_step_tames_expansive_map():
    prob = scalar_problem(rate=-1.5)
    x = np.array([1.0])
    for _ in range(40):
        x = relaxed_step(prob, x, 0.2)
    # contraction factor |1 - 0.2 - 0.3| = 0.5
    assert abs(x[0]) <= 0.5 ** 40 * 1.0 + 1e-12


@pytest.mark.parametrize("relaxation", [
    0.0, -0.1, 1.5, math.nan, lambda k: 0.5,
], ids=["zero", "negative", "above-one", "nan", "schedule"])
def test_relaxation_outside_unit_interval_is_rejected(relaxation):
    """A step weight outside (0, 1], or a schedule of them, is refused when
    the settings are built, before any run."""
    with pytest.raises(ConfigError, match="relaxation factor"):
        RunConfig(eps=1e-8, rom_set=frozenset({1}), relaxation=relaxation)


def test_run_config_is_frozen():
    cfg = RunConfig(eps=1e-8, relaxation=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.relaxation = 0.0
    assert dataclasses.replace(cfg, rom_set={1}).rom_set == frozenset({1})


def two_system_constants(m=2.0, k21=0.5, k12=0.4, lipschitz=0.0):
    graph = coupling.DependenceGraph(2, {(2, 1): k21, (1, 0): k12}, l_consts=[0.0, 1.0, 1.0])
    return coupling.Constants((m, m), graph, lipschitz)


def test_evaluate_criterion_propagation_and_upper():
    half, one = two_system_constants(lipschitz=0.5), two_system_constants(lipschitz=1.0)
    assert evaluate_criterion("propagation", delta_k=0.0, err=1e-7, constants=half,
                              eps=1e-6)
    assert not evaluate_criterion("propagation", delta_k=1e-6, err=1e-6, constants=one,
                                  eps=1e-6)
    # tie accepted (<= comparison)
    assert evaluate_criterion("propagation", delta_k=5e-7, err=1e-6, constants=half,
                              eps=1e-6)
    assert evaluate_criterion("upper_bound", delta_k=1e-6, err=math.inf,
                              constants=two_system_constants(lipschitz=2.0), eps=1e-6)


def test_evaluate_criterion_residual_and_asymptotic():
    constants = two_system_constants()
    assert evaluate_criterion("residual", delta_k=1.0, err=1.0, constants=constants,
                              eps=1e-6, residuals={1: 5e-7})
    assert not evaluate_criterion("residual", delta_k=0.0, err=0.0, constants=constants,
                                  eps=1e-6, residuals={1: 2e-6})
    budget = coupling.asymptotic_residual_budget(constants, 1e-6)
    assert evaluate_criterion("asymptotic", delta_k=0.0, err=0.0, constants=constants,
                              eps=1e-6, residuals={1: budget * 0.9})
    degenerate = two_system_constants(k21=2.0, k12=0.6)
    assert not evaluate_criterion("asymptotic", delta_k=0.0, err=0.0, constants=degenerate,
                                  eps=1e-6, residuals={1: 0.0})


def test_run_config_validation():
    for eps in (0.0, math.nan):
        with pytest.raises(ConfigError, match="eps"):
            RunConfig(eps=eps)
    with pytest.raises(ConfigError):
        RunConfig(eps=1e-6, n_b=1)
    for k_max in (0, -3):
        with pytest.raises(ConfigError, match="k_max"):
            RunConfig(eps=1e-6, k_max=k_max)
    # a window or budget that is not an integer, refused before any run builds a deque
    for bad in (2.5, 10.0, "5", None):
        for name in ("n_b", "k_max"):
            with pytest.raises(ConfigError, match=name):
                RunConfig(eps=1e-6, **{name: bad})
    for eps_rb in (0.0, 1.0, 2.0):
        with pytest.raises(ConfigError, match="eps_rb"):
            RunConfig(eps=1e-6, eps_rb=eps_rb)
    with pytest.raises(ConfigError):
        RunConfig(eps=1e-6, criterion="bogus")
    with pytest.raises(ConfigError):
        accelerated_run(scalar_problem(), RunConfig(eps=1e-6, rom_set={2}))
    # a reduced system named by anything but an integer, refused before any solve
    for bad in (1.5, "1"):
        with pytest.raises(ConfigError, match="rom_set"):
            RunConfig(eps=1e-6, rom_set={bad})


def test_check_run_refuses_the_asymptotic_criterion_on_one_system():
    """p = 1 has no K_{2,1}: a reduced run under the asymptotic criterion is
    refused before its first step, a full-order one runs."""
    cfg = RunConfig(eps=1e-8, rom_set=frozenset({1}), criterion="asymptotic")
    with pytest.raises(MissingConstants, match="K21"):
        driver.check_run(scalar_problem(), cfg)
    steps = []
    with pytest.raises(MissingConstants):
        accelerated_run(scalar_problem(), cfg, observer=steps.append)
    assert steps == []
    assert accelerated_run(scalar_problem(),
                           dataclasses.replace(cfg, rom_set=frozenset())).converged
    driver.check_run(decoupled_problem(), dataclasses.replace(cfg, rom_set=frozenset({2})))


def test_rom_none_is_plain_picard():
    prob = scalar_problem()
    cfg = RunConfig(eps=1e-8, rom_set=frozenset(), validation_loop=False)
    report = accelerated_run(prob, cfg)
    assert report.converged
    # geometric decay: step norms halve each iteration
    steps = [r.step_norm for r in report.trace]
    for a, b in zip(steps, steps[1:]):
        assert b == pytest.approx(0.5 * a, rel=1e-10)
    assert report.rom_solves == 0 and report.svds == 0
    # iteration count ~ ceil(log eps / log L)
    expected = math.ceil(math.log(1e-8) / math.log(0.5))
    assert abs(report.iterations - expected) <= 1


def test_accelerated_scalar_with_rom_converges():
    prob = scalar_problem()
    cfg = RunConfig(eps=1e-10, n_b=3, rom_set=frozenset({1}))
    report = accelerated_run(prob, cfg)
    assert report.converged
    assert report.final_err <= 1e-10


def test_rejected_step_keeps_iterate_and_forces_fom():
    # impossible basis (orthogonal to the moving solution) forces rejections
    prob = scalar_problem(rate=0.9)
    cfg = RunConfig(eps=1e-10, n_b=2, eps_rb=0.99, rom_set=frozenset({1}),
                    criterion="upper_bound", k_max=60)
    report = accelerated_run(prob, cfg)
    events = [r.event for r in report.trace]
    hashes = [r.x_hash for r in report.trace]
    for idx, ev in enumerate(events):
        if ev == "reject":
            # iterate unchanged by a rejected step
            assert hashes[idx] == hashes[idx - 1]
            # no two consecutive rejections: recompute forces a FOM step
            if idx + 1 < len(events):
                assert events[idx + 1] in ("refine", "fom")
    assert report.rejected == events.count("reject")


def spy(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` that returns."""
    original, returned = getattr(module, name), []

    def spied(*args):
        result = original(*args)
        returned.append(result)
        return result

    monkeypatch.setattr(module, name, spied)
    return returned


@pytest.mark.parametrize("build, cfg", [
    (scalar_problem, RunConfig(eps=1e-10, n_b=3, rom_set=frozenset({1}))),
    # rejections and failed validations both happen here
    (lambda: thermal_problem(), RunConfig(eps=1e-8, n_b=5, eps_rb=1e-4,
                                          rom_set=frozenset({1}), criterion="residual")),
], ids=["scalar", "thermal"])
def test_counter_consistency(monkeypatch, build, cfg):
    """Each counter matches what the run did: spied basis builds and reduced
    solves, and the trace's events."""
    builds = spy(monkeypatch, pod, "build_basis_svd")
    solves = spy(monkeypatch, pod, "rom_solve")
    report = accelerated_run(build(), cfg)
    events = [r.event for r in report.trace]
    assert report.converged and builds and solves
    assert report.svds == len(builds)
    assert report.rom_solves == len(solves)
    assert report.basis_sizes == {1: builds[-1].size}
    assert report.rejected == events.count("reject")
    assert report.validation_cycles == events.count("validate-fail")
    assert report.iterations == len(report.trace)


def rom_state(n_b, rom_set=frozenset({1, 2})):
    report = RunReport(p=2)
    return driver._RomState(RunConfig(eps=1e-8, n_b=n_b, rom_set=rom_set), report), report


def test_fifo_eviction():
    a, b, c = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])
    state, _ = rom_state(2, frozenset({1}))
    for u in (a, b, c):
        state.push([u])
    assert state.ready()
    assert [u.tolist() for u in state.windows[1]] == [b.tolist(), c.tolist()]


def test_fifo_keeps_last_capacity():
    """After n_b + 2 pushes each window holds its system's last n_b
    solutions, oldest first, as copies."""
    rng = np.random.default_rng(0)
    pushed = [[rng.standard_normal(4), rng.standard_normal(3)] for _ in range(7)]
    state, _ = rom_state(5)
    for k, solutions in enumerate(pushed):
        assert state.ready() == (k >= 5)
        state.push(solutions)
    assert state.ready()
    for i in (1, 2):
        kept = [solutions[i - 1] for solutions in pushed[2:]]
        assert [u.tolist() for u in state.windows[i]] == [u.tolist() for u in kept]
        assert not any(np.shares_memory(u, v) for u, v in zip(state.windows[i], kept))


def test_rom_state_push_drops_the_basis():
    rng = np.random.default_rng(1)
    state, report = rom_state(3)
    for _ in range(3):
        state.push([rng.standard_normal(4), rng.standard_normal(3)])
    first = state[1]
    assert state[1] is first and report.svds == 1
    state.push([rng.standard_normal(4), rng.standard_normal(3)])
    assert state[1] is not first and report.svds == 2


def test_rom_state_checks_solutions():
    """A non-finite solution is refused at the push; one of another length
    is refused when the basis is built from the window holding it."""
    state, _ = rom_state(2, frozenset({1}))
    state.push([np.ones(3)])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            state.push([np.array([1.0, bad, 0.0])])
    assert len(state.windows[1]) == 1
    state.push([np.ones(4)])
    with pytest.raises(DimensionMismatch):
        state[1]


def with_dia_matrices(problem):
    """``problem`` with each assembled matrix handed out as a ``dia_array``,
    one per matrix object, so factors are reused as with the original."""
    converted = {}   # id -> (matrix, its dia_array); the matrix pins the id

    def as_dia(assemble):
        def assemble_dia(x, ys):
            a, f = assemble(x, ys)
            _, dia = converted.setdefault(id(a), (a, scipy.sparse.dia_array(a)))
            return dia, f
        return assemble_dia

    return dataclasses.replace(problem, assemblers=[as_dia(a) for a in problem.assemblers])


def trace_bits(report):
    return [(r.x_hash, r.err.hex(), None if r.delta is None else r.delta.hex())
            for r in report.trace]


@pytest.mark.parametrize("build, rom_set", [(scalar_problem, frozenset({1})),
                                            (decoupled_problem, frozenset({1, 2}))],
                         ids=["scalar", "decoupled"])
def test_dense_and_dia_matrices_give_the_same_run(build, rom_set):
    cfg = RunConfig(eps=1e-10, n_b=2, rom_set=rom_set)
    dense = accelerated_run(build(), cfg)
    dia = accelerated_run(with_dia_matrices(build()), cfg)
    assert dense.rom_solves > 0 and dense.to_dict() == dia.to_dict()
    assert trace_bits(dense) == trace_bits(dia)


def test_determinism():
    prob = scalar_problem()
    cfg = RunConfig(eps=1e-10, n_b=3, rom_set=frozenset({1}))
    r1 = accelerated_run(prob, cfg)
    r2 = accelerated_run(scalar_problem(), cfg)
    assert [t.x_hash for t in r1.trace] == [t.x_hash for t in r2.trace]
    assert r1.to_dict() == r2.to_dict()


def test_validation_soundness():
    prob = scalar_problem()
    cfg = RunConfig(eps=1e-9, n_b=3, rom_set=frozenset({1}), validation_loop=True)
    report = accelerated_run(prob, cfg)
    assert report.converged
    # re-apply the exact map at the final iterate
    gx = full_order(prob, report.x).x_next
    assert numerics.norm2(gx - report.x) < cfg.eps


def test_err_accumulates_across_accepted_steps():
    # accepted steps update err <- delta + L*err, so err never drops below
    # L*err_prev (it only shrinks through the contraction factor itself)
    prob = scalar_problem(rate=0.8)
    cfg = RunConfig(eps=1e-9, n_b=3, rom_set=frozenset({1}), k_max=200)
    report = accelerated_run(prob, cfg)
    prev = None
    for row in report.trace:
        if row.event == "rom" and prev is not None and prev.event == "rom":
            assert row.err >= row.l_est * prev.err - 1e-18
            assert row.err == pytest.approx(row.delta + row.l_est * prev.err,
                                            rel=1e-12, abs=1e-18)
        prev = row


def test_expansive_warning_flag(caplog):
    """An estimated L >= 1 voids a reduced run's propagation bound and is
    logged once; a run that reduces nothing has no bound to void and never
    warns, the plain thermal run at step weight 0.8 included."""
    prob = scalar_problem(rate=1.5)  # expansive map
    cfg = RunConfig(eps=1e-6, k_max=20, rom_set=frozenset({1}), n_b=3)
    with caplog.at_level(logging.WARNING, logger=driver.__name__):
        report = accelerated_run(prob, cfg)
    assert not report.converged
    assert report.expansive_warning
    assert ["guarantees void" in r.getMessage() for r in caplog.records] == [True]
    for plain, plain_cfg in ((prob, dataclasses.replace(cfg, rom_set=frozenset())),
                             (thermal_problem(), RunConfig(eps=1e-8, relaxation=0.8))):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=driver.__name__):
            report = accelerated_run(plain, plain_cfg)
        assert not report.expansive_warning and not caplog.records


def test_lockstep_zero_without_rom():
    prob = scalar_problem()
    cfg = RunConfig(eps=1e-8, rom_set=frozenset())
    assert driver.lockstep_verify(prob, cfg) == 0.0


def test_relaxed_plain_run_is_the_averaged_picard_sequence():
    prob, _ = rd_problem()
    cfg = RunConfig(eps=1e-8, relaxation=0.5)
    report = accelerated_run(prob, cfg)
    assert report.converged and report.iterations > 1
    x, hashes = prob.x0.copy(), []
    for _ in report.trace:
        x = 0.5 * x + 0.5 * full_order(prob, x).x_next
        hashes.append(driver._hash_state(x))
    assert [row.x_hash for row in report.trace] == hashes


@pytest.mark.parametrize("relaxation", [0.5, 0.7], ids=["krasnoselskij", "lam-0.7"])
def test_relaxed_rom_run_keeps_the_lockstep_guarantee(relaxation):
    pair = problems.ReactionDiffusionPair(n=8)
    prob = problems.make_coupled_problem(pair, exact_constants=True)
    cfg = RunConfig(eps=1e-8, rom_set=frozenset({1}), criterion="propagation",
                    relaxation=relaxation)
    report = accelerated_run(prob, cfg)
    assert report.converged
    assert any(row.event == "rom" for row in report.trace)
    assert driver.lockstep_verify(prob, cfg) <= cfg.eps


@pytest.mark.parametrize("relaxation", [0.5, 0.7])
@pytest.mark.parametrize("rom_set", [{1}, {2}, {1, 2}], ids=["rom1", "rom2", "both"])
def test_relaxed_runs_with_online_constants_keep_the_guarantee_or_say_they_lost_it(
        rom_set, relaxation):
    """Estimated constants carry no guarantee, but a run whose estimated L
    reaches 1 must flag it: within eps of the exact sequence or warned."""
    prob = problems.make_coupled_problem(problems.ThermalFlowSurrogate())
    cfg = RunConfig(eps=1e-8, rom_set=frozenset(rom_set), relaxation=relaxation)
    report = accelerated_run(prob, cfg)
    assert report.converged and any(row.event == "rom" for row in report.trace)
    assert driver.lockstep_verify(prob, cfg) <= cfg.eps or report.expansive_warning


def orthogonal_chain(rng, p, n, lip):
    """Chain ``y_i = lip*Q_i y_(i-1) + c_i`` from ``y_0 = x`` to ``x <- y_p``,
    with identity system matrices and random orthogonal ``Q_i``: every link's
    Lipschitz constant is exactly ``lip``, and so are the certified constants."""
    maps = [lip * np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(p)]
    sources = [rng.standard_normal(n) for _ in range(p)]
    identity = np.eye(n)   # one object, so a run factors it once

    def link(i):
        def assemble(x, ys):
            return identity, maps[i] @ (ys[-1] if i else x) + sources[i]
        return assemble

    graph = coupling.DependenceGraph(p, {(i, i - 1): lip for i in range(1, p + 1)},
                                     l_consts=[0.0] * p + [1.0])
    return CoupledProblem(
        assemblers=[link(i) for i in range(p)],
        combiner=lambda x, ys: ys[-1].copy(), graph=graph, x0=np.zeros(n),
        fixed_constants=coupling.Constants((1.0,) * p, graph, coupling.contraction_bound(graph)))


def test_relaxed_runs_keep_the_lockstep_guarantee_on_random_linear_maps():
    """A relaxed step's map has Lipschitz constant (1 - lam) + lam*L, and err
    and the propagation criterion must carry err by it: carried by L alone,
    many of these runs end farther than eps from the exact sequence."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        lip = rng.uniform(0.3, 0.95)
        prob = orthogonal_chain(rng, 1, int(rng.integers(4, 12)), lip)
        cfg = RunConfig(eps=10.0 ** rng.uniform(-4.0, -1.0), n_b=int(rng.integers(2, 4)),
                        rom_set=frozenset({1}), relaxation=rng.uniform(0.1, 0.9))
        assert driver.lockstep_verify(prob, cfg) <= cfg.eps, seed
    report = accelerated_run(prob, cfg)
    lam = cfg.relaxation
    assert {row.l_est for row in report.trace} == {(1.0 - lam) + lam * lip}


def test_an_eight_system_chain_with_certified_constants_converges():
    prob = orthogonal_chain(np.random.default_rng(0), 8, 6, 0.97)
    cfg = RunConfig(eps=1e-8, n_b=3, rom_set=frozenset({3, 5}))
    report = accelerated_run(prob, cfg)
    plain = accelerated_run(prob, dataclasses.replace(cfg, rom_set=frozenset()))
    assert report.converged and plain.converged
    # reduced models that never fit cost one rejection, not one per full-order step
    assert report.rejected <= 1
    assert report.fom_solves[0] <= plain.fom_solves[0] + 1
    assert driver.lockstep_verify(prob, cfg) <= cfg.eps


@pytest.mark.parametrize("rom_set,k_max", [
    (frozenset(), 1000), (frozenset({1}), 1000), (frozenset({1, 2}), 1000),
    (frozenset({1}), 7),
], ids=["none", "rom1", "both", "k_max"])
def test_report_carries_the_final_iterate(rom_set, k_max):
    prob, _ = rd_problem()
    report = accelerated_run(prob, RunConfig(eps=1e-8, rom_set=rom_set, k_max=k_max))
    assert report.converged == (k_max > 7)
    assert driver._hash_state(report.x) == report.trace[-1].x_hash
    assert "x" not in report.to_dict()
    assert "x" not in dataclasses.asdict(report)


def test_state_hash_is_the_digest_of_the_contiguous_bytes():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((12, 9))
    for x in (rng.standard_normal(50), block, block.T, block[::2, 1::3], block[:, 4],
              np.zeros(0)):
        crc = zlib.crc32(np.ascontiguousarray(x).tobytes())
        assert driver._hash_state(x) == f"{crc:08x}"
    assert driver._hash_state(np.zeros(0)) == "00000000"
    assert driver._hash_state(block) != driver._hash_state(block.T)


def test_report_dict_keys_are_the_fields_in_order():
    prob, _ = rd_problem()
    report = accelerated_run(prob, RunConfig(eps=1e-8, rom_set=frozenset({1})))
    assert list(report.to_dict()) == [f.name for f in dataclasses.fields(RunReport)]
    assert report.to_dict()["basis_sizes"] == {"1": report.basis_sizes[1]}


@pytest.fixture
def factorizations(monkeypatch):
    """Count numerics.lu_factorize calls on n x n matrices, per n."""
    counts = {}
    original = numerics.lu_factorize

    def spy(a, **kwargs):
        rows, cols = a.shape
        if rows == cols:
            counts[rows] = counts.get(rows, 0) + 1
        return original(a, **kwargs)

    monkeypatch.setattr(numerics, "lu_factorize", spy)
    return counts


def rd_problem(n=8):
    pair = problems.ReactionDiffusionPair(n=n)
    return problems.make_coupled_problem(pair), n * n


@pytest.mark.parametrize("rom_set", [frozenset(), frozenset({1})])
def test_rd_run_factors_each_operator_once(factorizations, rom_set):
    prob, n = rd_problem()
    report = accelerated_run(prob, RunConfig(eps=1e-8, rom_set=rom_set))
    assert report.converged
    assert min(report.fom_solves) > 1
    # both equations have one diffusion field, so they share one operator
    assert factorizations[n] == 1
    assert report.factorizations == [1, 0]


def test_rd_run_solves_its_one_factorization_with_triangle_views(monkeypatch):
    # the rd operator is an M-matrix, so banded LU swaps no rows
    made = []
    original = numerics.lu_factorize

    def spy(a, **kwargs):
        made.append(original(a, **kwargs))
        return made[-1]

    monkeypatch.setattr(numerics, "lu_factorize", spy)
    prob, _ = rd_problem()
    report = accelerated_run(prob, RunConfig(eps=1e-8))
    assert report.converged
    assert len(made) == 1
    assert made[0].lower is not None and made[0].upper is not None


def test_each_run_pays_for_its_own_factorizations(factorizations):
    prob, n = rd_problem()
    cfg = RunConfig(eps=1e-8, rom_set=frozenset({1}))
    first = accelerated_run(prob, cfg)
    assert factorizations[n] == 1
    second = accelerated_run(prob, cfg)
    assert factorizations[n] == 2
    assert second.to_dict() == first.to_dict()
    assert second.factorizations == [1, 0]


def test_thermal_run_factors_every_fom_solve(factorizations):
    surrogate = problems.ThermalFlowSurrogate()
    prob = problems.make_coupled_problem(surrogate)
    n = surrogate.grid.n
    report = accelerated_run(prob, RunConfig(eps=1e-8, k_max=8, rom_set=frozenset({1})))
    assert sum(report.fom_solves) > 2
    assert factorizations[n] == sum(report.fom_solves)
    assert report.factorizations == report.fom_solves


def test_factor_cache_refactors_a_changed_matrix(factorizations):
    rng = np.random.default_rng(4)
    base = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.4) + 6.0 * np.eye(6)
    mats = [scipy.sparse.csc_array(base), scipy.sparse.csc_array(base + np.eye(6)),
            base.copy(), scipy.sparse.csc_array(base)]
    f = rng.standard_normal(6)
    cache = FactorCache()
    for a in mats:
        y = cache.solve(0, a, f)
        assert numerics.norm2(a @ y - f) <= 1e-10 * numerics.norm2(f)
    # changed values, a dense matrix, then CSC again: each one is a miss
    assert factorizations[6] == 4
    # the same object is a hit, and another system shares its factors
    cache.solve(0, mats[3], f)
    assert np.array_equal(cache.solve(1, mats[3], f), cache.solve(0, mats[3], f))
    assert factorizations[6] == 4
    # a distinct but bitwise-equal CSC matrix is a miss, for any system
    cache.solve(0, scipy.sparse.csc_array(base), f)
    assert factorizations[6] == 5
    cache.solve(2, scipy.sparse.csc_array(base), f)
    assert factorizations[6] == 6


def test_factor_cache_counts_factorizations_per_system():
    rng = np.random.default_rng(7)
    a = scipy.sparse.csc_array(np.diag(rng.uniform(1.0, 2.0, 4)))
    f = rng.standard_normal(4)
    counts = [0, 0, 0]
    cache = FactorCache(counts)
    cache.solve(0, a, f)
    cache.solve(1, a, f)            # shared with system 0
    cache.solve(0, a.copy(), f)     # distinct object, equal values: factored
    cache.solve(2, a.copy(), f)     # distinct object: factored
    cache.solve(1, a * 2.0, f)      # new values: factored
    assert counts == [2, 1, 1]


def test_assembler_returning_new_matrices_gets_fresh_factors(factorizations):
    a_first = scipy.sparse.csc_array(np.diag([2.0, 4.0]))
    a_second = scipy.sparse.csc_array(np.diag([4.0, 8.0]))
    calls = []

    def assemble(x, ys):
        calls.append(None)
        return (a_first if len(calls) % 2 else a_second), np.array([2.0, 8.0])

    graph = coupling.DependenceGraph(1, l_consts=[0.0, 1.0])
    prob = CoupledProblem(assemblers=(assemble,),
                          combiner=lambda x, ys: ys[0].copy(), graph=graph,
                          x0=np.zeros(2))
    cache = FactorCache()
    steps = [full_order(prob, prob.x0, cache).x_next for _ in range(4)]
    assert factorizations[2] == 4
    for k, y in enumerate(steps):
        expected = [1.0, 2.0] if k % 2 == 0 else [0.5, 1.0]
        assert np.array_equal(y, expected)


def linear_pair(a1, a2, s12, s21, q1, q2):
    """Picard pair ``a1 y1 = s12 y2 + q1``, ``a2 y2 = s21 y1 + q2``; each
    assembler hands out its matrix as the same object on every call."""
    n = a1.shape[0]

    def assemble_1(x, ys):
        return a1, s12 * x[n:] + q1

    def assemble_2(x, ys):
        return a2, s21 * ys[0] + q2

    graph = coupling.DependenceGraph(2, l_consts=[0.0, 1.0, 1.0])
    return CoupledProblem(assemblers=(assemble_1, assemble_2),
                          combiner=lambda x, ys: np.concatenate(ys), graph=graph,
                          x0=np.zeros(2 * n))


@st.composite
def shared_operator_runs(draw):
    """A diffusion_operator on a random small grid with a positive field, the
    couplings and sources of a contractive pair, and a ROM selection."""
    grid = problems.Grid2D(draw(st.integers(3, 6)), draw(st.integers(3, 6)))
    log_d = draw(st.lists(st.floats(-1.0, 1.0), min_size=grid.n, max_size=grid.n))
    walls = {s: ("dirichlet", 0.0) for s in ("south", "north", "west", "east")}
    a, _ = problems.diffusion_operator(grid, np.exp(log_d), walls)
    # ||A^{-1}|| < 0.15 for d >= exp(-1) on the unit square, so the pair's
    # Picard map contracts with factor below 0.1
    coeffs = draw(st.tuples(*[st.floats(-2.0, 2.0)] * 4))
    rom_set = draw(st.sampled_from([(), (1,), (2,), (1, 2)]))
    return a, coeffs, RunConfig(eps=1e-8, n_b=3, rom_set=frozenset(rom_set))


def without_factorizations(report):
    out = report.to_dict()
    del out["factorizations"]
    return out


@settings(deadline=None, max_examples=60)
@given(shared_operator_runs())
def test_sharing_an_operator_changes_no_bits(run):
    a, coeffs, cfg = run
    shared = accelerated_run(linear_pair(a, a, *coeffs), cfg)
    copied = accelerated_run(linear_pair(a, a.copy(), *coeffs), cfg)
    assert shared.converged
    assert without_factorizations(shared) == without_factorizations(copied)
    assert np.array_equal(shared.x, copied.x)
    assert shared.factorizations == [1, 0]
    assert copied.factorizations == [1, 1]


def band_csc(rng, n, kl, ku, duplicates=False):
    """Diagonally dominant CSC band matrix; with ``duplicates``, a
    non-canonical one whose columns hold unsorted, repeated rows."""
    dense = np.triu(np.tril(rng.standard_normal((n, n)), ku), -kl)
    dense[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    a = scipy.sparse.csc_array(dense)
    if not duplicates:
        return a
    rows, cols = a.indices, np.repeat(np.arange(n), np.diff(a.indptr))
    order = np.lexsort((rng.random(2 * rows.size), np.tile(cols, 2)))
    halves = np.concatenate([0.25 * a.data, 0.75 * a.data])[order]
    indptr = np.concatenate([[0], np.cumsum(2 * np.diff(a.indptr))])
    dup = scipy.sparse.csc_array((halves, np.tile(rows, 2)[order], indptr), shape=a.shape)
    assert not dup.has_canonical_format
    return dup


def with_values(a, rng):
    """``a``'s pattern (shape, indptr, indices) with new, dominant values."""
    b = a.copy()
    b.data = rng.uniform(-1.0, 1.0, a.nnz)
    rows = a.indices
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    b.data[rows == cols] = a.shape[0] + 1.0
    return b


@pytest.fixture
def bands(monkeypatch):
    """``(kl, ku)`` of the factors of each numerics.lu_factorize call."""
    calls = []
    original = numerics.lu_factorize

    def spy(a):
        factors = original(a)
        calls.append((factors.kl, factors.ku))
        return factors

    monkeypatch.setattr(numerics, "lu_factorize", spy)
    return calls


def test_factor_cache_factors_each_matrix_on_its_own_band(bands):
    """Each new matrix factors over its own band, duplicates summed, with no
    state kept from the matrices before it; equal values give equal solves."""
    rng = np.random.default_rng(5)
    dense = band_csc(rng, 20, 2, 2).toarray()
    dense[2, 5], dense[8, 5] = 0.0, 0.5
    first = scipy.sparse.csc_array(dense)
    dense[2, 5], dense[8, 5] = 0.5, 0.0
    moved = scipy.sparse.csc_array(dense)   # one entry of column 5 moved across the band
    dup = band_csc(rng, 30, 3, 5, duplicates=True)
    mats = [first, moved, band_csc(rng, 20, 2, 4), band_csc(rng, 20, 5, 1),
            band_csc(rng, 21, 2, 2), dup, with_values(dup, rng)]
    f = rng.standard_normal(30)
    cache = FactorCache()
    for a in mats:
        rhs = f[:a.shape[0]]
        y = cache.solve(0, a, rhs)
        y_ref = np.linalg.solve(a.toarray(), rhs)   # toarray() sums duplicates
        assert numerics.norm2(y - y_ref) <= 1e-13 * numerics.norm2(y_ref)
    assert bands == [(3, 2), (2, 3), (2, 4), (5, 1), (2, 2), (3, 5), (3, 5)]
    canonical = dup.copy()
    canonical.sum_duplicates()
    assert np.array_equal(cache.solve(1, canonical, f), cache.solve(0, dup, f))
def thermal_problem():
    return problems.make_coupled_problem(problems.ThermalFlowSurrogate())


def disable_reuse(monkeypatch):
    """Switch off early rejection and assembly reuse.

    The plain reduced step solves every system and checks the criterion once,
    on the whole step's bound, and no step reuses a given first system.
    Returns call counts of the patched step, reduced and full-order apart, so
    a test can check that the plain paths really ran.
    """
    calls = {"reduced": 0, "full": 0}
    reuse = driver.step

    def plain(*args, accept=None, first_system=None, **kwargs):
        calls["full" if accept is None else "reduced"] += 1
        s = reuse(*args, **kwargs)
        if s.x_next is not None and accept is not None and not accept(s.delta, s.residuals):
            s = dataclasses.replace(s, x_next=None)
        return s

    monkeypatch.setattr(driver, "step", plain)
    return calls


def runs_with_and_without_reuse(monkeypatch, build, cfg):
    fast = accelerated_run(build(), cfg)
    calls = disable_reuse(monkeypatch)
    try:
        plain = accelerated_run(build(), cfg)
    finally:
        monkeypatch.undo()
    assert all(calls.values())
    return fast, plain


def trace_signature(report):
    return [(r.event, r.x_hash, r.err) for r in report.trace]


def test_thermal_rom1_heat_solves_fall_by_the_rejected_count(monkeypatch):
    cfg = RunConfig(eps=1e-8, rom_set=frozenset({1}))
    fast, plain = runs_with_and_without_reuse(monkeypatch, thermal_problem, cfg)
    assert fast.converged and fast.rejected == plain.rejected > 0
    assert fast.fom_solves[0] == plain.fom_solves[0]
    assert fast.fom_solves[1] == plain.fom_solves[1] - fast.rejected
    # a rejected step never assembles system 2, and its refinement step
    # reuses its system-1 assembly
    assert fast.assemblies == [a - fast.rejected for a in plain.assemblies]
    assert fast.rom_solves == plain.rom_solves
    assert trace_signature(fast) == trace_signature(plain)


@pytest.mark.parametrize("criterion", driver.CRITERIA)
@pytest.mark.parametrize("name", ["thermal", "rd"])
def test_reuse_leaves_every_iterate_unchanged(monkeypatch, name, criterion):
    build = thermal_problem if name == "thermal" else (lambda: rd_problem(16)[0])
    for rom_set in (frozenset({1}), frozenset({1, 2})):
        cfg = RunConfig(eps=1e-8, rom_set=rom_set, criterion=criterion)
        fast, plain = runs_with_and_without_reuse(monkeypatch, build, cfg)
        assert fast.iterations == plain.iterations > 0
        assert fast.rejected == plain.rejected
        assert trace_signature(fast) == trace_signature(plain)


def thermal_bases(rom_set):
    """The thermal problem at its ``n_b``-th Picard iterate, the reduced-model
    state of ``rom_set`` over the iterates before it (a plan that builds each
    basis when a step first reads it), and unit constants."""
    prob = thermal_problem()
    cfg = RunConfig(eps=1e-8, rom_set=rom_set)
    state = driver._RomState(cfg, RunReport(p=2))
    x = prob.x0.copy()
    for _ in range(cfg.n_b):
        s = full_order(prob, x)
        state.push(s.solutions)
        x = s.x_next
    constants = coupling.Constants((1.0, 1.0), prob.graph, 0.5)
    return prob, x, state, constants


def test_inexact_step_stops_at_the_first_failing_reduced_system():
    prob, x, bases, constants = thermal_bases(frozenset({1, 2}))
    full = step(prob, x, RunReport(p=2), FactorCache(), bases, constants)
    seen = []
    report = RunReport(p=2)
    stopped = step(prob, x, report, FactorCache(), bases, constants,
                   accept=lambda d, r: seen.append((d, dict(r))) or False)
    assert stopped.x_next is None
    assert seen == [(stopped.delta, stopped.residuals)] and list(stopped.residuals) == [1]
    assert stopped.residuals[1] == full.residuals[1]
    assert 0.0 <= stopped.delta <= full.delta
    assert report.assemblies == [1, 0] and report.rom_solves == 1
    assert len(stopped.systems) == 1 and stopped.solutions == []
    # a predicate that always accepts changes nothing
    always = step(prob, x, RunReport(p=2), FactorCache(), bases, constants,
                  accept=lambda d, r: True)
    assert np.array_equal(always.x_next, full.x_next)
    assert (always.delta, always.residuals) == (full.delta, full.residuals)


def singular_every(monkeypatch, period, now=lambda: None, error=SingularReducedSystem):
    """Make every ``period``-th reduced solve raise SingularReducedSystem, or,
    with ``error=SvdFailure``, every ``period``-th SVD raise SvdFailure: either
    way the reduced model is unavailable.

    Returns a list that receives ``(now(), raised)`` for each call.
    """
    module, name = (pod, "rom_solve") if error is SingularReducedSystem else (numerics, "svd")
    original, calls = getattr(module, name), []

    def failing(*args):
        raised = len(calls) % period == period - 1
        calls.append((now(), raised))
        if raised:
            raise error(f"{name} failed")
        return original(*args)

    monkeypatch.setattr(module, name, failing)
    return calls


UNAVAILABLE = pytest.mark.parametrize("error", [SingularReducedSystem, SvdFailure],
                                      ids=["singular", "svd"])


@UNAVAILABLE
def test_singular_reduced_systems_everywhere_give_plain_picard(monkeypatch, error):
    plain = accelerated_run(thermal_problem(), RunConfig(eps=1e-8))
    calls = singular_every(monkeypatch, 1, error=error)
    report = accelerated_run(thermal_problem(), RunConfig(eps=1e-8, rom_set=frozenset({1})))
    assert calls and report.converged
    assert [r.x_hash for r in report.trace] == [r.x_hash for r in plain.trace]
    assert report.rejected == 0 and report.rom_solves == 0
    # every probe of a fresh basis fails, so no reduced step is ever tried
    assert {r.event for r in report.trace} == {"fom", "validate-ok"}


def test_a_singular_reduced_step_is_rejected_and_refined(monkeypatch):
    observed = []
    calls = singular_every(monkeypatch, 3, now=lambda: len(observed))
    report = accelerated_run(thermal_problem(), RunConfig(eps=1e-8, rom_set=frozenset({1})),
                             observer=observed.append)
    events = [r.event for r in report.trace]
    failed = [k for k, raised in calls if raised]
    assert report.converged and failed
    in_step = [k for k in failed if events[k] == "reject"]
    in_probe = [k for k in failed if events[k] in ("fom", "refine")]
    assert in_step and in_probe and len(in_step) + len(in_probe) == len(failed)
    # a singular reduced step is refined at the same x; a singular probe
    # clears rom_ok, so no reduced step is tried next
    assert all(events[k + 1] == "refine" for k in in_step)
    assert all(events[k + 1] == "fom" for k in in_probe)
    assert report.rom_solves == len(calls) - len(failed)
    assert report.rejected == events.count("reject")


def test_exact_step_uses_a_given_first_system():
    prob = thermal_problem()
    x = np.full(prob.x0.size, 0.05)
    report = RunReport(p=2)
    first = prob.assemblers[0](x, [])
    reused = step(prob, x, report, FactorCache(), first_system=first)
    assert report.assemblies == [0, 1]
    assert reused.systems[0][0] is first[0]
    assert np.array_equal(reused.x_next, full_order(prob, x).x_next)


@UNAVAILABLE
def test_a_singular_reduced_system_stops_the_step_and_its_refinement_reuses_system_1(
        monkeypatch, error):
    prob, x, plan, constants = thermal_bases(frozenset({1, 2}))
    calls = singular_every(monkeypatch, 1, error=error)
    report = RunReport(p=2)
    stopped = step(prob, x, report, FactorCache(), plan, constants,
                   accept=lambda d, r: True)
    # the one failure is system 1's, caught inside the step
    assert calls == [(None, True)]
    assert stopped.x_next is None and stopped.delta is None
    assert len(stopped.systems) == 1 and stopped.solutions == []
    a1, f1 = prob.assemblers[0](x, [])
    assert (stopped.systems[0][0] != a1).nnz == 0
    assert np.array_equal(stopped.systems[0][1], f1)
    assert report.assemblies == [1, 0] and report.fom_solves == [0, 0]
    assert report.rom_solves == 0
    refined = step(prob, x, report, FactorCache(), first_system=stopped.systems[0])
    assert report.assemblies == [1, 1] and report.fom_solves == [1, 1]
    assert np.array_equal(refined.x_next, full_order(prob, x).x_next)


@pytest.mark.parametrize("rom_set", [frozenset({1}), frozenset({2}), frozenset({1, 2})],
                         ids=["rom1", "rom2", "both"])
def test_exact_constants_run_under_the_asymptotic_criterion(rom_set):
    pair = problems.ReactionDiffusionPair(n=16)
    prob = problems.make_coupled_problem(pair, exact_constants=True)
    constants = prob.fixed_constants
    assert (constants.k21, constants.k12) == (prob.graph.k(2, 1), prob.graph.k(1, 0))
    assert constants.m == max(prob.fixed_constants.inv_norms)
    cfg = RunConfig(eps=1e-8, rom_set=rom_set, criterion="asymptotic")
    report = accelerated_run(prob, cfg)
    assert report.converged
    assert any(row.event == "rom" for row in report.trace)
    reference = accelerated_run(prob, RunConfig(eps=1e-12, validation_loop=False)).x
    assert numerics.norm2(report.x - reference) <= 10 * cfg.eps
    assert driver.lockstep_verify(prob, cfg) <= cfg.eps


@pytest.mark.parametrize("rom_set", [frozenset({1}), frozenset({1, 2})], ids=["rom1", "both"])
@pytest.mark.parametrize("spec", [problems.ReactionDiffusionPair(n=16),
                                  problems.ThermalFlowSurrogate()], ids=["rd", "thermal"])
def test_online_asymptotic_runs_refine_until_the_ledger_has_sampled_k12(spec, rom_set):
    """With a two-snapshot window the first probe comes after two full-order
    steps, before the ledger's third observation gives a K_{1,2} sample: no
    budget until then, so the run takes full-order steps and converges."""
    prob = problems.make_coupled_problem(spec)
    cfg = RunConfig(eps=1e-8, n_b=2, rom_set=rom_set, criterion="asymptotic")
    report = accelerated_run(prob, cfg)
    assert report.converged
    assert [row.event for row in report.trace[:3]] == ["fom"] * 3
    assert report.trace[1].delta is not None   # probed, and refined
    assert any(row.event == "rom" for row in report.trace)


def test_check_run_refuses_certified_constants_without_k21_under_the_asymptotic_criterion():
    """A certified rd pair with s21 = 0 has K21 = 0, so the asymptotic budget
    is never positive: a reduced run under that criterion is refused before
    its first step."""
    prob = problems.make_coupled_problem(problems.ReactionDiffusionPair(n=8, s21=0.0),
                                         exact_constants=True)
    assert prob.fixed_constants.k21 == 0.0
    cfg = RunConfig(eps=1e-8, n_b=2, rom_set=frozenset({1}), criterion="asymptotic")
    steps = []
    with pytest.raises(MissingConstants, match="K21"):
        accelerated_run(prob, cfg, observer=steps.append)
    assert steps == []
    # every other criterion, and the asymptotic one without a reduced system, runs
    assert accelerated_run(prob, dataclasses.replace(cfg, criterion="propagation")).converged
    assert accelerated_run(prob, dataclasses.replace(cfg, rom_set=frozenset())).converged


class UnreadableConstants:
    """Stands in for certified constants that a run must not read."""

    def __getattr__(self, name):
        raise AssertionError(f"the run read constants.{name}")


def test_fixed_constants_keep_no_ledger(monkeypatch):
    """A run with certified constants reads them once and estimates nothing.
    A run that reduces no system, online or certified, builds no ledger,
    reads no constants and has no L on any row."""
    prob = problems.make_coupled_problem(problems.ReactionDiffusionPair(n=8),
                                         exact_constants=True)

    def refuse(*args, **kwargs):
        raise AssertionError("a fixed-constant or plain run built a ledger")

    monkeypatch.setattr(coupling.ConstantsLedger, "__init__", refuse)
    report = accelerated_run(prob, RunConfig(eps=1e-8, rom_set=frozenset({1})))
    assert report.converged and any(row.event == "rom" for row in report.trace)
    assert {row.l_est for row in report.trace} == {prob.fixed_constants.lipschitz}
    monkeypatch.setattr(prob, "fixed_constants", UnreadableConstants())
    for plain in (thermal_problem(), prob):
        report = accelerated_run(plain, RunConfig(eps=1e-8, rom_set=frozenset()))
        assert report.converged
        assert all(row.l_est is None for row in report.trace)


@pytest.mark.parametrize("rom_set", [frozenset(), frozenset({1})], ids=["none", "rom1"])
def test_online_graph_is_built_once_per_observation_and_only_with_a_reduced_system(
        monkeypatch, rom_set):
    with_k, builds = coupling.DependenceGraph.with_k, []

    def counted(graph, updates):
        builds.append(updates)
        return with_k(graph, updates)

    observe, observed = coupling.ConstantsLedger.observe, []

    def counted_observe(ledger, *args):
        observed.append(args)
        return observe(ledger, *args)

    monkeypatch.setattr(coupling.DependenceGraph, "with_k", counted)
    monkeypatch.setattr(coupling.ConstantsLedger, "observe", counted_observe)
    report = accelerated_run(thermal_problem(), RunConfig(eps=1e-8, rom_set=rom_set))
    assert report.converged and bool(observed) == bool(rom_set)
    assert len(builds) == (1 + len(observed) if rom_set else 0)


def diagonal_chain(coupling_strength, n=3):
    """Three diagonal systems in a chain without fixed constants.

    System 1 reads the outer iterate's last block and system i > 1 reads y_{i-1},
    each scaled by ``coupling_strength``; the combiner stacks the solutions.
    """
    a = np.diag(np.linspace(0.5, 1.0, n))

    def assembler(i):
        def assemble(x, ys):
            upstream = x[2 * n:] if i == 0 else ys[i - 1]
            return a, np.ones(n) + coupling_strength * upstream
        return assemble

    return CoupledProblem(assemblers=tuple(assembler(i) for i in range(3)),
                          combiner=lambda x, ys: np.concatenate(ys),
                          graph=coupling.DependenceGraph(3), x0=np.zeros(3 * n))


@pytest.mark.parametrize("coupling_strength", [0.3, 0.0])
def test_online_constants_refuse_a_reduced_upstream_system_before_the_first_step(
        coupling_strength):
    steps = []
    cfg = RunConfig(eps=1e-8, n_b=3, rom_set=frozenset({1}))
    with pytest.raises(MissingConstants, match="p > 2"):
        accelerated_run(diagonal_chain(coupling_strength), cfg, observer=steps.append)
    assert steps == []


def test_online_constants_reduce_the_last_system_of_a_three_system_chain():
    report = accelerated_run(diagonal_chain(0.3),
                             RunConfig(eps=1e-8, n_b=3, rom_set=frozenset({3})))
    assert report.converged and report.iterations == 16
    assert [row.event for row in report.trace] == (
        ["fom"] * 3 + ["reject", "refine"] + ["fom"] * 3 + ["rom"] * 7 + ["validate-ok"])
    assert report.fom_solves == [17, 17, 8] and report.rejected == 1
