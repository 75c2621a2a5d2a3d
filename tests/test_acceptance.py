"""Acceptance suite: one test per top-level acceptance criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or on
failure) and asserts the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from picardrom import coupling, driver, harness, numerics, pod, problems
from picardrom.driver import (
    CoupledProblem,
    FactorCache,
    RunConfig,
    RunReport,
    accelerated_run,
    lockstep_verify,
    step,
)


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_acceptance_01_lockstep_corollary():
    """Accepted iterates stay within eps of the exact sequence (rd demo)."""
    t0 = time.perf_counter()
    pair = problems.ReactionDiffusionPair(n=32)
    problem = problems.make_coupled_problem(pair, exact_constants=True)
    cfg = RunConfig(eps=1e-6, n_b=5, rom_set=frozenset({1}),
                    criterion="propagation")
    dist = lockstep_verify(problem, cfg)
    elapsed = time.perf_counter() - t0
    ok = dist <= 1e-6 and elapsed < 60.0
    _verdict(1, ok, f"lockstep max distance {dist:.3e} <= 1e-6, {elapsed:.1f}s < 60s")


def test_acceptance_02_final_error_fidelity():
    """Thermal surrogate converges within one order of eps of the reference."""
    results = {}
    for nb in (5, 20):
        cfg = harness.ExperimentConfig(problem="thermal", rom="1", eps=1e-8,
                                       n_b=nb, eps_rb=1e-7)
        problem = harness.build_problem(cfg)
        run_cfg = harness.build_run_config(cfg, problem.p)
        reference = harness.run_reference(problem, run_cfg)
        report = accelerated_run(problem, run_cfg)
        results[nb] = (report.converged, numerics.norm2(report.x - reference.x))
    ok = all(conv and err <= 1e-7 for conv, err in results.values())
    detail = ", ".join(f"N_b={nb}: err={err:.3e} (converged={conv})"
                       for nb, (conv, err) in results.items())
    _verdict(2, ok, detail + " — all <= 1e-7")


def test_acceptance_03_fom_call_reduction():
    """ROM-treated system needs FOM for <= 50% of iterations at N_b=5."""
    cfg = harness.ExperimentConfig(problem="thermal", rom="1", eps=1e-8,
                                   n_b=5, eps_rb=1e-7)
    problem = harness.build_problem(cfg)
    rep = accelerated_run(problem, harness.build_run_config(cfg, problem.p))
    frac = rep.fom_solves[0] / rep.iterations
    ok = rep.converged and frac <= 0.5 and rep.validation_cycles <= 1
    _verdict(3, ok, f"FOM solves {rep.fom_solves[0]}/{rep.iterations} iterations "
                    f"({100 * frac:.0f}% <= 50%), validation cycles "
                    f"{rep.validation_cycles} <= 1")


def test_acceptance_04_path_combinatorics():
    """Path counts are 2^(j-i-1); uniform-kappa sums match (k+1)^p - 1."""
    t0 = time.perf_counter()
    g12 = coupling.DependenceGraph(12)
    count_ok = all(
        len(coupling.enumerate_paths(g12, i, j)) == 2 ** (j - i - 1)
        for i in range(13) for j in range(i + 1, 13))
    sum_ok = True
    worst = 0.0
    for p in range(1, 11):
        for kappa in (0.1, 0.5, 0.9):
            g = coupling.DependenceGraph(
                p, {(i, j): kappa for i in range(1, p + 1) for j in range(i)})
            total = sum(
                sum(math.prod(g.k(a, b) for a, b in zip(s, s[1:]))
                    for s in coupling.enumerate_paths(g, 0, j))
                for j in range(1, p + 1))
            expected = (kappa + 1.0) ** p - 1.0
            rel = abs(total - expected) / expected
            worst = max(worst, rel)
            sum_ok &= rel <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = count_ok and sum_ok and elapsed < 5.0
    _verdict(4, ok, f"counts exact up to j=12, uniform-kappa sum worst rel err "
                    f"{worst:.2e} <= 1e-12, {elapsed:.2f}s < 5s")


def _random_linear_problem(rng):
    """Random coupled affine problem with exact operator-norm constants."""
    p = int(rng.integers(1, 4))
    dims = [int(rng.integers(2, 21)) for _ in range(p)]
    nx = int(rng.integers(2, 21))
    mats, couplers, offsets = [], [], []
    for i, ni in enumerate(dims):
        b = rng.standard_normal((ni, ni))
        mats.append(b @ b.T + (ni + 2) * np.eye(ni))
        row = {0: rng.standard_normal((ni, nx)) * rng.uniform(0.1, 1.0)}
        for j in range(1, i + 1):
            row[j] = rng.standard_normal((ni, dims[j - 1])) * rng.uniform(0.1, 1.0)
        couplers.append(row)
        offsets.append(rng.standard_normal(ni))
    combl = [rng.standard_normal((nx, d)) * rng.uniform(0.1, 1.0) for d in dims]

    def make_assembler(i):
        def assemble(x, ys):
            f = couplers[i][0] @ x + offsets[i]
            for j in range(1, i + 1):
                f = f + couplers[i][j] @ ys[j - 1]
            return mats[i], f
        return assemble

    def combiner(x, ys):
        out = np.zeros(nx)
        for d_mat, y in zip(combl, ys):
            out += d_mat @ y
        return out

    inv_norms = tuple(1.0 / np.linalg.svd(a, compute_uv=False)[-1] for a in mats)
    k_entries = {}
    for i in range(1, p + 1):
        for j in range(i):
            src = couplers[i - 1][j]
            k_entries[(i, j)] = inv_norms[i - 1] * np.linalg.svd(
                src, compute_uv=False)[0]
    l_consts = [0.0] + [np.linalg.svd(d_mat, compute_uv=False)[0] for d_mat in combl]
    graph = coupling.DependenceGraph(p, k_entries, l_consts)
    problem = CoupledProblem(
        assemblers=tuple(make_assembler(i) for i in range(p)),
        combiner=combiner, graph=graph, x0=np.zeros(nx),
        fixed_constants=coupling.Constants(inv_norms, graph,
                                           coupling.contraction_bound(graph)))
    return problem, dims, nx


def _random_basis(rng, n):
    m = int(rng.integers(0, max(1, n // 2) + 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, max(m, 1))))
    return pod.ReducedBasis(basis=q[:, :m], mean=rng.standard_normal(n),
                            singular_values=np.ones(m))


def test_acceptance_05_delta_bound_exactness():
    """||G(x) - G_k(x)|| <= delta on 1000 random linear instances."""
    rng = np.random.default_rng(12345)
    violations = 0
    worst_margin = -np.inf
    for _ in range(1000):
        problem, dims, nx = _random_linear_problem(rng)
        rom_set = frozenset(
            i for i in range(1, problem.p + 1) if rng.random() < 0.6) or frozenset({1})
        bases = {i: _random_basis(rng, dims[i - 1]) for i in rom_set}
        constants = problem.fixed_constants
        x = rng.standard_normal(nx)
        report = RunReport(p=problem.p)
        gx = step(problem, x, report, FactorCache()).x_next
        inexact = step(problem, x, report, FactorCache(), bases, constants)
        delta = inexact.delta
        gap = numerics.norm2(gx - inexact.x_next) - delta
        worst_margin = max(worst_margin, gap)
        if gap > 1e-12 * max(1.0, delta):
            violations += 1
    ok = violations == 0
    _verdict(5, ok, f"0 expected violations, got {violations}; worst "
                    f"(error - bound) = {worst_margin:.3e}")


def _err_recurrence_runs():
    """rd with certified constants (fixed L) and thermal (online L), under
    every criterion and every ROM choice."""
    for problem, exact in (("rd", True), ("thermal", False)):
        for criterion in driver.CRITERIA:
            for rom in ("1", "2", "both"):
                cfg = harness.ExperimentConfig(problem=problem, rom=rom, eps=1e-8,
                                               criterion=criterion,
                                               exact_constants=exact)
                prob = harness.build_problem(cfg)
                yield exact, accelerated_run(prob, harness.build_run_config(cfg, prob.p))


def test_acceptance_06_err_recurrence():
    """The run's err column follows its recurrence bitwise, row by row; with
    L fixed it equals sum_i L^i delta_(k-i) since the last fresh start."""
    mismatches, worst, runs = 0, 0.0, 0
    seen = set()
    for exact, report in _err_recurrence_runs():
        runs += 1
        err_prev, deltas = math.inf, None   # deltas: steps since the fresh start
        for row in report.trace:
            seen.add(row.event)
            if row.event == "validate-ok":
                break   # the last row; its err is that of the step it validated
            if row.event == "rom":
                expected = row.delta + row.l_est * err_prev
            elif row.event == "refine":
                expected = row.l_est * err_prev
            elif row.event == "reject":
                expected = err_prev
            elif row.event == "fom":   # exact: err restarts at 0 once probed
                expected = math.inf if row.delta is None else 0.0
            else:   # validate-fail
                expected = math.inf
            mismatches += row.err != expected
            err_prev = row.err
            if row.event == "fom":
                deltas = None if row.delta is None else [0.0]
            elif row.event == "validate-fail":
                deltas = None
            elif row.event != "reject" and deltas is not None:
                deltas.append(row.delta if row.event == "rom" else 0.0)
            if exact and deltas is not None:
                closed = sum(row.l_est ** i * d for i, d in enumerate(reversed(deltas)))
                worst = max(worst, abs(row.err - closed) / closed if closed else row.err)
    ok = (runs == 24 and mismatches == 0 and worst <= 1e-14
          and {"fom", "rom", "reject", "refine"} <= seen)
    _verdict(6, ok, f"{runs} runs, {mismatches} err mismatches, closed form worst "
                    f"rel err {worst:.2e} <= 1e-14, events {sorted(seen)}")


def test_acceptance_07_pod_properties():
    """Rank-r affine families give M=r with tiny projection error; sigma=(2,1,1)
    under threshold 0.75 truncates to M=2."""
    rng = np.random.default_rng(7)
    rank_ok = True
    worst_proj = 0.0
    for r in range(1, 9):
        n = 60
        mean = rng.standard_normal(n)
        directions = rng.standard_normal((n, r))
        snapshots = [mean + directions @ rng.standard_normal(r) for _ in range(20)]
        basis = pod.build_basis_svd(snapshots, 1e-7)
        rank_ok &= basis.size == r
        v = basis.basis
        for u in snapshots:
            c = u - basis.mean
            err = numerics.norm2(c - v @ (v.T @ c)) / max(1.0, numerics.norm2(u))
            worst_proj = max(worst_proj, err)
    rank_ok &= worst_proj <= 1e-10

    # energy truncation: centered singular values (2,1,1), threshold 0.75 -> M=2
    n, k = 10, 4
    u_mat, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    ones = np.ones((k, 1)) / np.sqrt(k)
    q, _ = np.linalg.qr((np.eye(k) - ones @ ones.T) @ rng.standard_normal((k, 3)))
    centered = u_mat @ np.diag([2.0, 1.0, 1.0]) @ q.T
    mean = rng.standard_normal(n)
    m_trunc = pod.build_basis_svd([mean + centered[:, j] for j in range(k)], 0.5).size
    ok = rank_ok and m_trunc == 2
    _verdict(7, ok, f"M matched rank for r=1..8, worst projection error "
                    f"{worst_proj:.2e} <= 1e-10; sigma=(2,1,1) threshold 0.75 "
                    f"-> M={m_trunc} (expected 2)")


def test_acceptance_08_criteria_comparison():
    """Stress config: propagation estimate within 10x of true error; residual
    without validation overshoots eps and lands > 5x worse than propagation,
    which stays within it. The ordering is the claim; the size of the gap
    (6.3x here) follows the residual run's trajectory."""
    cfg = harness.ExperimentConfig(problem="thermal", rom="2", eps=2e-9,
                                   n_b=5, eps_rb=1e-4)
    rows = harness.compare_criteria(cfg)
    res_nv = next(r for r in rows
                  if r["criterion"] == "residual" and not r["validation"])
    prop = next(r for r in rows
                if r["criterion"] == "propagation" and r["validation"])
    est_ratio = max(prop["internal_estimate"], prop["true_error"]) / \
        min(prop["internal_estimate"], prop["true_error"])
    gap = res_nv["true_error"] / prop["true_error"]
    ok = (all(r["converged"] for r in rows)
          and est_ratio <= 10.0 and gap > 5.0
          and res_nv["true_error"] > cfg.eps >= prop["true_error"])
    _verdict(8, ok, f"propagation est/true ratio {est_ratio:.1f} <= 10; "
                    f"residual-no-validation true error {res_nv['true_error']:.2e} "
                    f"= {gap:.1f}x propagation's {prop['true_error']:.2e} (> 5x); "
                    f"ordering matches (residual overshoots eps, propagation stays "
                    f"below)")


def test_acceptance_09_sufficient_conditions():
    """Condition 4 golden-ratio boundary and condition 2 threshold flips."""
    def linear_picard(p, kappa):
        return coupling.DependenceGraph(p, {(i, i - 1): kappa for i in range(1, p + 1)})

    c4_lo = coupling.sufficient_conditions(linear_picard(2, 0.61)).conditions[3]
    c4_hi = coupling.sufficient_conditions(linear_picard(2, 0.63)).conditions[3]
    cond4_ok = (c4_lo.applicable and c4_lo.satisfied
                and c4_hi.applicable and not c4_hi.satisfied)

    cond2_ok = True
    for p in (2, 3, 4):
        thr = 2.0 ** (1.0 / p) - 1.0
        below = coupling.sufficient_conditions(linear_picard(p, thr - 0.01))
        above = coupling.sufficient_conditions(linear_picard(p, thr + 0.01))
        cond2_ok &= below.conditions[1].satisfied is True
        cond2_ok &= above.conditions[1].satisfied is False
    ok = cond4_ok and cond2_ok
    _verdict(9, ok, "condition 4: kappa=0.61 satisfied / 0.63 violated "
                    "(golden-ratio boundary); condition 2 flips at "
                    "2^(1/p)-1 +- 0.01 for p=2,3,4")


def test_acceptance_10_plain_picard_equivalence():
    """rom_set=none trace equals the reference Picard trace bitwise (200 iters)."""
    def run(rom_none: bool):
        problem = problems.make_coupled_problem(problems.ScalarToy(rate=0.97))
        cfg_exp = harness.ExperimentConfig(problem="scalar", rom="none")
        rom_set = harness._rom_set(cfg_exp, problem.p) if rom_none else frozenset()
        cfg = RunConfig(eps=1e-300, k_max=200, rom_set=rom_set,
                        validation_loop=False)
        return accelerated_run(problem, cfg)

    via_rom_none = run(True)
    reference = run(False)
    ok = (via_rom_none.iterations == reference.iterations == 200
          and via_rom_none.trace == reference.trace)
    _verdict(10, ok, "200-iteration scalar traces identical bitwise "
                     f"(hash match on all {reference.iterations} rows)")
