"""Layered benchmark of picardrom: time to tolerance and FOM solves per solve.

One operation is one ``driver.accelerated_run(problem, run_cfg)`` from the
seeded ``x0`` to validated convergence, driven in-process by a closed loop
with one client, one process and BLAS pinned to one thread. An operation
fails if it raises, does not converge, or ends farther than ``10*eps`` from
the workload's reference solution.

    python3 perfbench/run.py --workload rd-plain --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole solves and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced solves and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with
provenance, samples and quartiles goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # BLAS reads these once, when numpy first loads it.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import ctypes
import dataclasses
import hashlib
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

EPS = 1e-8
ACCEPT_FACTOR = 10.0      # acceptance distance is ACCEPT_FACTOR * eps
PERTURB = 1e-5            # seeded x0 perturbation, as a share of each block's max |x*|
REFERENCE_EPS = 1e-12     # tolerance of the plain-Picard reference (thermal)
SETUP_BATCH_S = 0.005     # set-up repeats before each timed solve last at least this

# Workloads. The problem constants of the rd oracle are the benchmark's own
# statement of the problem, not read from the program.
_COMMON = dict(eps=EPS, k_max=1000, criterion="propagation", validation=True)
WORKLOADS = {
    "rd-plain": dict(
        config=dict(problem="rd", grid_n=32, rom="none", **_COMMON),
        grid=(32, 32), oracle="rd-sparse", guarantee="rigorous"),
    "rd-rom1": dict(
        config=dict(problem="rd", grid_n=32, rom="1", exact_constants=True, **_COMMON),
        grid=(32, 32), oracle="rd-sparse", guarantee="rigorous"),
    "thermal-rom1": dict(
        config=dict(problem="thermal", rom="1", n_b=5, eps_rb=1e-7, **_COMMON),
        grid=(16, 48), oracle="picard-reference", guarantee="void"),
}
RD_SPEC = dict(n=32, diffusion=0.02, s12=0.15, s21=0.15, q1=1.0, q2=0.5)

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("fom_solves", "count"),
              ("iterations", "count"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("numerics.self_s", "s"), ("numerics.calls", "count"),
    ("numerics.lu_factorize.calls", "count"), ("numerics.lu_factorize.self_s", "s"),
    ("numerics.lu_apply.calls", "count"), ("numerics.lu_apply.self_s", "s"),
    ("numerics.svd.calls", "count"), ("numerics.svd.self_s", "s"),
    ("numerics.factor_mb", "MB"),
    ("problems.self_s", "s"), ("problems.assemble.calls", "count"),
    ("problems.assemble.s", "s"), ("problems.diffusion_operator.calls", "count"),
    ("problems.diffusion_operator.self_s", "s"),
    ("problems.upwind_advection.self_s", "s"),
    ("problems.spd_inverse_norm.self_s", "s"),
    ("pod.self_s", "s"), ("pod.rom_solve.calls", "count"),
    ("pod.rom_solve.self_s", "s"), ("pod.build_basis.calls", "count"),
    ("pod.build_basis.self_s", "s"), ("pod.build_basis_gs.calls", "count"),
    ("pod.basis_size.max", "count"), ("pod.rom_solve.useful_frac", "ratio"),
    ("coupling.self_s", "s"), ("coupling.calls", "count"),
    ("coupling.ConstantsLedger.observe.calls", "count"),
    ("driver.self_s", "s"), ("driver.exact_step.calls", "count"),
    ("driver.inexact_step.calls", "count"), ("driver.rom_steps", "count"),
    ("driver.rejected", "count"), ("driver.rom_accept_frac", "ratio"),
    ("driver.validation_cycles", "count"), ("driver.rejected_s", "s"),
    ("harness.emit_report.self_s", "s"), ("harness.emit_report.bytes", "bytes"),
    ("harness.emit_trace.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def declared_metrics(trace: int) -> list[str] | None:
    """Metric names BENCHMARK.json lists for this mode, if the file is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def quartiles(values) -> dict:
    vals = sorted(values)
    med = statistics.median(vals)
    if len(vals) < 2:
        return {"n": len(vals), "median": med, "q1": med, "q3": med}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"n": len(vals), "median": med, "q1": q1, "q3": q3}


# ---------------------------------------------------------------- provenance

def _openblas_libraries() -> list[dict]:
    """Config string and live thread count of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        row = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in row:
                    threads.restype = ctypes.c_int
                    row["threads"] = threads()
                if config is not None and "config" not in row:
                    config.restype = ctypes.c_char_p
                    row["config"] = config().decode()
        found.append(row)
    return found


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- oracles

def rd_sparse_solution(spec: dict):
    """Fixed point of the linear rd pair by one sparse direct solve.

    ``A y1 = s12 y2 + q1`` and ``A y2 = s21 y1 + q2`` with ``A = -D lap`` on
    the unit square (5-point stencil, homogeneous Dirichlet walls), solved as
    one block system with scipy only.
    """
    n, h = spec["n"], 1.0 / (spec["n"] + 1)
    t = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    eye = sp.identity(n)
    lap = (spec["diffusion"] / h**2) * (sp.kron(eye, t) + sp.kron(t, eye))
    ident = sp.identity(n * n)
    block = sp.bmat([[lap, -spec["s12"] * ident],
                     [-spec["s21"] * ident, lap]]).tocsc()
    rhs = np.concatenate([np.full(n * n, spec["q1"]), np.full(n * n, spec["q2"])])
    return spla.spsolve(block, rhs)


def picard_reference(harness, driver, cfg, problem):
    """Tight-tolerance plain-Picard fixed point of the workload's problem."""
    ref_cfg = dataclasses.replace(cfg, rom="none", eps=REFERENCE_EPS)
    run_cfg = harness.build_run_config(ref_cfg, problem.p)
    report, x = run_operation(driver, problem, run_cfg)
    if not report.converged or x is None:
        raise RuntimeError("plain-Picard reference did not converge")
    return x


def seeded_x0(x0, grid: tuple[int, int], x_ref, seed: int):
    """``x0`` plus a smooth random field per block, PERTURB of max |x*|."""
    nx, ny = grid
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.arange(1, nx + 1) / (nx + 1),
                         np.arange(1, ny + 1) / (ny + 1), indexing="xy")
    blocks = []
    for b in range(x0.size // (nx * ny)):
        coeffs = rng.standard_normal((3, 3))
        field = sum(coeffs[i, j] * np.sin((i + 1) * np.pi * xs) * np.sin((j + 1) * np.pi * ys)
                    for i in range(3) for j in range(3)).ravel()
        block_ref = x_ref[b * nx * ny:(b + 1) * nx * ny]
        blocks.append(field * (PERTURB * np.abs(block_ref).max() / np.abs(field).max()))
    return x0 + np.concatenate(blocks)


# ---------------------------------------------------------------- operations

def run_operation(driver, problem, run_cfg, on_event=None):
    """One accelerated run; returns the report and the final iterate."""
    last = {}

    def observer(ev):
        last["x"] = ev["x_next"]
        if on_event is not None:
            on_event(ev)

    report = driver.accelerated_run(problem, run_cfg, observer=observer)
    return report, last.get("x")


def signature(report) -> str:
    """Every counter and trace row (event, x_hash, ...) of a report."""
    return repr(dataclasses.asdict(report))


class Checker:
    """Failure rule of one operation against the workload's reference."""

    def __init__(self, x_ref, eps: float):
        self.x_ref = x_ref
        self.limit = ACCEPT_FACTOR * eps

    def distance(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x) - self.x_ref))

    def failure(self, report, x) -> str | None:
        if not report.converged:
            return "not converged"
        if x is None:
            return "no iterate"
        dist = self.distance(x)
        if not dist <= self.limit:
            return f"distance {dist:.3e} to reference exceeds {self.limit:.1e}"
        return None

    def rejects_perturbed(self, report, x, seed: int) -> bool:
        """A copy of ``x`` moved by 5x the acceptance distance must fail."""
        direction = np.random.default_rng(seed).standard_normal(x.size)
        bad = x + (5.0 * self.limit / np.linalg.norm(direction)) * direction
        return self.failure(report, bad) is not None


def time_setups(harness, cfg, samples: list[float]):
    """Repeat build_problem + build_run_config for SETUP_BATCH_S, at least once.

    Batches run between timed solves, so the median of ``samples`` spans the
    whole run rather than one moment of it. Returns the last problem built.
    """
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        problem = harness.build_problem(cfg)
        run_cfg = harness.build_run_config(cfg, problem.p)
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if t1 - start >= SETUP_BATCH_S:
            return problem, run_cfg


def guarantee_status(problem, run_cfg, report) -> str:
    if report.expansive_warning:
        return "void"
    if not run_cfg.rom_set:
        return "rigorous"   # no reduced steps: the iterates are the exact sequence
    fixed = problem.fixed_constants
    return "rigorous" if fixed is not None and fixed.lipschitz < 1.0 else "estimated"


# ---------------------------------------------------------------- per layer

def layer_metrics(tracer, phase, events, rom_set_size) -> dict:
    """Per-layer metrics of one traced operation (see PER_LAYER)."""
    rows = tracer.summary(phase)
    totals = tracer.layer_totals(phase)

    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    basis_builds = [r for n, r in rows.items() if n.startswith("pod.build_basis")]
    rom_calls = get("pod.rom_solve", "calls")
    inexact_calls = get("driver.inexact_step", "calls")
    rom_steps = sum(1 for e in events if e["event"] == "rom")
    return {
        "numerics.self_s": totals["numerics"]["self_s"],
        "numerics.calls": totals["numerics"]["calls"],
        "numerics.lu_factorize.calls": get("numerics.lu_factorize", "calls"),
        "numerics.lu_factorize.self_s": get("numerics.lu_factorize", "self_s"),
        "numerics.lu_apply.calls": get("numerics.lu_apply", "calls"),
        "numerics.lu_apply.self_s": get("numerics.lu_apply", "self_s"),
        "numerics.svd.calls": get("numerics.svd", "calls"),
        "numerics.svd.self_s": get("numerics.svd", "self_s"),
        "numerics.factor_mb": tracer.matrix_bytes[phase] / 2**20,
        "problems.self_s": totals["problems"]["self_s"],
        "problems.assemble.calls": get("problems.assemble", "calls"),
        "problems.assemble.s": get("problems.assemble", "s"),
        "problems.diffusion_operator.calls": get("problems.diffusion_operator", "calls"),
        "problems.diffusion_operator.self_s": get("problems.diffusion_operator", "self_s"),
        "problems.upwind_advection.self_s": get("problems.upwind_advection", "self_s"),
        "pod.self_s": totals["pod"]["self_s"],
        "pod.rom_solve.calls": rom_calls,
        "pod.rom_solve.self_s": get("pod.rom_solve", "self_s"),
        "pod.build_basis.calls": sum(r["calls"] for r in basis_builds),
        "pod.build_basis.self_s": sum(r["self_s"] for r in basis_builds),
        "pod.build_basis_gs.calls": get("pod.build_basis_gs", "calls"),
        "pod.basis_size.max": tracer.basis_size[phase],
        "pod.rom_solve.useful_frac":
            rom_steps * rom_set_size / rom_calls if rom_calls else 0.0,
        "coupling.self_s": totals["coupling"]["self_s"],
        "coupling.calls": totals["coupling"]["calls"],
        "coupling.ConstantsLedger.observe.calls":
            get("coupling.ConstantsLedger.observe", "calls"),
        "driver.self_s": totals["driver"]["self_s"],
        "driver.exact_step.calls": get("driver.exact_step", "calls"),
        "driver.inexact_step.calls": inexact_calls,
        "driver.rom_steps": rom_steps,
        "driver.rejected": sum(1 for e in events if e["event"] == "reject"),
        "driver.rom_accept_frac": rom_steps / inexact_calls if inexact_calls else 0.0,
        "driver.validation_cycles":
            sum(1 for e in events if e["validation"] == "validate-fail"),
        "driver.rejected_s": sum(e["inexact_s"] for e in events if e["event"] == "reject"),
    }


def traced_operation(tracer, driver, harness, problem, run_cfg, phase):
    """One traced operation plus the traced emission of its report."""
    events = []
    seen = {"sid": -1}

    def on_event(ev):
        # Attribute the step's inexact_step span, if one finished since the
        # last attributed one, to the step's verdict.
        span = None
        if ev["event"] in ("rom", "reject"):
            span = tracer.last_span("driver.inexact_step", phase)
            if span is not None and span[0] <= seen["sid"]:
                span = None
        if span is not None:
            seen["sid"] = span[0]
        events.append({"event": ev["event"], "validation": ev["validation"],
                       "inexact_s": span[5] - span[4] if span else 0.0})

    tracer.install()
    tracer.wrap_problem(problem)
    try:
        tracer.phase = phase
        t0 = time.perf_counter()
        report, x = run_operation(driver, problem, run_cfg, on_event)
        elapsed = time.perf_counter() - t0
        OUT.mkdir(exist_ok=True)
        tracer.phase = ("emit", phase)
        harness.emit_report(report, OUT / "traced_report.json")
        harness.emit_trace(report, OUT / "traced_trace.csv")
    finally:
        tracer.phase = None
        tracer.uninstall()
    metrics = layer_metrics(tracer, phase, events, len(run_cfg.rom_set))
    emit = tracer.summary(("emit", phase))
    metrics["harness.emit_report.self_s"] = emit["harness.emit_report"]["self_s"]
    metrics["harness.emit_report.bytes"] = (OUT / "traced_report.json").stat().st_size
    metrics["harness.emit_trace.self_s"] = emit["harness.emit_trace"]["self_s"]
    return report, x, elapsed, metrics


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    names = [name for name, _ in (PER_LAYER if args.trace else END_TO_END)]
    declared = declared_metrics(args.trace)
    if declared is not None and declared != names:
        print(f"error: BENCHMARK.json lists {declared}, the runner measures {names}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "picardrom" / "__init__.py").is_file():
        print(f"error: no picardrom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from picardrom import driver, harness

    # The expansive-Lipschitz warning of thermal-rom1 is recorded, not printed.
    logging.getLogger("picardrom").setLevel(logging.ERROR)
    spec = WORKLOADS[args.workload]
    cfg = harness.ExperimentConfig(**spec["config"])
    record = {"provenance": provenance(args), "workload_spec": spec}

    setup_samples = []
    if args.trace:
        # Traced set-ups, for the layer cost of set-up (spd_inverse_norm).
        tracer = tracing.Tracer()
        spd = []
        for rep in range(3):
            tracer.install()
            try:
                tracer.phase = ("setup", rep)
                problem = harness.build_problem(cfg)
                run_cfg = harness.build_run_config(cfg, problem.p)
            finally:
                tracer.phase = None
                tracer.uninstall()
            spd.append(tracer.summary(("setup", rep))
                       .get("problems.spd_inverse_norm", {}).get("self_s", 0.0))
    else:
        problem, run_cfg = time_setups(harness, cfg, setup_samples)

    if spec["oracle"] == "rd-sparse":
        x_ref = rd_sparse_solution(RD_SPEC)
    else:
        x_ref = picard_reference(harness, driver, cfg, problem)
    problem.x0 = seeded_x0(problem.x0, spec["grid"], x_ref, args.seed)
    checker = Checker(x_ref, run_cfg.eps)

    tally = {"attempted": 0, "failed": 0}
    failures: list[str] = []

    def outcome(kind: str, why: str | None) -> bool:
        tally["attempted"] += 1
        if why is not None:
            tally["failed"] += 1
            failures.append(f"{kind} operation {tally['attempted']}: {why}")
        return why is None

    # The first successful operation is the baseline: every later operation,
    # traced or not, must reproduce its report exactly.
    first = {}

    def op(traced: bool, index: int):
        kind = "traced" if traced else "untraced"
        try:
            if traced:
                report, x, elapsed, metrics = traced_operation(
                    tracer, driver, harness, problem, run_cfg, index)
            else:
                t0 = time.perf_counter()
                report, x = run_operation(driver, problem, run_cfg)
                elapsed, metrics = time.perf_counter() - t0, None
        except Exception as exc:  # noqa: BLE001 - a raising solve is a failed operation
            outcome(kind, f"raised {exc!r}")
            return None, None
        why = checker.failure(report, x)
        if why is None:
            if not first:
                first.update(report=report, x=x, signature=signature(report))
            elif signature(report) != first["signature"]:
                why = "events, x_hash or counters differ from the first operation"
        return (elapsed, metrics) if outcome(kind, why) else (None, None)

    untraced_s, traced_s, per_op = [], [], []
    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < args.seconds or not untraced_s:
        if not args.trace:
            time_setups(harness, cfg, setup_samples)
        elapsed, _ = op(False, index)
        if elapsed is not None:
            untraced_s.append(elapsed)
        if args.trace:
            elapsed, metrics = op(True, index)
            if elapsed is not None:
                traced_s.append(elapsed)
                per_op.append(metrics)
        index += 1
        if not untraced_s and index >= 3:
            break   # every operation fails; stop instead of spinning

    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    if not untraced_s or (args.trace and not traced_s):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    report0, x_final = first["report"], first["x"]
    oracle_ok = checker.rejects_perturbed(report0, x_final, args.seed)
    if not oracle_ok:
        print("FAILED the oracle accepted a deliberately perturbed iterate", file=sys.stderr)
    correct = tally["failed"] == 0 and oracle_ok
    record.update({
        "guarantee": {"declared": spec["guarantee"],
                      "observed": guarantee_status(problem, run_cfg, report0)},
        "report": {k: v for k, v in dataclasses.asdict(report0).items() if k != "trace"},
        "events": [row.event for row in report0.trace],
        "final_distance": checker.distance(x_final),
        "oracle_rejects_perturbed": oracle_ok,
        "untraced_solve_s": quartiles(untraced_s) | {"samples": untraced_s},
        "failures": failures,
    })

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in per_op) for name, _ in PER_LAYER
                   if name not in ("problems.spd_inverse_norm.self_s", "trace.overhead_frac")}
        metrics["problems.spd_inverse_norm.self_s"] = statistics.median(spd)
        metrics["trace.overhead_frac"] = (statistics.median(traced_s)
                                          / statistics.median(untraced_s) - 1.0)
        units = dict(PER_LAYER)
        record["traced_solve_s"] = quartiles(traced_s) | {"samples": traced_s}
        record["per_operation"] = per_op
        spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_file.write_text(json.dumps(
            {"columns": ["id", "parent", "phase", "name", "start", "end", "self"],
             "spans": tracer.spans}) + "\n")
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        metrics = {
            "solve_s": statistics.median(untraced_s),
            "setup_s": statistics.median(setup_samples),
            "fom_solves": sum(report0.fom_solves),
            "iterations": report0.iterations,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record["setup_s"] = quartiles(setup_samples)

    result = {
        "correct": correct,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"provenance": record["provenance"],
                      "samples": len(untraced_s), "record": str(out_file.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
