"""Command-line interface for the experiment harness.

Subcommands: ``reference`` (plain Picard run), ``run`` (accelerated run
measured against a reference), ``compare-criteria`` (sweep of the quality
criteria with validation on/off), ``bench`` (runtime statistics over repeated
runs) and ``paths`` (prints the decreasing-path enumeration). Exit codes:
0 converged, 2 iteration budget exceeded, 1 any other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import coupling, harness
from .driver import CRITERIA
from .errors import MaxIterationsExceeded, PicardRomError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_KMAX = 2

_CRITERION_ALIASES = {"upper": "upper_bound"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    """Experiment flags; each ``dest`` is the ExperimentConfig field it sets."""
    parser.add_argument("--config", type=Path, help="INI experiment config")
    parser.add_argument("--problem", choices=harness.PROBLEM_NAMES)
    parser.add_argument("--rom", choices=("none", "1", "2", "both"))
    parser.add_argument("--nb", dest="n_b", type=int, help="snapshot window capacity")
    parser.add_argument("--eps", type=float, help="solver tolerance")
    parser.add_argument("--eps-rb", type=float, help="basis energy tolerance")
    parser.add_argument("--criterion", type=lambda name: _CRITERION_ALIASES.get(name, name),
                        choices=CRITERIA,
                        help="'upper' is short for upper_bound")
    parser.add_argument("--no-validation", dest="validation", action="store_const",
                        const=False, help="skip the outer validation loop")
    parser.add_argument("--reps", dest="repetitions", type=int,
                        help="repetitions (bench)")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--exact-constants", action="store_const", const=True,
                        help="use certified operator-norm bounds (linear problems only)")
    parser.add_argument("--kmax", dest="k_max", type=int, help="iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picardrom",
        description="Reduced-order accelerated Picard iteration experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("reference", "plain Picard reference run"),
        ("run", "accelerated run measured against the reference"),
        ("compare-criteria", "sweep quality criteria with validation on/off"),
        ("bench", "runtime statistics over repeated runs"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_common(p)
    p = sub.add_parser("paths", help="print the decreasing-path enumeration")
    p.add_argument("--from", dest="j", type=int, required=True,
                   help="source index j (the later system)")
    p.add_argument("--to", dest="i", type=int, required=True,
                   help="target index i < j")
    p.add_argument("--p", type=int, default=None, help="graph order (default j)")
    return parser


def _experiment_config(args) -> harness.ExperimentConfig:
    """The INI file's configuration (or the defaults) with every given flag applied."""
    cfg = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    updates = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
               if getattr(args, f.name, None) is not None}
    return dataclasses.replace(cfg, **updates)


def _out_dir(cfg: harness.ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report_exit(converged: bool) -> int:
    return EXIT_OK if converged else EXIT_KMAX


def _cmd_reference(cfg: harness.ExperimentConfig) -> int:
    problem = harness.build_problem(cfg)
    out = _out_dir(cfg)
    try:
        report = harness.run_reference(cfg, problem)
    except MaxIterationsExceeded as exc:
        print(f"reference: {exc}", file=sys.stderr)
        return EXIT_KMAX
    harness.emit_report(report, out / "reference_report.json")
    harness.emit_trace(report, out / "reference_trace.csv")
    if cfg.problem != "scalar":
        grid = harness.problem_spec(cfg).grid
        n = grid.n
        harness.dump_field(report.x[:n], grid, out / "reference_field1.txt")
        harness.dump_field(report.x[n:], grid, out / "reference_field2.txt")
    print(f"reference converged in {report.iterations} iterations "
          f"(reports in {out})")
    return EXIT_OK


def _cmd_run(cfg: harness.ExperimentConfig) -> int:
    problem = harness.build_problem(cfg)
    harness.build_run_config(cfg, problem.p)   # refuse a bad ROM selection before any output
    out = _out_dir(cfg)
    result = harness.run_accelerated(cfg, problem)
    rep = result.report
    harness.emit_report(rep, out / "run_report.json",
                        extra={"error_vs_reference": result.error_vs_reference})
    harness.emit_trace(rep, out / "run_trace.csv")
    print(f"iterations={rep.iterations} converged={rep.converged} "
          f"fom_solves={rep.fom_solves} rom_solves={rep.rom_solves} "
          f"error_vs_reference={result.error_vs_reference:.3e}")
    return _report_exit(rep.converged)


def _cmd_compare(cfg: harness.ExperimentConfig) -> int:
    rows = harness.compare_criteria(cfg)
    out = _out_dir(cfg)
    harness.write_comparison_csv(rows, out / "criteria_comparison.csv")
    for row in rows:
        print(f"{row['criterion']:<12} validation={str(row['validation']):<5} "
              f"iters={row['iterations']:<4} fom={row['fom_iterations']:<4} "
              f"true={row['true_error']:.3e} est={row['internal_estimate']:.3e}")
    return EXIT_OK if all(r["converged"] for r in rows) else EXIT_KMAX


def _cmd_bench(cfg: harness.ExperimentConfig) -> int:
    reps = max(cfg.repetitions, 5)
    problem = harness.build_problem(cfg)
    harness.build_run_config(cfg, problem.p)   # refuse a bad ROM selection before any output
    out = _out_dir(cfg)
    reference = harness.run_reference(cfg, problem)
    base_cfg = dataclasses.replace(cfg, rom="none")
    accel, base = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        harness.run_accelerated(cfg, problem, reference)
        accel.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        harness.run_accelerated(base_cfg, problem, reference)
        base.append(time.perf_counter() - t0)
    stats = harness.bench_stats(accel, base)
    payload = dataclasses.asdict(stats)
    (out / "bench.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"mean={stats.mean:.4f}s CI=({stats.mean_ci[0]:.4f}, {stats.mean_ci[1]:.4f}) "
          f"median={stats.median:.4f}s speedup={stats.speedup_pct_mean:.1f}% "
          f"(median {stats.speedup_pct_median:.1f}%)")
    return EXIT_OK


def _cmd_paths(args) -> int:
    p = args.p if args.p is not None else args.j
    graph = coupling.make_graph(max(p, 1))
    paths = coupling.enumerate_paths(graph, args.i, args.j)
    print(f"|d_{{{args.i},{args.j}}}| = {len(paths)}")
    for path in paths:
        print(" -> ".join(str(n) for n in path))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "paths":
            return _cmd_paths(args)
        cfg = _experiment_config(args)
        if args.command == "reference":
            return _cmd_reference(cfg)
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "compare-criteria":
            return _cmd_compare(cfg)
        if args.command == "bench":
            return _cmd_bench(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except MaxIterationsExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KMAX
    except (PicardRomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
