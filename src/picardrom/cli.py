"""Command-line interface for the experiment harness.

Subcommands: ``reference`` (plain Picard run), ``run`` (accelerated run
measured against a reference), ``compare-criteria`` (sweep of the quality
criteria with validation on/off), ``bench`` (runtime statistics of the
accelerated and the plain run, repeated) and ``paths`` (prints the
decreasing-path enumeration). Exit codes: 0 converged, 2 iteration budget
exceeded, 1 any other error, usage errors included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import coupling, harness, numerics
from .driver import CRITERIA, accelerated_run, check_run
from .errors import MaxIterationsExceeded, PicardRomError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_KMAX = 2

_CRITERION_ALIASES = {"upper": "upper_bound"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage errors exit 1: argparse's own 2 is EXIT_KMAX here
        self.print_usage(sys.stderr)
        raise PicardRomError(f"{self.prog}: {message}")


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
                        help="runs per series (bench, at least 5)")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--exact-constants", action="store_const", const=True,
                        help="use certified operator-norm bounds (linear problems only)")
    parser.add_argument("--kmax", dest="k_max", type=int, help="iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    return parser


def _experiment_config(args) -> harness.ExperimentConfig:
    """The INI file's configuration (or the defaults) with every given flag applied."""
    cfg = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    updates = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
               if getattr(args, f.name, None) is not None}
    return dataclasses.replace(cfg, **updates)


def _out_dir(cfg: harness.ExperimentConfig) -> Path:
    """The output directory, created when a command first writes to it, so
    that a refused setting or a run out of iteration budget leaves none."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _prepare(cfg: harness.ExperimentConfig):
    """The problem and run settings of ``cfg``, checked against each other."""
    problem = harness.build_problem(cfg)
    run_cfg = harness.build_run_config(cfg, problem.p)
    check_run(problem, run_cfg)
    return problem, run_cfg


def _cmd_reference(cfg: harness.ExperimentConfig) -> int:
    problem, run_cfg = _prepare(dataclasses.replace(cfg, rom="none"))
    report = harness.run_reference(problem, run_cfg)
    out = _out_dir(cfg)
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
    problem, run_cfg = _prepare(cfg)
    reference = harness.run_reference(problem, run_cfg)
    rep = accelerated_run(problem, run_cfg)
    error = numerics.norm2(rep.x - reference.x)
    out = _out_dir(cfg)
    harness.emit_report(rep, out / "run_report.json", extra={"error_vs_reference": error})
    harness.emit_trace(rep, out / "run_trace.csv")
    print(f"iterations={rep.iterations} converged={rep.converged} "
          f"fom_solves={rep.fom_solves} rom_solves={rep.rom_solves} "
          f"error_vs_reference={error:.3e}")
    return EXIT_OK if rep.converged else EXIT_KMAX


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
    """Time the accelerated run against the plain run (no reduced models),
    alternated, ``cfg.repetitions`` times each."""
    problem, run_cfg = _prepare(cfg)
    plain_cfg = dataclasses.replace(run_cfg, rom_set=frozenset())
    accel, base = [], []
    for _ in range(cfg.repetitions):
        for timed_cfg, samples in ((run_cfg, accel), (plain_cfg, base)):
            t0 = time.perf_counter()
            report = accelerated_run(problem, timed_cfg)
            samples.append(time.perf_counter() - t0)
            if not report.converged:
                raise MaxIterationsExceeded(
                    f"timed run did not converge in {timed_cfg.k_max} iterations")
    stats = harness.bench_stats(accel, base)
    payload = dataclasses.asdict(stats)
    (_out_dir(cfg) / "bench.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"mean={stats.mean:.4f}s CI=({stats.mean_ci[0]:.4f}, {stats.mean_ci[1]:.4f}) "
          f"median={stats.median:.4f}s speedup={stats.speedup_pct_mean:.1f}% "
          f"(median {stats.speedup_pct_median:.1f}%)")
    return EXIT_OK


def _cmd_paths(args) -> int:
    graph = coupling.DependenceGraph(max(args.j, 1))
    paths = coupling.enumerate_paths(graph, args.i, args.j)
    print(f"|d_{{{args.i},{args.j}}}| = {len(paths)}")
    for path in paths:
        print(" -> ".join(str(n) for n in path))
    return EXIT_OK


_EXPERIMENTS = {"reference": _cmd_reference, "run": _cmd_run,
                "compare-criteria": _cmd_compare, "bench": _cmd_bench}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "paths":
            return _cmd_paths(args)
        return _EXPERIMENTS[args.command](_experiment_config(args))
    except MaxIterationsExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_KMAX
    except (PicardRomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
