"""Experiment runner: configuration, the reference run and statistics.

Maps an INI-style configuration file to the driver's problem and run
settings, and adds the plain-Picard reference run, a criteria-comparison
sweep, runtime statistics with Student-t and order-statistic confidence
intervals, and CSV/JSON/plain-text emission.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import statistics
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import numerics, problems
from .driver import CRITERIA, CoupledProblem, RunConfig, RunReport, accelerated_run, check_run
from .errors import ConfigError, MaxIterationsExceeded, TooFewSamples

PROBLEM_NAMES = ("rd", "thermal", "scalar")
TRACE_COLUMNS = ("k", "err", "delta_k", "step_norm", "event")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs: problem choice, run settings, I/O."""

    problem: str = "rd"
    grid_n: int = 32                  # rd: n x n interior points
    rom: str = "1"                    # none | 1 | 2 | both
    eps: float = 1e-6
    k_max: int = 1000
    n_b: int = 5
    eps_rb: float = 1e-7
    criterion: str = "propagation"
    validation: bool = True
    exact_constants: bool = False
    repetitions: int = 5              # bench: runs per series, bench_stats needs 5
    output_dir: str = "out"

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ConfigError(f"unknown problem {self.problem!r}")
        if self.rom not in ("none", "1", "2", "both"):
            raise ConfigError(f"unknown rom selection {self.rom!r}")
        if self.repetitions < 5:
            raise ConfigError("repetitions must be >= 5")
        # the run settings' own checks, before any run or output exists
        RunConfig(self.eps, self.k_max, self.n_b, self.eps_rb, criterion=self.criterion)


def save_config(cfg: ExperimentConfig, path) -> None:
    """Write the configuration as an INI file with a single [experiment] section."""
    parser = configparser.ConfigParser()
    parser["experiment"] = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        parser["experiment"][f.name] = repr(val) if isinstance(val, float) else str(val)
    with open(path, "w") as fh:
        parser.write(fh)


def load_config(path) -> ExperimentConfig:
    """Read an INI configuration; unknown keys are rejected.

    Each key parses as the type of its field's default: booleans as
    configparser booleans, and ints, floats and strings by calling the type.
    """
    parser = configparser.ConfigParser()
    if not parser.read(str(path)):
        raise ConfigError(f"cannot read config file {path}")
    if "experiment" not in parser:
        raise ConfigError("config file needs an [experiment] section")
    section = parser["experiment"]
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, raw in section.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        kind = type(defaults[key])
        kwargs[key] = section.getboolean(key) if kind is bool else kind(raw)
    return ExperimentConfig(**kwargs)


def problem_spec(cfg: ExperimentConfig):
    """The demo specification ``cfg.problem`` names, sized by ``cfg.grid_n`` for rd."""
    if cfg.problem == "rd":
        return problems.ReactionDiffusionPair(n=cfg.grid_n)
    if cfg.problem == "thermal":
        return problems.ThermalFlowSurrogate()
    return problems.ScalarToy()


def build_problem(cfg: ExperimentConfig) -> CoupledProblem:
    """The coupled problem of :func:`problem_spec`; ``cfg.exact_constants``
    attaches certified constants, which only the linear demos have (ConfigError
    for thermal)."""
    return problems.make_coupled_problem(problem_spec(cfg),
                                         exact_constants=cfg.exact_constants)


def _rom_set(cfg: ExperimentConfig, p: int) -> frozenset[int]:
    if cfg.rom == "none":
        return frozenset()
    if cfg.rom == "both":
        return frozenset(range(1, p + 1))
    return frozenset({int(cfg.rom)})


def build_run_config(cfg: ExperimentConfig, p: int) -> RunConfig:
    """The driver settings of ``cfg`` for a problem of ``p`` systems."""
    return RunConfig(
        eps=cfg.eps,
        k_max=cfg.k_max,
        n_b=cfg.n_b,
        eps_rb=cfg.eps_rb,
        rom_set=_rom_set(cfg, p),
        criterion=cfg.criterion,
        validation_loop=cfg.validation,
    )


def run_reference(problem: CoupledProblem, run_cfg: RunConfig) -> RunReport:
    """Plain Picard iteration of ``problem`` to ``run_cfg.eps``: no reduced
    models, no validation loop.

    The reference solution is the report's final iterate ``x``.
    """
    report = accelerated_run(problem, replace(run_cfg, rom_set=frozenset(),
                                              validation_loop=False))
    if not report.converged:
        raise MaxIterationsExceeded(
            f"reference run did not converge in {run_cfg.k_max} iterations")
    return report


COMPARE_COLUMNS = ("criterion", "validation", "iterations", "fom_iterations",
                   "true_error", "internal_estimate", "validation_cycles",
                   "converged")


def _internal_estimate(report: RunReport, criterion: str) -> float:
    if criterion == "propagation":
        return report.final_err
    if criterion == "residual":
        return report.final_residual
    return report.final_delta


def compare_criteria(cfg: ExperimentConfig) -> list[dict]:
    """One accelerated run per criterion of ``CRITERIA``, with the validation
    loop on and then off, vs one reference.

    Returns rows with iteration counts, full-order iteration counts for the
    reduced system, the true error against the reference and the criterion's
    own internal error estimate. Every swept run is checked against the
    problem (:func:`driver.check_run`) before the reference solve.
    """
    problem = build_problem(cfg)
    run_cfg = build_run_config(cfg, problem.p)
    sweep = [replace(run_cfg, criterion=criterion, validation_loop=validation)
             for criterion in CRITERIA for validation in (True, False)]
    for swept in sweep:
        check_run(problem, swept)
    reference = run_reference(problem, run_cfg)
    rows = []
    for swept in sweep:
        rep = accelerated_run(problem, swept)
        rows.append({
            "criterion": swept.criterion,
            "validation": swept.validation_loop,
            "iterations": rep.iterations,
            "fom_iterations": max((rep.fom_solves[i - 1] for i in run_cfg.rom_set),
                                  default=rep.iterations),
            "true_error": numerics.norm2(rep.x - reference.x),
            "internal_estimate": _internal_estimate(rep, swept.criterion),
            "validation_cycles": rep.validation_cycles,
            "converged": rep.converged,
        })
    return rows


def write_comparison_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=COMPARE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


@dataclass(frozen=True)
class StatsSummary:
    """Runtime statistics with 95% confidence intervals and speedups."""

    mean: float
    median: float
    stdev: float
    mean_ci: tuple[float, float]
    median_ci: tuple[float, float]
    speedup_pct_mean: float    # 100 * (1 - mean/baseline_mean)
    speedup_pct_median: float

    def __post_init__(self):
        if not (self.mean_ci[0] <= self.mean <= self.mean_ci[1]):
            raise ValueError("mean must lie inside its confidence interval")
        if not (self.median_ci[0] <= self.median <= self.median_ci[1]):
            raise ValueError("median must lie inside its confidence interval")


def _mean_ci(samples, level: float = 0.95) -> tuple[float, float]:
    n = len(samples)
    mean = statistics.fmean(samples)
    sd = statistics.stdev(samples)
    if sd == 0.0:
        return (mean, mean)
    import scipy.stats   # here, not at module level: it adds about 40 MB to every process
    half = scipy.stats.t.ppf(0.5 + level / 2.0, n - 1) * sd / math.sqrt(n)
    return (mean - half, mean + half)


def _median_ci(samples, level: float = 0.95) -> tuple[float, float]:
    """Distribution-free order-statistic interval from binomial(n, 1/2) ranks."""
    srt = sorted(samples)
    n = len(srt)
    alpha = 1.0 - level
    import scipy.stats   # see _mean_ci
    lo_rank = int(scipy.stats.binom.ppf(alpha / 2.0, n, 0.5))        # 0-based floor
    hi_rank = int(scipy.stats.binom.ppf(1.0 - alpha / 2.0, n, 0.5))  # 0-based ceil
    lo = srt[max(0, lo_rank)]
    hi = srt[min(n - 1, hi_rank)]
    med = statistics.median(srt)
    return (min(lo, med), max(hi, med))


def bench_stats(samples, baseline) -> StatsSummary:
    """Summarize runtimes against a baseline (speedup = 100*(1 - t/t_base))."""
    samples = [float(s) for s in samples]
    baseline = [float(b) for b in baseline]
    if len(samples) < 5 or len(baseline) < 5:
        raise TooFewSamples("bench_stats needs at least 5 samples per series")
    mean = statistics.fmean(samples)
    median = statistics.median(samples)
    base_mean = statistics.fmean(baseline)
    base_median = statistics.median(baseline)
    return StatsSummary(
        mean=mean,
        median=median,
        stdev=statistics.stdev(samples),
        mean_ci=_mean_ci(samples),
        median_ci=_median_ci(samples),
        speedup_pct_mean=100.0 * (1.0 - mean / base_mean),
        speedup_pct_median=100.0 * (1.0 - median / base_median),
    )


def emit_trace(report: RunReport, path) -> None:
    """CSV trace with columns k, err, delta_k, step_norm, event."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in report.trace:
            delta = "" if row.delta is None else repr(float(row.delta))
            writer.writerow([row.k, repr(float(row.err)), delta,
                             repr(float(row.step_norm)), row.event])


def _finite_json(obj):
    """``obj`` with non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def emit_report(report: RunReport, path, extra: dict | None = None) -> None:
    """JSON dump of the run report (plus optional extra keys).

    JSON has no literal for infinity or NaN, so non-finite floats are written
    as the strings "inf", "-inf" and "nan".
    """
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    text = json.dumps(_finite_json(payload), indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def dump_field(values: np.ndarray, grid: problems.Grid2D, path) -> None:
    """Plain-text grid dump: header 'nx ny hx hy', then one value per line."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size != grid.n:
        raise ConfigError(f"field size {values.size} != grid size {grid.n}")
    with open(path, "w") as fh:
        fh.write(f"{grid.nx} {grid.ny} {float(grid.hx)!r} {float(grid.hy)!r}\n")
        for v in values:
            fh.write(f"{float(v)!r}\n")
