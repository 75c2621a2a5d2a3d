"""Tests for the experiment harness, statistics and CLI plumbing."""

import csv
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from picardrom import cli, harness, numerics, problems
from picardrom.driver import CRITERIA, RunConfig, accelerated_run
from picardrom.errors import ConfigError, MissingConstants, TooFewSamples


def test_config_roundtrip(tmp_path):
    cfg = harness.ExperimentConfig(problem="thermal", rom="both", eps=1e-7,
                                   n_b=7, eps_rb=1e-5, criterion="upper_bound",
                                   validation=False, repetitions=7)
    path = tmp_path / "exp.ini"
    harness.save_config(cfg, path)
    loaded = harness.load_config(path)
    assert loaded == cfg


def every_field_set():
    """A configuration whose every field differs from its default."""
    return harness.ExperimentConfig(
        problem="scalar", grid_n=12, rom="none", eps=2.5e-9, k_max=77, n_b=4,
        eps_rb=3e-5, criterion="residual", validation=False, exact_constants=True,
        repetitions=6, output_dir="results/a")


def test_config_roundtrip_every_field(tmp_path):
    cfg = every_field_set()
    default = harness.ExperimentConfig()
    for f in dataclasses.fields(cfg):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    path = tmp_path / "exp.ini"
    harness.save_config(cfg, path)
    loaded = harness.load_config(path)
    assert loaded == cfg
    for f in dataclasses.fields(cfg):
        assert type(getattr(loaded, f.name)) is type(getattr(default, f.name)), f.name


@pytest.mark.parametrize("key,value", [
    ("basis_method", "gs"), ("tau_res", "1e-6"), ("reference_eps", "1e-10"),
    ("criteria", "residual,propagation"),
])
def test_config_rejects_deleted_keys(tmp_path, key, value):
    path = tmp_path / "old.ini"
    path.write_text(f"[experiment]\nproblem = scalar\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        harness.load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        harness.load_config(path)
    with pytest.raises(ConfigError):
        harness.load_config(tmp_path / "missing.ini")


def test_config_file_without_an_experiment_section_is_refused(tmp_path):
    path = tmp_path / "other.ini"
    path.write_text("[run]\nproblem = scalar\n")
    with pytest.raises(ConfigError, match=r"\[experiment\] section"):
        harness.load_config(path)


def test_config_file_with_an_unknown_criterion_is_refused_on_load(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nproblem = thermal\ncriterion = bogus\n")
    with pytest.raises(ConfigError, match="unknown criterion 'bogus'"):
        harness.load_config(path)


def test_experiment_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        harness.ExperimentConfig().eps = 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(problem="nope")
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(rom="3")
    with pytest.raises(ConfigError):
        harness.ExperimentConfig(repetitions=0)
    with pytest.raises(ConfigError, match="unknown criterion 'bogus'"):
        harness.ExperimentConfig(criterion="bogus")
    for field, value in (("eps", 0.0), ("eps", math.nan), ("n_b", 1), ("eps_rb", 2.0),
                         ("eps_rb", 0.0), ("k_max", 0)):
        with pytest.raises(ConfigError, match=field):
            harness.ExperimentConfig(**{field: value})


def built(cfg):
    """The problem of ``cfg`` and its run settings."""
    problem = harness.build_problem(cfg)
    return problem, harness.build_run_config(cfg, problem.p)


def test_reference_scalar_geometric_iterations():
    cfg = harness.ExperimentConfig(problem="scalar", rom="none", eps=1e-8)
    ref = harness.run_reference(*built(cfg))
    expected = math.ceil(math.log(1e-8) / math.log(0.5))
    assert abs(ref.iterations - expected) <= 1
    assert ref.converged


def test_reference_rd_counts_match_iterations():
    cfg = harness.ExperimentConfig(problem="rd", grid_n=8, eps=1e-8)
    ref = harness.run_reference(*built(cfg))
    # plain Picard: one FOM solve per system per iteration (plus validation-free)
    assert ref.fom_solves[0] == ref.fom_solves[1]
    assert ref.fom_solves[0] == ref.iterations


def test_accelerated_rom_none_zero_error():
    cfg = harness.ExperimentConfig(problem="scalar", rom="none", eps=1e-8)
    problem, run_cfg = built(cfg)
    reference = harness.run_reference(problem, run_cfg)
    report = accelerated_run(problem, run_cfg)
    assert numerics.norm2(report.x - reference.x) == 0.0


def test_compare_criteria_sweeps_every_criterion_with_validation_on_then_off():
    rows = harness.compare_criteria(harness.ExperimentConfig(problem="rd", grid_n=8, eps=1e-8))
    assert [(r["criterion"], r["validation"]) for r in rows] == [
        (criterion, validation) for criterion in CRITERIA for validation in (True, False)]
    assert len(rows) == 8 and all(r["converged"] for r in rows)


def counted_solves(monkeypatch):
    """Count every ``accelerated_run`` the harness and the CLI make."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return accelerated_run(*args, **kwargs)

    for module in (harness, cli):
        monkeypatch.setattr(module, "accelerated_run", counting)
    return calls


def test_compare_criteria_refuses_a_missing_reduced_system_before_any_solve(monkeypatch):
    calls = counted_solves(monkeypatch)
    cfg = harness.ExperimentConfig(problem="scalar", rom="2")
    with pytest.raises(ConfigError, match="rom system 2"):
        harness.compare_criteria(cfg)
    assert calls == []


@pytest.mark.parametrize("exact", [False, True], ids=["online", "exact"])
def test_compare_criteria_refuses_the_asymptotic_criterion_on_one_system_before_any_solve(
        monkeypatch, exact):
    calls = counted_solves(monkeypatch)
    cfg = harness.ExperimentConfig(problem="scalar", rom="1", exact_constants=exact)
    with pytest.raises(MissingConstants, match="K21"):
        harness.compare_criteria(cfg)
    assert calls == []


def test_compare_criteria_with_a_two_snapshot_window_converges_under_every_criterion():
    """The asymptotic runs refine until the ledger has sampled K_{1,2}."""
    rows = harness.compare_criteria(harness.ExperimentConfig(problem="rd", grid_n=16, n_b=2))
    assert len(rows) == 8
    assert all(row["converged"] for row in rows)


def test_compare_criteria_rom_none_identical_rows(tmp_path):
    cfg = harness.ExperimentConfig(problem="scalar", rom="none", eps=1e-8)
    rows = harness.compare_criteria(cfg)
    assert len(rows) == 8
    for row in rows[1:]:
        for key in ("iterations", "fom_iterations", "true_error", "converged"):
            assert row[key] == rows[0][key]
    out = tmp_path / "cmp.csv"
    harness.write_comparison_csv(rows, out)
    with open(out) as fh:
        read = list(csv.DictReader(fh))
    assert [r["criterion"] for r in read] == [r["criterion"] for r in rows]


def test_bench_stats_same_series_zero_speedup():
    s = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0]
    stats = harness.bench_stats(s, s)
    assert stats.speedup_pct_mean == pytest.approx(0.0, abs=1e-12)
    assert stats.speedup_pct_median == pytest.approx(0.0, abs=1e-12)
    assert stats.mean_ci[0] <= stats.mean <= stats.mean_ci[1]
    assert stats.median_ci[0] <= stats.median <= stats.median_ci[1]


def test_bench_stats_constant_degenerate():
    stats = harness.bench_stats([2.0] * 6, [4.0] * 6)
    assert stats.speedup_pct_mean == pytest.approx(50.0)
    assert stats.mean_ci == (2.0, 2.0)
    assert stats.median_ci == (2.0, 2.0)
    assert stats.stdev == 0.0


def test_bench_stats_too_few():
    with pytest.raises(TooFewSamples):
        harness.bench_stats([1.0] * 4, [1.0] * 10)


def test_only_bench_statistics_load_scipy_stats():
    """scipy.stats adds about 40 MB to a process, so importing the package,
    which every command and benchmark run does, must not load it."""
    code = ("import sys\n"
            "from picardrom import cli, harness\n"
            "assert 'scipy.stats' not in sys.modules\n"
            "harness.bench_stats([1.0, 1.1, 0.9, 1.0, 1.2], [1.0] * 5)\n"
            "assert 'scipy.stats' in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_bench_stats_normal_ci_halfwidth():
    rng = np.random.default_rng(0)
    samples = list(rng.normal(100.0, 1.0, 30))
    baseline = list(rng.normal(80.0, 1.0, 30))
    stats = harness.bench_stats(samples, baseline)
    sd = np.std(samples, ddof=1)
    expected_half = scipy.stats.t.ppf(0.975, 29) * sd / math.sqrt(30)
    half = (stats.mean_ci[1] - stats.mean_ci[0]) / 2.0
    assert half == pytest.approx(expected_half, rel=1e-10)
    assert stats.speedup_pct_mean == pytest.approx(
        100.0 * (1.0 - 100.0 / 80.0), abs=3.0)


def test_mean_ci_coverage():
    rng = np.random.default_rng(1)
    hits = 0
    trials = 1000
    for _ in range(trials):
        samples = rng.normal(10.0, 2.0, 12)
        lo, hi = harness._mean_ci(list(samples))
        hits += lo <= 10.0 <= hi
    assert 930 <= hits <= 970


def test_median_ci_ranks_are_symmetric_and_cover():
    """Exact binomial coverage of the interval's ranks: at least 95% from six
    samples on, with the inner rank pair one step short of it; five samples
    give their extremes."""
    assert harness._median_ci([4.0, 1.0, 3.0, 0.0, 2.0]) == (0.0, 4.0)
    for n in range(5, 41):
        lo, hi = harness._median_ci([float(j) for j in range(n)])
        k = int(lo)
        assert lo == k and hi == n - 1 - k

        def coverage(rank):
            return 1.0 - 2.0 * sum(math.comb(n, j) for j in range(rank + 1)) / 2.0**n

        assert coverage(k + 1) < 0.95
        if n >= 6:
            assert coverage(k) >= 0.95


def test_emit_trace_and_replay(tmp_path):
    cfg = RunConfig(eps=1e-9, n_b=3, rom_set=frozenset({1}))
    prob = harness.build_problem(harness.ExperimentConfig(problem="scalar"))
    report = accelerated_run(prob, cfg)
    path = tmp_path / "trace.csv"
    harness.emit_trace(report, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(harness.TRACE_COLUMNS)
    assert len(rows) == len(report.trace)
    # accepted ROM rows satisfy err = delta + L * prev_err exactly
    for trace_row, prev in zip(report.trace[1:], report.trace):
        if trace_row.event == "rom" and prev.event in ("rom", "fom", "refine"):
            if not math.isinf(prev.err):
                assert trace_row.err == pytest.approx(
                    trace_row.delta + trace_row.l_est * prev.err, rel=1e-12)


def test_emit_trace_empty(tmp_path):
    from picardrom.driver import RunReport
    report = RunReport(p=1)
    path = tmp_path / "empty.csv"
    harness.emit_trace(report, path)
    assert path.read_text().strip() == ",".join(harness.TRACE_COLUMNS)


def test_emit_report_json(tmp_path):
    cfg = RunConfig(eps=1e-8, rom_set=frozenset())
    prob = harness.build_problem(harness.ExperimentConfig(problem="scalar"))
    report = accelerated_run(prob, cfg)
    path = tmp_path / "report.json"
    harness.emit_report(report, path, extra={"note": 1})
    data = json.loads(path.read_text())
    assert data["converged"] is True
    assert data["note"] == 1


def test_emit_report_non_finite_round_trip(tmp_path):
    report = accelerated_run(harness.build_problem(harness.ExperimentConfig(problem="scalar")),
                             RunConfig(eps=1e-8, rom_set=frozenset()))
    assert math.isinf(report.final_err)
    path = tmp_path / "report.json"
    extra = {"low": -math.inf, "bad": [math.nan, 1.5], "note": "Infinity and NaN stay",
             "nested": {"high": math.inf}}
    harness.emit_report(report, path, extra=extra)
    data = json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(c))
    assert data["final_err"] == "inf"
    assert data["low"] == "-inf" and data["bad"] == ["nan", 1.5]
    assert data["note"] == "Infinity and NaN stay"
    assert data["nested"] == {"high": "inf"}
    assert data["trace"][0]["err"] == "inf"
    assert data["iterations"] == report.iterations


def read_field(path):
    """A field dump's values and its header ``(nx, ny, hx, hy)``."""
    header, *values = path.read_text().splitlines()
    nx, ny, hx, hy = header.split()
    return np.array([float(v) for v in values]), (int(nx), int(ny), float(hx), float(hy))


def test_field_dump_roundtrip(tmp_path):
    grid = problems.Grid2D(4, 5, width=2.0, height=1.0)
    rng = np.random.default_rng(2)
    values = rng.standard_normal(grid.n)
    path = tmp_path / "field.txt"
    harness.dump_field(values, grid, path)
    loaded, (nx, ny, hx, hy) = read_field(path)
    assert (nx, ny) == (4, 5)
    assert hx == grid.hx and hy == grid.hy
    assert np.array_equal(loaded, values)


def test_field_dump_refuses_a_field_of_another_size(tmp_path):
    grid = problems.Grid2D(4, 5)
    path = tmp_path / "field.txt"
    with pytest.raises(ConfigError, match="field size 19 != grid size 20"):
        harness.dump_field(np.zeros(19), grid, path)
    assert not path.exists()


def written_report(out, command="run", *extra):
    """The JSON report a CLI command wrote to ``out``, once its report, its
    trace and each of ``extra`` are checked to be files that are not empty."""
    for name in (f"{command}_report.json", f"{command}_trace.csv", *extra):
        assert (out / name).is_file() and (out / name).stat().st_size > 0, name
    return json.loads((out / f"{command}_report.json").read_text())


def test_cli_paths():
    assert cli.main(["paths", "--from", "3", "--to", "0"]) == 0


def test_cli_paths_prints_the_count_then_each_decreasing_path(capsys):
    assert cli.main(["paths", "--from", "4", "--to", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 2**(4-0-1) paths from system 4 down to the outer iterate
    assert lines[0] == "|d_{0,4}| = 8"
    assert len(lines) == 9
    assert all(line.startswith("4 -> ") and line.endswith(" 0") for line in lines[1:])


def test_cli_run_scalar(tmp_path, capsys):
    rc = cli.main(["run", "--problem", "scalar", "--rom", "1", "--eps", "1e-8",
                   "--nb", "3", "--out", str(tmp_path)])
    assert rc == 0
    # the toy hands out one 1x1 matrix, factored once
    assert written_report(tmp_path)["factorizations"] == [1]


@pytest.mark.parametrize("source", ["flags", "ini"])
def test_cli_thermal_run_factors_every_solve_and_rejects_at_most_two(tmp_path, source):
    """Thermal has no matrix to share, so each full-order solve factors; its
    reduced models stop drawing attempts once they fail, so at most 2 steps
    are rejected; and every row carries the L of its err recurrence. The same
    run comes from flags and from a file written by ``save_config``."""
    out = tmp_path / "out"
    if source == "flags":
        argv = ["--problem", "thermal", "--rom", "1", "--nb", "5", "--eps", "1e-8"]
    else:
        ini = tmp_path / "exp.ini"
        harness.save_config(harness.ExperimentConfig(problem="thermal", rom="1", eps=1e-8), ini)
        argv = ["--config", str(ini)]
    assert cli.main(["run", *argv, "--out", str(out)]) == 0
    report = written_report(out)
    assert report["factorizations"] == report["fom_solves"]
    assert report["rejected"] <= 2
    assert report["trace"] and all(isinstance(row["l_est"], float) for row in report["trace"])


def test_cli_rd_run_with_exact_constants_factors_its_shared_operator_once(tmp_path):
    rc = cli.main(["run", "--problem", "rd", "--rom", "1", "--exact-constants",
                   "--criterion", "asymptotic", "--eps", "1e-8", "--out", str(tmp_path)])
    assert rc == 0
    assert written_report(tmp_path)["factorizations"] == [1, 0]


def test_cli_asymptotic_run_with_a_two_snapshot_window_writes_its_report(tmp_path):
    """It probes before the ledger has a K_{1,2} sample and refines until it
    has one, rather than stopping mid-run."""
    rc = cli.main(["run", "--problem", "rd", "--rom", "1", "--nb", "2",
                   "--criterion", "asymptotic", "--eps", "1e-8", "--out", str(tmp_path)])
    assert rc == 0
    assert written_report(tmp_path)["converged"] is True


def test_cli_reference_rd(tmp_path):
    rc = cli.main(["reference", "--problem", "rd", "--eps", "1e-6",
                   "--out", str(tmp_path)])
    assert rc == 0
    report = written_report(tmp_path, "reference",
                            "reference_field1.txt", "reference_field2.txt")
    # it reduces nothing, so it reads no constants and never warns
    assert report["trace"] and all(row["l_est"] is None for row in report["trace"])
    assert report["expansive_warning"] is False


def test_cli_reference_dumps_fields_on_the_configured_grid(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\ngrid_n = 8\n")
    rc = cli.main(["reference", "--config", str(ini), "--problem", "rd", "--eps", "1e-6",
                   "--out", str(tmp_path)])
    assert rc == 0
    for name in ("reference_field1.txt", "reference_field2.txt"):
        values, (nx, ny, _, _) = read_field(tmp_path / name)
        assert (nx, ny) == (8, 8) and values.size == 64


def test_problem_spec_names_the_demo_the_problem_is_built_from():
    for problem, kind in (("rd", problems.ReactionDiffusionPair),
                          ("thermal", problems.ThermalFlowSurrogate),
                          ("scalar", problems.ScalarToy)):
        cfg = harness.ExperimentConfig(problem=problem, grid_n=8)
        assert type(harness.problem_spec(cfg)) is kind
    spec = harness.problem_spec(harness.ExperimentConfig(problem="rd", grid_n=8))
    assert spec.grid == problems.Grid2D(8, 8)
    built = harness.build_problem(harness.ExperimentConfig(problem="rd", grid_n=8))
    assert built.p == 2 and built.x0.shape == (2 * 64,)


def test_cli_kmax_exit_code(tmp_path):
    rc = cli.main(["run", "--problem", "scalar", "--rom", "none",
                   "--eps", "1e-300", "--kmax", "50", "--out", str(tmp_path)])
    assert rc == 2


def test_cli_bench_times_the_two_series_and_solves_nothing_else(tmp_path, monkeypatch):
    calls = counted_solves(monkeypatch)
    rc = cli.main(["bench", "--problem", "scalar", "--rom", "1", "--eps", "1e-8",
                   "--reps", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 10
    assert [run_cfg.rom_set for _, run_cfg in calls] == [frozenset({1}), frozenset()] * 5
    assert json.loads((tmp_path / "bench.json").read_text())["mean"] > 0.0


def test_cli_bench_rd_writes_its_statistics(tmp_path):
    rc = cli.main(["bench", "--problem", "rd", "--rom", "1", "--reps", "5",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "bench.json").read_text())["mean"] > 0.0


def test_cli_bench_kmax_exit_code(tmp_path):
    rc = cli.main(["bench", "--problem", "scalar", "--rom", "none",
                   "--eps", "1e-300", "--kmax", "50", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("command", ["reference", "run", "bench"])
def test_cli_budget_failure_creates_no_output_directory(tmp_path, command):
    out = tmp_path / "d"
    rc = cli.main([command, "--problem", "scalar", "--eps", "1e-300", "--kmax", "50",
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_cli_compare_criteria_writes_one_row_per_criterion_and_validation(tmp_path):
    rc = cli.main(["compare-criteria", "--problem", "rd", "--eps", "1e-6",
                   "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "criteria_comparison.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == list(harness.COMPARE_COLUMNS)
    assert len(rows) == len(CRITERIA) * 2 == 8
    assert {(row["criterion"], row["validation"]) for row in rows} == {
        (criterion, str(validation)) for criterion in CRITERIA for validation in (True, False)}


def test_cli_compare_criteria_on_thermal_writes_a_header_and_eight_rows(tmp_path):
    rc = cli.main(["compare-criteria", "--problem", "thermal", "--rom", "1", "--eps", "1e-9",
                   "--nb", "5", "--eps-rb", "1e-4", "--out", str(tmp_path)])
    assert rc == 0
    # one row per criterion with the validation loop on and off: 1 + 4 * 2
    assert len((tmp_path / "criteria_comparison.csv").read_text().splitlines()) == 9


def test_cli_error_exit_code(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "nope.ini")])
    assert rc == 1


def test_cli_usage_errors_exit_1_not_the_budget_code(tmp_path):
    out = str(tmp_path / "d")
    for argv in (["run", "--problem", "bogus", "--out", out],
                 ["run", "--nb", "two", "--out", out],
                 ["paths", "--from", "4", "--to", "0", "--p", "2"]):   # --p is gone
        assert cli.main(argv) == cli.EXIT_ERROR == 1
    assert not (tmp_path / "d").exists()
    # --help still exits 0, and 2 still means an exhausted iteration budget
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert cli.main(["run", "--problem", "scalar", "--eps", "1e-300", "--kmax", "5",
                     "--out", str(tmp_path / "k")]) == cli.EXIT_KMAX == 2


@pytest.mark.parametrize("command, args", [
    *(pytest.param("run", ["--problem", "rd", "--rom", "1", flag, value], id=f"{flag}-{value}")
      for flag, value in (("--nb", "1"), ("--eps", "0"), ("--eps-rb", "2"), ("--kmax", "0"))),
    # a reduced system the problem lacks
    *(pytest.param(command, ["--problem", "scalar", "--rom", "2"], id=f"{command}-scalar-rom-2")
      for command in ("run", "bench", "compare-criteria")),
    pytest.param("bench", ["--problem", "scalar", "--reps", "3"], id="bench-reps-3"),
    # the asymptotic criterion on the one-system toy, which has no K_{2,1}
    *(pytest.param(command, ["--problem", "scalar", *args], id=f"{command}-scalar{tag}")
      for command, args, tag in (
          ("compare-criteria", [], ""),
          ("compare-criteria", ["--exact-constants"], "-exact"),
          ("run", ["--criterion", "asymptotic"], "-asymptotic"))),
])
def test_cli_refuses_an_invalid_run_setting_before_creating_its_output(tmp_path, monkeypatch,
                                                                        command, args):
    calls = counted_solves(monkeypatch)
    out = tmp_path / "d"
    rc = cli.main([command, *args, "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    assert calls == []


def test_cli_criterion_alias(tmp_path):
    rc = cli.main(["run", "--problem", "scalar", "--rom", "1", "--eps", "1e-8",
                   "--criterion", "upper", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "run_report.json").read_text())
    assert data["converged"] is True


def test_cli_flags_land_on_their_fields(tmp_path):
    args = cli.build_parser().parse_args([
        "run", "--problem", "thermal", "--rom", "both", "--nb", "7", "--eps", "3e-9",
        "--eps-rb", "2e-5", "--criterion", "upper", "--no-validation", "--reps", "9",
        "--out", str(tmp_path / "o"), "--exact-constants", "--kmax", "123"])
    cfg = cli._experiment_config(args)
    assert cfg == dataclasses.replace(
        harness.ExperimentConfig(), problem="thermal", rom="both", n_b=7, eps=3e-9,
        eps_rb=2e-5, criterion="upper_bound", validation=False, repetitions=9,
        output_dir=str(tmp_path / "o"), exact_constants=True, k_max=123)


def test_cli_config_file_values_survive_without_flags(tmp_path):
    saved = every_field_set()
    path = tmp_path / "exp.ini"
    harness.save_config(saved, path)
    args = cli.build_parser().parse_args(["run", "--config", str(path)])
    assert cli._experiment_config(args) == saved
    args = cli.build_parser().parse_args(["run", "--config", str(path), "--eps", "1e-4"])
    assert cli._experiment_config(args) == dataclasses.replace(saved, eps=1e-4)


def test_thermal_refuses_exact_constants(tmp_path):
    cfg = harness.ExperimentConfig(problem="thermal", exact_constants=True)
    with pytest.raises(ConfigError, match="exact constants"):
        harness.build_problem(cfg)
    rc = cli.main(["run", "--problem", "thermal", "--exact-constants",
                   "--out", str(tmp_path)])
    assert rc == 1
    assert not (tmp_path / "run_report.json").exists()


def test_refused_cli_run_leaves_no_output_directory(tmp_path):
    out = tmp_path / "refused"
    rc = cli.main(["run", "--problem", "thermal", "--exact-constants", "--out", str(out)])
    assert rc == 1
    assert not out.exists()
