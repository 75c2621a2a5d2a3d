"""Golden traces: per-iteration events and solver counters of the demo runs.

Every case runs one demo problem from its unperturbed ``x0`` under one
criterion and one ROM selection, with the harness defaults and
``eps = 1e-8``, the linear demos once more with their certified constants
(case suffix ``/exact``), and compares the event sequence, ``fom_solves``,
``factorizations``, ``iterations``, ``rejected`` and ``converged`` with the
recorded fixture; a run that stops with a library error records the error's
class instead.
``x_hash`` is left out: it follows the last bits of the linear solvers.

Regenerate the fixture after an intended change with

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import json
from pathlib import Path

import pytest

from picardrom import harness
from picardrom.driver import CRITERIA, accelerated_run
from picardrom.errors import PicardRomError

FIXTURE = Path(__file__).parent / "data" / "golden_traces.json"
EPS = 1e-8
ROM_CHOICES = {"rd": ("none", "1", "both"), "thermal": ("none", "1", "both"),
               "scalar": ("none", "1")}
# the linear demos again with their certified constants, case suffix "/exact"
EXACT_ROM_CHOICES = {"rd": ("none", "1", "both"), "scalar": ("none", "1")}


def cases() -> list[str]:
    return [f"{problem}/{criterion}/{rom}{suffix}"
            for choices, suffix in ((ROM_CHOICES, ""), (EXACT_ROM_CHOICES, "/exact"))
            for problem, roms in choices.items()
            for criterion in CRITERIA for rom in roms]


def record(case: str) -> dict:
    problem, criterion, rom, *exact = case.split("/")
    cfg = harness.ExperimentConfig(problem=problem, grid_n=16, rom=rom,
                                   criterion=criterion, eps=EPS,
                                   exact_constants=bool(exact))
    prob = harness.build_problem(cfg)
    try:
        report = accelerated_run(prob, harness.build_run_config(cfg, prob.p))
    except PicardRomError as exc:
        return {"error": type(exc).__name__}
    return {
        "events": [row.event for row in report.trace],
        "fom_solves": report.fom_solves,
        "factorizations": report.factorizations,
        "iterations": report.iterations,
        "rejected": report.rejected,
        "converged": report.converged,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_golden_trace(golden, case):
    assert record(case) == golden[case]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(case)}: {json.dumps(record(case))}" for case in cases()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
