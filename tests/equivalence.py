"""Bitwise equivalence of accelerated runs between two source trees.

Runs one grid of accelerated runs on each tree and prints, for every
configuration whose records differ, the first difference, and for differing
rows the names of every row field that differs. A refactor that claims to
keep the iterates, counters and traces should report no difference against
its parent commit. Check out the parent in a second directory and run

    python tests/equivalence.py --against /path/to/parent/checkout

The exit status is 0 when every configuration agrees, and 1 otherwise.

The grid is 256 configurations: rd on a 16x16 grid with online and with
certified constants, thermal, and scalar with online and with certified
constants; every criterion; ROM selections none, 1, 2 and both (scalar none
and 1); validation on and off; step weights 1.0 and 0.7; ``eps = 1e-8`` and
the harness defaults otherwise.
Each tree runs the grid in its own subprocess with ``OPENBLAS_NUM_THREADS=1``
and the tree's ``src`` first on ``PYTHONPATH``. A configuration's record holds
every ``TraceRow`` as a dict of its fields (floats as hex),
``RunReport.to_dict()`` without the trace (the rows hold it) and the digest of
the final iterate ``RunReport.x``; a run that stops with a library error
records the error's class instead.

The tool digests iterates itself, with SHA-1 over their bytes: each row's
``x_hash`` is replaced by the digest of that row's iterate, the ``x_next``
that ``accelerated_run``'s ``observer`` receives. So the records follow the
iterates, not the library's choice of digest, and a change of that digest
shows no difference. This depends on the ``observer``, which ROADMAP item 11
retires; the tool must then read the iterates from what replaces it. The
tool reads only harness and driver names that have stood unchanged since
the golden traces were recorded, so it runs on older trees too.

``tests/test_equivalence.py`` runs a slice of the grid in-process, so the
tool cannot rot.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# The grid is fixed here, not read from either tree, so both trees run the same grid.
EPS = 1e-8
CRITERIA = ("residual", "upper_bound", "asymptotic", "propagation")
PROBLEMS = (("rd", False), ("rd", True), ("thermal", False),
            ("scalar", False), ("scalar", True))
ROM_CHOICES = {"rd": ("none", "1", "2", "both"), "thermal": ("none", "1", "2", "both"),
               "scalar": ("none", "1")}
RELAXATIONS = {"1.0": 1.0, "0.7": 0.7}
HERE = Path(__file__).resolve().parents[1]
MISSING = "<missing>"   # a report field only the other tree has


def configurations() -> list[str]:
    """Names ``problem[+exact]/criterion/rom/validation/relaxation``."""
    return [f"{problem}{'+exact' if exact else ''}/{criterion}/{rom}/{validation}/{lam}"
            for problem, exact in PROBLEMS for criterion in CRITERIA
            for rom in ROM_CHOICES[problem] for validation in ("val", "noval")
            for lam in RELAXATIONS]


def _hex(value):
    """``value`` with every float as ``float.hex``, recursively."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value


def digest(x) -> str:
    """SHA-1 of the iterate ``x``'s bytes in C order."""
    return hashlib.sha1(np.ascontiguousarray(x)).hexdigest()


def record(name: str) -> dict:
    """The record of one configuration of :func:`configurations`."""
    from picardrom import driver, harness
    from picardrom.errors import PicardRomError

    problem, criterion, rom, validation, lam = name.split("/")
    problem, _, exact = problem.partition("+")
    cfg = harness.ExperimentConfig(problem=problem, grid_n=16, rom=rom,
                                   criterion=criterion, eps=EPS,
                                   validation=validation == "val",
                                   exact_constants=bool(exact))
    digests = []   # of each row's iterate, in row order
    try:
        prob = harness.build_problem(cfg)
        run_cfg = dataclasses.replace(harness.build_run_config(cfg, prob.p),
                                      relaxation=RELAXATIONS[lam])
        report = driver.accelerated_run(
            prob, run_cfg, observer=lambda ev: digests.append(digest(ev["x_next"])))
    except PicardRomError as exc:
        return {"error": type(exc).__name__}
    summary = report.to_dict()
    del summary["trace"]
    return {"rows": [_hex(dict(dataclasses.asdict(row), x_hash=x_hash))
                     for row, x_hash in zip(report.trace, digests, strict=True)],
            "report": _hex(summary), "x": digest(report.x)}


def records(names) -> dict[str, dict]:
    return {name: record(name) for name in names}


def compare(left: dict[str, dict], right: dict[str, dict]) -> list[tuple]:
    """``(configuration, where, left, right)`` at the first difference of
    each configuration that differs; ``where`` is ``"row <k> (<fields>)"``
    (the first differing row, and every row field that differs in any row of
    the configuration, :data:`MISSING` counting as a difference), ``"rows"``
    (the row counts), ``"report <field>"`` (over the fields of both
    reports, :data:`MISSING` where one lacks the field), ``"final iterate"``
    or ``"outcome"`` (the error class, or ``"ran"``)."""
    diffs = []
    for name, a in left.items():
        b = right.get(name, {"error": "missing"})
        if a == b:
            continue
        if "error" in a or "error" in b:
            diffs.append((name, "outcome", a.get("error", "ran"), b.get("error", "ran")))
            continue
        rows = [(k, ra, rb) for k, (ra, rb) in enumerate(zip(a["rows"], b["rows"]))
                if ra != rb]
        if rows:
            k, ra, rb = rows[0]
            fields = [key for key in {**ra, **rb}
                      if any(x.get(key, MISSING) != y.get(key, MISSING) for _, x, y in rows)]
            diffs.append((name, f"row {k} ({', '.join(fields)})", ra, rb))
        elif len(a["rows"]) != len(b["rows"]):
            diffs.append((name, "rows", len(a["rows"]), len(b["rows"])))
        elif a["report"] != b["report"]:
            ra, rb = a["report"], b["report"]
            key = next(key for key in {**ra, **rb}
                       if ra.get(key, MISSING) != rb.get(key, MISSING))
            diffs.append((name, f"report {key}", ra.get(key, MISSING), rb.get(key, MISSING)))
        else:
            diffs.append((name, "final iterate", a["x"], b["x"]))
    return diffs


def dump(tree: Path) -> dict[str, dict]:
    """The records of the whole grid, run on ``tree`` in a subprocess."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, __file__, "--dump", str(tree)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path,
                        help="the other source tree (a checkout with src/picardrom)")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:
        import picardrom
        src = (args.dump / "src").resolve()
        if src not in Path(picardrom.__file__).resolve().parents:
            raise SystemExit(f"picardrom imported from {picardrom.__file__}, not {src}")
        json.dump(records(configurations()), sys.stdout)
        return 0
    if args.against is None:
        parser.error("--against is required")
    other, mine = dump(args.against.resolve()), dump(HERE)
    diffs = compare(other, mine)
    for name, where, a, b in diffs:
        print(f"{name}: {where}: {a} | {b}")
    print(f"{len(diffs)} of {len(other)} configurations differ "
          f"({args.against} | {HERE})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
