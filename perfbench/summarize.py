"""Summarize benchmark records: median, quartiles and spread per metric.

Reads the JSON records that ``run.py`` writes (default: ``perfbench/out``)
and prints, per workload and trace mode, each metric's median over runs, its
first and third quartiles, and the spread ``(q3 - q1) / median`` as Python's
``statistics.quantiles(values, n=4)`` gives them.

    python3 perfbench/summarize.py [RECORD_DIR ...]
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles


def main(argv=None) -> int:
    dirs = [Path(d) for d in (argv or sys.argv[1:])] or [Path(__file__).parent / "out"]
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    for directory in dirs:
        for path in sorted(directory.glob("*.json")):
            record = json.loads(path.read_text())
            if "result" not in record:
                continue
            prov = record["provenance"]
            key = (prov["workload"], prov["trace"])
            seeds[key].append(prov["seed"])
            for name, metric in record["result"]["metrics"].items():
                values[key][name].append(metric["value"])
            values[key]["failed"].append(record["result"]["failed"])
    for (workload, trace), metrics in sorted(values.items()):
        print(f"{workload} trace={trace} runs={len(seeds[(workload, trace)])}")
        for name, vals in metrics.items():
            q = quartiles(vals)
            spread = (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0
            print(f"  {name:42s} median={q['median']:<12.6g} q1={q['q1']:<12.6g} "
                  f"q3={q['q3']:<12.6g} spread={spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
