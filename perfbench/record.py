"""Record the benchmark's reference numbers in ``perfbench/baseline.json``.

Run from the repository root::

    python3 perfbench/record.py virtual 0 19
    python3 perfbench/record.py summary perfbench/out/*.trace0.json
    python3 perfbench/record.py repeat perfbench/out/*.trace0.json

``virtual FIRST LAST`` runs every cell of every workload for seeds
FIRST..LAST, checks each answer and records its final ``virtual_us``;
later runs with a recorded seed fail any cell whose virtual time is not
bit-identical.  ``summary FILE...`` records, per workload, the median
and quartiles over the given untraced result files of each end-to-end
metric, with the host metadata they were measured under.  Wall numbers
are only comparable on that host.  ``repeat FILE...`` records a second
set of runs of the same code the same way, under ``end_to_end_repeat``,
with each median's change against the first set (``vs_first``), which
must stay within the metric's bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import run
from repro.workloads import SERIES
from workloads import WORKLOADS, get_workload


def _load() -> dict:
    if not os.path.exists(run.BASELINE):
        return {}
    with open(run.BASELINE) as fh:
        return json.load(fh)


def _save(doc: dict) -> None:
    with open(run.BASELINE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_virtual(first: int, last: int) -> None:
    doc = _load()
    table = doc.setdefault("virtual_us", {})
    for name in WORKLOADS:
        workload = get_workload(name)
        for seed in range(first, last + 1):
            inputs = workload.make_inputs(seed)
            row = {}
            for series in SERIES:
                cell = run.run_cell(workload, inputs, series, None)
                if cell.error is not None:
                    raise SystemExit(f"{name} seed {seed} {series.name}: {cell.error}")
                row[series.name] = cell.virtual_us
            table.setdefault(name, {})[str(seed)] = row
            print(name, seed, row, flush=True)
            _save(doc)


def record_summary(paths: list[str], key: str = "end_to_end") -> None:
    doc = _load()
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        if result["meta"]["trace"] == 0:
            runs.setdefault(result["meta"]["workload"], []).append(result)
    out = doc.setdefault(key, {})
    for name, results in sorted(runs.items()):
        metrics = {}
        for metric in results[0]["stats"]:
            values = [r["stats"][metric]["median"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                               "unit": results[0]["units"].get(metric, "1/s")}
            if key != "end_to_end":
                first = doc["end_to_end"][name]["metrics"][metric]["median"]
                metrics[metric]["vs_first"] = (med - first) / first
        meta = {k: v for k, v in results[0]["meta"].items()
                if k not in ("workload", "seed", "trace")}
        out[name] = {"host": meta, "seeds": sorted(r["meta"]["seed"] for r in results),
                     "runs": len(results), "metrics": metrics}
    _save(doc)


if __name__ == "__main__":
    if sys.argv[1:2] == ["virtual"] and len(sys.argv) == 4:
        record_virtual(int(sys.argv[2]), int(sys.argv[3]))
    elif sys.argv[1:2] == ["summary"] and len(sys.argv) > 2:
        record_summary(sys.argv[2:])
    elif sys.argv[1:2] == ["repeat"] and len(sys.argv) > 2:
        record_summary(sys.argv[2:], "end_to_end_repeat")
    else:
        raise SystemExit(__doc__)
