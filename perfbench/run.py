"""Host-speed benchmark of the simulator: one workload, every engine series.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lock_fanin --seed 1 --seconds 36 --trace 0

``--trace 0`` times cells of the four series, round-robin, for about
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs one
untraced round, then one cProfile-traced round, and prints the
per-layer metrics (``--seconds`` does not apply).  ``--workload all``
runs every workload, each in a fresh interpreter.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted``/``failed`` count cells.  Full results, host metadata and
(with ``--trace 1``) the pstats profiles are written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
BASELINE = os.path.join(BENCH_DIR, "baseline.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.workloads import SERIES  # noqa: E402

from layers import EpochCounter, counter_metrics, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CellFailed, get_workload  # noqa: E402

if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"repro imported from {repro.__file__}, not from this checkout")

#: Fresh-interpreter set-up probes per run (``setup_s`` is their median).
SETUP_PROBES = 11

#: The end-to-end metrics of the final JSON line, with their units.  The
#: per-series ``ops_per_s.<series>`` are reported beside them but not
#: gated: on a shared 2-core host their run-to-run spread is above a
#: tenth (see README.md).
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    """One workload run under one series."""

    series: str
    wall_s: float = 0.0
    virtual_us: float | None = None
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)


def _no_hook(rt) -> None:
    pass


def run_cell(workload, inputs, series, expected_us: float | None,
             profile: cProfile.Profile | None = None) -> Cell:
    """Run, time and check one cell.  A raised exception, a wrong answer
    or a ``virtual_us`` other than ``expected_us`` marks the cell failed
    with the exception's type and message; nothing is re-raised."""
    cell = Cell(series.name)
    counter = EpochCounter()
    gc.collect()
    try:
        with counter.installed() if profile is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            if profile is not None:
                profile.enable()
            try:
                out = workload.run(inputs, series, _no_hook)
            finally:
                if profile is not None:
                    profile.disable()
                cell.wall_s = time.perf_counter() - t0
        cell.virtual_us = out.runtime.now
        workload.check(inputs, out.answer)
        if expected_us is not None and cell.virtual_us != expected_us:
            raise CellFailed(f"virtual_us {cell.virtual_us!r} != recorded {expected_us!r}")
        if profile is not None:
            ops = workload.ops(inputs)
            cell.layers, advance = layer_metrics(profile, ops)
            cell.layers.update(counter_metrics(out.runtime, ops, counter.epochs, advance))
    except Exception as exc:  # a failed cell is reported, the run goes on
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def recorded_virtual_us(workload: str, seed: int) -> dict[str, float]:
    """``series -> virtual_us`` recorded in baseline.json for this seed
    (empty when the seed was not recorded)."""
    try:
        with open(BASELINE) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    return doc.get("virtual_us", {}).get(workload, {}).get(str(seed), {})


class Run:
    """All cells of one benchmark run, with the per-series expected
    ``virtual_us``: the recorded value, else the first cell's."""

    def __init__(self, workload, inputs, expected: dict[str, float]):
        self.workload = workload
        self.inputs = inputs
        self.expected = dict(expected)
        self.cells: list[Cell] = []

    def cell(self, series, profile: cProfile.Profile | None = None) -> Cell:
        cell = run_cell(self.workload, self.inputs, series,
                        self.expected.get(series.name), profile)
        if cell.error is None:
            self.expected.setdefault(series.name, cell.virtual_us)
        self.cells.append(cell)
        return cell

    def round(self) -> dict[str, Cell]:
        """One cell per series, in ``SERIES`` order."""
        return {s.name: self.cell(s) for s in SERIES}

    def time_cells(self, seconds: float) -> None:
        """Run cells round-robin for about ``seconds``: always one round,
        then every cell its series' last time predicts will end in time.
        The order rotates each round, so no series always runs first
        after a garbage collection or a slow neighbour."""
        deadline = time.perf_counter() + seconds
        last: dict[str, float] = {}
        for k in itertools.count():
            ran = False
            for series in SERIES[k % len(SERIES):] + SERIES[:k % len(SERIES)]:
                if k and time.perf_counter() + last[series.name] > deadline:
                    continue
                last[series.name] = self.cell(series).wall_s
                ran = True
            if not ran:
                return

    @property
    def failed(self) -> int:
        return sum(c.error is not None for c in self.cells)


def warm_up(name: str, seed: int) -> None:
    """Run every series once at toy size: lazy imports and first-call
    caches are paid before anything is timed.  A failure here is left to
    show in the timed cells."""
    toy = get_workload(name, "toy")
    inputs = toy.make_inputs(seed)
    for series in SERIES:
        run_cell(toy, inputs, series, None)


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreter -> first simulated event
# ---------------------------------------------------------------------------

class _FirstEvent(Exception):
    pass


def probe(name: str, seed: int) -> None:
    """Child side of a set-up probe: build the inputs and the first
    cell's runtime, then stop at its first simulated event and print
    the ``time.monotonic()`` reading taken there."""
    workload = get_workload(name)
    inputs = workload.make_inputs(seed)
    stamp: list[float] = []

    def first_event():
        stamp.append(time.monotonic())
        raise _FirstEvent

    try:
        workload.run(inputs, SERIES[0], lambda rt: rt.sim.schedule(0.0, first_event))
    except _FirstEvent:
        pass
    print(json.dumps({"first_event": stamp[0]}))


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first simulated
    event, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["first_event"] - t0)
    return samples


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict[str, float]:
    """Median, quartiles and sample count."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def timing_stats(run: Run, ops: int) -> dict[str, dict[str, float]]:
    """``ops_per_s.<series>`` over the passing cells of each series, and
    ``wall_s``: the sum over the series of their median cell times (its
    quartiles are the sums of theirs, its ``n`` the cells counted).  A
    failed cell's time counts nowhere; ``wall_s`` is left out when a
    series has no passing cell."""
    walls = {s.name: [c.wall_s for c in run.cells if c.series == s.name and c.error is None]
             for s in SERIES}
    stats = {f"ops_per_s.{name}": summary([ops / w for w in ws])
             for name, ws in walls.items() if ws}
    if all(walls.values()):
        per_series = [summary(ws) for ws in walls.values()]
        stats["wall_s"] = {k: sum(s[k] for s in per_series)
                           for k in ("median", "q1", "q3", "n")}
    return stats


def untraced(name: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    """Set-up probes, then cells timed for ``seconds``; end-to-end
    metrics as ``(run, stats, units)``."""
    setup = measure_setup(name, seed)
    workload = get_workload(name)
    inputs = workload.make_inputs(seed)
    warm_up(name, seed)
    run = Run(workload, inputs, recorded_virtual_us(name, seed))
    run.time_cells(seconds)
    stats = timing_stats(run, workload.ops(inputs))
    stats["setup_s"] = summary(setup)
    stats["peak_rss_mb"] = summary(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024])
    units = {k: "1/s" for k in stats} | END_TO_END
    return run, stats, units


def traced(name: str, seed: int) -> tuple[Run, dict, dict, dict]:
    """One untraced round, then one traced round; per-layer metrics."""
    workload = get_workload(name)
    inputs = workload.make_inputs(seed)
    warm_up(name, seed)
    run = Run(workload, inputs, recorded_virtual_us(name, seed))
    plain = run.round()
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    profiles = {}
    for series in SERIES:
        profiles[series.name] = profile = cProfile.Profile()
        cell = run.cell(series, profile)
        if cell.error is not None:
            continue
        metrics = dict(cell.layers)
        base = plain[series.name]
        if base.error is None:
            metrics["trace.overhead"] = cell.wall_s / base.wall_s
        for key, value in metrics.items():
            samples[f"{key}.{series.name}"] = [value]
            units[f"{key}.{series.name}"] = _layer_unit(key)
    return run, {k: summary(v) for k, v in samples.items()}, units, profiles


def _layer_unit(key: str) -> str:
    if key.endswith("self_share") or key == "trace.overhead":
        return "ratio"
    if key.endswith("bytes_per_op"):
        return "B/op"
    if key.endswith("per_sweep"):
        return "count/sweep"
    if key.endswith("per_epoch"):
        return "count/epoch"
    return "count/op"


# ---------------------------------------------------------------------------
# Metadata and output
# ---------------------------------------------------------------------------

def host_metadata() -> dict[str, object]:
    """What a wall number must be compared under: one host, one build."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev or "unknown",
    }


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    get_workload(args.workload)  # unknown names fail before any work
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    profiles = {}
    if args.trace:
        run, stats, units, profiles = traced(args.workload, args.seed)
        reported = list(stats)
    else:
        run, stats, units = untraced(args.workload, args.seed, args.seconds)
        reported = list(END_TO_END)
    meta = host_metadata() | {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for cell in run.cells:
        status = "ok" if cell.error is None else f"FAILED {cell.error}"
        print(f"cell {cell.series:<16} wall {cell.wall_s:8.3f} s  "
              f"virtual {cell.virtual_us} us  {status}")
    print(f"failed_ratio {run.failed / len(run.cells):.4f} "
          f"({run.failed} of {len(run.cells)} cells)")
    for key, s in stats.items():
        print(f"{key:<40} median {s['median']:.6g} {units[key]}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}.seed{args.seed}.trace{args.trace}")
    for series, profile in profiles.items():
        profile.dump_stats(f"{stem}.{series}.pstats")
    with open(f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, "stats": stats, "units": units,
                   "cells": [vars(c) for c in run.cells]}, fh, indent=1)

    print(json.dumps(result_line(run, stats, units, reported)))
    return 0


def result_line(run: Run, stats: dict, units: dict, reported: list[str]) -> dict:
    """The final JSON line: cell counts and the median of every reported
    metric that has one."""
    return {
        "correct": run.failed == 0,
        "attempted": len(run.cells),
        "failed": run.failed,
        "metrics": {k: {"value": stats[k]["median"], "unit": units[k]}
                    for k in reported if k in stats},
    }


if __name__ == "__main__":
    sys.exit(main())
