"""Self-test of the benchmark's own machinery, at toy sizes (seconds).

Run from the repository root::

    python3 perfbench/selftest.py

It shows, for every workload and series, that

- call counts, counters and ``virtual_us`` repeat exactly across two
  traced runs, and traced and untraced runs agree on ``virtual_us``;
- every profiled ``repro`` function maps to a layer, and the layer
  self-time shares sum to 1;
- with the RMA semantics checker armed (``raise``), every cell passes
  with the same ``virtual_us`` (the timed cells run unarmed);

and, per workload, that a wrong reference answer, a wrong recorded
``virtual_us`` and a raised ``SimulationDeadlock`` each mark cells
failed (``failed_ratio > 0``) while the run carries on, and that the
timed path turns a deadlocking series into ``failed > 0`` in the final
JSON line with no ``wall_s``.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import cProfile
import sys

import run  # sets up the import path to the checkout's ``src``
from layers import LAYERS, layer_of, profile_rows
from repro.simtime.errors import SimulationDeadlock
from repro.workloads import SERIES
from workloads import WORKLOADS, get_workload

SEED = 5


class _Tampered:
    """A workload with some of its methods replaced."""

    def __init__(self, workload, **replaced):
        self._workload = workload
        vars(self).update(replaced)

    def __getattr__(self, name):
        return getattr(self._workload, name)


def _deadlock(inputs, series, hook):
    raise SimulationDeadlock(["rank0"])


def _deadlock_in(stuck: str, workload):
    """``workload.run`` that deadlocks under series ``stuck`` only."""
    def run_(inputs, series, hook):
        if series.name == stuck:
            _deadlock(inputs, series, hook)
        return workload.run(inputs, series, hook)

    return run_


def _expect(ok: bool, what: str, detail: object = None) -> None:
    print(f"ok   {what}" if ok else f"FAIL {what}: {detail}")
    if not ok:
        sys.exit(1)


def check_workload(name: str) -> None:
    workload = get_workload(name, "toy")
    inputs = workload.make_inputs(SEED)
    run.warm_up(name, SEED)
    plain = run.Run(workload, inputs, {}).round()
    for series, untraced in zip(SERIES, plain.values()):
        cell = f"{name}/{series.name}"
        _expect(untraced.error is None, f"{cell}: untraced cell passes", untraced.error)
        traced = []
        for _ in range(2):
            profile = cProfile.Profile()
            traced.append(run.run_cell(workload, inputs, series, None, profile))
            _expect(traced[-1].error is None, f"{cell}: traced cell passes", traced[-1].error)
            unclaimed = {f"{f}:{fn}" for f, fn, _, _ in profile_rows(profile)
                         if layer_of(f) is None}
            _expect(not unclaimed, f"{cell}: every repro function maps to a layer", unclaimed)
        a, b = traced
        _expect(a.virtual_us == b.virtual_us == untraced.virtual_us,
                f"{cell}: virtual_us {a.virtual_us} repeats traced/traced/untraced")
        exact = {k: v for k, v in a.layers.items() if not k.endswith("self_share")}
        _expect(exact == {k: b.layers[k] for k in exact},
                f"{cell}: call counts and counters repeat exactly")
        share = sum(a.layers[f"{layer}.self_share"] for layer in LAYERS)
        _expect(abs(share - 1.0) < 1e-9, f"{cell}: layer self shares sum to {share:.12f}")

    armed = run.Run(get_workload(name, "toy", semantics_check="raise"), inputs,
                    {c.series: c.virtual_us for c in plain.values()})
    armed.round()
    _expect(armed.failed == 0, f"{name}: cells pass with the semantics checker armed",
            [c.error for c in armed.cells])

    other = workload.make_inputs(SEED + 1)
    wrong_reference = _Tampered(workload, check=lambda _, answer: workload.check(other, answer))
    wrong = run.Run(wrong_reference, inputs, {})
    wrong.round()
    _expect(wrong.failed == len(SERIES), f"{name}: wrong reference answer fails "
            f"{wrong.failed}/{len(wrong.cells)} cells ({wrong.cells[0].error})")

    recorded = {c.series: c.virtual_us * (1 + 1e-12) for c in plain.values()}
    off = run.Run(workload, inputs, recorded)
    off.round()
    _expect(off.failed == len(SERIES), f"{name}: wrong recorded virtual_us fails "
            f"{off.failed}/{len(off.cells)} cells ({off.cells[0].error})")

    stuck = run.Run(_Tampered(workload, run=_deadlock), inputs, {})
    stuck.round()
    _expect(stuck.failed == len(SERIES) and "SimulationDeadlock" in stuck.cells[0].error,
            f"{name}: a deadlock fails the cell and the run continues ({stuck.cells[0].error})")

    # The timed (--trace 0) path: cells, timing stats and the final line.
    bad = SERIES[2].name
    timed = run.Run(_Tampered(workload, run=_deadlock_in(bad, workload)), inputs, {})
    timed.time_cells(0.5)
    stats = run.timing_stats(timed, workload.ops(inputs))
    line = run.result_line(timed, stats, run.END_TO_END, list(run.END_TO_END))
    stuck_cells = sum(c.series == bad for c in timed.cells)
    _expect(line["failed"] == stuck_cells > 0 and not line["correct"]
            and line["attempted"] == len(timed.cells) > len(SERIES)
            and "wall_s" not in line["metrics"] and f"ops_per_s.{bad}" not in stats
            and f"ops_per_s.{SERIES[0].name}" in stats,
            f"{name}: timed run reports {line['failed']}/{line['attempted']} failed cells "
            f"and no wall_s when {bad} deadlocks", line)


def main() -> int:
    for name in WORKLOADS:
        check_workload(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
