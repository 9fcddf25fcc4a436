"""The benchmark's three workloads: seeded inputs, one cell per series, checks.

A *cell* is one workload run to completion under one engine series of
``repro.workloads.SERIES``.  Each workload turns the benchmark seed
into inputs (:meth:`make_inputs`), runs a cell through the public API
only (:meth:`run`), and checks the cell's answer against an
independent expectation (:meth:`check`).  ``ops`` is the number of
workload operations a cell completes; it is fixed by the inputs, never
by the program, so a host optimisation that schedules fewer simulator
callbacks cannot read as a slowdown.

Sizes come in two scales: ``full`` is what the benchmark times, ``toy``
is what the self-test runs.  ``semantics_check`` ("raise"/"report")
arms the RMA semantics checker on the workload's windows; the timed
cells leave it off, the self-test arms it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import MPIRuntime, NetworkModel
from repro.apps import (
    KvServiceConfig,
    Stencil2DConfig,
    reference_kvservice,
    reference_stencil2d,
    run_kvservice,
    run_stencil2d,
)
from repro.bench.scaling import HOT_DIV, ROUNDS, SCAN_COST_US
from repro.rma.checker import SEMANTICS_CHECK_INFO_KEY, SEMANTICS_MODE_INFO_KEY
from repro.rma.flags import A_A_A_R
from repro.rma.window import LOCK_SHARED

__all__ = ["CellFailed", "Outcome", "WORKLOADS", "get_workload"]

RuntimeHook = Callable[[MPIRuntime], None]


class CellFailed(Exception):
    """A cell's answer disagrees with the workload's expectation."""


@dataclass
class Outcome:
    """What one finished cell hands back for checking and counting."""

    answer: Any
    runtime: MPIRuntime


def _run_app(run_app, cfg, hook: RuntimeHook, *args):
    """Run ``run_app(cfg, *args)``, passing the runtime the app builds to
    ``hook`` right after construction; returns the app's result and that
    runtime (the apps build their runtime internally)."""
    base = type(cfg)
    built: list[MPIRuntime] = []

    class Hooked(base):  # type: ignore[misc, valid-type]
        def make_runtime(self):
            rt = base.make_runtime(self)
            built.append(rt)
            hook(rt)
            return rt

    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    return run_app(Hooked(**fields), *args), built[0]


# ---------------------------------------------------------------------------
# lock_fanin: the Fig. 12 contended shared-lock fan-in
# ---------------------------------------------------------------------------

class LockFanin:
    """Rank 0 is a pure lock server.  Every worker runs ``rounds``
    shared lock/put/unlock epochs; in round ``k`` worker ``w`` targets
    worker ``1 + (w - 1 + shift[k]) % (n - 1)`` (a seeded cyclic shift,
    so every round is a permutation of the workers), except that every
    4th worker sends one round to rank 0 instead, the hot rounds spread
    evenly over the run from a seeded offset.

    Each put writes the origin rank into a slot owned by that
    (origin, round) pair, so the final windows are checkable: worker
    slot ``k`` holds the rank that targeted it in round ``k`` and rank
    0's slot ``rounds + h`` holds hot worker ``h``.
    """

    name = "lock_fanin"
    scales = {"full": {"nranks": 512, "rounds": ROUNDS},
              "toy": {"nranks": 16, "rounds": 4}}

    def __init__(self, scale: str = "full", semantics_check: str | None = None):
        self.nranks = self.scales[scale]["nranks"]
        self.rounds = self.scales[scale]["rounds"]
        self.info = {A_A_A_R: "true"}
        if semantics_check:
            self.info |= {SEMANTICS_CHECK_INFO_KEY: 1, SEMANTICS_MODE_INFO_KEY: semantics_check}

    def make_inputs(self, seed: int) -> dict[str, Any]:
        rng = np.random.default_rng(seed)
        n, rounds = self.nranks, self.rounds
        workers = n - 1
        shifts = rng.integers(1, workers, size=rounds)
        targets = np.empty((n, rounds), dtype=np.int64)
        targets[0] = -1
        for w in range(1, n):
            targets[w] = 1 + (w - 1 + shifts) % workers
        # Slot k of the target's window is written in round k; rank 0
        # gives each hot worker a slot of its own after those.
        slots = np.tile(np.arange(rounds), (n, 1))
        # Hot visits are staggered evenly over the rounds, as in
        # ``repro.bench.scaling.contended_fan_in``, from a seeded offset.
        hot = range(1, n, HOT_DIV)
        offset = int(rng.integers(0, rounds))
        for h, w in enumerate(hot):
            k = (h + offset) % rounds
            targets[w, k] = 0
            slots[w, k] = rounds + h
        return {"targets": targets, "slots": slots, "nslots": rounds + len(hot)}

    def ops(self, inputs) -> int:
        return (self.nranks - 1) * self.rounds

    def run(self, inputs, series, hook: RuntimeHook) -> Outcome:
        targets = inputs["targets"].tolist()
        slots = inputs["slots"].tolist()
        nonblocking = series.nonblocking
        nbytes = 8 * inputs["nslots"]

        def app(proc):
            win = yield from proc.win_allocate(nbytes, info=self.info)
            me = proc.rank
            if me == 0:
                yield from proc.barrier()
                return win.view(np.int64).copy(), 0
            data = np.array([me], dtype=np.int64)
            reqs = []
            for target, slot in zip(targets[me], slots[me]):
                if nonblocking:
                    win.ilock(target, LOCK_SHARED)
                    win.put(data, target, 8 * slot)
                    reqs.append(win.iunlock(target))
                else:
                    yield from win.lock(target, LOCK_SHARED)
                    win.put(data, target, 8 * slot)
                    yield from win.unlock(target)
            if reqs:
                yield from proc.waitall(reqs)
            yield from proc.barrier()
            return win.view(np.int64).copy(), len(targets[me])

        model = NetworkModel().with_overrides(baseline_scan_cost_us=SCAN_COST_US)
        rt = MPIRuntime(self.nranks, cores_per_node=1, engine=series.engine, model=model)
        hook(rt)
        return Outcome(rt.run(app), rt)

    def check(self, inputs, answer) -> None:
        puts = sum(p for _, p in answer)
        if puts != self.ops(inputs):
            raise CellFailed(f"put total {puts} != {self.ops(inputs)}")
        expected = np.zeros((self.nranks, inputs["nslots"]), np.int64)
        for w in range(1, self.nranks):
            expected[inputs["targets"][w], inputs["slots"][w]] = w
        got = np.stack([view for view, _ in answer])
        bad = np.argwhere(got != expected)
        if bad.size:
            r, s = bad[0]
            raise CellFailed(f"{len(bad)} wrong window slots; rank {r} slot {s} "
                             f"holds {got[r, s]}, expected {expected[r, s]}")


# ---------------------------------------------------------------------------
# stencil_gats: GATS neighbour halo exchange
# ---------------------------------------------------------------------------

class StencilGats:
    """``run_stencil2d`` with a seeded initial grid."""

    name = "stencil_gats"
    scales = {"full": {"pr": 8, "pc": 8, "tile": 32, "iterations": 20},
              "toy": {"pr": 2, "pc": 2, "tile": 4, "iterations": 3}}

    def __init__(self, scale: str = "full", semantics_check: str | None = None):
        self.size = self.scales[scale]
        self.semantics_check = semantics_check

    def make_inputs(self, seed: int) -> dict[str, Any]:
        s = self.size
        rng = np.random.default_rng(seed)
        return {"initial": rng.standard_normal((s["pr"] * s["tile"], s["pc"] * s["tile"]))}

    def ops(self, inputs) -> int:
        pr, pc = self.size["pr"], self.size["pc"]
        # Every grid edge carries one put each way per iteration.
        edges = pr * (pc - 1) + pc * (pr - 1)
        return 2 * edges * self.size["iterations"]

    def run(self, inputs, series, hook: RuntimeHook) -> Outcome:
        s = self.size
        cfg = Stencil2DConfig(
            pr=s["pr"], pc=s["pc"], tile=s["tile"], iterations=s["iterations"],
            interior_work_us=8.0, cores_per_node=4, semantics_check=self.semantics_check,
            engine=series.engine, nonblocking=series.nonblocking)
        res, rt = _run_app(run_stencil2d, cfg, hook, inputs["initial"])
        return Outcome(res.grid, rt)

    def check(self, inputs, answer) -> None:
        ref = reference_stencil2d(inputs["initial"], self.size["iterations"])
        if not np.array_equal(answer, ref):
            diff = float(np.max(np.abs(answer - ref)))
            raise CellFailed(f"grid differs from reference_stencil2d (max |diff| {diff:g})")


# ---------------------------------------------------------------------------
# kv_service: sharded KV store under one lock_all epoch
# ---------------------------------------------------------------------------

class KvService:
    """``run_kvservice`` on one node, its request stream seeded by the
    benchmark seed.  Latency fields of the result are deliberately not
    read (see README.md)."""

    name = "kv_service"
    scales = {"full": {"nranks": 8, "requests_per_rank": 1500, "rebalance_every": 375},
              "toy": {"nranks": 4, "requests_per_rank": 60, "rebalance_every": 20}}

    def __init__(self, scale: str = "full", semantics_check: str | None = None):
        self.size = self.scales[scale]
        self.semantics_check = semantics_check

    def make_inputs(self, seed: int) -> dict[str, Any]:
        return {"seed": int(seed)}

    def config(self, inputs, **engine) -> KvServiceConfig:
        s = self.size
        return KvServiceConfig(
            nranks=s["nranks"], requests_per_rank=s["requests_per_rank"],
            rebalance_every=s["rebalance_every"], get_fraction=0.25,
            arrival_period_us=4.0, seed=inputs["seed"],
            cores_per_node=s["nranks"], **engine)

    def ops(self, inputs) -> int:
        return self.size["nranks"] * self.size["requests_per_rank"]

    def run(self, inputs, series, hook: RuntimeHook) -> Outcome:
        cfg = self.config(inputs, engine=series.engine, nonblocking=series.nonblocking,
                          semantics_check=self.semantics_check)
        res, rt = _run_app(run_kvservice, cfg, hook)
        return Outcome(res.tables, rt)

    def check(self, inputs, answer) -> None:
        ref = reference_kvservice(self.config(inputs))
        if answer != ref:
            bad = [r for r in range(len(ref)) if answer[r] != ref[r]]
            raise CellFailed(f"tables differ from reference_kvservice on ranks {bad}")


WORKLOADS = {w.name: w for w in (LockFanin, StencilGats, KvService)}


def get_workload(name: str, scale: str = "full", semantics_check: str | None = None):
    """Instantiate a workload by name; unknown names list the choices."""
    try:
        return WORKLOADS[name](scale, semantics_check)
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}") from None
