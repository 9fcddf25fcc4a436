"""Per-layer split of one cell's host cost, from a stdlib cProfile run.

Every profiled function is attributed to a layer by its source path
(:func:`layer_of`); the per-layer self time and call counts then give
``<layer>.self_share`` and ``<layer>.calls_per_op``.  The program's own
counters (``collect_stats``, ``rt.sim.events_scheduled``,
``engine.sweep_count``, ``engine.windows_visited``) are read after the
cell, and epochs are counted by wrapping the public ``Window`` calls
that open one (:class:`EpochCounter`).
"""

from __future__ import annotations

import cProfile
import os
import pstats
from contextlib import contextmanager
from typing import Iterator

import repro
from repro.mpi.stats import collect_stats
from repro.rma.window import MODE_NOSUCCEED, Window

__all__ = ["LAYERS", "layer_of", "EpochCounter", "profile_rows", "layer_metrics",
           "counter_metrics"]

#: Layers in report order.  ``obs`` is the instrumentation the hot path
#: consults (tracer, metrics, fault and exploration hooks); ``ext`` is
#: everything outside the repository: numpy, the stdlib and builtins.
LAYERS = ("simtime", "network", "rma", "rma.engine", "mpi", "coll", "apps", "obs", "ext")

#: ``repro`` subpackage (or top-level module) -> layer.
_REPRO_LAYERS = {
    "simtime": "simtime",
    "network": "network",
    "rma": "rma",
    "mpi": "mpi",
    "coll": "coll",
    "apps": "apps",
    "workloads.py": "apps",
    "bench": "apps",
    "obs": "obs",
    "patterns": "obs",
    "faults": "obs",
    "explore": "obs",
}


_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str) -> str | None:
    """The layer of a function defined in ``filename``; ``None`` for a
    ``repro`` module that no layer claims."""
    if filename.startswith(_REPRO_DIR):
        parts = filename[len(_REPRO_DIR):].split(os.sep)
        if parts[:2] == ["rma", "engine"]:
            return "rma.engine"
        return _REPRO_LAYERS.get(parts[0])
    if filename.startswith(_BENCH_DIR):
        # The benchmark's own app generator and hooks are application code.
        return "apps"
    return "ext"


class EpochCounter:
    """Counts epochs the workload opens through the public ``Window``
    calls, while installed with :meth:`installed`."""

    _OPENERS = ("lock", "ilock", "lock_all", "ilock_all",
                "start", "istart", "post", "ipost")
    _FENCES = ("fence", "ifence")

    def __init__(self) -> None:
        self.epochs = 0

    def _wrap(self, fn, is_fence: bool):
        def counted(win, *args, **kwargs):
            assert_ = args[0] if args else kwargs.get("assert_", 0)
            if not (is_fence and assert_ & MODE_NOSUCCEED):
                self.epochs += 1
            return fn(win, *args, **kwargs)

        return counted

    @contextmanager
    def installed(self) -> Iterator["EpochCounter"]:
        originals = {name: getattr(Window, name) for name in self._OPENERS + self._FENCES}
        try:
            for name, fn in originals.items():
                setattr(Window, name, self._wrap(fn, name in self._FENCES))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(Window, name, fn)


def profile_rows(profile: cProfile.Profile):
    """``(filename, funcname, calls, self_seconds)`` per profiled function,
    leaving out the profiler's own ``disable`` call."""
    for (filename, _line, func), row in pstats.Stats(profile).stats.items():
        if "_lsprof.Profiler" not in func:
            yield filename, func, row[1], row[2]


def layer_metrics(profile: cProfile.Profile, ops: int) -> tuple[dict[str, float], int]:
    """``<layer>.self_share`` and ``<layer>.calls_per_op`` for every layer,
    plus the number of ``_advance_epoch`` calls in the engines.  Raises
    ``ValueError`` naming a ``repro`` function no layer claims."""
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    advance = 0
    for filename, func, nc, tt in profile_rows(profile):
        layer = layer_of(filename)
        if layer is None:
            raise ValueError(f"no layer claims {filename}:{func}")
        calls[layer] += nc
        self_s[layer] += tt
        if layer == "rma.engine" and func == "_advance_epoch":
            advance += nc
    total = sum(self_s.values()) or 1.0
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
    return out, advance


def counter_metrics(rt, ops: int, epochs: int, advance_calls: int) -> dict[str, float]:
    """The program's public counters for one finished cell, per op."""
    stats = collect_stats(rt)
    sweeps = sum(e.sweep_count for e in rt.engines)
    visits = sum(e.windows_visited for e in rt.engines)
    return {
        "simtime.events_per_op": rt.sim.events_scheduled / ops,
        "network.msgs_per_op": stats.messages_sent / ops,
        "network.bytes_per_op": stats.bytes_sent / ops,
        "network.fc_stalls_per_op": stats.fc_stalls / ops,
        "rma.lock_grants_per_op": stats.lock_grants / ops,
        "rma.engine.sweeps_per_op": sweeps / ops,
        "rma.engine.visits_per_sweep": visits / sweeps if sweeps else 0.0,
        "rma.engine.epoch_scans_per_epoch": advance_calls / epochs if epochs else 0.0,
    }
