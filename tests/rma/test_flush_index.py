"""The per-window in-flight op index behind every flush (§VII-C).

A flush counts the epoch's pending ops once, when it is called.  The
engines build that pending set from ``WindowState.in_flight`` (ops
recorded but not yet remotely complete) instead of rescanning every op
the epoch ever recorded.  The tests below check that the two give the
same set in the same order at every flush call, that the index drains,
and that a flush on a long-lived epoch no longer touches its history.
"""

import numpy as np
import pytest

from repro import A_A_A_R, LOCK_SHARED
from repro.explore.runner import VARIANTS, run_workload
from repro.rma.checker import SEMANTICS_CHECK_INFO_KEY, SEMANTICS_MODE_INFO_KEY
from repro.rma.engine.base import RmaEngineBase
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.rma.state import WindowState
from repro.rma.window import Window
from repro.workloads import workload_names
from tests.conftest import make_runtime


def _scan(ep, target, local, stamp=None):
    """The brute-force pending set: every recorded op of ``ep`` the
    flush still waits for, in call order."""
    return [
        op
        for op in ep.ops
        if (stamp is None or op.age <= stamp)
        and (target is None or op.target == target)
        and not (op.local_done if local else op.delivered)
    ]


@pytest.fixture
def checked_flushes(monkeypatch):
    """Compare every flush's pending set with the brute-force scan;
    returns the running tally of checked flushes."""
    tally = {"blocking": 0, "request": 0}
    blocking_flush = RmaEngineBase.blocking_flush
    make_flush = NonblockingEngine.make_flush

    def checked_blocking(self, win, ep, target, local):
        ws = self.state_of(win)
        # Run the engine's entry hook first (MVAPICH forces the lazy
        # lock here), so the scan sees the state the flush sees.
        self._flush_activate(ws, ep)
        expected = _scan(ep, target, local)
        queued = len(self._blocking_flushes)
        req = blocking_flush(self, win, ep, target, local)
        if expected:
            _ws, _req, ops, _local = self._blocking_flushes[queued]
            assert ops == expected
        else:
            assert req.done and len(self._blocking_flushes) == queued
        tally["blocking"] += 1
        return req

    def checked_request(self, win, ep, target, local):
        ws = self.state_of(win)
        expected = _scan(ep, target, local, ws.age_counter)
        req = make_flush(self, win, ep, target, local)
        assert req.counter == len(expected)
        assert req.done == (not expected)
        tally["request"] += 1
        return req

    monkeypatch.setattr(RmaEngineBase, "blocking_flush", checked_blocking)
    monkeypatch.setattr(NonblockingEngine, "make_flush", checked_request)
    return tally


@pytest.fixture
def window_states(monkeypatch):
    """Every ``WindowState`` created while the fixture is active."""
    created = []
    init = WindowState.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(WindowState, "__init__", recording)
    return created


# ---------------------------------------------------------------------------
# A flush-heavy app: every flush flavour, two live epochs per window
# ---------------------------------------------------------------------------

NRANKS = 4


#: Checker armed; A_A_A_R lets the second lock epoch activate while the
#: first is live (the deferred engines would otherwise hold it back).
INFO = {SEMANTICS_CHECK_INFO_KEY: 1, SEMANTICS_MODE_INFO_KEY: "raise", A_A_A_R: 1}


def _flush_mix(nonblocking: bool, rounds: int = 3):
    """Each rank holds lock epochs on its two successors at once and
    mixes puts, accumulates and gets with every flush flavour, so each
    flush has ops of another epoch, other targets, and already-complete
    history in the window to skip."""

    def app(proc):
        win = yield from proc.win_allocate(32 * NRANKS * rounds, info=INFO)
        yield from proc.barrier()
        near, far = (proc.rank + 1) % NRANKS, (proc.rank + 2) % NRANKS
        buf = np.zeros(1, dtype=np.int64)
        for it in range(rounds):
            # Four int64 slots per (round, origin): no two ops race.
            slot = 32 * (it * NRANKS + proc.rank)
            # Shared: exclusive locks on two successors would form a
            # cycle around the ring once the lazy engines acquire them.
            yield from win.lock(near, LOCK_SHARED)
            yield from win.lock(far, LOCK_SHARED)
            win.put(np.int64([it]), near, slot)
            win.accumulate(np.int64([1]), far, slot)
            win.get(buf, near, slot + 8)
            yield from win.flush_local(near)
            win.put(np.int64([it + 10]), near, slot + 16)
            yield from win.flush(far)
            if nonblocking:
                reqs = [win.iflush(near), win.iflush_local(far)]
                win.accumulate(np.int64([2]), far, slot)
                reqs.append(win.iflush(far))
                yield from proc.waitall(reqs)
            yield from win.unlock(far)
            yield from win.unlock(near)
        yield from win.lock_all()
        for it in range(rounds):
            for t in range(NRANKS):
                win.accumulate(np.int64([1]), t, 32 * (it * NRANKS + proc.rank) + 24)
            if nonblocking:
                yield from proc.waitall([win.iflush_all(), win.iflush_local_all()])
            yield from win.flush_local_all()
            yield from win.flush_all()
        yield from win.unlock_all()
        yield from proc.barrier()
        view = win.view(np.int64).copy()
        yield from proc.win_free(win)
        return view

    return app


class TestPendingSetMatchesScan:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    @pytest.mark.parametrize("workload", workload_names())
    def test_every_workload(self, checked_flushes, window_states, workload, variant):
        run_workload(workload, variant, None, semantics_check="raise")
        assert window_states
        assert not any(ws.in_flight for ws in window_states)
        if workload == "kvservice":
            assert checked_flushes["blocking"] > 0
            if variant.nonblocking:
                assert checked_flushes["request"] > 0

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_flush_mix(self, checked_flushes, window_states, variant):
        rt = make_runtime(NRANKS, variant.engine, cores_per_node=2)
        rt.run(_flush_mix(variant.nonblocking))
        assert checked_flushes["blocking"] == NRANKS * (3 * 2 + 3 * 2)
        if variant.nonblocking:
            assert checked_flushes["request"] == NRANKS * (3 * 3 + 3 * 2)
        assert window_states and not any(ws.in_flight for ws in window_states)


class TestIndexDrains:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_empty_at_win_free(self, monkeypatch, variant):
        """Every window is freed with nothing left in its index."""
        at_free = []
        free_check = Window.free_check

        def recording(self):
            at_free.append(dict(self._state.in_flight))
            free_check(self)

        monkeypatch.setattr(Window, "free_check", recording)
        rt = make_runtime(NRANKS, variant.engine, cores_per_node=2)
        rt.run(_flush_mix(variant.nonblocking, rounds=2))
        assert at_free == [{}] * NRANKS

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
    def test_rendezvous_accumulate_leaves_no_routing_entry(self, variant):
        """The index also routes responses and rendezvous clears.  A
        plain accumulate above the rendezvous threshold gets a clear
        but no response; its entry still goes at delivery, so the
        armed checker sees no leak at ``MPI_WIN_FREE``."""
        count = 2048  # 16 KiB: above the 8 KiB rendezvous threshold

        def app(proc):
            win = yield from proc.win_allocate(8 * count, info=INFO)
            yield from proc.barrier()
            if proc.rank == 0:
                yield from win.lock(1)
                win.accumulate(np.ones(count, dtype=np.int64), 1, 0)
                yield from win.unlock(1)
            yield from proc.barrier()
            total = int(win.view(np.int64).sum())
            yield from proc.win_free(win)
            return total

        rt = make_runtime(2, variant.engine)
        assert rt.run(app) == [0, count]


# ---------------------------------------------------------------------------
# History independence
# ---------------------------------------------------------------------------

HISTORY = 2000
LIVE = 3


class _NoScan(list):
    """An epoch op list that records appends but refuses iteration."""

    def __iter__(self):
        raise AssertionError("flush scanned the epoch's op history")


def _long_epoch(nonblocking: bool, seen: dict):
    """Rank 0 completes ``HISTORY`` puts on one ``lock_all`` epoch, then
    flushes ``LIVE`` fresh ones with the history made unscannable."""

    def app(proc):
        win = yield from proc.win_allocate(8 * (HISTORY + LIVE))
        yield from proc.barrier()
        if proc.rank == 0:
            yield from win.lock_all()
            for i in range(HISTORY):
                win.put(np.int64([i]), 1, 8 * i)
            yield from win.flush_all()
            ws, ep = win._state, win._passive_epoch_for(None)
            seen["history"] = len(ep.ops)
            ep.ops = _NoScan(ep.ops)
            for i in range(HISTORY, HISTORY + LIVE):
                win.put(np.int64([i]), 1, 8 * i)
            seen["in_flight"] = len(ws.in_flight)
            if nonblocking:
                req = win.iflush(1)
                seen["counter"] = req.counter
                yield from req.wait()
            else:
                yield from win.flush(1)
            ep.ops = list(list.__iter__(ep.ops))
            seen["drained"] = len(ws.in_flight)
            yield from win.unlock_all()
        yield from proc.barrier()
        return win.view(np.int64).copy()

    return app


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_flush_cost_is_independent_of_history(variant):
    seen: dict = {}
    rt = make_runtime(2, variant.engine)
    res = rt.run(_long_epoch(variant.nonblocking, seen))
    assert seen["history"] == HISTORY
    assert seen["in_flight"] == LIVE
    if variant.nonblocking:
        assert seen["counter"] == LIVE
    assert seen["drained"] == 0
    assert list(res[1]) == list(range(HISTORY + LIVE))
