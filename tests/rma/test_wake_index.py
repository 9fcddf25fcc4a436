"""The epoch wake index of the nonblocking engines.

The deferred engines advance (steps 3/7) and post (steps 2/4) only the
epochs an event woke.  That is equivalent to the historical scan of
every queued epoch only if no wakeup is ever lost: an active epoch that
is not woken must have nothing to do.  The invariant test below checks
exactly that after every sweep, over every registered workload on the
three deferred-epoch series, baseline and perturbed schedules.
"""

import numpy as np
import pytest

from repro import A_A_E_R
from repro.explore.policy import specs_for
from repro.explore.runner import VARIANTS, run_workload
from repro.rma.engine.nonblocking import NonblockingEngine
from repro.rma.engine.signal import SignalEngine
from repro.rma.epoch import EpochKind
from repro.rma.notify import SignalChannel
from repro.workloads import workload_names
from tests.conftest import make_runtime

DEFERRED_VARIANTS = tuple(v for v in VARIANTS if v.name in ("new", "new-nonblocking", "signal"))


# ---------------------------------------------------------------------------
# Side-effect-free mirrors of the engine's progress predicates
# ---------------------------------------------------------------------------

def _exposure_arrived(eng, ws, ep) -> bool:
    if isinstance(eng, SignalEngine):
        board = ws.signal_board
        return all(
            board.reached(SignalChannel.DONE, o, ep.signal_expected[o]) for o in ep.origin_group
        )
    return all(ws.done_id[o] >= ep.exposure_ids[o] for o in ep.origin_group)


def _fence_done_reached(eng, ws, ep) -> bool:
    if isinstance(eng, SignalEngine):
        return eng._fence_done_reached(ws, ep)  # pure on the signal board
    peers = set(ws.win.group.ranks) - {eng.rank}
    return ws.fence_done_from.get(ep.fence_round, set()) >= peers


def _can_advance(eng, ws, ep) -> bool:
    """Whether ``_advance_epoch`` would send or complete anything now."""
    kind = ep.kind
    if kind is EpochKind.GATS_EXPOSURE:
        return _exposure_arrived(eng, ws, ep)
    if not ep.app_closed:
        return False
    if kind is EpochKind.GATS_ACCESS:
        if len(ep.done_sent) == len(ep.targets):
            return True
        return any(
            t not in ep.done_sent
            and (ep.nocheck or eng._access_granted(ws, ep, t))
            and not ep.pending_to(t)
            for t in ep.targets
        )
    if kind in (EpochKind.LOCK, EpochKind.LOCK_ALL):
        if ep.nocheck:
            return ep.unissued_count == 0 and ep.undelivered == 0
        if len(ep.unlock_acked) == len(ep.targets):
            return True
        return any(
            t not in ep.unlock_sent and ep.lock_held.get(t, False) and not ep.pending_to(t)
            for t in ep.targets
        )
    assert kind is EpochKind.FENCE
    if ep.unissued_count or ep.undelivered:
        return False
    return not ep.fence_done_sent or _fence_done_reached(eng, ws, ep)


def _lost_wakeups(eng, ws) -> list[str]:
    """Progress work the wake index does not know about."""
    lost = []
    for ep in ws.epochs:
        if not ep.active:
            continue
        if not ep.woken and _can_advance(eng, ws, ep):
            lost.append(f"{ep!r}: can advance")
        for intranode, woken in ((False, ep.inter_woken), (True, ep.intra_woken)):
            if woken:
                continue
            for t in ep.unissued_targets():
                same_node = eng._node_lo <= t < eng._node_hi
                if same_node == intranode and eng._target_ready(ws, ep, t):
                    lost.append(f"{ep!r}: unissued ops to ready target {t}")
    if not ws.activation_due and eng._activation_gate:
        active = []
        for ep in ws.epochs:
            if ep.active:
                active.append(ep)
            elif not ep.completed:
                if all(eng._reorder_allows(ws, ep, prev) for prev in active):
                    lost.append(f"{ep!r}: can activate")
                break
    return lost


@pytest.fixture
def checked_sweeps(monkeypatch):
    """Assert the no-lost-wakeup invariant after every sweep of every
    deferred-epoch engine; returns the running tally of checks."""
    tally = {"sweeps": 0, "epochs": 0}
    sweep = NonblockingEngine._sweep

    def checked(self):
        sweep(self)
        tally["sweeps"] += 1
        for ws in self.states.values():
            tally["epochs"] += sum(1 for ep in ws.epochs if ep.active)
            lost = _lost_wakeups(self, ws)
            assert not lost, f"rank {self.rank} win {ws.gid} at {self.sim.now}: {lost}"

    monkeypatch.setattr(NonblockingEngine, "_sweep", checked)
    return tally


class TestNoLostWakeup:
    @pytest.mark.parametrize("variant", DEFERRED_VARIANTS, ids=lambda v: v.name)
    @pytest.mark.parametrize("workload", workload_names())
    def test_every_workload(self, checked_sweeps, workload, variant):
        run_workload(workload, variant, None)
        assert checked_sweeps["sweeps"] > 0
        assert checked_sweeps["epochs"] > 0

    @pytest.mark.parametrize("spec", specs_for(3), ids=lambda s: f"seed{s.seed:x}")
    @pytest.mark.parametrize("variant", DEFERRED_VARIANTS, ids=lambda v: v.name)
    def test_perturbed_schedules(self, checked_sweeps, variant, spec):
        for workload in ("transactions", "stencil2d", "kvservice", "ordering"):
            run_workload(workload, variant, spec)
        assert checked_sweeps["sweeps"] > 0

    def test_indices_drain(self):
        """Every matching-index entry leaves once its wait is over: a
        finished job leaves no grant, done or lock waiters behind."""
        for variant in DEFERRED_VARIANTS:
            rt = make_runtime(4, variant.engine, cores_per_node=2)
            rt.run(_gats_ring(3, variant.nonblocking))
            for eng in rt.engines:
                for ws in eng.states.values():
                    assert not ws.grant_waiters
                    assert not ws.done_waiters
                    assert not ws.lock_epochs


class TestActivationFastPath:
    def test_no_scan_without_deferred_tail(self):
        from repro.rma.epoch import Epoch, EpochState
        from tests.rma.test_checker import make_group

        _rt, wins = make_group(2)
        ws, eng = wins[0]._state, wins[0].engine
        done = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        done.state = EpochState.COMPLETED
        deferred = Epoch(EpochKind.GATS_ACCESS, ws.gid, 0, targets=(1,))
        ws.epochs.extend([deferred, done])
        # Tail not deferred: the scan is skipped even though an (out of
        # order) deferred epoch sits in front of it.
        assert eng._try_activate(ws) == 0
        assert deferred.deferred


# ---------------------------------------------------------------------------
# ω matching metrics count matching, not scanning
# ---------------------------------------------------------------------------

NRANKS = 4
OFFSETS = (1, 2)


def _gats_ring(iters: int, nonblocking: bool):
    """Each rank accesses its two successors and exposes to its two
    predecessors, ``iters`` times; one put per (epoch, target) pair."""

    def app(proc):
        win = yield from proc.win_allocate(8 * NRANKS * iters, info={A_A_E_R: 1})
        yield from proc.barrier()
        targets = [(proc.rank + k) % NRANKS for k in OFFSETS]
        origins = [(proc.rank - k) % NRANKS for k in OFFSETS]
        reqs = []
        for it in range(iters):
            slot = 8 * (it * NRANKS + proc.rank)
            if nonblocking:
                win.ipost(origins)
                win.istart(targets)
            else:
                yield from win.post(origins)
                yield from win.start(targets)
            for t in targets:
                win.put(np.int64([1000 * it + proc.rank]), t, slot)
            if nonblocking:
                reqs += [win.icomplete(), win.iwait()]
            else:
                yield from win.complete()
                yield from win.wait_epoch()
        yield from proc.waitall(reqs)
        yield from proc.barrier()
        return win.view(np.int64).copy()

    return app


@pytest.mark.parametrize("series", ["new", "new-nonblocking"])
def test_omega_matches_count_pairs_once(series):
    nonblocking = series == "new-nonblocking"
    iters = 3
    rt = make_runtime(NRANKS, "nonblocking", cores_per_node=2, metrics=True)
    res = rt.run(_gats_ring(iters, nonblocking))
    for rank, view in enumerate(res):
        for it in range(iters):
            for k in OFFSETS:
                origin = (rank - k) % NRANKS
                assert view[it * NRANKS + origin] == 1000 * it + origin
    pairs = iters * NRANKS * len(OFFSETS)
    m = rt.metrics
    assert m.value("omega.matches") == pairs
    assert m.value("omega.wait_for_grant") <= pairs
