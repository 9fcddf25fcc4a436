"""kvservice latency measures each request, not how the app batches
its completion checks.

Under the nonblocking drive ADD flushes are ``iflush`` requests the app
collects ``max_pending`` at a time.  Latency is the request's own
completion time (``Request.completed_at``) minus its arrival, so the
batching knob must not move it, nor the virtual elapsed time.
"""

import pytest

from repro.apps import KvServiceConfig, run_kvservice

MAX_PENDING = (1, 8, 16, 64)


def cfg(**kw):
    base = dict(nranks=4, keys_per_shard=8, requests_per_rank=96,
                rebalance_every=48, cores_per_node=4)
    base.update(kw)
    return KvServiceConfig(**base)


@pytest.mark.parametrize("engine", ["nonblocking", "signal"],
                         ids=["new-nonblocking", "signal"])
def test_latency_independent_of_max_pending(engine):
    runs = [run_kvservice(cfg(engine=engine, nonblocking=True, max_pending=mp))
            for mp in MAX_PENDING]
    assert len({r.latency_mean_us for r in runs}) == 1
    assert len({r.latency_p99_us for r in runs}) == 1
    assert len({r.elapsed_us for r in runs}) == 1
    assert runs[0].latency_mean_us > 0


def test_nonblocking_latency_matches_blocking_drive():
    """Same engine, same request stream: collecting iflush requests
    later does not make the service look slower than blocking flushes."""
    blocking = run_kvservice(cfg(engine="nonblocking"))
    nonblocking = run_kvservice(cfg(engine="nonblocking", nonblocking=True, max_pending=64))
    assert nonblocking.latency_mean_us == pytest.approx(blocking.latency_mean_us)
