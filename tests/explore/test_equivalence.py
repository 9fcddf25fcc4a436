"""Cross-engine differential equivalence (the tentpole's oracle).

Every workload — all five real apps plus the ordering microworkload —
must produce an identical strict outcome digest on every engine variant
(the paper's test matrix plus each other registered engine), under the
baseline schedule and
under explored schedules; and each variant's engine-only digest must be
schedule-independent.  This is satellite-free territory: any failure
here is an engine bug (or an oracle bug), never flakiness — everything
is replayable from the seeds in the failure report.
"""

from __future__ import annotations

import pytest

from repro.explore import VARIANTS, WORKLOADS, explore, run_workload, specs_for
from repro.rma.engine.registry import ENGINES, engine_factory
from repro.workloads import SERIES

_SCHEDULES = 3
_BASE_SEED = 0x5EED


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_equivalent_across_engines_and_schedules(workload):
    report = explore(workloads=[workload], nschedules=_SCHEDULES,
                     base_seed=_BASE_SEED)
    assert report.ok, "\n".join(
        f"[{m['kind']}] {m['workload']}/{m['variant']} seeds={m['seeds']}: "
        + "; ".join(m["paths"][:5])
        for m in report.mismatches
    )
    # 3 variants x (baseline + N schedules)
    assert len(report.runs) == len(VARIANTS) * (1 + _SCHEDULES)


@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_strict_digest_schedule_independent_per_variant(variant):
    """Spot-check the raw mechanism the sweep rests on: one workload,
    one variant, several schedules, identical strict digests."""
    baseline = run_workload("factdb", variant, None)
    for spec in specs_for(2, base_seed=0xFACE):
        run = run_workload("factdb", variant, spec)
        assert run.digest.strict_sha == baseline.digest.strict_sha


def test_every_registered_engine_is_a_variant():
    """No registered engine sits outside the oracle: each runs blocking,
    and nonblocking too wherever it has the i* API.  The bench series
    keep their places at the front."""
    assert [v.name for v in VARIANTS[:len(SERIES)]] == [s.name for s in SERIES]
    assert {v.engine for v in VARIANTS} == set(ENGINES)
    for engine in ENGINES:
        drives = {v.nonblocking for v in VARIANTS if v.engine == engine}
        assert drives, engine
        assert (True in drives) == engine_factory(engine).supports_nonblocking
    assert len({v.name for v in VARIANTS}) == len(VARIANTS)
