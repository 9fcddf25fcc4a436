"""Workload registry, engine-variant matrix, and the differential sweep.

The oracle's design is the paper's test matrix grown to every
registered engine: each workload runs on the four bench series —
**MVAPICH** (baseline engine, blocking calls), **New** (redesigned
engine, blocking calls), **New nonblocking** (redesigned engine, i*
calls) and **Signal** (counter-signal engine, i* calls) — plus every
other engine in :data:`repro.rma.engine.registry.ENGINES` (today
**adaptive**, blocking calls: it has no i* API), under identical
explored schedules, and their
:class:`~repro.explore.digest.OutcomeDigest`\\ s are compared:

- the ``strict`` digest part must agree across *everything* (engines ×
  schedules): the application answer, final window bytes, checker
  verdict and ω-invariant audit are schedule- and engine-independent
  facts about a correct stack;
- the ``engine_only`` part must agree across *schedules within one
  variant*: notification traffic differs legitimately between the
  engine designs but may never depend on the schedule.

Workloads are deliberately small instances of the real apps — big
enough to produce cross-rank traffic on every synchronization style
(fence, GATS, exclusive/shared locks, persistent collectives), small
enough that a 5-variant × N-schedule sweep stays in CI-smoke territory.
The workload factories themselves live in the :mod:`repro.workloads`
registry (the single source of workload names); this module owns the
sweep and the digest comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..rma.engine.registry import ENGINES, engine_factory
from ..workloads import SERIES, get_workload, workload_names
from .context import ExplorationContext
from .digest import OutcomeDigest, build_digest, diff_digests
from .policy import PerturbationSpec, specs_for

__all__ = [
    "EngineVariant",
    "VARIANTS",
    "WORKLOADS",
    "RunOutcome",
    "ExploreReport",
    "run_workload",
    "explore",
]


@dataclass(frozen=True)
class EngineVariant:
    """One column of the paper's test matrix."""

    name: str
    engine: str
    nonblocking: bool


def _variants() -> tuple[EngineVariant, ...]:
    """The bench series (the paper's three plus the counter-signal
    engine, in their order), then every other registered engine driven
    blocking and, where the engine has the nonblocking API, nonblocking
    too — so no registered engine sits outside the oracle."""
    variants = [EngineVariant(s.name, s.engine, s.nonblocking) for s in SERIES]
    covered = {s.engine for s in SERIES}
    for engine in ENGINES:
        if engine in covered:
            continue
        variants.append(EngineVariant(engine, engine, False))
        if engine_factory(engine).supports_nonblocking:
            variants.append(EngineVariant(f"{engine}-nonblocking", engine, True))
    return tuple(variants)


#: One variant per bench series, then the remaining registered engines.
VARIANTS: tuple[EngineVariant, ...] = _variants()


def _oracle_adapter(name: str) -> Callable[[EngineVariant, ExplorationContext], dict]:
    oracle = get_workload(name).oracle

    def run(variant: EngineVariant, exploration: ExplorationContext) -> dict:
        return oracle(variant.engine, variant.nonblocking, exploration)

    run.__name__ = f"_run_{name}"
    return run


#: Workload name -> runner(variant, exploration) -> schedule-free result
#: summary, resolved through :data:`repro.workloads.WORKLOADS`.  Each
#: runner threads the exploration context through its app config and
#: extracts only schedule-independent fields (never elapsed_us /
#: fc_stalls / comm_us / latencies).
WORKLOADS: dict[str, Callable[[EngineVariant, ExplorationContext], dict]] = {
    name: _oracle_adapter(name) for name in workload_names()
}


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunOutcome:
    """One (workload, variant, schedule) run and its digest."""

    workload: str
    variant: str
    spec: PerturbationSpec | None
    digest: OutcomeDigest
    #: Perturbation ids the policy actually applied (shrinker input).
    applied: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "spec": self.spec.to_json() if self.spec is not None else None,
            "strict_sha": self.digest.strict_sha,
            "engine_sha": self.digest.engine_sha,
            "applied": list(self.applied),
        }


def run_workload(
    workload: str,
    variant: EngineVariant,
    spec: PerturbationSpec | None,
    semantics_check: str | None = "report",
) -> RunOutcome:
    """Execute one workload once under one explored schedule.

    ``spec=None`` runs the unperturbed baseline schedule (still fully
    digest-instrumented).  Deterministic: the same arguments always
    return a byte-identical digest — that is the replay guarantee the
    CLI's ``replay`` subcommand and the shrinker both rest on.
    """
    try:
        runner = WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose from "
            f"{', '.join(workload_names())}"
        ) from None
    context = ExplorationContext.from_spec(spec, semantics_check=semantics_check)
    result = runner(variant, context)
    digest = build_digest(context, result)
    applied = tuple(context.policy.applied) if context.policy is not None else ()
    return RunOutcome(workload, variant.name, spec, digest, applied)


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

@dataclass
class ExploreReport:
    """Everything one differential sweep produced."""

    runs: list[RunOutcome]
    #: Detected disagreements (empty = the stack passed this sweep).
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "runs": [r.to_json() for r in self.runs],
            "mismatches": self.mismatches,
        }

    def failing_specs(self) -> list[tuple[str, str, PerturbationSpec | None]]:
        """(workload, variant, spec) triples involved in mismatches."""
        out = []
        seen = set()
        for m in self.mismatches:
            for run in self.runs:
                if run.workload != m["workload"]:
                    continue
                if m.get("variant") is not None and run.variant != m["variant"]:
                    continue
                seed = run.spec.seed if run.spec is not None else None
                key = (run.workload, run.variant, seed)
                if key not in seen and seed in m.get("seeds", [seed]):
                    seen.add(key)
                    out.append((run.workload, run.variant, run.spec))
        return out


def _spec_seed(spec: PerturbationSpec | None):
    return spec.seed if spec is not None else None


def explore(
    workloads: list[str] | None = None,
    nschedules: int = 4,
    base_seed: int = 0x5EED,
    max_extra_us: float = 0.5,
    variants: tuple[EngineVariant, ...] = VARIANTS,
    specs: list[PerturbationSpec] | None = None,
    semantics_check: str | None = "report",
) -> ExploreReport:
    """Run the differential sweep: every workload × every variant ×
    (baseline + ``nschedules`` explored schedules), then cross-check the
    digests (strict across everything; engine-only across schedules
    within a variant)."""
    names = list(workloads) if workloads else sorted(WORKLOADS)
    if specs is None:
        specs = specs_for(nschedules, base_seed=base_seed, max_extra_us=max_extra_us)
    all_specs: list[PerturbationSpec | None] = [None, *specs]
    runs: list[RunOutcome] = []
    mismatches: list[dict] = []

    for name in names:
        matrix: dict[tuple[str, int | None], RunOutcome] = {}
        for variant in variants:
            for spec in all_specs:
                run = run_workload(name, variant, spec, semantics_check=semantics_check)
                matrix[(variant.name, _spec_seed(spec))] = run
                runs.append(run)

        # Strict oracle: every run of this workload must agree with the
        # baseline run of the first variant.
        ref = matrix[(variants[0].name, None)]
        for (vname, seed), run in matrix.items():
            if run.digest.strict_sha != ref.digest.strict_sha:
                mismatches.append({
                    "kind": "strict",
                    "workload": name,
                    "variant": vname,
                    "seeds": [seed],
                    "against": {"variant": ref.variant, "seed": None},
                    "paths": diff_digests(ref.digest.strict, run.digest.strict)[:20],
                })

        # Engine-only oracle: within one variant, every schedule must
        # reproduce the variant's baseline notification/ω behavior.
        for variant in variants:
            vref = matrix[(variant.name, None)]
            for spec in specs:
                run = matrix[(variant.name, spec.seed)]
                if run.digest.engine_sha != vref.digest.engine_sha:
                    mismatches.append({
                        "kind": "engine_only",
                        "workload": name,
                        "variant": variant.name,
                        "seeds": [spec.seed],
                        "against": {"variant": variant.name, "seed": None},
                        "paths": diff_digests(
                            vref.digest.engine_only, run.digest.engine_only
                        )[:20],
                    })

    return ExploreReport(runs=runs, mismatches=mismatches)
