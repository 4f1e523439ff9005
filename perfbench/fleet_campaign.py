"""The fleet phase: a one-year fleet campaign.

``FleetCampaign(FleetCampaignConfig(arch, scale=SCALE, one-year window,
seed)).run()`` exercises the fleetscale sampler, ``Engine.schedule_batch``
and the accumulators, with no syslog, Stage II or HTTP.  It shares the
DES engine with the batch phase's ``simulate``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from .common import Outcome
from .stats import median

SCALE = 12_000
DAYS = 365.0


def config(seed: int, arch: str):
    from repro.core.periods import StudyWindow
    from repro.fleetscale import FleetCampaignConfig

    # Delta's pre-operational share of the window, as ``repro
    # fleetscale --days`` keeps it.
    ref = StudyWindow.delta_default()
    pre_frac = ref.pre_operational.duration / (ref.end - ref.start)
    window = StudyWindow.scaled(pre_days=DAYS * pre_frac, op_days=DAYS * (1.0 - pre_frac))
    return FleetCampaignConfig(arch=arch, scale=SCALE, window=window, seed=seed)


def build(seed: int, arch: str, metrics=None):
    from repro.fleetscale import FleetCampaign

    return FleetCampaign(config(seed, arch), metrics=metrics)


def check_result(campaign, result, outcome: Outcome, label: str) -> bool:
    """Heap bound and per-arch totals; counted as one operation."""
    nodes = campaign.spec.node_count
    heap = result.host["heap_high_water"]
    per_arch = sum(arch["total_events"] for arch in result.per_arch)
    ok = outcome.check(f"{label} heap_high_water <= nodes + 2", heap <= nodes + 2, f"{heap} <= {nodes} + 2")
    ok = outcome.check(f"{label} per-arch totals sum to total_events",
                       per_arch == result.total_events, f"{per_arch} == {result.total_events}") and ok
    return ok


def _input(seed: int, arch: str) -> str:
    return f"arch={arch} scale={SCALE} days={DAYS:g} seed={seed}"


class FleetPhase:
    """The untraced phase: :meth:`campaign` runs one campaign; the run
    calls it at different moments and :meth:`report` takes the median."""

    def __init__(self, seed: int, arch: str, outcome: Outcome) -> None:
        self.seed = seed
        self.arch = arch
        self.outcome = outcome
        self.walls: List[float] = []
        self.totals = set()
        self.spec = None

    def campaign(self) -> None:
        campaign = build(self.seed, self.arch)
        self.spec = campaign.spec
        gc.collect()
        t0 = time.perf_counter()
        result = campaign.run()
        self.walls.append(time.perf_counter() - t0)
        self.totals.add(result.total_events)
        self.outcome.op(check_result(campaign, result, self.outcome, f"campaign[{len(self.walls) - 1}]"))

    def report(self) -> None:
        totals = sorted(self.totals)
        self.outcome.op(self.outcome.check(
            "total_events repeats across campaigns", len(totals) == 1, str(totals)))
        self.outcome.metric("campaign_s", median(self.walls), "s")
        self.outcome.detail.update(
            fleet_input=_input(self.seed, self.arch),
            campaigns=len(self.walls),
            total_events=totals[0] if len(totals) == 1 else None,
            nodes=self.spec.node_count,
            gpus=self.spec.gpu_count,
        )


def traced(seed: int, arch: str, outcome: Outcome, rec) -> Dict[str, float]:
    """One untraced campaign (no metrics registry), then the traced one.
    Returns their seconds (for the tracing overhead)."""
    from repro.obs import MetricsRegistry

    with rec.span("untraced-campaign"):
        campaign = build(seed, arch)
        gc.collect()
        t0 = time.perf_counter()
        campaign.run()
        plain = time.perf_counter() - t0
    registry = MetricsRegistry()
    with rec.span("campaign.build"):
        campaign = build(seed, arch, metrics=registry)
    gc.collect()
    with rec.span("campaign.run") as span:
        result = campaign.run()
    outcome.op(check_result(campaign, result, outcome, "traced campaign"))
    host = result.host
    outcome.metric("fleetscale.events", result.total_events, "count")
    outcome.metric("fleetscale.events_per_s", host["events_per_second"], "1/s")
    outcome.metric("fleetscale.slices", host["slices_run"], "count")
    outcome.metric("fleetscale.heap_high_water", host["heap_high_water"], "count")
    outcome.omitted["fleetscale.subsystem_s.*"] = (
        "FleetCampaign builds its Engine without a metrics registry, so "
        "per-subsystem callback seconds are not recorded"
    )
    outcome.detail.update(fleet_input=_input(seed, arch))
    return {"traced": span.duration, "untraced": plain}
