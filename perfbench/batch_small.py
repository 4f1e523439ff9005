"""The batch phase: the paper chain as a user runs it.

``simulate`` → (``dirty`` workloads: ``ChaosConfig.calibrated(seed)``
corrupts the corpus) → rounds of ``pipeline`` cold, ``pipeline`` warm
(repeated) and ``report``, driven through ``repro.cli.main`` in-process
on a small preset.  Stage I and the batch Stage-II scan do this phase's
work.  The simulated directory is the corpus the live phase follows.
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

from .common import Outcome, call_cli, run_child, tree_digest
from .spans import adopt, self_time_by_name, self_times
from .stats import median

JOB_SCALE = "0.01"
#: Each round removes the scan cache, then runs one cold pipeline,
#: :data:`WARM_PER_ROUND` warm ones and one report.
WARM_PER_ROUND = 2
DIGEST_PARTS = ("syslog", "sacct.csv", "truth.csv")
_COMMANDS = ("simulate", "cold", "warm", "report")


def _simulate_argv(out: Path, seed: int) -> List[str]:
    return ["simulate", str(out), "--preset", "small", "--seed", str(seed),
            "--job-scale", JOB_SCALE]


def input_label(seed: int, dirty: bool) -> str:
    label = f"--preset small --seed {seed} --job-scale {JOB_SCALE}"
    return label + (f", ChaosConfig.calibrated({seed})" if dirty else "")


def corrupt(out: Path, seed: int) -> Dict[str, int]:
    """Corrupt the simulated corpus in place (seeded); returns what the
    chaos pass did."""
    from repro.syslog.chaos import ChaosConfig, corrupt_artifacts

    return corrupt_artifacts(out, ChaosConfig.calibrated(seed=seed)).as_dict()


def _strip_cache_line(text: str) -> str:
    """Pipeline stdout without the scan-cache line (the only line a warm
    pass may change)."""
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("scan cache:")
    )


def _round(out: Path, outcome: Outcome, reference: Dict[str, str],
           times: Dict[str, List[float]]) -> None:
    """Cold pipeline (scan cache removed first), warm passes, report."""
    from repro.pipeline.scancache import SCAN_CACHE_DIRNAME

    shutil.rmtree(out / SCAN_CACHE_DIRNAME, ignore_errors=True)
    code, cold_text, wall = call_cli(["pipeline", str(out), "--workers", "1"])
    cold = _strip_cache_line(cold_text)
    ok = code == 0 and reference.setdefault("pipeline", cold) == cold
    outcome.op(outcome.check("pipeline cold repeats", ok))
    times["cold"].append(wall)

    for _ in range(WARM_PER_ROUND):
        code, warm_text, wall = call_cli(["pipeline", str(out), "--workers", "1"])
        ok = (
            code == 0
            and _strip_cache_line(warm_text) == cold
            and "scan cache:" in warm_text
            and " 0 misses" in warm_text
        )
        outcome.op(outcome.check("pipeline warm == cold", ok))
        times["warm"].append(wall)

    code, report_text, wall = call_cli(["report", str(out)])
    ok = (
        code == 0
        and "==== Table I ====" in report_text
        and reference.setdefault("report", report_text) == report_text
    )
    outcome.op(outcome.check("report repeats", ok))
    times["report"].append(wall)


def _count_lines(syslog: Path) -> int:
    total = 0
    for path in syslog.iterdir():
        with open(path, "rb") as handle:
            total += sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
    return total


class BatchPhase:
    """The untraced phase, in steps the run spreads over its length so
    that each median pools samples from different moments of the host's
    speed: :meth:`simulate`, then :meth:`round` and
    :meth:`simulate_again` as the run calls them."""

    def __init__(self, work: Path, seed: int, dirty: bool, outcome: Outcome) -> None:
        self.root = work / "corpus"
        self.seed = seed
        self.dirty = dirty
        self.outcome = outcome
        self.times: Dict[str, List[float]] = {key: [] for key in _COMMANDS}
        self.reference: Dict[str, str] = {}

    def simulate(self) -> bool:
        """Simulate the corpus (and corrupt it on ``dirty`` workloads);
        False when ``simulate`` failed."""
        digest = self._simulate(self.root)
        if digest is None:
            return False
        self.outcome.detail.update(
            artifact_digest=digest,
            log_lines=_count_lines(self.root / "syslog"),
        )
        if self.dirty:
            self.outcome.detail["chaos"] = corrupt(self.root, self.seed)
        return True

    def simulate_again(self) -> None:
        """A second ``simulate`` into a fresh directory; its artifacts
        must have the first one's digest."""
        out = self.root.with_name("repeat")
        digest = self._simulate(out)
        shutil.rmtree(out, ignore_errors=True)
        first = self.outcome.detail.get("artifact_digest")
        self.outcome.check("simulate digest repeats", digest == first, f"{digest} == {first}")

    def _simulate(self, out: Path):
        """Run and time ``simulate``; returns the artifact digest, or
        None when it failed."""
        code, _text, wall = call_cli(_simulate_argv(out, self.seed))
        self.times["simulate"].append(wall)
        if not self.outcome.op(self.outcome.check(f"simulate {out.name} exits 0", code == 0, f"exit {code}")):
            return None
        return tree_digest(out, DIGEST_PARTS)

    def round(self) -> None:
        _round(self.root, self.outcome, self.reference, self.times)

    def report(self) -> None:
        for key, metric in (("simulate", "simulate_s"), ("cold", "pipeline_cold_s"),
                            ("warm", "pipeline_warm_s"), ("report", "report_s")):
            if self.times[key]:
                self.outcome.metric(metric, median(self.times[key]), "s")
        self.outcome.detail.update(
            batch_samples={key: len(values) for key, values in self.times.items()},
            input=input_label(self.seed, self.dirty),
        )


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

_SIM_STAGES = {
    "build": "study.build_s",
    "arm": "study.arm_s",
    "workload": "workload.generate_s",
    "engine-run": "sim.engine_run_s",
    "noise": "syslog.noise_s",
    "write-artifacts": "syslog.write_s",
}
#: Engine subsystems whose callback seconds every traced run reports.
SUBSYSTEMS = ("detect", "episode", "jobend", "kill", "onset", "propagate", "repair",
              "repeat", "sample", "submit")
_PIPELINE_STAGES = ("discover", "extract", "coalesce", "downtime", "recovery", "load-jobs")


def _samples(registry, name: str):
    return [s for s in registry.samples() if s.name == name]


def _plain_calls(out: Path, seed: int, dirty: bool) -> Dict[str, float]:
    """The traced pass's library calls with no ``Telemetry`` and no
    spans: the baseline for the tracing overhead."""
    from repro import DeltaStudy, StudyConfig
    from repro.pipeline import run_pipeline

    times: Dict[str, float] = {}
    config = StudyConfig.small(seed=seed, include_episode=True, job_scale=float(JOB_SCALE))
    for key, call in (
        ("simulate", lambda: DeltaStudy(config).run(out)),
        ("cold", lambda: run_pipeline(out, workers=1, scan_cache=True)),
        ("warm", lambda: run_pipeline(out, workers=1, scan_cache=True)),
        ("report", lambda: _report_calls(out, lambda _name: nullcontext())),
    ):
        gc.collect()
        start = time.perf_counter()
        call()
        times[key] = time.perf_counter() - start
        if key == "simulate":
            times["digest"] = tree_digest(out, DIGEST_PARTS)
            if dirty:
                corrupt(out, seed)
    return times


def _traced_simulate(rec, out: Path, seed: int, outcome: Outcome) -> float:
    from repro import DeltaStudy, StudyConfig
    from repro.obs import Telemetry

    tel = Telemetry.create(seed=seed)
    gc.collect()
    config = StudyConfig.small(seed=seed, include_episode=True, job_scale=float(JOB_SCALE))
    with rec.span("simulate") as span:
        artifacts = DeltaStudy(config).run(out, telemetry=tel)
    walls = adopt(rec, tel.tracer.finished, span.span_id)
    for stage, metric in _SIM_STAGES.items():
        outcome.metric(metric, walls[stage], "s")
    root = next(s for s in rec.spans if s.name == "simulate" and s.parent == span.span_id)
    outcome.metric("sim.self_s", self_times(rec.spans)[root.span_id], "s")
    m = tel.metrics
    executed = sum(s.value for s in _samples(m, "sim_events_executed_total"))
    fired = m.value("sim_tombstones_fired_total")
    outcome.metric("sim.events_executed", executed, "count")
    outcome.metric("sim.events_per_s", executed / walls["engine-run"], "1/s")
    outcome.metric("sim.events_cancelled", m.value("sim_events_cancelled_total"), "count")
    outcome.metric("sim.tombstones_fired", fired, "count")
    outcome.metric("sim.useful_ratio", executed / (executed + fired), "ratio")
    callback = {s.labels["subsystem"]: s.value for s in _samples(m, "sim_callback_seconds_total")}
    for name in sorted(set(callback) | set(SUBSYSTEMS)):
        # A subsystem that never ran spent no callback time.
        outcome.metric(f"sim.subsystem_s.{name}", callback.get(name, 0.0), "s")
    written = sum(p.stat().st_size for p in (out / "syslog").iterdir())
    outcome.metric("syslog.lines_written", artifacts.raw_log_lines, "count")
    outcome.metric("syslog.bytes_written", written, "B")
    outcome.metric("syslog.lines_per_s", artifacts.raw_log_lines / walls["write-artifacts"], "lines/s")
    return span.duration


def _traced_pipeline(rec, out: Path, phase: str, outcome: Outcome, **kwargs):
    from repro.obs import Telemetry
    from repro.pipeline import run_pipeline

    origin = time.perf_counter()
    tel = Telemetry.create(clock=lambda: time.perf_counter() - origin)
    gc.collect()
    with rec.span(f"pipeline.{phase}") as span:
        result = run_pipeline(out, telemetry=tel, **kwargs)
    walls = adopt(rec, tel.tracer.finished, span.span_id)
    for stage in _PIPELINE_STAGES:
        if stage in walls:
            outcome.metric(f"pipeline.{stage.replace('-', '_')}_s.{phase}", walls[stage], "s")
    root = next(s for s in rec.spans if s.name == "pipeline" and s.parent == span.span_id)
    outcome.metric(f"pipeline.self_s.{phase}", self_times(rec.spans)[root.span_id], "s")
    return result, span.duration


def _report_calls(out: Path, span) -> None:
    """``repro report`` as ``_cmd_report`` runs it, each analysis and
    renderer call inside ``span(name)``."""
    from repro.analysis import AvailabilityAnalysis, JobImpactAnalysis, JobStatistics, MtbeAnalysis
    from repro.cli import _infer_window
    from repro.pipeline import run_pipeline
    from repro.reporting import render_figure2, render_table1, render_table2, render_table3

    with span("report.pipeline"):
        result = run_pipeline(out)
    window = _infer_window(result)
    with span("analysis.mtbe"):
        mtbe = MtbeAnalysis(result.errors, window, 106)
        mtbe.table1()
    with span("reporting.render"):
        render_table1(mtbe, include_paper=False)
    with span("analysis.job_impact"):
        impact = JobImpactAnalysis(result.errors, result.jobs, window).run()
    with span("reporting.render"):
        render_table2(impact, include_paper=False)
    with span("analysis.jobstats"):
        stats = JobStatistics(result.jobs, window)
        buckets, population = stats.bucket_stats(), stats.population()
    with span("reporting.render"):
        render_table3(buckets, population)
    with span("analysis.availability"):
        distribution = AvailabilityAnalysis(result.downtime, window, 106).distribution()
    with span("reporting.render"):
        render_figure2(distribution)


def _traced_report(rec, out: Path, outcome: Outcome) -> float:
    gc.collect()
    with rec.span("report") as top:
        _report_calls(out, rec.span)
    by_name = self_time_by_name([s for s in rec.spans if s.start >= top.start])
    for name in ("analysis.mtbe", "analysis.job_impact", "analysis.jobstats", "analysis.availability",
                 "reporting.render"):
        outcome.metric(f"{name}_s", by_name[name], "s")
    return top.duration


def _fresh_pipeline_unattributed(out: Path, work: Path) -> float:
    """A warm ``repro pipeline`` in a fresh process: wall time minus its
    own top-level spans (``--trace-out`` uses the wall clock)."""
    trace = work / "pipeline-trace.jsonl"
    wall, _ = run_child(["-m", "repro", "pipeline", str(out), "--workers", "1",
                         "--trace-out", str(trace)])
    records = [json.loads(line) for line in trace.read_text().splitlines() if line.strip()]
    return wall - sum(r["end"] - r["start"] for r in records if r["parent_id"] is None)


def traced(work: Path, seed: int, dirty: bool, outcome: Outcome, rec) -> Dict[str, float]:
    """The traced phase; leaves its corpus at ``work / "corpus"`` for
    the live phase.  Returns the traced and the untraced seconds of the
    same calls (for the tracing overhead)."""
    # The untraced baseline makes the same library calls first.
    with rec.span("untraced-calls"):
        plain = _plain_calls(work / "plain", seed, dirty)
    out = work / "corpus"
    traced_times = {"simulate": _traced_simulate(rec, out, seed, outcome)}
    digests = {plain.pop("digest"), tree_digest(out, DIGEST_PARTS)}
    outcome.op(outcome.check("traced and untraced simulate digests agree", len(digests) == 1))
    if dirty:
        outcome.detail["chaos"] = corrupt(out, seed)
    cold, traced_times["cold"] = _traced_pipeline(rec, out, "cold", outcome, workers=1, scan_cache=True)
    warm, traced_times["warm"] = _traced_pipeline(rec, out, "warm", outcome, workers=1, scan_cache=True)
    traced_times["report"] = _traced_report(rec, out, outcome)
    outcome.op(outcome.check("traced pipeline warm == cold", warm == cold))
    scan, hits = cold.scan, warm.scan
    outcome.metric("pipeline.scan_lines_per_s", scan.lines_scanned / scan.scan_wall_seconds, "lines/s")
    outcome.metric("pipeline.decode_ratio", scan.decode_ratio, "ratio")
    outcome.metric("pipeline.cache_hits", hits.cache_hits, "count")
    outcome.metric("pipeline.cache_misses", hits.cache_misses, "count")
    outcome.metric("pipeline.cache_hit_ratio", hits.cache_hits / max(1, hits.cache_hits + hits.cache_misses), "ratio")
    outcome.metric("pipeline.raw_hits", cold.raw_hits, "count")
    outcome.metric("pipeline.coalesced_errors", len(cold.errors), "count")
    serial, t1 = _traced_pipeline(rec, out, "w1", Outcome(), workers=1)
    parallel, t2 = _traced_pipeline(rec, out, "w2", Outcome(), workers=2)
    outcome.op(outcome.check("pipeline workers=2 == workers=1", serial == parallel))
    # Reported on every host so the result always holds the metric; on
    # one core it is not a parallel speedup, and the host line says so.
    outcome.metric("pipeline.parallel_speedup", t1 / t2, "ratio")
    with rec.span("pipeline.fresh-process"):
        outcome.metric("pipeline.unattributed_warm_s", _fresh_pipeline_unattributed(out, work), "s")
    shutil.rmtree(work / "plain", ignore_errors=True)
    outcome.detail.update(input=input_label(seed, dirty))
    return {"traced": sum(traced_times.values()), "untraced": sum(plain.values())}
