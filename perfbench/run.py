"""The repository benchmark: one command, every layer, two inputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload clean --seed 7 --seconds 30 --trace 0

Every run goes through the whole chain in three phases: the batch phase
(``simulate`` → ``pipeline`` cold and warm → ``report``), the live phase
(``repro stream`` following the same corpus under appends and open-loop
reads) and the fleet phase (a one-year ``FleetCampaign``).  The workload
chooses the input: ``clean`` keeps the simulated corpus as written and
runs an A100-only fleet; ``chaos`` corrupts the corpus with
``ChaosConfig.calibrated(seed)`` before the pipeline and the live
service read it, and runs a mixed A100/GH200 fleet.

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run and reports per-layer metrics, the
tracing overhead and ``unattributed_s``.  The last line of stdout is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it carry the host and revision stamp, the input sizes, the
correctness checks and the metrics omitted and why.  The exit code is
non-zero when a correctness check fails or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List

_RUN_START = time.perf_counter()

# Run as a script: make the package importable by its directory name.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    BenchmarkError,
    Outcome,
    WorkDir,
    ensure_program,
    host_stamp,
    median_child_wall,
    self_peak_rss_mib,
)
from perfbench.stats import median  # noqa: E402

#: Workload → (corrupt the corpus?, fleet architecture preset).
WORKLOADS = {"clean": (False, "a100"), "chaos": (True, "mixed")}

def _setup_sample(setups: List[float], outcome: Outcome) -> None:
    """One fresh ``python -m repro --help``: the start-up every CLI
    command pays."""
    wall = median_child_wall(["-m", "repro", "--help"], 1, outcome)
    if wall is not None:
        setups.append(wall)


def _measure(workload: str, seed: int, seconds: float, outcome: Outcome) -> None:
    """The untraced run.  The host's speed drifts over tens of seconds,
    so each phase's samples are spread over the run, interleaved with
    the other phases', and each metric is their median."""
    from perfbench.batch_small import BatchPhase
    from perfbench.fleet_campaign import FleetPhase
    from perfbench.live_follow import LivePhase

    dirty, arch = WORKLOADS[workload]
    setups: List[float] = []
    fleet = FleetPhase(seed, arch, outcome)
    with WorkDir("run") as work:
        batch = BatchPhase(work, seed, dirty, outcome)
        _setup_sample(setups, outcome)
        if not batch.simulate():
            return
        live = LivePhase(work, batch.root, seed, seconds, outcome)
        batch.round()
        fleet.campaign()
        _setup_sample(setups, outcome)
        live.live_pass()
        batch.simulate_again()
        batch.round()
        fleet.campaign()
        live.catchup()
        _setup_sample(setups, outcome)
        batch.report()
        live.report()
        fleet.report()
    if setups:
        outcome.metric("setup_s", median(setups), "s")
    # The benchmark process does the batch and fleet work, the service
    # child the live work; the metric is the larger high-water mark.
    outcome.metric("peak_rss_mib", max(self_peak_rss_mib(), live.peak_rss_mib), "MiB")
    outcome.detail["setup_samples"] = [round(v, 4) for v in setups]


def _traced(workload: str, seed: int, outcome: Outcome) -> None:
    from perfbench import batch_small, fleet_campaign, live_follow
    from perfbench.common import OUT_DIR
    from perfbench.spans import SpanRecorder, unattributed
    from perfbench.startup import record_startup

    dirty, arch = WORKLOADS[workload]
    rec = SpanRecorder(run_id=f"{workload}-{seed}-{os.getpid()}")
    with rec.span("import-program"):
        import repro.cli  # noqa: F401
    with rec.span("startup"):
        record_startup(outcome)
    with WorkDir("traced") as work:
        calls = [batch_small.traced(work, seed, dirty, outcome, rec)]
        live_follow.traced(work, work / "corpus", seed, outcome, rec)
    calls.append(fleet_campaign.traced(seed, arch, outcome, rec))
    # Overhead of the batch and fleet calls, traced against untraced.
    traced_s = sum(c["traced"] for c in calls)
    untraced_s = sum(c["untraced"] for c in calls)
    outcome.metric("trace.overhead_s", traced_s - untraced_s, "s")
    outcome.metric("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio")
    outcome.metric("unattributed_s", unattributed(rec.spans, time.perf_counter() - _RUN_START), "s")
    rec.write_jsonl(OUT_DIR / f"trace-{workload}-{seed}.jsonl")
    _check_declared(outcome)


def _check_declared(outcome: Outcome) -> None:
    """Every per-layer metric ``BENCHMARK.json`` declares must be in the
    traced result."""
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not spec.is_file():
        return
    missing = [e["name"] for e in json.loads(spec.read_text())["per_layer"]
               if e["name"] not in outcome.metrics]
    outcome.check("every declared per-layer metric measured", not missing, ", ".join(missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ensure_program()
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    host = host_stamp()
    outcome = Outcome()
    if args.trace:
        _traced(args.workload, args.seed, outcome)
    else:
        _measure(args.workload, args.seed, args.seconds, outcome)
    print("host: " + json.dumps(host, sort_keys=True))
    if host["cores"] < 2:
        print("host: 1 core — wall-clock parallel metrics (pipeline.parallel_speedup) are n/a")
    print("input: " + json.dumps(outcome.detail, sort_keys=True))
    for name, ok, note in outcome.checks:
        print(f"check: {'ok  ' if ok else 'FAIL'} {name} {note}".rstrip())
    for name, reason in sorted(outcome.omitted.items()):
        print(f"omitted: {name}: {reason}")
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"metric: {name} = {value:.6g} {unit}")
    print(outcome.result_line())
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
