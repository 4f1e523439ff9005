"""The live phase: the live service under ingest and open-loop reads.

It follows the corpus the batch phase simulated (on ``dirty`` workloads
already corrupted with ``ChaosConfig.calibrated(seed)``: dirty lines,
clock steps, a dropped and a duplicated day); the batch reference is
``run_pipeline(corpus, load_jobs=False)``.  The first
:data:`BACKLOG_SHARE` of the log lines (whole days) are on disk when
``repro stream --follow DIR --port 0`` starts; the rest are appended in
chunks every :data:`CHUNK_PERIOD` seconds at :data:`APPEND_RATE` lines/s
while the base phase lasts.  Meanwhile one process reads ``/v1/fleet``
and ``/v1/alerts`` on an open-loop Poisson schedule at
:data:`BASE_RATE`.  The traced run splits the base phase in two halves
around a doubling rate ladder, during which the appends pause, so
capacity is measured on a steady service rather than one whose snapshot
cost grows step by step.  Freshness is read off the reader's own
``/v1/fleet`` replies.  After the base phase the remaining lines are
appended at once; the service is stopped with SIGTERM, and a
``--once --resume`` drain of its final checkpoint must give the batch
reference's ``errors_total`` and ``lines_read``.

The basis of each traffic figure is given in ``NOTES.md``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .common import ROOT, Outcome, child_env, run_child
from .openloop import (
    Request,
    build_schedule,
    crossing_rate,
    ladder,
    run_schedule,
    step_passes,
)
from .stats import TAIL_SAMPLES, median, tail_summary

JOB_SCALE = "0.01"
#: Share of the corpus's lines (whole days) on disk before the service
#: starts (an assumption, see NOTES.md).
BACKLOG_SHARE = 0.6
#: Seconds between appends (an assumption, see NOTES.md).
CHUNK_PERIOD = 0.5
#: Lines appended per second in the base phase (an assumption, see
#: NOTES.md).
APPEND_RATE = 3000
#: Reader routes: ``repro.loadgen``'s ``DEFAULT_ROUTES``, each chosen
#: with equal weight as it chooses them.
ROUTES = (("/v1/fleet", 1.0), ("/v1/alerts", 1.0))
#: Base rate (requests/s): ``repro.loadgen``'s default open-loop rate.
BASE_RATE = 200.0
#: ``/v1/fleet`` samples the base phase must hold: fifty times the ten a
#: median needs beyond it, and in the traced run the 1,000 p99 needs.
FLEET_SAMPLES = 50 * TAIL_SAMPLES
FLEET_SAMPLES_P99 = 100 * TAIL_SAMPLES
#: Latency limit on p99 for the capacity ladder.
LATENCY_LIMIT_S = 0.25
LADDER_START = 2 * BASE_RATE
LADDER_STEPS = 5
LADDER_REFINEMENTS = 3
#: Requests each ladder step must hold, so it is judged on p99.
LADDER_STEP_REQUESTS = 100 * TAIL_SAMPLES
#: The base phase lasts at least this share of ``--seconds``.
BASE_SHARE = 0.25
#: Each ladder step lasts at least this long (seconds).
LADDER_STEP_SECONDS = 1.0
SERVICE_POLL_INTERVAL = 0.05
_ADDRESS = re.compile(r"fleet-health service on http://([0-9.]+):(\d+)")
_LINES_READ = re.compile(rb'"lines_read":\s*(\d+)')


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------


@dataclass
class Chunk:
    """One append: ``(file name, bytes)`` writes and the complete lines
    they add to plain log files."""

    writes: List[Tuple[str, bytes]]
    lines: int


@dataclass
class Corpus:
    root: Path
    expected: Dict[str, int]
    backlog: List[Path]
    chunks: List[Chunk]
    backlog_lines: int


def _complete_lines(data: bytes) -> int:
    """Lines the follower delivers from ``data`` before end of stream."""
    count = len(data.splitlines())
    if data and not data.endswith(b"\n"):
        count -= 1
    return count


def _plan_chunks(days: List[List[Path]], per_chunk: int) -> List[Chunk]:
    """Cut the appended days into chunks of ``per_chunk`` lines, as a
    log stream at a fixed line rate: a chunk may end one day's file and
    start the next.  A day's other files (a replayed ``.gz`` copy) land
    beside its first lines, as a rotation replay would."""
    chunks: List[Chunk] = []
    writes: List[Tuple[str, bytes]] = []
    lines = 0
    for files in days:
        plain = [p for p in files if p.suffix == ".log"][:1]
        others = [(p.name, p.read_bytes()) for p in files if p not in plain]
        if not plain:
            writes.extend(others)
            continue
        rest = plain[0].read_bytes().splitlines(keepends=True)
        while rest:
            piece, rest = rest[:per_chunk - lines], rest[per_chunk - lines:]
            data = b"".join(piece)
            writes.append((plain[0].name, data))
            writes.extend(others)
            others = []
            lines += _complete_lines(data)
            if lines >= per_chunk:
                chunks.append(Chunk(writes, lines))
                writes, lines = [], 0
    if writes:
        chunks.append(Chunk(writes, lines))
    return chunks


def prepare_corpus(root: Path) -> Corpus:
    """Take the batch reference of the corpus at ``root``, choose its
    backlog and cut the rest into appends."""
    from repro.pipeline import run_pipeline
    from repro.syslog.reader import day_stem

    # The batch phase left a warm scan cache (its warm passes are
    # checked against the cold ones).
    batch = run_pipeline(root, load_jobs=False, scan_cache=True)
    expected = {
        "errors_total": len(batch.errors),
        "lines_read": batch.health.lines_read,
    }
    days: Dict[str, List[Path]] = {}
    for path in sorted((root / "syslog").iterdir()):
        days.setdefault(day_stem(path), []).append(path)
    stems = sorted(days)
    sizes = {
        stem: sum(_complete_lines(p.read_bytes()) for p in paths if p.suffix == ".log")
        for stem, paths in days.items()
    }
    total = sum(sizes.values())
    backlog: List[Path] = []
    backlog_lines = 0
    while stems and backlog_lines < BACKLOG_SHARE * total:
        stem = stems.pop(0)
        backlog.extend(days[stem])
        backlog_lines += sizes[stem]
    per_chunk = round(APPEND_RATE * CHUNK_PERIOD)
    chunks = _plan_chunks([days[stem] for stem in stems], per_chunk)
    return Corpus(root, expected, backlog, chunks, backlog_lines)


# ----------------------------------------------------------------------
# Service process
# ----------------------------------------------------------------------


class Service:
    """A ``repro stream`` child; ``host``/``port`` are set once it has
    printed its address line (``port`` stays 0 if it never does)."""

    def __init__(self, follow: Path, extra: List[str]) -> None:
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stream", "--follow", str(follow),
             "--port", "0", *extra],
            cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.host = ""
        self.port = 0
        self.ready = 0.0
        self.peak_rss_mib = 0.0
        self.returncode: Optional[int] = None
        for line in self.proc.stdout:
            match = _ADDRESS.search(line)
            if match:
                self.ready = time.perf_counter()
                self.host, self.port = match.group(1), int(match.group(2))
                break
        self._drain = threading.Thread(target=self._consume, daemon=True)
        self._drain.start()

    @property
    def setup_s(self) -> float:
        return self.ready - self.spawned

    def _consume(self) -> None:
        for _line in self.proc.stdout:
            pass

    def wait(self, timeout: float) -> Optional[int]:
        """Reap the child (killing it after ``timeout``); records its
        exit code and peak RSS from the kernel's rusage."""
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.02)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.peak_rss_mib = usage.ru_maxrss / 1024.0
        self._drain.join(timeout=5.0)
        self.proc.stdout.close()
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            self.wait(10.0)

    def terminate(self, timeout: float) -> Optional[int]:
        """Graceful stop: SIGTERM, then reap (SIGKILL after ``timeout``)."""
        if self.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            self.wait(timeout)
        return self.returncode


def _get_json(conn: http.client.HTTPConnection, path: str) -> Tuple[int, dict]:
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        return response.status, {}
    return response.status, json.loads(body)


# ----------------------------------------------------------------------
# Appender and freshness
# ----------------------------------------------------------------------


class FleetWatch:
    """``lines_read`` of every ``/v1/fleet`` reply the reader receives,
    with its arrival time: the freshness figures come from these, so
    measuring freshness adds no requests to the reader's mix."""

    def __init__(self) -> None:
        self.seen: List[Tuple[float, int]] = []

    def __call__(self, route: str, body: bytes) -> None:
        if route == "/v1/fleet":
            match = _LINES_READ.search(body)
            if match:
                self.note(int(match.group(1)))

    def note(self, lines: int) -> None:
        self.seen.append((time.perf_counter(), lines))

    def latest(self) -> Optional[int]:
        return self.seen[-1][1] if self.seen else None

    def first_reaching(self, since: float, target: int) -> Optional[float]:
        """Seconds from ``since`` to the first reply after it reporting
        at least ``target`` lines (None if none did)."""
        times = [t for t, lines in self.seen if t > since and lines >= target]
        return min(times) - since if times else None


class Appender:
    """Appends one chunk every :data:`CHUNK_PERIOD` while a base half
    runs, noting for each the lines ``/v1/fleet`` must report once it is
    ingested.

    Each append is delayed by a seeded draw from 0 to half a period.  At
    exact multiples of the period every chunk would land at the same
    point of the service's poll cycle (the period is a multiple of the
    poll interval), so a run's freshness samples would share one wait
    for the next poll and their median would be a single random draw.
    """

    def __init__(self, syslog: Path, chunks: List[Chunk], start_lines: int,
                 watch: FleetWatch, seed: int) -> None:
        self._syslog = syslog
        self._chunks = chunks
        self._watch = watch
        rng = random.Random(seed)
        self._jitter = [rng.uniform(0.0, CHUNK_PERIOD / 2) for _ in chunks]
        #: Lower bound on the lines visible once every appended chunk is
        #: ingested (gzip-only days are not counted).
        self.visible_target = start_lines
        #: ``(append time, lines /v1/fleet must then report)``.
        self.appended: List[Tuple[float, int]] = []
        self._target = 0
        self.next = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _append(self, chunk: Chunk) -> None:
        for name, data in chunk.writes:
            with open(self._syslog / name, "ab") as handle:
                handle.write(data)
        self.visible_target += chunk.lines
        self.next += 1

    def _loop(self, until: float) -> None:
        start, first = time.perf_counter(), self.next
        while self.next < len(self._chunks):
            due = start + (self.next - first) * CHUNK_PERIOD + self._jitter[self.next]
            if due > until:
                return
            delay = due - time.perf_counter()
            if delay > 0 and self._stop.wait(delay):
                return
            chunk = self._chunks[self.next]
            # The target builds on what the reader last saw, or on the
            # previous chunk's target if that is not visible yet: a day
            # present only gzipped is ingested whole once its successor
            # day appears, so a plain count of appended lines would run
            # behind.
            seen = self._watch.latest()
            if seen is not None:
                self._target = max(self._target, seen)
            self._append(chunk)
            if chunk.lines and seen is not None:
                self._target += chunk.lines
                self.appended.append((time.perf_counter(), self._target))

    def start(self, seconds: float) -> None:
        """Begin a phase of ``seconds`` on a background thread.  The last
        append is a period before the end, so the reader sees it."""
        self._stop.clear()
        until = time.perf_counter() + seconds - CHUNK_PERIOD
        self._thread = threading.Thread(target=self._loop, args=(until,),
                                        name="appender", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """End the phase and wait for the thread."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=30)
            self._thread = None

    def append_rest(self) -> None:
        """Between phases: append every remaining chunk at once."""
        while self.next < len(self._chunks):
            self._append(self._chunks[self.next])


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def _connections() -> int:
    return max(1, min(os.cpu_count() or 1, 4))


def _schedule_holding(seed: int, rate: float, seconds: float, count: int,
                      route: Optional[str] = None) -> List[Tuple[float, str]]:
    """A schedule of at least ``seconds`` holding at least ``count``
    requests (to ``route`` only, when given): the Poisson draw may fall
    short, so the duration grows by 10% until it holds them."""
    while True:
        schedule = build_schedule(seed, rate, seconds, ROUTES)
        if sum(1 for _, r in schedule if route in (None, r)) >= count:
            return schedule
        seconds *= 1.1


def base_schedule(seed: int, seconds: float, fleet_samples: int) -> List[Tuple[float, str]]:
    """Base-rate schedule: :data:`BASE_SHARE` of ``seconds``, and long
    enough to hold ``fleet_samples`` requests to ``/v1/fleet``."""
    fleet_share = ROUTES[0][1] / sum(weight for _, weight in ROUTES)
    duration = max(BASE_SHARE * seconds, fleet_samples / (BASE_RATE * fleet_share))
    return _schedule_holding(seed, BASE_RATE, duration, fleet_samples, "/v1/fleet")


def _base_half(service: Service, appender: Appender, watch: FleetWatch,
               schedule: List[Tuple[float, str]]) -> List[Request]:
    """Run part of the base-rate schedule while the appends run."""
    appender.start(schedule[-1][0])
    try:
        return run_schedule(service.host, service.port, schedule, _connections(),
                            observe=watch)
    finally:
        appender.stop()


def _count_requests(outcome: Outcome, requests: List[Request]) -> None:
    for req in requests:
        outcome.op(req.ok)


def catchup_sample(work: Path, corpus: Corpus, outcome: Outcome) -> List[float]:
    """Catch-up of a throwaway service over a copy of the backlog, killed
    once caught up; returns ``[lines/s]``, empty when it failed."""
    backlog = work / "backlog"
    (backlog / "syslog").mkdir(parents=True)
    shutil.copy(corpus.root / "inventory.json", backlog / "inventory.json")
    for path in corpus.backlog:
        shutil.copy(path, backlog / "syslog" / path.name)
    service = Service(backlog, ["--poll-interval", str(SERVICE_POLL_INTERVAL)])
    try:
        if not service.port:
            raise RuntimeError("service printed no address line")
        lines = _wait_visible(service, corpus.backlog_lines, outcome, 60.0)
        rate = lines / (time.perf_counter() - service.ready)
        outcome.op(True)
        return [rate]
    except (OSError, RuntimeError, http.client.HTTPException) as exc:
        outcome.op(outcome.check("throwaway service catch-up", False, str(exc)))
        return []
    finally:
        service.kill()
        shutil.rmtree(backlog, ignore_errors=True)


def _wait_visible(service: Service, target: int, outcome: Outcome, timeout: float,
                  watch: Optional[FleetWatch] = None) -> int:
    """Poll until ``lines_read >= target``; returns the lines read.
    Polls ``/healthz``, or ``/v1/fleet`` feeding ``watch`` when given.
    ``/healthz`` waits on the service lock, so during the first poll the
    reply arrives once the whole backlog is ingested."""
    route = "/healthz" if watch is None else "/v1/fleet"
    conn = http.client.HTTPConnection(service.host, service.port, timeout=timeout)
    deadline = time.perf_counter() + timeout
    try:
        while True:
            status, body = _get_json(conn, route)
            outcome.op(status == 200)
            lines = body.get("lines_read", 0) if watch is None else body.get("stream", {}).get("lines_read", 0)
            if watch is not None:
                watch.note(lines)
            if lines >= target:
                return lines
            if time.perf_counter() > deadline:
                raise RuntimeError(f"service read {lines} of {target} lines in {timeout:g} s")
            time.sleep(0.01)
    finally:
        conn.close()


def live_pass(work: Path, seed: int, schedule: List[Tuple[float, str]], corpus: Corpus,
              outcome: Outcome, with_ladder: bool = False) -> Dict[str, object]:
    """Start the service over the backlog; run catch-up, the base phase
    (appends plus base-rate reads; with the capacity ladder, reads only,
    between its two halves), then append the rest, stop the service with
    SIGTERM and check a resumed drain of its final checkpoint against
    the batch reference.  Returns the measured figures."""
    live = work / "live"
    syslog = live / "syslog"
    ckpt = work / "live-checkpoint"
    for path in (live, ckpt):
        shutil.rmtree(path, ignore_errors=True)
    syslog.mkdir(parents=True)
    shutil.copy(corpus.root / "inventory.json", live / "inventory.json")
    for path in corpus.backlog:
        shutil.copy(path, syslog / path.name)
    service = Service(live, [
        "--poll-interval", str(SERVICE_POLL_INTERVAL),
        "--checkpoint", str(ckpt), "--checkpoint-interval", "3600",
    ])
    figures: Dict[str, object] = {}
    appender = None
    try:
        if not service.port:
            raise RuntimeError("service printed no address line")
        figures["ready_s"] = service.setup_s
        lines = _wait_visible(service, corpus.backlog_lines, outcome, 60.0)
        figures["catchup_s"] = time.perf_counter() - service.ready
        figures["catchup_lines_per_s"] = lines / figures["catchup_s"]
        figures["backlog_lines"] = lines

        watch = FleetWatch()
        appender = Appender(syslog, corpus.chunks, lines, watch, seed)
        if with_ladder:
            half = schedule[-1][0] / 2.0
            halves = ([e for e in schedule if e[0] < half],
                      [(due - half, route) for due, route in schedule if due >= half])
            requests = _base_half(service, appender, watch, halves[0])

            step_index = [0]

            def run_step(rate: float):
                step_index[0] += 1
                step_seconds = max(LADDER_STEP_SECONDS, LADDER_STEP_REQUESTS / rate)
                step = _schedule_holding(seed * 1000 + step_index[0], rate, step_seconds,
                                         LADDER_STEP_REQUESTS)
                reqs = run_schedule(service.host, service.port, step, _connections(),
                                    observe=watch)
                _count_requests(outcome, reqs)
                return step_passes(reqs, LATENCY_LIMIT_S)

            best, failing, log = ladder(run_step, LADDER_START, LADDER_STEPS, LADDER_REFINEMENTS)
            figures["capacity_rps"] = crossing_rate(best, failing, LATENCY_LIMIT_S)
            figures["ladder"] = log
            requests += _base_half(service, appender, watch, halves[1])
        else:
            requests = _base_half(service, appender, watch, schedule)
        # The base phase's last chunks may land after the reader's last
        # reply; polling /v1/fleet until they show completes their
        # freshness samples (after the timed reads, so off their mix).
        _wait_visible(service, appender.visible_target, outcome, 60.0, watch)
        _count_requests(outcome, requests)
        fleet = [r.latency for r in requests if r.route == "/v1/fleet" and r.ok]
        figures["fleet_tail"] = tail_summary(fleet, cap=99.0)
        figures["fleet_p50_s"] = figures["fleet_tail"]["p50"]
        figures["lateness"] = tail_summary([r.lateness for r in requests], cap=99.0)
        figures["sent"] = len(requests)
        figures["base_duration_s"] = schedule[-1][0]
        freshness = [watch.first_reaching(t, target) for t, target in appender.appended]
        figures["freshness"] = [f for f in freshness if f is not None]
        figures["appended_in_base"] = len(freshness)
        outcome.op(outcome.check(
            "every appended chunk reported by /v1/fleet",
            bool(freshness) and None not in freshness,
            f"{freshness.count(None)} of {len(freshness)} unseen"))
        if with_ladder:
            conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
            conn.request("GET", "/metrics")
            figures["metrics_text"] = conn.getresponse().read().decode()
            conn.close()
        appender.append_rest()
        _wait_visible(service, appender.visible_target, outcome, 60.0)
    except (OSError, RuntimeError, http.client.HTTPException) as exc:
        outcome.op(outcome.check("live pass", False, str(exc)))
    finally:
        if appender is not None:
            appender.stop()
        code = service.terminate(timeout=60.0)
    figures["peak_rss_mib"] = service.peak_rss_mib
    outcome.op(outcome.check("service exits 0 on SIGTERM", code == 0, f"exit {code}"))
    _check_resumed_drain(live, ckpt, corpus, outcome)
    shutil.rmtree(live, ignore_errors=True)
    shutil.rmtree(ckpt, ignore_errors=True)
    return figures


def _check_resumed_drain(live: Path, ckpt: Path, corpus: Corpus, outcome: Outcome) -> None:
    """Drain the service's final checkpoint with ``--once --resume``; the
    drained ``/v1/fleet`` body must equal the batch reference."""
    final = live / "fleet.json"
    try:
        run_child(["-m", "repro", "stream", "--follow", str(live), "--once", "--port", "-1",
                   "--checkpoint", str(ckpt), "--resume", "--fleet-out", str(final)])
        body = json.loads(final.read_text())
        got = {"errors_total": body["report"]["errors_total"],
               "lines_read": body["stream"]["lines_read"]}
    except (RuntimeError, OSError, KeyError, ValueError) as exc:
        got = {"error": str(exc)}
    outcome.op(outcome.check(
        "drained /v1/fleet == batch run_pipeline", got == corpus.expected,
        f"stream {got} batch {corpus.expected}",
    ))


class LivePhase:
    """The untraced phase over the corpus at ``root``, in two steps the
    run spreads over its length: :meth:`live_pass` and one more
    :meth:`catchup` sample."""

    def __init__(self, work: Path, root: Path, seed: int, seconds: float,
                 outcome: Outcome) -> None:
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.outcome = outcome
        self.corpus = prepare_corpus(root)
        self.rates: List[float] = []
        self.figures: Dict[str, object] = {}

    def live_pass(self) -> None:
        schedule = base_schedule(self.seed, self.seconds, FLEET_SAMPLES)
        self.figures = live_pass(self.work, self.seed, schedule, self.corpus, self.outcome)
        if "catchup_lines_per_s" in self.figures:
            self.rates.append(self.figures["catchup_lines_per_s"])

    def catchup(self) -> None:
        self.rates += catchup_sample(self.work, self.corpus, self.outcome)

    @property
    def peak_rss_mib(self) -> float:
        return self.figures.get("peak_rss_mib", 0.0)

    def report(self) -> None:
        figures = self.figures
        if "freshness" in figures:
            self.outcome.metric("catchup_lines_per_s", median(self.rates), "lines/s")
            self.outcome.metric("freshness_p50_s", median(figures["freshness"]), "s")
        self.outcome.detail["catchup_samples"] = [round(r) for r in self.rates]
        _detail(figures, self.corpus, self.outcome)


def _detail(figures, corpus: Corpus, outcome: Outcome) -> None:
    outcome.detail.update(
        backlog_lines=corpus.backlog_lines,
        appended_chunks=len(corpus.chunks),
        batch_reference=corpus.expected,
        base_rate=BASE_RATE,
        append_lines_per_s=APPEND_RATE,
    )
    if "freshness" not in figures:
        return
    outcome.detail.update(
        stream_ready_s=round(figures["ready_s"], 4),
        appended_in_base=figures["appended_in_base"],
        freshness_samples=len(figures["freshness"]),
        fleet_p50_ms=round(figures["fleet_p50_s"] * 1e3, 4),
        fleet_samples=figures["fleet_tail"]["n"],
        base_duration_s=round(figures["base_duration_s"], 3),
        lateness=figures["lateness"],
    )
    if "ladder" in figures:
        outcome.detail["ladder"] = [
            {k: (round(v, 4) if isinstance(v, float) else v) for k, v in step.items()}
            for step in figures["ladder"]
        ]


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$')


def _scrape(text: str, name: str, status_prefix: str = "") -> float:
    """Sum of a Prometheus family's samples (optionally only those whose
    ``status`` label starts with ``status_prefix``)."""
    total = 0.0
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if not match or match.group(1) != name:
            continue
        if status_prefix and f'status="{status_prefix}' not in (match.group(2) or ""):
            continue
        total += float(match.group(3))
    return total


def _timed_median(fn, repeats: int) -> float:
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return median(walls)


def _in_process_layers(rec, corpus: Corpus, outcome: Outcome) -> Dict[str, float]:
    """Follower, ingest, estimators and dispatch, each called on its own
    over the corrupted corpus."""
    from repro.stream import DirectoryFollower, StreamIngest, StreamService
    from repro.cluster.inventory import Inventory

    syslog = corpus.root / "syslog"
    follower = DirectoryFollower(syslog)
    with rec.span("stream.follow.poll") as span:
        follower.poll(lambda _line: None, final=True)
    outcome.metric("stream.follow.read_s", span.duration, "s")
    outcome.metric("stream.follow.bytes_per_s", follower.stats.bytes_read / span.duration, "B/s")

    ingest = StreamIngest(syslog, inventory=Inventory.load(corpus.root / "inventory.json"))
    with rec.span("stream.ingest.drain") as span:
        ingest.drain()
    outcome.metric("stream.ingest.drain_s", span.duration, "s")
    outcome.metric("stream.ingest.lines_per_s", ingest.lines_read / span.duration, "lines/s")
    outcome.metric("stream.ingest.quarantined", ingest.health().total_quarantined, "count")

    service = StreamService(corpus.root, port=0, once=True)
    try:
        with rec.span("stream.service.drain"):
            service.poll_once(final=True)
        with rec.span("stream.serve.fleet_snapshot") as span:
            service.fleet_snapshot()
        outcome.metric("stream.serve.fleet_snapshot_ms", span.duration * 1e3, "ms")
        with rec.span("stream.estimators.snapshot"):
            outcome.metric("stream.estimators.snapshot_ms",
                           _timed_median(service.estimators.snapshot, 20) * 1e3, "ms")
        dispatch = {}
        with rec.span("stream.serve.dispatch"):
            for route, key in (("/v1/fleet", "fleet"), ("/v1/alerts", "alerts"), ("/healthz", "healthz")):
                dispatch[key] = _timed_median(lambda r=route: service.server.dispatch(r), 50)
                outcome.metric(f"stream.serve.dispatch_us.{key}", dispatch[key] * 1e6, "us")
    finally:
        service.server.start()
        service.server.stop(drain_deadline=0.0)
    return dispatch


def traced(work: Path, root: Path, seed: int, outcome: Outcome, rec) -> None:
    """The live pass with the capacity ladder and a ``/metrics`` scrape,
    then the in-process follower, ingest, estimator and dispatch calls
    over the corpus at ``root``."""
    with rec.span("prepare-corpus"):
        schedule = base_schedule(seed, 0.0, FLEET_SAMPLES_P99)
        corpus = prepare_corpus(root)
    with rec.span("live-pass"):
        figures = live_pass(work, seed, schedule, corpus, outcome, with_ladder=True)
    with rec.span("in-process-layers"):
        dispatch = _in_process_layers(rec, corpus, outcome)
    _detail(figures, corpus, outcome)
    if "freshness" not in figures:
        return
    text = figures["metrics_text"]
    outcome.metric("startup.stream_ready_s", figures["ready_s"], "s")
    outcome.metric("stream.ingest.polls", _scrape(text, "stream_polls_total"), "count")
    outcome.omitted["stream.ingest.empty_poll_ratio"] = (
        "the service counts polls but not polls that read no lines; needs a program counter"
    )
    outcome.metric("stream.serve.shed", _scrape(text, "http_requests_shed_total"), "count")
    outcome.metric("stream.serve.errors_5xx", _scrape(text, "http_requests_total", "5"), "count")
    outcome.metric("stream.serve.fleet_p50_ms", figures["fleet_p50_s"] * 1e3, "ms")
    outcome.metric("stream.serve.wire_ms", (figures["fleet_p50_s"] - dispatch["fleet"]) * 1e3, "ms")
    tail = figures["fleet_tail"]
    outcome.check("fleet p99 resolvable", tail.get("pct") == 99.0, f"{tail}")
    outcome.metric("stream.serve.fleet_p99_ms", tail.get("value", 0.0) * 1e3, "ms")
    capacity = figures["capacity_rps"]
    outcome.check("capacity ladder found a passing rate", capacity is not None)
    outcome.metric("stream.serve.capacity_rps", capacity or 0.0, "1/s")
    outcome.metric("loadgen.sent", figures["sent"] + sum(s["n"] for s in figures["ladder"]), "count")
    outcome.metric("loadgen.connections", _connections(), "count")
    outcome.metric("loadgen.lateness_p99_ms", figures["lateness"]["value"] * 1e3, "ms")
