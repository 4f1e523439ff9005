"""The benchmark's open-loop HTTP reader.

Independent users do not wait for each other, so the reader sends on a
Poisson schedule built from the seed, whatever the service does.  It is
one process with at most ``nproc`` threads, one keep-alive connection
each.  A thread takes the next due request when it is free, sleeps
until the due time if that is still ahead, and sends.  Every latency is
measured from the *due* time, so when the service stalls, the wait it
imposes on the requests queued behind the stall is counted (no
coordinated omission).  The generator's own lateness — the delay from
the moment a thread could send (due, or free if it was busy) to the
actual send — is kept separately: it grows when the generator, not the
service, is the bottleneck.

``repro.loadgen`` is not reused: its open loop times each request from
its send, so it omits exactly that queued wait.
"""

from __future__ import annotations

import http.client
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .stats import highest_resolvable, median, nearest_rank

#: Status recorded for a transport failure (refused, reset, timeout).
TRANSPORT_ERROR = 0


def build_schedule(
    seed: int,
    rate: float,
    duration: float,
    routes: Sequence[Tuple[str, float]],
) -> List[Tuple[float, str]]:
    """Poisson arrivals at ``rate``/s over ``[0, duration)``.

    ``routes`` is ``[(path, weight), ...]``; each arrival picks a route
    by weight from the same seeded stream, so one seed gives one
    schedule.  Returns ``[(due offset, path), ...]`` in due order.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    paths = [path for path, _ in routes]
    weights = [weight for _, weight in routes]
    schedule: List[Tuple[float, str]] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return schedule
        schedule.append((t, rng.choices(paths, weights)[0]))


@dataclass
class Request:
    """One scheduled request and what happened to it (origin-relative
    seconds; ``status`` 0 is a transport failure)."""

    due: float
    route: str
    sent: float = 0.0
    done: float = 0.0
    status: int = -1
    lateness: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from due to complete."""
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class _Connection:
    """One keep-alive connection that redials after a transport error."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self._host, self._port, self._timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def get(self, path: str) -> Tuple[int, bytes]:
        """GET ``path``; returns (status, body)."""
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return TRANSPORT_ERROR, b""

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def run_schedule(
    host: str,
    port: int,
    schedule: Sequence[Tuple[float, str]],
    connections: int,
    timeout: float = 10.0,
    observe: Optional[Callable[[str, bytes], None]] = None,
) -> List[Request]:
    """Execute ``schedule`` (due offsets from now) on ``connections``
    threads; returns every request in due order.  ``observe(route,
    body)`` is called on the sending thread with each 2xx reply."""
    if connections < 1:
        raise ValueError("need at least one connection")
    start = time.perf_counter()
    requests = [Request(due=due, route=route) for due, route in schedule]
    cursor = [0]
    lock = threading.Lock()

    def worker() -> None:
        conn = _Connection(host, port, timeout)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= len(requests):
                        return
                    cursor[0] = index + 1
                req = requests[index]
                free = time.perf_counter() - start
                ready = max(req.due, free)
                if req.due > free:
                    time.sleep(req.due - free)
                req.sent = time.perf_counter() - start
                req.lateness = req.sent - ready
                req.status, body = conn.get(req.route)
                req.done = time.perf_counter() - start
                if observe is not None and req.ok:
                    observe(req.route, body)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, name=f"openloop-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return requests


def step_passes(
    requests: Sequence[Request], limit_s: float, tail_share: float = 0.1
) -> Tuple[bool, dict]:
    """The capacity-ladder stop rule for one rate step.

    A step passes when no request failed, the highest resolvable
    percentile up to p99 of latency-from-due is within ``limit_s``, and
    the backlog is not growing: the median wait before send over the
    last ``tail_share`` of the step is also within ``limit_s``.  A
    failed request counts as missing the limit.  Returns
    ``(passed, detail)``.
    """
    detail: dict = {"n": len(requests)}
    if not requests:
        return False, detail
    failed = sum(1 for r in requests if not r.ok)
    detail["failed"] = failed
    latencies = sorted(
        r.latency if r.ok else float("inf") for r in requests
    )
    pct = highest_resolvable(len(latencies), cap=99.0)
    if pct is None:
        pct = 50.0
    detail["pct"] = pct
    detail["latency_s"] = nearest_rank(latencies, pct)
    tail = sorted(requests, key=lambda r: r.due)
    tail = tail[-max(1, int(len(tail) * tail_share)):]
    detail["tail_wait_s"] = median([r.sent - r.due for r in tail])
    passed = (
        failed == 0
        and detail["latency_s"] <= limit_s
        and detail["tail_wait_s"] <= limit_s
    )
    return passed, detail


def ladder(
    run_step: Callable[[float], Tuple[bool, dict]],
    start_rate: float,
    max_steps: int,
    refinements: int,
) -> Tuple[Optional[dict], Optional[dict], List[dict]]:
    """Find the rate bracket where the stop rule starts failing.

    From ``start_rate`` the ladder doubles while steps pass (or halves
    while they fail) for at most ``max_steps`` steps, then bisects the
    bracket geometrically ``refinements`` times.  ``run_step(rate)``
    runs one step and returns ``(passed, detail)``.  Returns the
    highest passing step, the lowest failing step above it (either may
    be None) and the log of every step.
    """
    log: List[dict] = []

    def step(rate: float) -> dict:
        passed, detail = run_step(rate)
        entry = dict(detail, rate=rate, passed=passed)
        log.append(entry)
        return entry

    best: Optional[dict] = None
    failing: Optional[dict] = None
    entry = step(start_rate)
    factor = 2.0 if entry["passed"] else 0.5
    while True:
        if entry["passed"]:
            best = entry
        else:
            failing = entry
        if (best is not None and failing is not None) or len(log) >= max_steps:
            break
        entry = step(entry["rate"] * factor)
    if best is None or failing is None:
        return best, failing, log
    for _ in range(refinements):
        entry = step((best["rate"] * failing["rate"]) ** 0.5)
        if entry["passed"]:
            best = entry
        else:
            failing = entry
    return best, failing, log


def _stress(entry: dict) -> float:
    """How close a step came to the limit: its tail latency or its
    backlog wait, whichever is worse (a failed request is infinite)."""
    if entry.get("failed"):
        return float("inf")
    return max(entry["latency_s"], entry["tail_wait_s"])


def crossing_rate(
    best: Optional[dict], failing: Optional[dict], limit_s: float
) -> Optional[float]:
    """The rate at which the stop rule is crossed inside the final
    ladder bracket, interpolating log(stress) linearly in log(rate).

    A rung grid alone quantizes capacity to the bracket width; the
    interpolation keeps the figure continuous as the service changes.
    With no failing step the highest passing rate is returned; with no
    passing step, None.
    """
    if best is None:
        return None
    if failing is None:
        return best["rate"]
    s_pass = max(_stress(best), 1e-9)
    s_fail = _stress(failing)
    if s_fail == float("inf") or s_fail <= s_pass:
        return best["rate"]
    frac = math.log(limit_s / s_pass) / math.log(s_fail / s_pass)
    frac = min(1.0, max(0.0, frac))
    return best["rate"] * (failing["rate"] / best["rate"]) ** frac
