"""The open-loop generator: seeded schedule, due-time accounting and
the percentile rule."""

import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from perfbench.openloop import Request, build_schedule, run_schedule, step_passes
from perfbench.stats import highest_resolvable, nearest_rank, tail_summary

ROUTES = (("/a", 0.5), ("/b", 0.3), ("/c", 0.2))


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert build_schedule(3, 200.0, 5.0, ROUTES) == build_schedule(3, 200.0, 5.0, ROUTES)

    def test_other_seed_other_schedule(self):
        assert build_schedule(3, 200.0, 5.0, ROUTES) != build_schedule(4, 200.0, 5.0, ROUTES)

    def test_due_order_window_and_rate(self):
        schedule = build_schedule(9, 500.0, 20.0, ROUTES)
        dues = [due for due, _ in schedule]
        assert dues == sorted(dues)
        assert 0.0 < dues[0] and dues[-1] < 20.0
        # 10,000 expected arrivals: a Poisson count within 5 sigma.
        assert abs(len(schedule) - 10_000) < 500

    def test_route_weights(self):
        schedule = build_schedule(5, 1000.0, 10.0, ROUTES)
        share = sum(1 for _, r in schedule if r == "/a") / len(schedule)
        assert share == pytest.approx(0.5, abs=0.03)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            build_schedule(1, 0.0, 1.0, ROUTES)


class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_s = 0.3
    served = 0
    lock = threading.Lock()

    def do_GET(self):  # noqa: N802 (stdlib naming)
        with self.lock:
            type(self).served += 1
            first = type(self).served == 1
        if first:
            time.sleep(self.stall_s)
        body = b"ok"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stalled_server():
    _StallingHandler.served = 0
    server = HTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class TestDueTimeAccounting:
    def test_stall_counts_against_requests_queued_behind_it(self, stalled_server):
        host, port = stalled_server
        schedule = [(0.05 * i, "/x") for i in range(6)]
        requests = run_schedule(host, port, schedule, connections=1)
        assert all(r.ok for r in requests)
        first, queued = requests[0], requests[1:]
        assert first.latency >= _StallingHandler.stall_s
        stall_end = first.done
        for req in queued:
            if req.due < stall_end:
                # Sent only after the stall, yet timed from its due time.
                assert req.sent >= stall_end - 1e-3
                assert req.latency >= stall_end - req.due - 1e-3
                # Send-to-done alone would hide the wait.
                assert req.done - req.sent < req.latency
        # The generator itself was not late: every request went out as
        # soon as its thread was free.
        assert max(r.lateness for r in requests) < 0.05

    def test_observe_gets_each_ok_reply_body(self, stalled_server):
        host, port = stalled_server
        seen = []
        schedule = [(0.01 * i, f"/r{i % 2}") for i in range(4)]
        run_schedule(host, port, schedule, connections=2,
                     observe=lambda route, body: seen.append((route, body)))
        assert sorted(seen) == [("/r0", b"ok"), ("/r0", b"ok"), ("/r1", b"ok"), ("/r1", b"ok")]

    def test_transport_error_is_a_failed_request(self):
        with HTTPServer(("127.0.0.1", 0), _StallingHandler) as server:
            host, port = server.server_address
        requests = run_schedule(host, port, [(0.0, "/x")], connections=1, timeout=1.0)
        assert requests[0].status == 0 and not requests[0].ok


class TestPercentileRule:
    def test_highest_percentile_with_ten_beyond(self):
        assert highest_resolvable(9) is None
        assert highest_resolvable(20) == 50.0
        assert highest_resolvable(100) == 90.0
        assert highest_resolvable(200) == 95.0
        assert highest_resolvable(999) == 95.0
        assert highest_resolvable(1000) == 99.0
        assert highest_resolvable(10_000) == 99.9
        assert highest_resolvable(10_000, cap=99.0) == 99.0

    def test_summary_reports_value_and_count(self):
        values = [float(i) for i in range(1, 1001)]
        summary = tail_summary(values)
        assert summary == {"n": 1000, "p50": 500.0, "pct": 99.0, "value": 990.0}
        # Exactly ten samples lie beyond the reported value.
        assert sum(1 for v in values if v > summary["value"]) == 10

    def test_too_few_samples_reports_only_the_count(self):
        assert tail_summary([1.0, 2.0]) == {"n": 2, "p50": 1.0}

    def test_nearest_rank(self):
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0


def _requests(latencies, waits=None, status=200):
    waits = waits or [0.0] * len(latencies)
    out = []
    for i, (lat, wait) in enumerate(zip(latencies, waits)):
        out.append(Request(due=float(i), route="/x", sent=i + wait, done=i + lat, status=status))
    return out


class TestStepRule:
    def test_fast_step_passes(self):
        passed, detail = step_passes(_requests([0.01] * 200), 0.25)
        assert passed and detail["pct"] == 95.0

    def test_slow_tail_fails(self):
        passed, _ = step_passes(_requests([0.01] * 180 + [0.5] * 20), 0.25)
        assert not passed

    def test_failed_request_fails_the_step(self):
        reqs = _requests([0.01] * 200)
        reqs[5].status = 429
        passed, detail = step_passes(reqs, 0.25)
        assert not passed and detail["failed"] == 1

    def test_growing_backlog_fails(self):
        # A short step resolves only its median; the backlog rule still
        # catches the requests at its end waiting past the limit.
        waits = [0.0] * 36 + [0.3] * 4
        latencies = [0.01] * 36 + [0.31] * 4
        passed, detail = step_passes(_requests(latencies, waits), 0.25)
        assert detail["pct"] == 50.0 and detail["latency_s"] <= 0.25
        assert not passed and detail["tail_wait_s"] == pytest.approx(0.3)
