"""The traced run's arithmetic: self time, unattributed time and the
capacity-ladder stop rule, on synthetic spans and latencies."""

import math

import pytest

from perfbench.openloop import crossing_rate, ladder
from perfbench.spans import SpanRecorder, adopt, self_time_by_name, self_times, unattributed


def _recorder(intervals):
    """``intervals``: ``(name, start, end, parent index or None)``."""
    rec = SpanRecorder("run-test")
    for name, start, end, parent in intervals:
        rec.add(name, start, end, parent)
    return rec


class TestSelfTime:
    def test_children_covered_once_and_clipped(self):
        rec = _recorder([
            ("parent", 0.0, 10.0, None),
            ("a", 1.0, 3.0, 0),
            ("b", 2.0, 5.0, 0),    # overlaps a: the union [1, 5] counts once
            ("c", 8.0, 12.0, 0),   # runs past the parent: clipped to [8, 10]
            ("grandchild", 1.5, 2.5, 1),
        ])
        own = self_times(rec.spans)
        assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[1] == pytest.approx(2.0 - 1.0)
        assert own[4] == pytest.approx(1.0)

    def test_self_time_summed_by_name(self):
        rec = _recorder([
            ("root", 0.0, 4.0, None),
            ("render", 0.0, 1.0, 0),
            ("render", 2.0, 2.5, 0),
        ])
        by_name = self_time_by_name(rec.spans)
        assert by_name["render"] == pytest.approx(1.5)
        assert by_name["root"] == pytest.approx(2.5)

    def test_context_manager_nests(self):
        ticks = iter(range(100))
        rec = SpanRecorder("run-x", clock=lambda: float(next(ticks)))
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        outer, inner = rec.spans
        assert inner.parent == outer.span_id and outer.parent is None
        assert (outer.start, inner.start, inner.end, outer.end) == (0.0, 1.0, 2.0, 3.0)
        assert {s.run_id for s in rec.spans} == {"run-x"}


class TestUnattributed:
    def test_wall_minus_top_level_spans(self):
        rec = _recorder([
            ("import", 0.0, 2.0, None),
            ("work", 3.0, 4.5, None),
            ("stage", 3.0, 4.0, 1),   # nested: not counted again
        ])
        assert unattributed(rec.spans, 5.0) == pytest.approx(1.5)

    def test_adopted_program_spans_keep_their_tree(self):
        class _Span:
            def __init__(self, name, span_id, parent_id, a, b):
                self.name, self.span_id, self.parent_id = name, span_id, parent_id
                self.wall_start, self.wall_end = a, b
                self.wall_seconds = b - a

        rec = _recorder([("simulate", 0.0, 10.0, None)])
        walls = adopt(rec, [
            _Span("engine-run", "c", "r", 2.0, 6.0),
            _Span("simulate", "r", None, 1.0, 9.0),
        ], parent=0)
        names = {s.name: s for s in rec.spans}
        assert names["engine-run"].parent == rec.spans.index(
            next(s for s in rec.spans if s.name == "simulate" and s.parent == 0))
        assert walls == {"simulate": 8.0, "engine-run": 4.0}
        assert unattributed(rec.spans, 12.0) == pytest.approx(2.0)


def _step_at(capacity):
    """A synthetic service: stress rises steeply as the rate nears
    ``capacity``; returns run_step for :func:`ladder`."""
    calls = []

    def run_step(rate):
        calls.append(rate)
        stress = 0.01 * math.exp(4.0 * rate / capacity)
        detail = {"failed": 0, "latency_s": stress, "tail_wait_s": stress / 2}
        return stress <= 0.25, detail

    return run_step, calls


class TestLadder:
    def test_doubles_until_failure_then_bisects(self):
        run_step, calls = _step_at(1000.0)
        best, failing, log = ladder(run_step, 200.0, max_steps=6, refinements=2)
        # stress(r) = 0.01 e^(4r/1000) crosses 0.25 at r = 805.
        assert calls[:4] == [200.0, 400.0, 800.0, 1600.0]
        assert calls[4] == pytest.approx((800.0 * 1600.0) ** 0.5)
        assert len(log) == 6
        assert best["passed"] and not failing["passed"]
        assert best["rate"] < failing["rate"]

    def test_halves_when_the_first_step_fails(self):
        run_step, calls = _step_at(300.0)
        best, failing, _log = ladder(run_step, 1600.0, max_steps=6, refinements=0)
        assert calls == [1600.0, 800.0, 400.0, 200.0]
        assert best["rate"] == 200.0 and failing["rate"] == 400.0

    def test_stops_after_max_steps_without_a_bracket(self):
        run_step, calls = _step_at(1e9)
        best, failing, _log = ladder(run_step, 100.0, max_steps=3, refinements=2)
        assert calls == [100.0, 200.0, 400.0]
        assert failing is None and best["rate"] == 400.0
        assert crossing_rate(best, failing, 0.25) == 400.0

    def test_crossing_interpolates_log_stress_in_log_rate(self):
        best = {"rate": 100.0, "failed": 0, "latency_s": 0.025, "tail_wait_s": 0.0}
        failing = {"rate": 400.0, "failed": 0, "latency_s": 2.5, "tail_wait_s": 0.0}
        # log10 stress climbs 2 decades over 2 octaves; the 0.25 s limit
        # is one decade up, so the crossing sits one octave up.
        assert crossing_rate(best, failing, 0.25) == pytest.approx(200.0)

    def test_crossing_with_failed_requests_stays_at_the_passing_rate(self):
        best = {"rate": 100.0, "failed": 0, "latency_s": 0.05, "tail_wait_s": 0.0}
        failing = {"rate": 141.0, "failed": 3, "latency_s": 0.05, "tail_wait_s": 0.0}
        assert crossing_rate(best, failing, 0.25) == 100.0

    def test_no_passing_step_has_no_capacity(self):
        assert crossing_rate(None, {"rate": 10.0}, 0.25) is None
