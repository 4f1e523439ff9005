"""The live phase's append plan, schedule sizing and freshness
arithmetic, on synthetic files and replies."""

from perfbench.live_follow import (
    FLEET_SAMPLES_P99,
    LADDER_STEP_REQUESTS,
    FleetWatch,
    _plan_chunks,
    _schedule_holding,
    base_schedule,
)


def _day(root, name, lines, extra=()):
    path = root / f"{name}.log"
    path.write_bytes(b"".join(b"%s line %d\n" % (name.encode(), i) for i in range(lines)))
    files = [path]
    for suffix in extra:
        other = root / f"{name}{suffix}"
        other.write_bytes(b"replay")
        files.append(other)
    return files


class TestPlanChunks:
    def test_fixed_line_chunks_cross_day_boundaries(self, tmp_path):
        days = [_day(tmp_path, "d1", 5), _day(tmp_path, "d2", 6)]
        chunks = _plan_chunks(days, per_chunk=4)
        assert [c.lines for c in chunks] == [4, 4, 3]
        # The second chunk ends d1 and starts d2.
        assert [name for name, _ in chunks[1].writes] == ["d1.log", "d2.log"]

    def test_every_byte_appended_once_in_order(self, tmp_path):
        days = [_day(tmp_path, "d1", 7), _day(tmp_path, "d2", 3, extra=(".log.gz",))]
        written = {}
        for chunk in _plan_chunks(days, per_chunk=3):
            for name, data in chunk.writes:
                written[name] = written.get(name, b"") + data
        for files in days:
            for path in files:
                assert written[path.name] == path.read_bytes()

    def test_replayed_copy_lands_beside_the_first_lines_of_its_day(self, tmp_path):
        days = [_day(tmp_path, "d1", 2), _day(tmp_path, "d2", 4, extra=(".log.gz",))]
        chunks = _plan_chunks(days, per_chunk=3)
        names = [name for chunk in chunks for name, _ in chunk.writes]
        assert names.index("d2.log.gz") == names.index("d2.log") + 1
        assert sum(c.lines for c in chunks) == 6

    def test_day_without_plain_log_rides_with_the_next_chunk(self, tmp_path):
        gz_only = tmp_path / "d1.log.gz"
        gz_only.write_bytes(b"gz")
        days = [[gz_only], _day(tmp_path, "d2", 2)]
        chunks = _plan_chunks(days, per_chunk=5)
        assert len(chunks) == 1
        assert [name for name, _ in chunks[0].writes] == ["d1.log.gz", "d2.log"]


class TestFleetWatch:
    def test_reads_lines_read_from_fleet_replies_only(self):
        watch = FleetWatch()
        watch("/v1/alerts", b'{"lines_read": 99}')
        watch("/v1/fleet", b'{"report": {}, "stream": {"lines_read": 120, "drained": false}}')
        assert watch.latest() == 120
        assert len(watch.seen) == 1

    def test_freshness_is_first_reply_after_the_append_reaching_target(self):
        watch = FleetWatch()
        watch.seen = [(1.0, 100), (1.2, 100), (1.3, 150), (1.5, 160)]
        assert watch.first_reaching(1.1, 150) == 1.3 - 1.1
        # A reply before the append does not count, even if it reached.
        assert watch.first_reaching(1.4, 150) == 1.5 - 1.4
        assert watch.first_reaching(1.1, 200) is None


class TestScheduleSizing:
    def test_ladder_step_always_holds_enough_requests_for_p99(self):
        # At 800 req/s a 1.25 s step expects exactly 1,000 requests, so
        # about half of the Poisson draws fall short; the step must grow.
        for seed in range(20):
            step = _schedule_holding(seed, 800.0, LADDER_STEP_REQUESTS / 800.0, LADDER_STEP_REQUESTS)
            assert len(step) >= LADDER_STEP_REQUESTS

    def test_base_schedule_holds_the_fleet_samples(self):
        for seed in range(5):
            schedule = base_schedule(seed, 0.0, FLEET_SAMPLES_P99)
            assert sum(1 for _, route in schedule if route == "/v1/fleet") >= FLEET_SAMPLES_P99

    def test_schedule_is_deterministic_per_seed(self):
        assert _schedule_holding(3, 400.0, 1.0, 300) == _schedule_holding(3, 400.0, 1.0, 300)
