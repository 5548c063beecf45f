"""Tests of the benchmark's own metric code on synthetic inputs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
from spans import Tracer  # noqa: E402


class FakeHistogram:
    def __init__(self, count):
        self.count = count

    def percentile(self, pct):
        return pct


class Req:
    def __init__(self, intended, dispatched):
        self.intended = intended
        self.dispatched = dispatched


class TestPercentileSupport:
    def test_p999_needs_ten_samples_beyond(self):
        assert metrics.supported_percentile(FakeHistogram(9_999), 99.9) == (None, 9)
        assert metrics.supported_percentile(FakeHistogram(10_000), 99.9) == (99.9, 10)

    def test_p99_supported_earlier(self):
        assert metrics.supported_percentile(FakeHistogram(1_000), 99) == (99, 10)
        assert metrics.supported_percentile(FakeHistogram(999), 99)[0] is None

    def test_samples_beyond_rounding(self):
        assert metrics.samples_beyond(30_308, 99.9) == 30
        assert metrics.samples_beyond(0, 50) == 0


class TestFailFrac:
    def test_application_aborts_excluded(self):
        reasons = {"user_abort": 40, "not_found": 7, "duplicate_key": 3}
        assert metrics.fail_frac(100, reasons, unknown=0, censored=0) == 0.0

    def test_system_failures_counted(self):
        reasons = {"user_abort": 40, "lock_conflict": 2, "link_revoked": 1}
        # 2 retries exhausted + 1 fenced + 3 killed + 4 censored.
        assert metrics.fail_frac(100, reasons, unknown=3, censored=4) == pytest.approx(0.10)

    def test_no_intended_requests_rejected(self):
        with pytest.raises(ValueError):
            metrics.fail_frac(0, {}, 0, 0)

    def test_co_identity(self):
        assert metrics.check_co_identity(10, 7, 2, 1) is None
        assert "intended 10" in metrics.check_co_identity(10, 7, 2, 0)


class TestSloMaxTps:
    def test_highest_rung_within_limit(self):
        rungs = [(200e3, 60.0, False), (300e3, 240.0, False), (400e3, 700.0, False)]
        assert metrics.slo_max_tps(rungs) == 300e3

    def test_limit_is_inclusive(self):
        assert metrics.slo_max_tps([(200e3, metrics.SLO_P99_LIMIT_US, False)]) == 200e3

    def test_growing_backlog_disqualifies(self):
        rungs = [(200e3, 60.0, False), (300e3, 100.0, True)]
        assert metrics.slo_max_tps(rungs) == 200e3

    def test_non_monotone_ladder_takes_highest_passing(self):
        rungs = [(200e3, 300.0, False), (300e3, 200.0, False)]
        assert metrics.slo_max_tps(rungs) == 300e3

    def test_no_rung_meets_the_limit(self):
        rungs = [(200e3, 251.0, False), (300e3, 100.0, True)]
        assert metrics.slo_max_tps(rungs) == 0.0
        assert metrics.slo_max_tps([]) == 0.0


class TestBacklog:
    def test_backlog_at_counts_waiting_requests(self):
        requests = [Req(0.0, 0.5), Req(1.0, None), Req(1.5, 3.0), Req(2.5, 2.6)]
        # At t=2: the second never dispatched, the third dispatched at 3.
        assert metrics.backlog_at(requests, 2.0) == 2

    def test_growing_threshold_is_one_ms_of_arrivals(self):
        assert not metrics.backlog_growing(400, 400e3)
        assert metrics.backlog_growing(401, 400e3)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_self_time_is_span_minus_covered_children(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        tracer.begin("parent")          # t=0
        clock.now = 2
        tracer.begin("child")           # t=2
        clock.now = 5
        tracer.end()                    # child 2..5
        clock.now = 6
        tracer.begin("child")           # t=6
        clock.now = 7
        tracer.begin("grandchild")
        clock.now = 7
        tracer.end()
        tracer.end()                    # child 6..7
        clock.now = 10
        tracer.end()                    # parent 0..10
        count, total, self_ns = tracer.totals["parent"]
        assert (count, total, self_ns) == (1, 10, 10 - 3 - 1)
        assert tracer.totals["child"] == [2, 4, 4]

    def test_generator_steps_are_spans_and_behave_like_yield_from(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)

        def inner():
            clock.now += 3
            got = yield "a"
            clock.now += 4
            try:
                yield got
            except KeyError:
                clock.now += 1
            return "done"

        outer = tracer.steps("step", inner(), request=tracer.new_request())
        assert next(outer) == "a"
        assert outer.send("b") == "b"
        with pytest.raises(StopIteration) as stop:
            outer.throw(KeyError("x"))
        assert stop.value.value == "done"
        assert tracer.totals["step"] == [3, 8, 8]
        assert {span[2] for span in tracer.spans} == {1}

    def test_close_reaches_inner_generator(self):
        closed = []

        def inner():
            try:
                yield 1
            finally:
                closed.append(True)

        outer = Tracer().steps("step", inner())
        next(outer)
        outer.close()
        assert closed == [True]

    def test_span_sample_is_bounded(self):
        tracer = Tracer(sample_requests=1, max_spans=2)
        tracer.request = 1
        for _ in range(3):
            tracer.begin("x")
            tracer.end()
        tracer.request = 2
        tracer.begin("x")
        tracer.end()
        assert len(tracer.spans) == 2
        assert tracer.dropped_spans == 1
        assert tracer.calls("x") == 4


def test_spread_matches_quartile_rule():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert metrics.spread(values) == pytest.approx((4.5 - 1.5) / 3.0)
