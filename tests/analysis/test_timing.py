"""Tests for per-stage timing: the tracer's flat queries and maybe_span."""

import pytest

from repro.analysis.timing import maybe_span
from repro.obs import Tracer
from repro.obs.trace import NULL_SPAN


class TestStageTimings:
    def test_add_and_total(self):
        t = Tracer()
        t.add("evaluate", 0.25)
        t.add("evaluate", 0.75)
        t.add("layout", 0.5)
        assert t.total("evaluate") == pytest.approx(1.0)
        assert t.total() == pytest.approx(1.5)
        assert t.count("evaluate") == 2

    def test_span_records_elapsed(self):
        t = Tracer()
        with t.span("stackdist"):
            pass
        assert t.count("stackdist") == 1
        assert t.total("stackdist") >= 0.0

    def test_span_records_on_exception(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("classify"):
                raise RuntimeError("boom")
        assert t.count("classify") == 1

    def test_stage_order_first_seen(self):
        t = Tracer()
        t.add("custom", 1.0)
        t.add("enumerate", 1.0)
        t.add("custom", 1.0)
        t.add("stackdist", 1.0)
        assert [name for name, _, _ in t.rows()] == [
            "custom", "enumerate", "stackdist"
        ]

    def test_rows_and_report(self):
        t = Tracer()
        t.add("evaluate", 0.002)
        rows = t.rows()
        assert rows == [("evaluate", 1, pytest.approx(0.002))]
        assert "evaluate" in t.table()
        assert Tracer().table() == "no stages recorded"

    def test_nested_spans_each_get_a_row(self):
        t = Tracer()
        with t.span("evaluate"):
            with t.span("layout"):
                pass
        assert [(name, count) for name, count, _ in t.rows()] == [
            ("evaluate", 1), ("layout", 1)
        ]

    def test_reset(self):
        t = Tracer()
        t.add("layout", 1.0)
        t.reset()
        assert t.rows() == [] and t.total() == 0.0

    def test_maybe_span_none_is_noop(self):
        with maybe_span(None, "evaluate") as span:
            assert span is NULL_SPAN
            assert span.set(marker=1) is span  # no-op sink, chainable

    def test_maybe_span_records(self):
        t = Tracer()
        with maybe_span(t, "enumerate") as span:
            span.set(marker=1)
        assert t.count("enumerate") == 1
        assert t.spans("enumerate")[0].attributes == {"marker": 1}
