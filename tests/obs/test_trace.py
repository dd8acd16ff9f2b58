"""Tests for the hierarchical tracing spans."""

import json
import threading
from contextlib import contextmanager

import pytest

from repro.analysis.timing import maybe_span
from repro.obs import Tracer
from repro.obs.trace import NULL_SPAN, NullSpan


class TestSpanRecording:
    def test_span_measures_time_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", items=3) as span:
            span.set(extra="yes")
        [recorded] = tracer.spans("work")
        assert recorded is span
        assert recorded.seconds >= 0
        assert recorded.attributes == {"items": 3, "extra": "yes"}
        assert recorded.status == "ok"

    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child"):
                pass
        root = tracer.roots()[0]
        assert root.name == "root"
        children = tracer.children(root)
        assert [c.name for c in children] == ["child", "child"]
        assert tracer.children(children[0])[0].name == "grandchild"
        assert tracer.children(children[1]) == []

    def test_exception_marks_span_failed_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no good")
        [span] = tracer.spans("boom")
        assert span.status == "error"
        assert "no good" in span.error
        assert span.end is not None  # still closed

    def test_record_backdates_a_measured_span(self):
        tracer = Tracer()
        span = tracer.record("worker.point", 1.5, index=4)
        assert span.seconds == pytest.approx(1.5)
        assert span.attributes == {"index": 4}
        assert tracer.count("worker.point") == 1

    def test_record_parents_under_active_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.record("inner", 0.01)
        [inner] = tracer.spans("inner")
        assert inner.parent_id == outer.span_id

    def test_add_is_stagetimings_compatible(self):
        tracer = Tracer()
        tracer.add("layout", 0.25)
        assert tracer.total("layout") == pytest.approx(0.25)

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()

        def worker():
            with tracer.span("thread-root"):
                pass

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        [other] = tracer.spans("thread-root")
        assert other.parent_id is None  # not parented under main-root

    def test_queries_and_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        assert tracer.count("a") == 2
        assert tracer.total("a") == sum(s.seconds for s in tracer.spans("a"))
        tracer.reset()
        assert tracer.spans() == []


class _FlatTimings:
    """A flat stage timer: ``span`` records the stage name, yields nothing."""

    def __init__(self):
        self.names = []

    @contextmanager
    def span(self, name):
        self.names.append(name)
        yield


class TestStageTimingsInterop:
    """``maybe_span`` takes any stage collector with a ``span(name)``
    context manager: the :class:`Tracer`, or a flat stage timer whose
    spans yield no attribute sink of their own."""

    def test_maybe_span_accepts_tracer_and_stagetimings(self):
        tracer = Tracer()
        with maybe_span(tracer, "stage") as span:
            span.set(marker=1)
        assert tracer.spans("stage")[0].attributes == {"marker": 1}

        timings = _FlatTimings()
        with maybe_span(timings, "stage") as span:
            assert span.set(marker=1) is span  # no-op sink, chainable
        assert timings.names == ["stage"]

        with maybe_span(None, "stage") as span:
            assert isinstance(span, NullSpan)

    def test_stagetimings_span_yields_null_sink(self):
        timings = _FlatTimings()
        with maybe_span(timings, "classify") as span:
            assert span is NULL_SPAN
        assert timings.names == ["classify"]


class TestExport:
    def test_to_dict_and_json_roundtrip(self):
        tracer = Tracer()
        with tracer.span("root", points=2):
            tracer.record("point", 0.1)
        doc = json.loads(tracer.to_json())
        assert doc == tracer.to_dict()
        names = [s["name"] for s in doc["spans"]]
        assert set(names) == {"root", "point"}
        root = next(s for s in doc["spans"] if s["name"] == "root")
        assert root["attributes"] == {"points": 2}
        assert root["parent"] is None

    def test_export_writes_json_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tmp_path / "trace.json"
        tracer.export(str(path))
        doc = json.loads(path.read_text())
        assert doc["spans"][0]["name"] == "only"

    def test_report_renders_tree_with_errors(self):
        tracer = Tracer()
        with tracer.span("root"):
            with pytest.raises(RuntimeError):
                with tracer.span("leaf"):
                    raise RuntimeError("broken leaf")
        report = tracer.report()
        assert "root" in report
        assert "  leaf" in report  # indented under the root
        assert "broken leaf" in report

    def test_empty_report(self):
        assert Tracer().report() == "no spans recorded"
