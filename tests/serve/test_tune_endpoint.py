"""Integration tests of the streaming ``POST /v1/tune`` endpoint."""

import http.client
import json

import pytest

from repro.apps import cloudsc
from repro.serve.app import AnalysisServer
from repro.tool.session import Session


@pytest.fixture()
def server():
    srv = AnalysisServer(
        Session(cloudsc.build_sdfg()), port=0, workers=2
    ).start_background()
    yield srv
    srv.stop()


def post_tune(server, body, timeout=120):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=timeout)
    try:
        conn.request(
            "POST", "/v1/tune", json.dumps(body).encode(),
            {"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        raw = resp.read().decode()
        if resp.status != 200:
            # Error responses are one pretty-printed JSON object.
            return resp.status, [json.loads(raw)]
        events = [
            json.loads(line) for line in raw.splitlines() if line.strip()
        ]
        return resp.status, events
    finally:
        conn.close()


class TestTuneEndpoint:
    def test_streams_search_to_completion(self, server):
        status, events = post_tune(server, {
            "params": cloudsc.LOCAL_VIEW_SIZES,
            "beam": 4, "depth": 2, "budget": 60,
            "capacity": cloudsc.CACHE["capacity_lines"],
        })
        assert status == 200
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert kinds.count("round") >= 1
        assert kinds.count("candidate") >= 1
        end = events[-1]
        assert end["improvement"] >= 0.20
        assert end["best"]["moved_bytes"] < end["baseline"]["moved_bytes"]

    def test_candidate_events_carry_scores(self, server):
        _, events = post_tune(server, {
            "params": cloudsc.LOCAL_VIEW_SIZES, "beam": 2, "depth": 1,
            "budget": 20, "capacity": cloudsc.CACHE["capacity_lines"],
        })
        candidates = [e for e in events if e["event"] == "candidate"]
        assert candidates
        for event in candidates:
            assert event["moved_bytes"] > 0
            assert event["sequence"]

    def test_missing_params_400(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=30
        )
        try:
            conn.request(
                "POST", "/v1/tune", b"{}",
                {"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            assert "params" in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_bad_settings_400(self, server):
        for body in (
            {"params": {"NBLOCKS": 4, "KLEV": 2}, "beam": 0},
            {"params": {"NBLOCKS": 4, "KLEV": 2}, "line_size": -1},
            {"params": {"NBLOCKS": "x"}},
            {"params": {"NBLOCKS": 4}, "transforms": "reorder_map"},
        ):
            status, events = post_tune(server, body)
            assert status == 400, body

    def test_params_must_be_symbols(self, server):
        status, events = post_tune(server, {
            "params": {**cloudsc.LOCAL_VIEW_SIZES, "Z": 9}, "budget": 2,
        })
        assert status == 400
        assert "'Z'" in events[0]["error"]

    def test_unknown_transform_reported_in_stream(self, server):
        """Search-time failures arrive as a terminal error event, not a
        broken connection."""
        status, events = post_tune(server, {
            "params": cloudsc.LOCAL_VIEW_SIZES,
            "transforms": ["not_a_transform"],
        })
        assert status == 200  # stream head was already committed
        assert events[-1]["event"] == "error"
        assert events[-1]["kind"] == "TuningError"
        assert "not_a_transform" in events[-1]["error"]
