"""Tests for the Session facade and the CLI."""

import xml.etree.ElementTree as ET

import pytest

from repro.apps import hdiff as H
from repro.errors import ReproError
from repro.frontend import pmap, program
from repro.sdfg.dtypes import float64
from repro.tool import Session
from repro.tool.cli import EXIT_SWEEP_FAILURES, main as cli_main
from repro.symbolic import symbols

I, J = symbols("I J")


@program
def outer_product(A: float64[I], B: float64[J], C: float64[I, J]):
    for i, j in pmap(I, J):
        C[i, j] = A[i] * B[j]


@pytest.fixture
def session():
    return Session(outer_product)


class TestSession:
    def test_accepts_program_and_sdfg(self):
        Session(outer_product)
        Session(outer_product.to_sdfg())
        with pytest.raises(ReproError):
            Session(42)


class TestGlobalView:
    def test_metrics(self, session):
        gv = session.global_view()
        env = {"I": 16, "J": 8}
        assert gv.total_movement(env) == (16 + 8 + 16 * 8) * 8
        assert gv.total_ops(env) == 16 * 8

    def test_heatmaps(self, session):
        gv = session.global_view()
        env = {"I": 16, "J": 8}
        assert len(gv.movement_heatmap(env)) > 0
        assert len(gv.intensity_heatmap(env)) > 0
        assert len(gv.opcount_heatmap(env)) > 0

    def test_render_with_overlays(self, session):
        gv = session.global_view()
        svg = gv.render(env={"I": 8, "J": 8}, edge_overlay="movement",
                        node_overlay="intensity")
        ET.fromstring(svg)

    def test_render_rejects_unknown_overlay(self, session):
        gv = session.global_view()
        with pytest.raises(ReproError):
            gv.render(env={"I": 4, "J": 4}, edge_overlay="???")
        with pytest.raises(ReproError):
            gv.render(env={"I": 4, "J": 4}, node_overlay="???")

    def test_movement_overlay_requires_env(self, session):
        with pytest.raises(ReproError):
            session.global_view().render(edge_overlay="movement")

    def test_scaling_sweep(self, session):
        gv = session.global_view()
        result = gv.scaling_sweep("I", [8, 16, 32], {"I": 8, "J": 8})
        assert result.values[0] < result.values[1] < result.values[2]

    def test_rank_parameters(self, session):
        gv = session.global_view()
        ranking = dict(gv.rank_parameters({"I": 8, "J": 8}))
        assert set(ranking) == {"I", "J"}

    def test_outline(self, session):
        assert session.global_view().outline().find("main") is not None


class TestLocalView:
    def test_access_heatmap(self, session):
        lv = session.local_view({"I": 3, "J": 4})
        counts = lv.access_heatmap("A")
        assert counts == {(0,): 4, (1,): 4, (2,): 4}

    def test_sliders(self, session):
        lv = session.local_view({"I": 3, "J": 4})
        sliders = lv.sliders()
        sliders.set("i", 1)
        sliders.set("j", 2)
        assert sliders.highlighted_elements()["C"] == {(1, 2)}

    def test_cache_line_neighbors(self, session):
        lv = session.local_view({"I": 8, "J": 8}, line_size=32)
        neighbors = lv.cache_line_neighbors("A", (0,))
        assert (1,) in neighbors

    def test_reuse_heatmap(self, session):
        lv = session.local_view({"I": 4, "J": 4})
        heat = lv.reuse_heatmap("A", stat="median")
        assert heat  # A is re-read: finite distances exist
        with pytest.raises(ReproError):
            lv.reuse_heatmap("A", stat="mode")

    def test_miss_counts_and_movement(self, session):
        lv = session.local_view({"I": 8, "J": 8}, capacity_lines=1024)
        misses = lv.miss_counts()
        moved = lv.physical_movement()
        assert set(misses) == set(moved)
        for name, counts in misses.items():
            assert moved[name] == counts.misses * 64

    def test_miss_heatmap(self, session):
        lv = session.local_view({"I": 8, "J": 8})
        heat = lv.miss_heatmap("A")
        assert sum(heat.values()) >= 1  # at least the cold miss

    def test_render_container_and_histogram(self, session):
        lv = session.local_view({"I": 3, "J": 4})
        svg = lv.render_container("A", values=dict(lv.access_heatmap("A")))
        ET.fromstring(svg)
        hist = lv.render_reuse_histogram("A", (0,))
        ET.fromstring(hist)

    def test_histogram_unknown_element(self, session):
        lv = session.local_view({"I": 3, "J": 4})
        with pytest.raises(ReproError):
            lv.render_reuse_histogram("A", (99,))

    def test_invalidate(self, session):
        lv = session.local_view({"I": 3, "J": 4})
        first = lv.result
        lv.invalidate()
        assert lv.result is not first

    def test_related(self, session):
        lv = session.local_view({"I": 3, "J": 4})
        counts = lv.related([("C", (1, 2))])
        assert counts[("A", (1,))] == 1
        assert counts[("B", (2,))] == 1


class TestEndToEndReport:
    def test_hdiff_report(self, tmp_path):
        session = Session(H.build_sdfg())
        report = session.report()
        gv = session.global_view()
        report.add_svg(gv.render(env=H.LOCAL_VIEW_SIZES, edge_overlay="movement"))
        lv = session.local_view(H.LOCAL_VIEW_SIZES, capacity_lines=4)
        report.add_table(
            ["container", "moved bytes"],
            sorted(lv.physical_movement().items()),
        )
        path = tmp_path / "hdiff.html"
        report.save(str(path))
        text = path.read_text()
        assert "in_field" in text and "<svg" in text


class TestCLI:
    PROGRAM_SOURCE = '''
import repro
from repro.sdfg.dtypes import float64
from repro.symbolic import symbols

I, J = symbols("I J")

@repro.program
def demo(A: float64[I], B: float64[J], C: float64[I, J]):
    for i, j in repro.pmap(I, J):
        C[i, j] = A[i] * B[j]
'''

    def write_module(self, tmp_path):
        module = tmp_path / "demo_prog.py"
        module.write_text(self.PROGRAM_SOURCE)
        return module

    def test_full_report(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        out = tmp_path / "report.html"
        rc = cli_main([
            str(module), "--params", "I=8,J=8", "--local", "I=3,J=4",
            "-o", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "Global view" in text and "Local view" in text
        assert "total logical movement" in text

    def test_without_params(self, tmp_path):
        module = self.write_module(tmp_path)
        out = tmp_path / "r.html"
        assert cli_main([str(module), "-o", str(out)]) == 0
        assert "Pass --params" in out.read_text()

    def test_missing_file(self, tmp_path, capsys):
        rc = cli_main([str(tmp_path / "nope.py")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_function(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        rc = cli_main([str(module), "--function", "zzz"])
        assert rc == 1

    def test_bad_params(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        rc = cli_main([str(module), "--params", "I8"])
        assert rc == 1

    def test_sweep_table(self, tmp_path):
        module = self.write_module(tmp_path)
        out = tmp_path / "sweep.html"
        rc = cli_main([
            str(module), "--local", "I=3,J=4",
            "--sweep", "I=3,4", "--sweep", "J=2,4",
            "-o", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert "Parametric sweep" in text
        assert "4 sweep points" in text
        assert "I=4, J=2" in text

    def test_sweep_with_workers(self, tmp_path):
        module = self.write_module(tmp_path)
        out = tmp_path / "sweep.html"
        rc = cli_main([
            str(module), "--local", "I=3,J=4",
            "--sweep", "I=2,3,4", "--workers", "2",
            "-o", str(out),
        ])
        assert rc == 0
        assert "2 workers" in out.read_text()

    def test_bad_sweep_axis(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        rc = cli_main([
            str(module), "--local", "I=3,J=4", "--sweep", "I:3,4",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestCLIObservability:
    def write_module(self, tmp_path):
        module = tmp_path / "demo_prog.py"
        module.write_text(TestCLI.PROGRAM_SOURCE)
        return module

    def test_trace_and_metrics_exports(self, tmp_path, capsys):
        import json

        module = self.write_module(tmp_path)
        out = tmp_path / "report.html"
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = cli_main([
            str(module), "--local", "I=3,J=4", "--sweep", "I=3,4",
            "-o", str(out), "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert f"trace written to {trace}" in captured
        assert f"metrics written to {metrics}" in captured
        trace_doc = json.loads(trace.read_text())
        names = {span["name"] for span in trace_doc["spans"]}
        assert "sweep" in names and "sweep.point" in names
        metrics_doc = json.loads(metrics.read_text())
        assert metrics_doc["counters"]["sweep.points"] == 2
        assert metrics_doc["histograms"]["sweep.point_seconds"]["count"] == 2

    def test_explain_cache_prints_pass_report(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        out = tmp_path / "report.html"
        rc = cli_main([
            str(module), "--params", "I=8,J=8", "--local", "I=3,J=4",
            "-o", str(out), "--explain-cache",
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "analysis-pass cache report:" in captured
        # A report simulates nothing beyond the engine's own regions.
        rows = {line.split()[0]: line.split()[1:] for line in captured.splitlines() if line}
        assert rows["local.trace"][:2] == ["0", "0"]
        assert int(rows["local.analytic"][0]) == 1
        assert "first run" in captured
        assert "result store:" in captured

    def test_timings_prints_the_stage_table(self, tmp_path, capsys):
        module = self.write_module(tmp_path)
        out = tmp_path / "report.html"
        rc = cli_main([
            str(module), "--params", "I=8,J=8", "--local", "I=3,J=4",
            "-o", str(out), "--timings",
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        table = captured.split("pipeline stage timings:\n", 1)[1].splitlines()
        assert table[0].split() == ["stage", "spans", "total"]
        rows = {line.split()[0]: line.split()[1:] for line in table[1:]}
        # The local view's heatmaps and miss counts come from the engine.
        for stage in ("pass:local.analytic", "evaluate", "classify", "(all)"):
            assert stage in rows, stage
        count, total = rows["pass:local.analytic"]
        assert int(count) >= 1 and total.endswith("ms")
        assert "pass:local.trace" not in rows

    def test_failed_sweep_points_are_reported_and_exit_nonzero(
        self, tmp_path, capsys
    ):
        # Sweeping only I leaves J unassigned at every point: each point
        # fails deterministically, the report records the failures and
        # the command exits non-zero so scripts cannot mistake the
        # partial report for success.
        module = self.write_module(tmp_path)
        out = tmp_path / "report.html"
        rc = cli_main([
            str(module), "--sweep", "I=3,4", "-o", str(out),
        ])
        assert rc == EXIT_SWEEP_FAILURES
        text = out.read_text()
        assert "failed (error)" in text
        assert "2 failed" in text
        err = capsys.readouterr().err
        assert "warning: 2 of 2 sweep points failed" in err
        assert "2 sweep point(s) failed" in err


class TestCLISweepFailureExit:
    """A partially-failed sweep must list the failures and exit non-zero."""

    FAILING_SOURCE = '''
import repro
from repro.sdfg.dtypes import float64
from repro.symbolic import symbols

I, J = symbols("I J")

@repro.program
def fragile(A: float64[I], C: float64[I, J]):
    for i, j in repro.pmap(I, J):
        C[i, j] = A[i // (J - 1)]
'''

    def write_module(self, tmp_path):
        module = tmp_path / "fragile_prog.py"
        module.write_text(self.FAILING_SOURCE)
        return module

    def test_partial_failure_lists_points_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        # J=1 divides an index expression by zero; J=2 and J=3 succeed.
        module = self.write_module(tmp_path)
        out = tmp_path / "report.html"
        rc = cli_main([
            str(module), "--local", "I=2,J=2",
            "--sweep", "J=1,2,3", "-o", str(out),
        ])
        assert rc == EXIT_SWEEP_FAILURES
        text = out.read_text()
        # The failing point is listed in the report, next to the
        # successful ones.
        assert "1 of 3 sweep points failed" in text
        assert "failed (error)" in text
        assert "3 sweep points, 1 failed" in text
        err = capsys.readouterr().err
        assert "warning: 1 of 3 sweep points failed" in err
        assert "1 sweep point(s) failed" in err

    def test_fully_successful_sweep_still_exits_zero(self, tmp_path):
        module = self.write_module(tmp_path)
        out = tmp_path / "report.html"
        rc = cli_main([
            str(module), "--local", "I=2,J=2",
            "--sweep", "J=2,3", "-o", str(out),
        ])
        assert rc == 0
        assert "failed" not in out.read_text()
