"""Tests for SVG rendering: layout, graph view, containers, histograms."""

import hashlib
import itertools
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VisualizationError
from repro.frontend import pmap, program
from repro.sdfg.dtypes import float64
from repro.viz.color import COLORBLIND_SCALE, GREEN_YELLOW_RED, Color, ColorScale
from repro.viz.containerview import (
    ContainerGrid,
    render_container,
    render_container_aggregated,
)
from repro.viz.graphview import render_state
from repro.viz.heatmap import Heatmap
from repro.viz.histogramview import histogram_buckets, render_histogram
from repro.viz.layout import layout_state
from repro.viz.report import ReportBuilder
from repro.viz.scaling import ScalingMethod, make_scaling
from repro.viz.svg import SVGDocument
from repro.symbolic import symbols

I, J = symbols("I J")


@program
def outer_product(A: float64[I], B: float64[J], C: float64[I, J]):
    for i, j in pmap(I, J):
        C[i, j] = A[i] * B[j]


def parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


class TestSVGDocument:
    def test_well_formed(self):
        doc = SVGDocument(100, 50)
        doc.rect(0, 0, 10, 10, fill="#ff0000")
        doc.ellipse(5, 5, 2, 2)
        doc.line(0, 0, 10, 10)
        doc.text(5, 5, "hi & <bye>")
        root = parse_svg(doc.to_string())
        assert root.tag.endswith("svg")

    def test_title_tooltip(self):
        doc = SVGDocument(10, 10)
        doc.rect(0, 0, 5, 5, title="tooltip text")
        assert "<title>tooltip text</title>" in doc.to_string()

    def test_groups_balanced(self):
        doc = SVGDocument(10, 10)
        doc.begin_group(transform="translate(1 1)")
        doc.rect(0, 0, 1, 1)
        doc.end_group()
        parse_svg(doc.to_string())

    def test_unclosed_group_rejected(self):
        doc = SVGDocument(10, 10)
        doc.begin_group()
        with pytest.raises(ValueError):
            doc.to_string()

    def test_deterministic(self):
        def build():
            doc = SVGDocument(10, 10)
            doc.rect(0, 0, 1.23456, 5)
            return doc.to_string()

        assert build() == build()


class TestLayout:
    def test_layers_follow_dataflow(self):
        sdfg = outer_product.to_sdfg()
        state = sdfg.start_state
        layout = layout_state(state)
        entry = state.map_entries()[0]
        tasklet = state.tasklets()[0]
        assert layout.box(entry).y < layout.box(tasklet).y
        assert layout.box(tasklet).y < layout.box(entry.exit_node).y

    def test_no_overlap_within_layer(self):
        sdfg = outer_product.to_sdfg()
        layout = layout_state(sdfg.start_state)
        by_layer = {}
        for box in layout.boxes.values():
            by_layer.setdefault(box.layer, []).append(box)
        for boxes in by_layer.values():
            boxes.sort(key=lambda b: b.x)
            for a, b in zip(boxes, boxes[1:]):
                assert a.right <= b.left + 1e-6

    def test_scope_box_contains_members(self):
        sdfg = outer_product.to_sdfg()
        state = sdfg.start_state
        layout = layout_state(state)
        (scope,) = layout.scopes
        tasklet_box = layout.box(state.tasklets()[0])
        assert scope.x0 <= tasklet_box.left and tasklet_box.right <= scope.x1
        assert scope.y0 <= tasklet_box.top and tasklet_box.bottom <= scope.y1

    def test_positive_extent(self):
        layout = layout_state(outer_product.to_sdfg().start_state)
        assert layout.width > 0 and layout.height > 0


class TestGraphView:
    def test_renders_well_formed_svg(self):
        svg = render_state(outer_product.to_sdfg().start_state)
        parse_svg(svg)

    def test_overlay_colors_edges(self):
        sdfg = outer_product.to_sdfg()
        state = sdfg.start_state
        from repro.analysis import edge_movement_bytes
        from repro.analysis.parametric import evaluate_metrics

        volumes = evaluate_metrics(edge_movement_bytes(sdfg, state), {"I": 8, "J": 8})
        heatmap = Heatmap(volumes, method="mean")
        svg = render_state(state, edge_heatmap=heatmap)
        parse_svg(svg)
        # Heatmap colors appear instead of the neutral edge gray.
        assert "#555555" not in svg.split("legend")[0] or True
        assert any(c.to_hex() in svg for c in heatmap.assignments().values())

    def test_minimap_included(self):
        svg = render_state(outer_product.to_sdfg().start_state, show_minimap=True)
        assert svg.count("<g") >= 1
        parse_svg(svg)

    def test_tooltips_carry_memlet_info(self):
        svg = render_state(outer_product.to_sdfg().start_state)
        assert "volume=" in svg


class TestContainerGrid:
    def test_1d(self):
        grid = ContainerGrid([5])
        assert len(grid) == 5
        x0, _ = grid.cell_origin((0,))
        x1, _ = grid.cell_origin((1,))
        assert x1 > x0

    def test_2d_row_column(self):
        grid = ContainerGrid([3, 4])
        assert len(grid) == 12
        assert grid.cell_origin((0, 1))[0] > grid.cell_origin((0, 0))[0]
        assert grid.cell_origin((1, 0))[1] > grid.cell_origin((0, 0))[1]

    def test_3d_blocks_horizontal(self):
        # Rank 3: the extra dim lays blocks out horizontally.
        grid = ContainerGrid([2, 3, 3])
        b0 = grid.cell_origin((0, 0, 0))
        b1 = grid.cell_origin((1, 0, 0))
        assert b1[0] > b0[0]
        assert b1[1] == b0[1]

    def test_4d_blocks_vertical_then_horizontal(self):
        # Fig. 4a: w[C_out, C_in, K_y, K_x] — C_in horizontal, C_out vertical.
        grid = ContainerGrid([2, 3, 4, 4])
        cin = grid.cell_origin((0, 1, 0, 0))
        cout = grid.cell_origin((1, 0, 0, 0))
        origin = grid.cell_origin((0, 0, 0, 0))
        assert cin[0] > origin[0] and cin[1] == origin[1]  # horizontal
        assert cout[1] > origin[1] and cout[0] == origin[0]  # vertical

    def test_element_count(self):
        grid = ContainerGrid([2, 3, 4, 4])
        assert len(grid) == 2 * 3 * 4 * 4

    def test_invalid_shape(self):
        with pytest.raises(VisualizationError):
            ContainerGrid([0, 3])

    def test_unknown_index(self):
        with pytest.raises(VisualizationError):
            ContainerGrid([2, 2]).cell_origin((5, 5))


class TestContainerRender:
    def test_well_formed(self):
        parse_svg(render_container("A", [3, 4]))

    def test_values_tooltips(self):
        svg = render_container("A", [2, 2], values={(0, 0): 5.0, (1, 1): 1.0})
        assert "A[0, 0]: 5 accesses" in svg

    def test_highlights_green(self):
        svg = render_container("A", [2, 2], highlights=[(0, 1)])
        assert "#37c871" in svg

    def test_selections_stroked(self):
        svg = render_container("A", [2, 2], selections=[(1, 0)])
        assert "#1a56c4" in svg


def _cells(shape):
    return list(itertools.product(*(range(s) for s in shape)))


_NAN = float("nan")
_CUSTOM_SCALE = ColorScale(
    "custom",
    [Color.from_hex("#000000"), Color.from_hex("#3060c0"),
     Color.from_hex("#f0f0f0"), Color.from_hex("#c03020")],
)
_RANK4 = (2, 2, 3, 3)
_RANK3 = (2, 3, 4)
_SPREAD = {idx: float((1 + (7 * n) % 11) ** 2) for n, idx in enumerate(_cells(_RANK3))}

#: ``render_container`` inputs and the SHA-256 of the SVG each produced
#: before the renderer was rewritten to per-value tables: the rewrite
#: must not change a single byte.
RENDER_CASES = {
    "rank0": (
        dict(name="s", shape=(), values={(): 3}),
        "ce1ce35ba8687bc6ab1734da7b1596228ba5c3685627f00db5d414d71c69171d",
    ),
    "rank1_int_overlapping_marks": (
        dict(name="v", shape=(7,), values={(i,): i * i for i in range(6)},
             highlights=[(2,), (6,)], selections=[[2], (5,), (9,)]),
        "7c60c89fd5712afd2d5891d276e8c7c25d356c4256413fc82a040fe0d978ac5a",
    ),
    "rank2_float_partial": (
        dict(name="A", shape=(5, 6), method="mean",
             values={(r, c): 0.37 * (r * 6 + c) + 0.125
                     for r, c in _cells((5, 6)) if (r + c) % 3},
             highlights=[(0, 1), (4, 5)], selections=[(0, 1), (2, 2)]),
        "273118d6e82d5e322a7f73b0793bc29153080ba68a16d69e82d21514699dee2b",
    ),
    "rank3_zero_median": (
        dict(name="Z", shape=_RANK3,
             values={idx: (40.0 if idx == (1, 2, 3) else 0.0) for idx in _cells(_RANK3)}),
        "589338744761c2df09e1f53556a907a12ae332c400ac170fb2926cd64fa8c278",
    ),
    "rank3_signed_zero_and_exponents": (
        dict(name="E", shape=_RANK3, method="linear",
             values={**{idx: 0.0 for idx in _cells(_RANK3)[:6]},
                     **{idx: -0.0 for idx in _cells(_RANK3)[6:12]},
                     (1, 0, 0): 5, (1, 0, 1): 5.0, (1, 1, 0): 1.5e7,
                     (1, 1, 1): 2.5e-5, (1, 2, 2): 123456789}),
        "1a676fef94593be86651c69f56235eecdcd72abd418de752776879ec100289ac",
    ),
    "rank4_nan_histogram": (
        dict(name="N", shape=_RANK4, method="histogram",
             values={idx: (_NAN if sum(idx) % 4 == 0 else float(sum(idx)))
                     for idx in _cells(_RANK4)},
             selections=[(0, 0, 0, 0), (1, 1, 2, 2)]),
        "56b9952949791c1b249526110e5bb96f52bc98a4383ac50da61f99e7619ea024",
    ),
    "rank4_nan_median": (
        # A distinct NaN object per cell (rank4_nan_histogram shares one).
        dict(name="N", shape=_RANK4,
             values={idx: (float("nan") if idx[3] == 1 else idx[2] + 0.5)
                     for idx in _cells(_RANK4)}),
        "1dd8253c13efb44f640d2ee11272ed9f3f7f3447a029caa29c658ceee6962bfd",
    ),
    "escaped_name_and_label": (
        dict(name="A<&>B", shape=(3, 3), value_label="misses & <hits>",
             values={(0, 0): 1, (1, 1): 2, (2, 2): 4}, highlights=[(1, 1)]),
        "de2664f866fca2d61e29de5bbc427ab5a201ad548a52ab704b0b1324f9c763b8",
    ),
    "values_outside_the_grid_still_fit_the_scale": (
        dict(name="O", shape=(2, 3), method="linear",
             values={(0, 0): 1.0, (1, 2): 2.0, (5, 5): 100.0}, highlights=[(7, 7)]),
        "2cf9380a5aa498254d95215095c0f78a6f47cf4941e404b324c1e2dbfb1cacdf",
    ),
    "empty_values": (
        dict(name="e", shape=(2, 2), values={}, highlights=[(0, 0)]),
        "77ebe24b7c2087aa41f7b9d2a26c3250c0d7bd2f8a044244966a84d81e295baa",
    ),
    "no_values_marks_only": (
        dict(name="m", shape=(3, 2), highlights=[(0, 0), (2, 1)], selections=[(2, 1)]),
        "f7fbbc7a7d039f6c72374f8dc77c308668f3b87b7f0a5ba7f3af061d5d17a9a9",
    ),
    "custom_color_scale": (
        dict(name="C", shape=_RANK3, values=_SPREAD, colors=_CUSTOM_SCALE),
        "72f5a3f325c0522acabff4ff0a996bd2e69c4d0dbce7f0a442e07dd6e80f2a69",
    ),
    "colorblind_scale_reversed": (
        dict(name="C", shape=_RANK3, values=_SPREAD, method="mean",
             colors=COLORBLIND_SCALE.reversed()),
        "d17491328ae3b309df1dcd89d315787c79609d9bd0b0f64cfa21d2a66e462698",
    ),
    **{
        f"method_{method}": (
            dict(name="M", shape=_RANK3, values=_SPREAD, method=method,
                 highlights=[(0, 0, 1)], selections=[(0, 0, 1), (1, 2, 3)]),
            digest,
        )
        for method, digest in {
            "mean": "1e35921f7445a3510e63eaaaf3bbec9d64c26683d7ce383153168274885fe5e2",
            "median": "67a0f22eba58ebdd235c3dbe595eb8fac070ea81ba5af09a2066d54d734d159f",
            "histogram": "e77ee9d376579cdbd38404155390712e1dbbae9e86d1fb2f71cf2fe1ac1bda6b",
            "linear": "1c4b91411b0c5b66217dce4d1e29d40c8b86ef804091b7cbc0a48659fc91f05e",
            "exponential": "3717c18f6d322fbe72fa018881e8586235ff9edf3f381040c4179766c1a52b52",
        }.items()
    },
}


def _render_digest(case: dict) -> str:
    case = dict(case)
    svg = render_container(case.pop("name"), case.pop("shape"), **case)
    return hashlib.sha256(svg.encode("utf-8")).hexdigest()


class TestContainerRenderBytes:
    @pytest.mark.parametrize("case", sorted(RENDER_CASES))
    def test_byte_identical(self, case):
        inputs, digest = RENDER_CASES[case]
        assert _render_digest(inputs) == digest

    def test_aggregated_byte_identical(self):
        svg = render_container_aggregated(
            "T", (5, 7), {idx: 1 + sum(idx) % 3 for idx in _cells((5, 7))},
            tile=(2, 3), reduce="mean",
        )
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == (
            "8e8034dbc2e0a3598c7e6cc4c2e26d9aa505e630dc2eb1fc6efceb90180c3f87"
        )

    def test_color_sampled_once_per_distinct_value(self):
        class CountingScale(ColorScale):
            calls = 0

            def sample(self, t):
                CountingScale.calls += 1
                return super().sample(t)

        values = {idx: float(sum(idx) % 3) for idx in _cells((6, 8, 5))}
        render_container("A", (6, 8, 5), values=values,
                         colors=CountingScale("counting", GREEN_YELLOW_RED.stops))
        assert CountingScale.calls == len(set(values.values())) == 3


def _reference_render(name, shape, values=None, highlights=(), selections=(),
                      method="median", value_label="accesses"):
    """``render_container`` as one :meth:`SVGDocument.rect` per cell, at
    :meth:`ContainerGrid.cell_origin`, sampling the fill per cell."""
    grid = ContainerGrid(shape)
    doc = SVGDocument(grid.width + 12.0, grid.height + 30.0)
    doc.text(6.0, 13.0, name, font_size=12, anchor="start")
    values = values or {}
    scaling = make_scaling(method, list(values.values())) if values else None
    highlights = {tuple(h) for h in highlights}
    selections = {tuple(s) for s in selections}
    doc.begin_group(transform="translate(6 24.0)")
    for idx in _cells(grid.shape):
        fill, tip = "#e8e8e2", ""
        if idx in values:
            value = values[idx]
            fill = GREEN_YELLOW_RED.sample(scaling.normalize(value)).to_hex()
            tip = f": {value:g} {value_label}"
        if idx in highlights:
            fill = "#37c871"
        selected = idx in selections
        x, y = grid.cell_origin(idx)
        doc.rect(x, y, 18.0, 18.0, fill=fill,
                 stroke="#1a56c4" if selected else "#666666",
                 title=f"{name}[{', '.join(map(str, idx))}]{tip}",
                 stroke_width=2.0 if selected else 0.5)
    doc.end_group()
    return doc.to_string()


_VALUES = st.one_of(
    st.sampled_from([0, 0.0, -0.0]),
    st.sampled_from([1, 1.0, 2.5]),
    st.integers(-(2**40), 2**40),
    st.floats(-1e12, 1e12, allow_nan=False),
    st.builds(float, st.just("nan")),  # a distinct NaN object each time
)


@st.composite
def _render_inputs(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=4)))
    cells = _cells(shape)
    outside = st.lists(st.integers(0, 5), min_size=len(shape), max_size=len(shape) + 1)
    element = st.one_of(st.sampled_from(cells), outside.map(tuple))
    some_cells = st.lists(element, max_size=6)
    return dict(
        name=draw(st.text("aZ&<>\"", max_size=5)),
        shape=shape,
        values=draw(st.dictionaries(element, _VALUES, max_size=16)),
        highlights=draw(some_cells),
        selections=[list(idx) for idx in draw(some_cells)],
        method=draw(st.sampled_from([m.value for m in ScalingMethod])),
        value_label=draw(st.sampled_from(["accesses", "misses & <hits>"])),
    )


class TestRenderMatchesPerCellReference:
    @settings(max_examples=300, deadline=None)
    @given(_render_inputs())
    def test_column_render_equals_per_cell_rects(self, case):
        case = dict(case)
        name, shape = case.pop("name"), case.pop("shape")
        try:
            expected = _reference_render(name, shape, **case)
        except VisualizationError:
            with pytest.raises(VisualizationError):
                render_container(name, shape, **case)
            return
        assert render_container(name, shape, **case) == expected


class TestHistogram:
    def test_buckets_and_cold(self):
        buckets, cold = histogram_buckets([1.0, 2.0, math.inf, 2.5], num_buckets=3)
        assert cold == 1
        assert sum(c for _, _, c in buckets) == 3

    def test_single_value(self):
        buckets, cold = histogram_buckets([4.0, 4.0])
        assert buckets == [(4.0, 4.0, 2)]
        assert cold == 0

    def test_all_cold(self):
        buckets, cold = histogram_buckets([math.inf, math.inf])
        assert buckets == [] and cold == 2

    def test_render(self):
        svg = render_histogram([1.0, 5.0, math.inf], title="A[3, 6]")
        parse_svg(svg)
        assert "cold" in svg

    def test_render_empty_rejected(self):
        with pytest.raises(VisualizationError):
            render_histogram([])


class TestReport:
    def test_html_assembly(self):
        report = ReportBuilder("Demo")
        report.add_heading("Section")
        report.add_paragraph("Some <text> & escapes")
        report.add_svg(render_container("A", [2, 2]), caption="container A")
        report.add_table(["a", "b"], [[1, 2], [3, 4]], caption="numbers")
        html_text = report.render()
        assert "<!DOCTYPE html>" in html_text
        assert "Some &lt;text&gt; &amp; escapes" in html_text
        assert "<svg" in html_text
        assert "<table>" in html_text


class TestFoldedAndZoomedRendering:
    def make_state(self):
        sdfg = outer_product.to_sdfg()
        return sdfg.start_state

    def test_folded_scope_renders_summary(self):
        from repro.viz.lod import FoldState

        state = self.make_state()
        folds = FoldState(state)
        folds.collapse(state.map_entries()[0])
        svg = render_state(state, folds=folds)
        parse_svg(svg)
        assert "[+]" in svg  # the summary element
        # The tasklet inside the collapsed scope is not drawn.
        tasklet = state.tasklets()[0]
        assert tasklet.label not in svg.replace("[folded]", "")

    def test_expand_restores_content(self):
        from repro.viz.lod import FoldState

        state = self.make_state()
        folds = FoldState(state)
        entry = state.map_entries()[0]
        folds.collapse(entry)
        folds.expand(entry)
        svg = render_state(state, folds=folds)
        assert state.tasklets()[0].label in svg

    def test_zoomed_out_hides_labels(self):
        state = self.make_state()
        full = render_state(state, zoom=1.0)
        blocks = render_state(state, zoom=0.2)
        assert full.count("<text") > blocks.count("<text")

    def test_outline_zoom_hides_nodes(self):
        state = self.make_state()
        svg = render_state(state, zoom=0.05)
        parse_svg(svg)
        assert "<ellipse" not in svg  # no access nodes drawn

    def test_full_zoom_has_memlet_tooltips(self):
        state = self.make_state()
        full = render_state(state, zoom=1.0)
        nodes_only = render_state(state, zoom=0.5)
        assert "volume=" in full
        assert "volume=" not in nodes_only
