"""The global graph view: SDFG states rendered as SVG with in-situ overlays.

This is the paper's Fig. 1 / Fig. 6 content: the program's dataflow graph
with color-coded heatmap overlays mapped directly onto edges (data
movement) and nodes (operation counts / arithmetic intensity), plus an
optional minimap.
"""

from __future__ import annotations

from repro.graph import Edge
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, Node
from repro.sdfg.state import SDFGState
from repro.viz.color import GREEN_YELLOW_RED, ColorScale
from repro.viz.heatmap import Heatmap
from repro.viz.layout import StateLayout, layout_state
from repro.viz.svg import SVGDocument

__all__ = ["GraphRenderer", "render_state"]

_NODE_FILL = "#f8f8f4"
_SCOPE_FILL = "#eef2f8"
_EDGE_COLOR = "#555555"


class GraphRenderer:
    """Renders one SDFG state with optional heatmap overlays.

    Parameters
    ----------
    state:
        The dataflow state to draw.
    edge_heatmap:
        Optional heatmap keyed by state edges (e.g. movement volumes).
    node_heatmap:
        Optional heatmap keyed by nodes (e.g. op counts or intensity).
    show_minimap:
        Draw the scaled-down overview with a viewport box in the corner.
    """

    def __init__(
        self,
        state: SDFGState,
        edge_heatmap: Heatmap | None = None,
        node_heatmap: Heatmap | None = None,
        show_minimap: bool = False,
        colors: ColorScale = GREEN_YELLOW_RED,
        folds: "FoldState | None" = None,
        zoom: float = 1.0,
    ):
        from repro.viz.lod import visible_detail

        self.state = state
        self.edge_heatmap = edge_heatmap
        self.node_heatmap = node_heatmap
        self.show_minimap = show_minimap
        self.colors = colors
        self.folds = folds
        self.zoom = zoom
        self.detail = visible_detail(zoom)
        self.layout: StateLayout = layout_state(state)
        self._hidden: set[Node] = self._hidden_nodes()

    def _hidden_nodes(self) -> set[Node]:
        """Nodes hidden by collapsed scopes (drawn as scope summaries)."""
        if self.folds is None:
            return set()
        from repro.viz.lod import FoldedScope

        visible: set[Node] = set()
        for item in self.folds.visible_nodes():
            if isinstance(item, FoldedScope):
                visible.add(item.entry)  # the entry stands in for the scope
            else:
                visible.add(item)
        return {n for n in self.state.nodes() if n not in visible}

    # -- rendering ---------------------------------------------------------
    def render(self) -> str:
        from repro.viz.lod import DetailLevel

        doc = SVGDocument(self.layout.width, self.layout.height)
        self._draw_scopes(doc)
        if self.detail is not DetailLevel.OUTLINE:
            self._draw_edges(doc)
            self._draw_nodes(doc)
        if self.edge_heatmap is not None or self.node_heatmap is not None:
            self._draw_legend(doc)
        if self.show_minimap:
            self._draw_minimap(doc)
        return doc.to_string()

    def _draw_scopes(self, doc: SVGDocument) -> None:
        for scope in self.layout.scopes:
            doc.rect(
                scope.x0,
                scope.y0,
                scope.x1 - scope.x0,
                scope.y1 - scope.y0,
                fill=_SCOPE_FILL,
                stroke="#8899bb",
                stroke_dasharray="4 3",
                rx=6,
            )

    def _edge_color_width(self, edge: Edge) -> tuple[str, float]:
        if self.edge_heatmap is not None and edge in self.edge_heatmap.values:
            position = self.edge_heatmap.position(edge)
            return self.edge_heatmap.color(edge).to_hex(), 1.0 + 3.0 * position
        return _EDGE_COLOR, 1.0

    def _draw_edges(self, doc: SVGDocument) -> None:
        from repro.viz.lod import DetailLevel

        for edge, (x1, y1), (x2, y2) in self.layout.edge_endpoints():
            if edge.src in self._hidden or edge.dst in self._hidden:
                continue
            color, width = self._edge_color_width(edge)
            title = None
            if (
                self.detail is DetailLevel.FULL
                and edge.data is not None
                and edge.data.memlet is not None
            ):
                memlet = edge.data.memlet
                title = f"{memlet.data}[{memlet.subset}] volume={memlet.volume()}"
            doc.line(x1, y1, x2, y2, stroke=color, stroke_width=width, title=title)
            # Arrowhead.
            doc.polygon(
                [(x2, y2), (x2 - 4, y2 - 7), (x2 + 4, y2 - 7)],
                fill=color,
                stroke=None,
            )

    def _node_fill(self, node: Node) -> str:
        if self.node_heatmap is not None and node in self.node_heatmap.values:
            return self.node_heatmap.color(node).to_hex()
        return _NODE_FILL

    def _draw_nodes(self, doc: SVGDocument) -> None:
        from repro.viz.layout import _node_label
        from repro.viz.lod import DetailLevel

        for node, box in self.layout.boxes.items():
            if node in self._hidden:
                continue
            fill = self._node_fill(node)
            if self.folds is not None and self.folds.is_collapsed(node):
                # Summary element for the folded scope.
                doc.rect(
                    box.left, box.top, box.width, box.height,
                    fill="#d8dde8", rx=8, stroke_dasharray="5 3",
                    title=f"{node.label} [folded]",
                )
                doc.text(box.x, box.y + 4, f"{node.label} [+]", font_size=11)
                continue
            label = _node_label(node)
            title = repr(node)
            if isinstance(node, AccessNode):
                doc.ellipse(
                    box.x, box.y, box.width / 2, box.height / 2,
                    fill=fill, title=title,
                )
            elif isinstance(node, MapEntry):
                doc.polygon(
                    [
                        (box.left, box.bottom),
                        (box.left + 15, box.top),
                        (box.right - 15, box.top),
                        (box.right, box.bottom),
                    ],
                    fill=fill,
                    title=title,
                )
            elif isinstance(node, MapExit):
                doc.polygon(
                    [
                        (box.left, box.top),
                        (box.left + 15, box.bottom),
                        (box.right - 15, box.bottom),
                        (box.right, box.top),
                    ],
                    fill=fill,
                    title=title,
                )
            else:
                doc.rect(
                    box.left, box.top, box.width, box.height,
                    fill=fill, rx=8, title=title,
                )
            if self.detail is not DetailLevel.BLOCKS:
                doc.text(box.x, box.y + 4, label, font_size=11)

    def _draw_legend(self, doc: SVGDocument) -> None:
        heatmap = self.edge_heatmap or self.node_heatmap
        assert heatmap is not None
        x, y = 10.0, self.layout.height - 24.0
        steps = 24
        seg = 4.0
        for i in range(steps):
            color = heatmap.colors.sample(i / (steps - 1))
            doc.rect(x + i * seg, y, seg, 10, fill=color.to_hex(), stroke=None)
        lo, hi = heatmap.scaling.domain()
        doc.text(x, y - 3, f"{lo:g}", font_size=8, anchor="start")
        doc.text(x + steps * seg, y - 3, f"{hi:g}", font_size=8, anchor="end")

    def _draw_minimap(self, doc: SVGDocument) -> None:
        scale = 0.12
        mw, mh = self.layout.width * scale, self.layout.height * scale
        ox, oy = self.layout.width - mw - 6, 6.0
        doc.begin_group()
        doc.rect(ox, oy, mw, mh, fill="#ffffff", stroke="#999999")
        for node, box in self.layout.boxes.items():
            doc.rect(
                ox + box.left * scale,
                oy + box.top * scale,
                max(1.0, box.width * scale),
                max(1.0, box.height * scale),
                fill="#b0b8c8",
                stroke=None,
            )
        # Viewport indicator (the full view in a static render).
        doc.rect(ox, oy, mw, mh, fill="none", stroke="#d03a30")
        doc.end_group()


def render_state(
    state: SDFGState,
    edge_heatmap: Heatmap | None = None,
    node_heatmap: Heatmap | None = None,
    show_minimap: bool = False,
    folds=None,
    zoom: float = 1.0,
) -> str:
    """One-call rendering of a state to an SVG string.

    *folds* (a :class:`~repro.viz.lod.FoldState`) collapses scopes into
    summary elements; *zoom* selects the level of detail (labels and
    memlet tooltips disappear as the view zooms out, Section IV-A).
    """
    return GraphRenderer(
        state,
        edge_heatmap=edge_heatmap,
        node_heatmap=node_heatmap,
        show_minimap=show_minimap,
        folds=folds,
        zoom=zoom,
    ).render()
