"""Layered (Sugiyama-style) layout for SDFG state graphs.

Produces deterministic node coordinates for the graph renderer: nodes are
assigned to layers by longest path from the sources, ordered within layers
by repeated barycenter sweeps, and packed horizontally.  Map scopes get
surrounding boxes ("shown as boxes with trapezoidal header bars",
Section V-A) computed from the bounding box of their member nodes.
"""

from __future__ import annotations

from repro.graph import topological_sort
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, NestedSDFG, Node
from repro.sdfg.state import SDFGState

__all__ = ["NodeBox", "ScopeBox", "StateLayout", "layout_state"]

#: Layout constants (pixels).
LAYER_GAP = 50.0
NODE_GAP = 30.0
MARGIN = 20.0
NODE_HEIGHT = 34.0
CHAR_WIDTH = 7.5
MIN_NODE_WIDTH = 60.0


class NodeBox:
    """Placed geometry of one node."""

    __slots__ = ("node", "x", "y", "width", "height", "layer")

    def __init__(self, node: Node, width: float, height: float, layer: int):
        self.node = node
        self.width = width
        self.height = height
        self.layer = layer
        self.x = 0.0  # center x, assigned later
        self.y = 0.0  # center y

    @property
    def left(self) -> float:
        return self.x - self.width / 2

    @property
    def right(self) -> float:
        return self.x + self.width / 2

    @property
    def top(self) -> float:
        return self.y - self.height / 2

    @property
    def bottom(self) -> float:
        return self.y + self.height / 2

    @property
    def shape(self) -> str:
        if isinstance(self.node, AccessNode):
            return "ellipse"
        if isinstance(self.node, MapEntry):
            return "trapezoid_down"
        if isinstance(self.node, MapExit):
            return "trapezoid_up"
        if isinstance(self.node, NestedSDFG):
            return "double_rect"
        return "octagon"


class ScopeBox:
    """Bounding box drawn behind a map scope's members."""

    __slots__ = ("entry", "x0", "y0", "x1", "y1", "depth")

    def __init__(self, entry: MapEntry, x0: float, y0: float, x1: float, y1: float, depth: int):
        self.entry = entry
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.depth = depth


class StateLayout:
    """All geometry needed to render one state."""

    def __init__(self, state: SDFGState):
        self.state = state
        self.boxes: dict[Node, NodeBox] = {}
        self.scopes: list[ScopeBox] = []
        self.width = 0.0
        self.height = 0.0

    def box(self, node: Node) -> NodeBox:
        return self.boxes[node]

    def edge_endpoints(self) -> list[tuple[object, tuple[float, float], tuple[float, float]]]:
        """(edge, (x1, y1), (x2, y2)) for every edge: bottom of src → top of dst."""
        out = []
        for edge in self.state.edges():
            src, dst = self.boxes[edge.src], self.boxes[edge.dst]
            out.append((edge, (src.x, src.bottom), (dst.x, dst.top)))
        return out


def _node_label(node: Node) -> str:
    if isinstance(node, MapEntry):
        space = ", ".join(
            f"{p}={r}" for p, r in zip(node.map.params, node.map.ranges)
        )
        return f"{node.label}[{space}]"
    if isinstance(node, MapExit):
        return node.label
    return node.label


def _node_size(node: Node) -> tuple[float, float]:
    label = _node_label(node)
    width = max(MIN_NODE_WIDTH, len(label) * CHAR_WIDTH + 24)
    height = NODE_HEIGHT
    if isinstance(node, (MapEntry, MapExit)):
        width += 30  # trapezoid slant allowance
    if isinstance(node, NestedSDFG):
        height = NODE_HEIGHT * 1.4
    return width, height


def layout_state(state: SDFGState) -> StateLayout:
    """Compute a deterministic layered layout for *state*."""
    layout = StateLayout(state)
    order = topological_sort(state.graph)
    if not order:
        layout.width = layout.height = 2 * MARGIN
        return layout

    # 1. Longest-path layering.
    layer_of: dict[Node, int] = {}
    for node in order:
        preds = state.graph.predecessors(node)
        layer_of[node] = (max((layer_of[p] for p in preds), default=-1)) + 1

    layers: dict[int, list[Node]] = {}
    for node in order:
        layers.setdefault(layer_of[node], []).append(node)
    num_layers = max(layers) + 1

    for node in order:
        width, height = _node_size(node)
        layout.boxes[node] = NodeBox(node, width, height, layer_of[node])

    # 2. Barycenter ordering within layers (two down-up sweeps).
    positions: dict[Node, int] = {}
    for layer_nodes in layers.values():
        for i, node in enumerate(layer_nodes):
            positions[node] = i

    def sweep(downward: bool) -> None:
        layer_range = range(1, num_layers) if downward else range(num_layers - 2, -1, -1)
        for li in layer_range:
            nodes = layers[li]

            def barycenter(node: Node) -> float:
                neighbors = (
                    state.graph.predecessors(node)
                    if downward
                    else state.graph.successors(node)
                )
                relevant = [positions[n] for n in neighbors if n in positions]
                return sum(relevant) / len(relevant) if relevant else positions[node]

            nodes.sort(key=lambda n: (barycenter(n), positions[n]))
            for i, node in enumerate(nodes):
                positions[node] = i

    for _ in range(2):
        sweep(downward=True)
        sweep(downward=False)

    # 3. Coordinate assignment: pack each layer, center on the widest.
    layer_widths = {
        li: sum(layout.boxes[n].width for n in nodes) + NODE_GAP * (len(nodes) - 1)
        for li, nodes in layers.items()
    }
    total_width = max(layer_widths.values()) + 2 * MARGIN

    y = MARGIN
    for li in range(num_layers):
        nodes = layers[li]
        row_height = max(layout.boxes[n].height for n in nodes)
        x = (total_width - layer_widths[li]) / 2
        for node in nodes:
            box = layout.boxes[node]
            box.x = x + box.width / 2
            box.y = y + row_height / 2
            x += box.width + NODE_GAP
        y += row_height + LAYER_GAP
    layout.width = total_width
    layout.height = y - LAYER_GAP + MARGIN

    # 4. Scope boxes from member bounding boxes.
    sdict = state.scope_dict()
    depth_of: dict[MapEntry, int] = {}

    def scope_depth(entry: MapEntry) -> int:
        if entry not in depth_of:
            parent = sdict.get(entry)
            depth_of[entry] = 0 if parent is None else scope_depth(parent) + 1
        return depth_of[entry]

    for entry in state.map_entries():
        members = [entry]
        if entry.exit_node is not None:
            members.append(entry.exit_node)
        members += [n for n, scope in sdict.items() if _within(entry, scope, sdict)]
        pad = 8.0 + 4.0 * scope_depth(entry)
        x0 = min(layout.boxes[m].left for m in members) - pad
        x1 = max(layout.boxes[m].right for m in members) + pad
        y0 = min(layout.boxes[m].top for m in members) - pad
        y1 = max(layout.boxes[m].bottom for m in members) + pad
        layout.scopes.append(ScopeBox(entry, x0, y0, x1, y1, scope_depth(entry)))
    layout.scopes.sort(key=lambda s: s.depth)
    return layout


def _within(entry: MapEntry, scope: MapEntry | None, sdict: dict) -> bool:
    """True when *scope* is *entry* or transitively inside it."""
    while scope is not None:
        if scope is entry:
            return True
        scope = sdict.get(scope)
    return False
