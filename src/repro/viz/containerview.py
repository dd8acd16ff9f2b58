"""Data-container rendering: hierarchical multi-dimensional grids.

Implements the paper's Section V-B layout: "the two innermost dimensions
are laid out in a 2D grid, and those are nested in alternating horizontal
and vertical 1D grids for the remaining higher dimensions" (Fig. 4a).
Cells can be colored from per-element metric values (access counts, cache
misses, reuse distances) and highlighted (slider accesses, cache-line
overlays), with the exact value available as a tooltip.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence
from xml.sax.saxutils import escape

from repro.errors import VisualizationError
from repro.viz.color import GREEN_YELLOW_RED, ColorScale
from repro.viz.scaling import ScalingMethod, make_scaling
from repro.viz.svg import SVGDocument, rect_element, rect_style, serialize_attrs

__all__ = ["ContainerGrid", "render_container", "aggregate_tiles", "render_container_aggregated"]

CELL = 18.0
CELL_GAP = 2.0
BLOCK_GAP = 10.0

_DEFAULT_FILL = "#e8e8e2"
_HIGHLIGHT_FILL = "#37c871"  # the paper highlights accessed elements green
_SELECT_STROKE = "#1a56c4"
_NO_VALUE = object()  # for cells that the values mapping leaves out


class ContainerGrid:
    """Geometry of one container's hierarchical element grid."""

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise VisualizationError(f"invalid shape {self.shape}")
        self.positions, (self.width, self.height) = _geometry(self.shape)

    def cell_origin(self, indices: Sequence[int]) -> tuple[float, float]:
        """Top-left pixel of one element's cell."""
        try:
            return self.positions[tuple(indices)]
        except KeyError:
            raise VisualizationError(
                f"indices {tuple(indices)} outside shape {self.shape}"
            ) from None

    def __len__(self) -> int:
        return len(self.positions)


def _geometry(
    shape: tuple[int, ...]
) -> tuple[dict[tuple[int, ...], tuple[float, float]], tuple[float, float]]:
    """Recursive placement: indices → (x, y), inserted in row-major index
    order (``render_container`` relies on it); returns the overall size."""
    if len(shape) == 0:
        return {(): (0.0, 0.0)}, (CELL, CELL)
    if len(shape) == 1:
        positions = {
            (i,): (i * (CELL + CELL_GAP), 0.0) for i in range(shape[0])
        }
        width = shape[0] * CELL + (shape[0] - 1) * CELL_GAP
        return positions, (width, CELL)
    if len(shape) == 2:
        rows, cols = shape
        positions = {
            (r, c): (c * (CELL + CELL_GAP), r * (CELL + CELL_GAP))
            for r in range(rows)
            for c in range(cols)
        }
        width = cols * CELL + (cols - 1) * CELL_GAP
        height = rows * CELL + (rows - 1) * CELL_GAP
        return positions, (width, height)

    # Higher dimensions: nest sub-blocks along alternating axes.  Counting
    # from the innermost 2D grid outward, the first extra dimension is laid
    # out horizontally, the next vertically, and so on — odd total rank
    # means the outermost extra dim runs horizontally.
    sub_positions, (sub_w, sub_h) = _geometry(shape[1:])
    horizontal = len(shape) % 2 == 1
    positions: dict[tuple[int, ...], tuple[float, float]] = {}
    for block in range(shape[0]):
        if horizontal:
            ox, oy = block * (sub_w + BLOCK_GAP), 0.0
        else:
            ox, oy = 0.0, block * (sub_h + BLOCK_GAP)
        for idx, (x, y) in sub_positions.items():
            positions[(block,) + idx] = (ox + x, oy + y)
    if horizontal:
        size = (shape[0] * sub_w + (shape[0] - 1) * BLOCK_GAP, sub_h)
    else:
        size = (sub_w, shape[0] * sub_h + (shape[0] - 1) * BLOCK_GAP)
    return positions, size


def render_container(
    name: str,
    shape: Sequence[int],
    values: Mapping[tuple[int, ...], float] | None = None,
    highlights: Iterable[tuple[int, ...]] = (),
    selections: Iterable[tuple[int, ...]] = (),
    method: ScalingMethod | str = ScalingMethod.MEDIAN,
    colors: ColorScale = GREEN_YELLOW_RED,
    value_label: str = "accesses",
) -> str:
    """Render one container as SVG.

    Parameters
    ----------
    values:
        Optional per-element metric (missing elements stay neutral);
        colored via the chosen scaling method and color scale, with the
        exact number in each cell's tooltip.
    highlights:
        Elements to fill green — accessed elements for the current slider
        values (Fig. 3) or cache-line neighbors (Fig. 5a).
    selections:
        Elements drawn with a selection stroke (the clicked elements).

    Everything that repeats across cells is serialized once: each distinct
    coordinate, each distinct value's fill and tooltip suffix, each
    fill/stroke style and the escaped name.  A cell then costs only string
    assembly, which keeps re-coloring a large grid (every slider move)
    cheap; the output is byte-identical to drawing each cell with
    :meth:`SVGDocument.rect`.
    """
    grid = ContainerGrid(shape)
    label_height = 18.0
    doc = SVGDocument(grid.width + 2 * 6.0, grid.height + label_height + 2 * 6.0)
    doc.text(6.0, 13.0, name, font_size=12, anchor="start")

    values = values or {}
    scaling = make_scaling(method, list(values.values())) if values else None
    highlight_set = {tuple(h) for h in highlights}
    selection_set = {tuple(s) for s in selections}

    xs = _Memo(lambda x: serialize_attrs({"x": x}))
    ys = _Memo(lambda y: serialize_attrs({"y": y}))
    styles = _Memo(_cell_style)
    marks = highlight_set | selection_set
    # XML escaping works character by character, so escaped parts join
    # into the escaped title.
    head = escape(name) + "["
    # value -> (fill, style of an unmarked cell, escaped tooltip suffix)
    paints = {_NO_VALUE: (_DEFAULT_FILL, styles[_DEFAULT_FILL, False], "")}
    cells = []
    for (idx, (x, y)), index_text in zip(grid.positions.items(), _index_texts(grid.shape)):
        value = values.get(idx, _NO_VALUE)
        # Equal values share a paint, but -0.0 == 0.0 prints as "-0" and
        # nan != nan: zeros and NaNs are keyed by their repr.
        key = value if value and value == value else repr(value)
        paint = paints.get(key)
        if paint is None:
            fill = colors.sample(scaling.normalize(value)).to_hex()
            paint = paints[key] = (
                fill, styles[fill, False], escape(f": {value:g} {value_label}")
            )
        fill, style, tip = paint
        if marks and idx in marks:
            if idx in highlight_set:
                fill = _HIGHLIGHT_FILL
            style = styles[fill, idx in selection_set]
        cells.append(rect_element(xs[x] + ys[y], style, f"{head}{index_text}]{tip}"))
    doc.begin_group(transform=f"translate(6 {label_height + 6.0})")
    doc.extend(cells)
    doc.end_group()
    return doc.to_string()


def _cell_style(fill_and_selected: tuple[str, bool]) -> str:
    fill, selected = fill_and_selected
    return rect_style(
        CELL, CELL, fill=fill,
        stroke=_SELECT_STROKE if selected else "#666666",
        stroke_width=2.0 if selected else 0.5,
    )


class _Memo(dict):
    """A dict that computes each missing entry once, from its key."""

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


def _index_texts(shape: tuple[int, ...]) -> list[str]:
    """``"i, j, k"`` for every element, in the row-major order in which
    :class:`ContainerGrid` places them; built one dimension at a time, so
    each element costs one string concatenation."""
    texts = [""]
    for dim, extent in enumerate(shape):
        digits = [f"{', ' if dim else ''}{i}" for i in range(extent)]
        texts = [prefix + digit for prefix in texts for digit in digits]
    return texts


def aggregate_tiles(
    shape: Sequence[int],
    values: Mapping[tuple[int, ...], float],
    tile: Sequence[int],
    reduce: str = "sum",
) -> tuple[tuple[int, ...], dict[tuple[int, ...], float]]:
    """Aggregate per-element values into coarse tiles.

    The paper's Discussion notes that visualizing *full-sized* parameters
    "would require aggregating multiple data elements in one visual tile" —
    this implements that aggregation: ``tile[d]`` consecutive indices of
    dimension ``d`` merge into one tile, combining values with ``sum``,
    ``max`` or ``mean``.  Returns the tiled shape and the tiled value map
    (tiles without any contributing element are omitted).
    """
    shape = tuple(int(s) for s in shape)
    tile = tuple(int(t) for t in tile)
    if len(tile) != len(shape):
        raise VisualizationError(
            f"tile rank {len(tile)} does not match shape rank {len(shape)}"
        )
    if any(t <= 0 for t in tile):
        raise VisualizationError(f"invalid tile {tile}")
    reducers = {"sum": sum, "max": max, "mean": lambda xs: sum(xs) / len(xs)}
    if reduce not in reducers:
        raise VisualizationError(
            f"unknown reduction {reduce!r}; choose from {sorted(reducers)}"
        )
    tiled_shape = tuple(-(-s // t) for s, t in zip(shape, tile))
    buckets: dict[tuple[int, ...], list[float]] = {}
    for indices, value in values.items():
        if len(indices) != len(shape):
            raise VisualizationError(
                f"indices {indices} do not match shape {shape}"
            )
        key = tuple(i // t for i, t in zip(indices, tile))
        buckets.setdefault(key, []).append(float(value))
    fold = reducers[reduce]
    return tiled_shape, {key: fold(vals) for key, vals in buckets.items()}


def render_container_aggregated(
    name: str,
    shape: Sequence[int],
    values: Mapping[tuple[int, ...], float],
    tile: Sequence[int],
    reduce: str = "sum",
    method: ScalingMethod | str = ScalingMethod.MEDIAN,
    colors: ColorScale = GREEN_YELLOW_RED,
    value_label: str = "accesses",
) -> str:
    """Render a full-size container with elements aggregated into tiles."""
    tiled_shape, tiled_values = aggregate_tiles(shape, values, tile, reduce)
    label = f"{name} [{'x'.join(map(str, tile))} tiles, {reduce}]"
    return render_container(
        label,
        tiled_shape,
        values=tiled_values,
        method=method,
        colors=colors,
        value_label=f"{value_label} ({reduce})",
    )
