"""Data-container rendering: hierarchical multi-dimensional grids.

Implements the paper's Section V-B layout: "the two innermost dimensions
are laid out in a 2D grid, and those are nested in alternating horizontal
and vertical 1D grids for the remaining higher dimensions" (Fig. 4a).
Cells can be colored from per-element metric values (access counts, cache
misses, reuse distances) and highlighted (slider accesses, cache-line
overlays), with the exact value available as a tooltip.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence
from xml.sax.saxutils import escape

import numpy as np

from repro.errors import VisualizationError
from repro.locality.engine import ElementMap
from repro.viz.color import GREEN_YELLOW_RED, ColorScale
from repro.viz.scaling import ScalingMethod, make_scaling
from repro.viz.svg import SVGDocument, number_attrs, rect_style

__all__ = ["ContainerGrid", "render_container", "aggregate_tiles", "render_container_aggregated"]

CELL = 18.0
CELL_GAP = 2.0
BLOCK_GAP = 10.0

_DEFAULT_FILL = "#e8e8e2"
_HIGHLIGHT_FILL = "#37c871"  # the paper highlights accessed elements green
_SELECT_STROKE = "#1a56c4"
_NO_VALUE = object()  # for cells that the values mapping leaves out


class ContainerGrid:
    """Geometry of one container's hierarchical element grid.

    Every dimension moves a cell along one axis by a fixed pitch:
    ``axes[d]`` is ``(axis, pitch)``, axis 0 for x and 1 for y.  A
    cell's origin is the sum of its indices times their dimensions'
    pitches, so :meth:`cell_origin` and :func:`render_container`'s
    coordinate columns read the same few numbers.
    """

    def __init__(self, shape: Sequence[int]):
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise VisualizationError(f"invalid shape {self.shape}")
        self.axes, (self.width, self.height) = _geometry(self.shape)

    def flat_index(self, indices: Sequence[int]) -> int | None:
        """Row-major position of one element; ``None`` outside the grid."""
        if len(indices) != len(self.shape):
            return None
        flat = 0
        for i, extent in zip(indices, self.shape):
            if not 0 <= i < extent or i % 1:
                return None
            flat = flat * extent + int(i)
        return flat

    def cell_origin(self, indices: Sequence[int]) -> tuple[float, float]:
        """Top-left pixel of one element's cell."""
        indices = tuple(indices)
        if self.flat_index(indices) is None:
            raise VisualizationError(
                f"indices {indices} outside shape {self.shape}"
            )
        origin = [0.0, 0.0]
        for i, (axis, pitch) in zip(indices, self.axes):
            origin[axis] += int(i) * pitch
        return origin[0], origin[1]

    def coordinates(self, axis: int) -> tuple[list[float], np.ndarray]:
        """The distinct cell coordinates along *axis*, and for every cell
        (row-major) the position of its coordinate in that list."""
        coords = np.zeros(1)
        ids = np.zeros(self.shape, dtype=np.intp)
        for d, (along, pitch) in enumerate(self.axes):
            if along != axis:
                continue
            extent = self.shape[d]
            coords = (coords[:, None] + np.arange(extent) * pitch).ravel()
            ids = ids * extent + _arange_along(self.shape, d)
        return coords.tolist(), ids.ravel()

    def __len__(self) -> int:
        return math.prod(self.shape)


def _geometry(
    shape: tuple[int, ...]
) -> tuple[list[tuple[int, float]], tuple[float, float]]:
    """Each dimension's ``(axis, pitch)`` and the overall size."""
    if len(shape) == 0:
        return [], (CELL, CELL)
    pitch = CELL + CELL_GAP
    if len(shape) == 1:
        width = shape[0] * CELL + (shape[0] - 1) * CELL_GAP
        return [(0, pitch)], (width, CELL)
    if len(shape) == 2:
        rows, cols = shape
        width = cols * CELL + (cols - 1) * CELL_GAP
        height = rows * CELL + (rows - 1) * CELL_GAP
        return [(1, pitch), (0, pitch)], (width, height)

    # Higher dimensions: nest sub-blocks along alternating axes.  Counting
    # from the innermost 2D grid outward, the first extra dimension is laid
    # out horizontally, the next vertically, and so on — odd total rank
    # means the outermost extra dim runs horizontally.
    axes, (sub_w, sub_h) = _geometry(shape[1:])
    if len(shape) % 2 == 1:
        size = (shape[0] * sub_w + (shape[0] - 1) * BLOCK_GAP, sub_h)
        return [(0, sub_w + BLOCK_GAP)] + axes, size
    size = (sub_w, shape[0] * sub_h + (shape[0] - 1) * BLOCK_GAP)
    return [(1, sub_h + BLOCK_GAP)] + axes, size


def _arange_along(shape: tuple[int, ...], dim: int) -> np.ndarray:
    """``arange(shape[dim])`` shaped to broadcast along *dim*."""
    return np.arange(shape[dim]).reshape(
        [-1 if d == dim else 1 for d in range(len(shape))]
    )


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
        exact number in each cell's tooltip.  Entries outside the grid
        are not drawn but still fit the scale.
    highlights:
        Elements to fill green — accessed elements for the current slider
        values (Fig. 3) or cache-line neighbors (Fig. 5a).
    selections:
        Elements drawn with a selection stroke (the clicked elements).

    The cells are assembled as whole columns, one string per cell and
    column taken from a table of what repeats: each distinct x and y
    coordinate, each index digit per dimension, and each distinct
    value's style and tooltip suffix (``ColorScale.sample`` runs once per
    distinct value).  Only the marked cells' styles are patched, and
    the columns are joined once.  The output is byte-identical to
    drawing each cell with :meth:`SVGDocument.rect`.
    """
    grid = ContainerGrid(shape)
    label_height = 18.0
    doc = SVGDocument(grid.width + 2 * 6.0, grid.height + label_height + 2 * 6.0)
    doc.text(6.0, 13.0, name, font_size=12, anchor="start")

    values = values or {}
    scaling = make_scaling(method, list(values.values())) if values else None
    codes, groups = _value_groups(_cell_values(grid, values))
    # XML escaping works character by character, so escaped parts join
    # into the escaped title.
    title_open = "><title>" + escape(name) + "["
    fills = []
    style_table = []
    tip_table = []
    for value in groups:
        if value is _NO_VALUE:
            fill, tip = _DEFAULT_FILL, ""
        else:
            fill = colors.sample(scaling.normalize(value)).to_hex()
            tip = escape(f": {value:g} {value_label}")
        fills.append(fill)
        style_table.append(_cell_style(fill, False) + title_open)
        tip_table.append("]" + tip + "</title></rect>")
    styles = _column(style_table, codes)

    highlighted = _flat_indices(grid, highlights)
    selected = _flat_indices(grid, selections)
    marked_styles: dict[tuple[str, bool], str] = {}
    for cell in highlighted | selected:
        fill = _HIGHLIGHT_FILL if cell in highlighted else fills[codes[cell]]
        key = (fill, cell in selected)
        if key not in marked_styles:
            marked_styles[key] = _cell_style(*key) + title_open
        styles[cell] = marked_styles[key]

    columns = [
        _coordinate_column(grid, 0, "<rect", "x"),
        _coordinate_column(grid, 1, "", "y"),
        styles,
    ]
    for d, extent in enumerate(grid.shape):
        digits = np.array(
            [f"{', ' if d else ''}{i}" for i in range(extent)], dtype=object
        )
        inner = math.prod(grid.shape[d + 1:])
        outer = len(grid) // (inner * extent)
        columns.append(np.tile(np.repeat(digits, inner), outer).tolist())
    columns.append(_column(tip_table, codes))
    doc.begin_group(transform=f"translate(6 {label_height + 6.0})")
    doc.extend_columns(columns)
    doc.end_group()
    return doc.to_string()


def _cell_values(grid: ContainerGrid, values: Mapping) -> list:
    """Every cell's value, row-major; ``_NO_VALUE`` where *values* has none.

    An :class:`~repro.locality.engine.ElementMap` is scattered by its
    positions, re-raveled from its index span onto the grid; positions
    outside the grid are dropped, as no cell's lookup would reach them.
    Any other mapping is looked up cell by cell.
    """
    if not isinstance(values, ElementMap):
        return list(map(
            values.get,
            itertools.product(*map(range, grid.shape)),
            itertools.repeat(_NO_VALUE),
        ))
    positions, counts = values.positions, values.counts
    if len(values.shape) != len(grid.shape):
        positions = counts = positions[:0]
    elif values.shape != grid.shape:
        index = np.unravel_index(positions, values.shape)
        inside = np.logical_and.reduce(
            [column < extent for column, extent in zip(index, grid.shape)]
        )
        positions = np.ravel_multi_index(
            [column[inside] for column in index], grid.shape
        )
        counts = counts[inside]
    cells = np.full(len(grid), _NO_VALUE, dtype=object)
    cells[positions] = counts
    return cells.tolist()


def _value_groups(cells: list) -> tuple[np.ndarray, list]:
    """Group the cells' values by how they render: ``(codes, groups)``
    with one group index per cell and one representative value per group.

    Equal values share a group, except that ``-0.0 == 0.0`` prints as
    ``-0``, so zeros split by sign, and ``nan != nan``, so every NaN
    joins one group.
    """
    first: dict = {}
    # Each cell's value, by the first cell that holds an equal one.
    firsts = np.fromiter(
        map(first.setdefault, cells, itertools.count()), np.intp, len(cells)
    )
    groups: list = []
    group_at = np.empty(len(cells), dtype=np.intp)
    nan_group = zero = None
    for value, cell in first.items():
        if value != value:
            if nan_group is None:
                nan_group = len(groups)
                groups.append(value)
            group_at[cell] = nan_group
            continue
        if not value:
            zero = cell
        group_at[cell] = len(groups)
        groups.append(value)
    codes = group_at[firsts]
    if zero is not None:
        members = np.flatnonzero(firsts == zero)
        column = np.fromiter(cells, object, len(cells))[members]
        negative = np.signbit(column.astype(np.float64))
        other = members[negative != negative[0]]
        if other.size:
            codes[other] = len(groups)
            groups.append(cells[other[0]])
    return codes, groups


def _flat_indices(grid: ContainerGrid, elements: Iterable[Sequence[int]]) -> set[int]:
    """Row-major positions of the *elements* inside the grid."""
    found = {grid.flat_index(tuple(element)) for element in elements}
    found.discard(None)
    return found


def _coordinate_column(grid: ContainerGrid, axis: int, prefix: str, name: str) -> list[str]:
    """Every cell's serialized coordinate along *axis*, row-major."""
    coords, ids = grid.coordinates(axis)
    table = [prefix + attr for attr in number_attrs(name, coords)]
    return _column(table, ids)


def _column(table: list[str], ids: np.ndarray) -> list[str]:
    """``[table[i] for i in ids]``, gathered by NumPy."""
    return np.array(table, dtype=object)[ids].tolist()


def _cell_style(fill: str, selected: bool) -> str:
    return rect_style(
        CELL, CELL, fill=fill,
        stroke=_SELECT_STROKE if selected else "#666666",
        stroke_width=2.0 if selected else 0.5,
    )


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
