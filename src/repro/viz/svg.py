"""A minimal SVG document builder.

Deterministic, dependency-free output: elements appear in insertion order
and attribute order is fixed, so renders are byte-stable across runs (a
requirement for golden-file tests).
"""

from __future__ import annotations

import xml.sax.saxutils as saxutils
from typing import Iterable, Mapping, Sequence

__all__ = ["SVGDocument", "number_attrs", "rect_style", "serialize_attrs"]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return str(value)


def serialize_attrs(values: Mapping[str, object]) -> str:
    """Serialize attributes, in mapping order, as `` name="value"`` pairs.

    ``None`` values are skipped; a trailing ``_`` is dropped and other
    underscores become hyphens (``stroke_width`` → ``stroke-width``).
    Serializations concatenate: ``serialize_attrs(a) + serialize_attrs(b)``
    equals ``serialize_attrs({**a, **b})`` for disjoint keys, so repeated
    attributes can be serialized once.
    """
    items = []
    for key, value in values.items():
        if value is None:
            continue
        name = key.rstrip("_").replace("_", "-")
        items.append(f'{name}="{saxutils.escape(_fmt(value))}"')
    return (" " + " ".join(items)) if items else ""


def number_attrs(name: str, values: Iterable[float]) -> list[str]:
    """``serialize_attrs({name: value})`` for each number in *values*
    (a number's text needs no escaping)."""
    return [f' {name}="{_fmt(value)}"' for value in values]


def rect_style(
    width: float,
    height: float,
    fill: str = "none",
    stroke: str | None = "#000000",
    **extra: object,
) -> str:
    """The serialized attributes of a ``<rect>`` that follow its position."""
    return serialize_attrs(
        {"width": width, "height": height, "fill": fill, "stroke": stroke, **extra}
    )


class SVGDocument:
    """Accumulates SVG elements and serializes to a string."""

    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = []
        self._group_depth = 0

    # -- primitives -----------------------------------------------------------
    def _emit(self, text: str) -> None:
        self._parts.append("  " * (1 + self._group_depth) + text)

    def extend_columns(self, columns: Sequence[Sequence[str]]) -> None:
        """Append one pre-serialized element per row of *columns*, at the
        current group depth.

        For views that draw many similar elements: element ``i`` is the
        concatenation of every column's ``i``-th string, each column
        holding strings serialized once per distinct value.  The columns
        are interleaved and joined once, into one part of the document,
        so no per-element string is built.
        """
        rows = len(columns[0])
        if not rows:
            return
        indent = "\n" + "  " * (1 + self._group_depth)
        width = len(columns) + 1
        parts = [indent] * (rows * width)
        for k, column in enumerate(columns, 1):
            parts[k::width] = column
        # The document joins its parts with newlines.
        parts[0] = indent[1:]
        self._parts.append("".join(parts))

    def rect(
        self,
        x: float,
        y: float,
        width: float,
        height: float,
        fill: str = "none",
        stroke: str | None = "#000000",
        title: str | None = None,
        **extra: object,
    ) -> None:
        attrs = serialize_attrs({"x": x, "y": y}) + rect_style(
            width, height, fill, stroke, **extra
        )
        if title:
            self._emit(f"<rect{attrs}><title>{saxutils.escape(title)}</title></rect>")
        else:
            self._emit(f"<rect{attrs}/>")

    def ellipse(
        self,
        cx: float,
        cy: float,
        rx: float,
        ry: float,
        fill: str = "none",
        stroke: str | None = "#000000",
        title: str | None = None,
        **extra: object,
    ) -> None:
        attrs = serialize_attrs(
            {"cx": cx, "cy": cy, "rx": rx, "ry": ry, "fill": fill,
             "stroke": stroke, **extra}
        )
        if title:
            self._emit(
                f"<ellipse{attrs}><title>{saxutils.escape(title)}</title></ellipse>"
            )
        else:
            self._emit(f"<ellipse{attrs}/>")

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        title: str | None = None,
        **extra: object,
    ) -> None:
        attrs = serialize_attrs(
            {"x1": x1, "y1": y1, "x2": x2, "y2": y2, "stroke": stroke,
             "stroke-width": stroke_width, **extra}
        )
        if title:
            self._emit(f"<line{attrs}><title>{saxutils.escape(title)}</title></line>")
        else:
            self._emit(f"<line{attrs}/>")

    def polygon(
        self,
        points: list[tuple[float, float]],
        fill: str = "none",
        stroke: str | None = "#000000",
        title: str | None = None,
        **extra: object,
    ) -> None:
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        attrs = serialize_attrs({"points": pts, "fill": fill, "stroke": stroke, **extra})
        if title:
            self._emit(
                f"<polygon{attrs}><title>{saxutils.escape(title)}</title></polygon>"
            )
        else:
            self._emit(f"<polygon{attrs}/>")

    def path(
        self,
        d: str,
        fill: str = "none",
        stroke: str | None = "#000000",
        title: str | None = None,
        **extra: object,
    ) -> None:
        attrs = serialize_attrs({"d": d, "fill": fill, "stroke": stroke, **extra})
        if title:
            self._emit(f"<path{attrs}><title>{saxutils.escape(title)}</title></path>")
        else:
            self._emit(f"<path{attrs}/>")

    def text(
        self,
        x: float,
        y: float,
        content: str,
        font_size: float = 12.0,
        anchor: str = "middle",
        fill: str = "#000000",
        **extra: object,
    ) -> None:
        attrs = serialize_attrs(
            {"x": x, "y": y, "font-size": font_size, "text-anchor": anchor,
             "fill": fill, "font-family": "sans-serif", **extra}
        )
        self._emit(f"<text{attrs}>{saxutils.escape(content)}</text>")

    # -- grouping -----------------------------------------------------------
    def begin_group(self, **attrs: object) -> None:
        self._emit(f"<g{serialize_attrs(attrs)}>")
        self._group_depth += 1

    def end_group(self) -> None:
        if self._group_depth == 0:
            raise ValueError("end_group without matching begin_group")
        self._group_depth -= 1
        self._emit("</g>")

    # -- output --------------------------------------------------------------
    def to_string(self) -> str:
        if self._group_depth != 0:
            raise ValueError(f"{self._group_depth} unclosed group(s)")
        header = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">'
        )
        return "\n".join([header, *self._parts, "</svg>"])

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_string())
