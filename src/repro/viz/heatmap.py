"""Heatmap assembly: scaling method + color scale → per-element colors."""

from __future__ import annotations

from typing import Generic, Hashable, Mapping, TypeVar

from repro.errors import VisualizationError
from repro.viz.color import GREEN_YELLOW_RED, Color, ColorScale
from repro.viz.scaling import Scaling, ScalingMethod, make_scaling

__all__ = ["Heatmap"]

K = TypeVar("K", bound=Hashable)


class Heatmap(Generic[K]):
    """Color assignment for a keyed set of metric values.

    This is the object behind every in-situ overlay: fit a scaling to the
    observed values, sample the color scale, and hand out per-element
    colors plus a legend.  Switching the scaling method (the user-facing
    dropdown of Section IV-C) re-fits without touching the values.
    """

    def __init__(
        self,
        values: Mapping[K, float],
        method: ScalingMethod | str = ScalingMethod.MEDIAN,
        colors: ColorScale = GREEN_YELLOW_RED,
    ):
        if not values:
            raise VisualizationError("heatmap requires at least one value")
        self.values: dict[K, float] = dict(values)
        self.colors = colors
        self.scaling: Scaling = make_scaling(method, list(self.values.values()))

    @property
    def method(self) -> ScalingMethod:
        return self.scaling.method

    def with_method(self, method: ScalingMethod | str) -> "Heatmap[K]":
        """A re-fitted heatmap with a different scaling method."""
        return Heatmap(self.values, method=method, colors=self.colors)

    def with_colors(self, colors: ColorScale) -> "Heatmap[K]":
        """The same heatmap rendered with a different color scale."""
        clone = Heatmap(self.values, method=self.method, colors=colors)
        return clone

    def position(self, key: K) -> float:
        """Normalized [0, 1] scale position of one element's value."""
        return self.scaling.normalize(self.values[key])

    def color(self, key: K) -> Color:
        """Display color of one element."""
        return self.colors.sample(self.position(key))

    def color_of_value(self, value: float) -> Color:
        """Display color of an arbitrary value under the fitted scale."""
        return self.colors.sample(self.scaling.normalize(value))

    def assignments(self) -> dict[K, Color]:
        """All element colors at once."""
        return {key: self.color(key) for key in self.values}

    def legend(self, ticks: int = 5) -> list[tuple[float, Color]]:
        """(value, color) pairs for a legend across the fitted domain."""
        return [
            (value, self.colors.sample(position))
            for value, position in self.scaling.ticks(ticks)
        ]

    def distinct_colors(self) -> int:
        """Number of distinct colors currently assigned (separation metric)."""
        return len(set(self.assignments().values()))

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return (
            f"Heatmap({len(self.values)} values, method={self.method.value}, "
            f"colors={self.colors.name})"
        )
