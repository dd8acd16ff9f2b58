"""Adaptive heatmap scaling methods (Section IV-C, Fig. 2).

Observed metric values span many orders of magnitude, so the mapping from
value to normalized color position must adapt to the distribution.  Five
methods are provided; the three the paper contributes are:

- :class:`MeanCenteredScale` — scale runs over ``[0, 2·mean]``; outliers
  saturate and stand out (bottleneck detection);
- :class:`MedianCenteredScale` — scale runs over ``[0, 2·median]``;
  outlier-resistant, groups similar magnitudes (value grouping);
- :class:`HistogramScale` — values are bucketed; a value's position is its
  bucket index over the bucket count, maximally separating the observed
  distribution regardless of gaps.

Plus the two Cube-style interpolation baselines the paper compares
against: :class:`LinearScale` and :class:`ExponentialScale` (min-max).
"""

from __future__ import annotations

import enum
import math
import statistics
from typing import Sequence

import numpy as np

from repro.errors import VisualizationError

__all__ = [
    "ScalingMethod",
    "Scaling",
    "MeanCenteredScale",
    "MedianCenteredScale",
    "HistogramScale",
    "LinearScale",
    "ExponentialScale",
    "make_scaling",
]


class ScalingMethod(enum.Enum):
    """User-selectable scaling method identifiers."""

    MEAN = "mean"
    MEDIAN = "median"
    HISTOGRAM = "histogram"
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


class Scaling:
    """Base class: fit to observed values, then normalize any value to [0,1]."""

    method: ScalingMethod

    def __init__(self, values: Sequence[float]):
        array = np.asarray(values, dtype=np.float64)
        self._array = array[~np.isnan(array)]
        if not self._array.size:
            raise VisualizationError("cannot fit a scale to an empty value set")
        self.values = self._array.tolist()

    def normalize(self, value: float) -> float:
        raise NotImplementedError

    def normalize_all(self) -> list[float]:
        return [self.normalize(v) for v in self.values]

    def ticks(self, count: int = 5) -> list[tuple[float, float]]:
        """(value, position) legend ticks across the scale's value span."""
        lo, hi = self.domain()
        if count < 2:
            raise VisualizationError("need at least two ticks")
        out = []
        for i in range(count):
            value = lo + (hi - lo) * i / (count - 1)
            out.append((value, self.normalize(value)))
        return out

    def domain(self) -> tuple[float, float]:
        """The value span the scale covers without clamping."""
        raise NotImplementedError


class _CenteredScale(Scaling):
    """Shared implementation: scale over [0, 2c] for a center statistic c.

    A zero center (e.g. the median of a movement heatmap where most
    edges move nothing) would map *every* value — including the only
    hot spots — to position 0, rendering bottlenecks as coolest green
    and inverting the Section IV-C intent.  In that case the scale
    falls back to max-based linear interpolation over ``[0, max]`` so
    the nonzero outliers still saturate the warm end.
    """

    def __init__(self, values: Sequence[float]):
        super().__init__(values)
        array = self._array
        if (array < 0).any():
            raise VisualizationError("centered scales require nonnegative values")
        self.center = self._center()
        # ``max`` of the list: when every value is a zero it returns the
        # first, whose sign the domain shows.
        top = float(array.max())
        self._max = top if top else self.values[0]

    def _center(self) -> float:
        raise NotImplementedError

    def normalize(self, value: float) -> float:
        if self.center == 0:
            if self._max == 0:
                return 0.0  # every observation is zero: nothing to rank
            return min(1.0, max(0.0, value / self._max))
        # Observations above 2c clamp to 1 ("clamped to 2c").
        return min(1.0, max(0.0, value / (2.0 * self.center)))

    def domain(self) -> tuple[float, float]:
        if self.center == 0:
            return (0.0, self._max)
        return (0.0, 2.0 * self.center)


class MeanCenteredScale(_CenteredScale):
    """Scale centered on the arithmetic mean — outlier-sensitive by design."""

    method = ScalingMethod.MEAN

    def _center(self) -> float:
        return statistics.fmean(self.values)


class MedianCenteredScale(_CenteredScale):
    """Scale centered on the median — outlier-resistant value grouping."""

    method = ScalingMethod.MEDIAN

    def _center(self) -> float:
        # ``statistics.median``'s arithmetic.  A stable sort orders equal
        # values (0.0 and -0.0) as ``sorted`` does, so even the sign of a
        # zero center matches.
        ordered = np.sort(self._array, kind="stable")
        mid = ordered.size // 2
        if ordered.size % 2:
            return float(ordered[mid])
        return (float(ordered[mid - 1]) + float(ordered[mid])) / 2


class HistogramScale(Scaling):
    """Bucket-index scaling: color = bucket position / bucket count.

    Buckets are the *distinct observed values* (up to ``max_buckets``, after
    which equal-width binning over the observed span is used).  This
    distorts the scale so every distinct observation gets a distinct color
    regardless of the gaps between values.
    """

    method = ScalingMethod.HISTOGRAM

    def __init__(self, values: Sequence[float], max_buckets: int = 256):
        super().__init__(values)
        distinct = sorted(set(self.values))
        if len(distinct) <= max_buckets:
            self.buckets = distinct
            self._edges: list[float] | None = None
        else:
            lo, hi = distinct[0], distinct[-1]
            width = (hi - lo) / max_buckets
            self._edges = [lo + width * i for i in range(1, max_buckets)]
            self.buckets = [lo + width * (i + 0.5) for i in range(max_buckets)]

    def bucket_index(self, value: float) -> int:
        if self._edges is None:
            # Index of the largest bucket value <= value (clamped).
            import bisect

            idx = bisect.bisect_right(self.buckets, value) - 1
            return min(max(idx, 0), len(self.buckets) - 1)
        import bisect

        return min(bisect.bisect_right(self._edges, value), len(self.buckets) - 1)

    def normalize(self, value: float) -> float:
        n = len(self.buckets)
        if n == 1:
            return 0.0
        return self.bucket_index(value) / (n - 1)

    def domain(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))


class LinearScale(Scaling):
    """Min-max linear interpolation (Cube's default behaviour)."""

    method = ScalingMethod.LINEAR

    def __init__(self, values: Sequence[float]):
        super().__init__(values)
        self.lo = min(self.values)
        self.hi = max(self.values)

    def normalize(self, value: float) -> float:
        if self.hi == self.lo:
            return 0.0
        return min(1.0, max(0.0, (value - self.lo) / (self.hi - self.lo)))

    def domain(self) -> tuple[float, float]:
        return (self.lo, self.hi)


class ExponentialScale(Scaling):
    """Logarithmic min-max interpolation (Cube's 'exponential' option).

    Positions are linear in ``log(value)``; requires positive values (zero
    values are nudged to the smallest positive observation).
    """

    method = ScalingMethod.EXPONENTIAL

    def __init__(self, values: Sequence[float]):
        super().__init__(values)
        positive = self._array[self._array > 0]
        if not positive.size:
            raise VisualizationError("exponential scaling needs positive values")
        self.lo = float(positive.min())
        self.hi = float(positive.max())

    def normalize(self, value: float) -> float:
        value = max(value, self.lo)
        # Bounds one ulp apart can have equal logarithms.
        span = math.log(self.hi) - math.log(self.lo)
        if span == 0:
            return 0.0
        t = (math.log(value) - math.log(self.lo)) / span
        return min(1.0, max(0.0, t))

    def domain(self) -> tuple[float, float]:
        return (self.lo, self.hi)


_METHODS = {
    ScalingMethod.MEAN: MeanCenteredScale,
    ScalingMethod.MEDIAN: MedianCenteredScale,
    ScalingMethod.HISTOGRAM: HistogramScale,
    ScalingMethod.LINEAR: LinearScale,
    ScalingMethod.EXPONENTIAL: ExponentialScale,
}


def make_scaling(
    method: ScalingMethod | str, values: Sequence[float]
) -> Scaling:
    """Build a fitted scaling by method name — the UI's dropdown action."""
    if isinstance(method, str):
        try:
            method = ScalingMethod(method)
        except ValueError:
            raise VisualizationError(
                f"unknown scaling method {method!r}; choose from "
                f"{[m.value for m in ScalingMethod]}"
            ) from None
    return _METHODS[method](values)
