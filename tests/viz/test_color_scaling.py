"""Tests for color scales and adaptive heatmap scaling."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VisualizationError
from repro.viz import (
    COLORBLIND_SCALE,
    GREEN_YELLOW_RED,
    Color,
    ColorScale,
    ExponentialScale,
    Heatmap,
    HistogramScale,
    LinearScale,
    MeanCenteredScale,
    MedianCenteredScale,
    ScalingMethod,
    make_scaling,
)


class TestColor:
    def test_hex_round_trip(self):
        assert Color.from_hex("#a1b2c3").to_hex() == "#a1b2c3"

    def test_invalid_hex(self):
        with pytest.raises(VisualizationError):
            Color.from_hex("#abcd")

    def test_out_of_range(self):
        with pytest.raises(VisualizationError):
            Color(300, 0, 0)

    def test_lerp_endpoints(self):
        a, b = Color(0, 0, 0), Color(255, 255, 255)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Color(128, 128, 128)

    def test_lerp_clamps(self):
        a, b = Color(0, 0, 0), Color(255, 255, 255)
        assert a.lerp(b, 2.0) == b

    def test_luminance_ordering(self):
        assert Color(255, 255, 255).luminance() > Color(0, 0, 0).luminance()


class TestColorScale:
    def test_gyr_midpoint_is_yellow(self):
        mid = GREEN_YELLOW_RED.sample(0.5)
        assert mid.r > 200 and mid.g > 180 and mid.b < 100

    def test_endpoints(self):
        low = GREEN_YELLOW_RED.sample(0.0)
        high = GREEN_YELLOW_RED.sample(1.0)
        assert low.g > low.r  # green
        assert high.r > high.g  # red

    def test_clamping(self):
        assert GREEN_YELLOW_RED.sample(-1) == GREEN_YELLOW_RED.sample(0)
        assert GREEN_YELLOW_RED.sample(2) == GREEN_YELLOW_RED.sample(1)

    def test_reversed(self):
        rev = GREEN_YELLOW_RED.reversed()
        assert rev.sample(0.0) == GREEN_YELLOW_RED.sample(1.0)

    def test_needs_two_stops(self):
        with pytest.raises(VisualizationError):
            ColorScale("x", [Color(0, 0, 0)])

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_monotone_redness(self, t1, t2):
        # Along the GYR scale, hotter position means redder relative to
        # green: (r - g) grows monotonically, preserving the clear
        # fast-to-slow color ordering the paper requires.
        lo, hi = sorted((t1, t2))
        c_lo, c_hi = GREEN_YELLOW_RED.sample(lo), GREEN_YELLOW_RED.sample(hi)
        assert (c_hi.r - c_hi.g) >= (c_lo.r - c_lo.g) - 2  # rounding slack
        assert COLORBLIND_SCALE.sample(0.0) != COLORBLIND_SCALE.sample(1.0)


DISTRIBUTION_WITH_OUTLIER = [1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 100.0]


class TestCenteredScales:
    def test_mean_scale_highlights_outlier(self):
        scale = MeanCenteredScale(DISTRIBUTION_WITH_OUTLIER)
        # mean ~16.4 -> regular values land in the lower fifth of the scale,
        # the outlier clamps to 1 and gets a visually distinct color.
        assert scale.normalize(100.0) == 1.0
        assert scale.normalize(4.0) < 0.2

    def test_median_scale_groups_values(self):
        scale = MedianCenteredScale(DISTRIBUTION_WITH_OUTLIER)
        # median = 3 -> scale [0, 6]: the bulk spreads across the range.
        assert scale.normalize(3.0) == 0.5
        assert scale.normalize(100.0) == 1.0
        assert scale.normalize(1.0) == pytest.approx(1 / 6)

    def test_center_values(self):
        assert MeanCenteredScale([2, 4]).center == 3
        assert MedianCenteredScale([1, 2, 100]).center == 2

    def test_zero_center(self):
        scale = MedianCenteredScale([0.0, 0.0])
        assert scale.normalize(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(VisualizationError):
            MeanCenteredScale([-1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(VisualizationError):
            MeanCenteredScale([])


class TestHistogramScale:
    def test_distinct_values_spread_evenly(self):
        scale = HistogramScale([1.0, 2.0, 1000.0])
        assert scale.normalize(1.0) == 0.0
        assert scale.normalize(2.0) == 0.5
        assert scale.normalize(1000.0) == 1.0

    def test_gap_independence(self):
        # The defining property: positions depend on rank, not distance.
        near = HistogramScale([1.0, 2.0, 3.0])
        far = HistogramScale([1.0, 2.0, 3000.0])
        assert near.normalize(2.0) == far.normalize(2.0) == 0.5

    def test_repeated_values_share_bucket(self):
        scale = HistogramScale([5.0, 5.0, 7.0])
        assert scale.normalize(5.0) == 0.0
        assert scale.normalize(7.0) == 1.0

    def test_single_value(self):
        assert HistogramScale([42.0]).normalize(42.0) == 0.0

    def test_max_buckets_binning(self):
        values = [float(i) for i in range(1000)]
        scale = HistogramScale(values, max_buckets=10)
        assert len(scale.buckets) == 10
        assert scale.normalize(0.0) == 0.0
        assert scale.normalize(999.0) == 1.0

    def test_unseen_value_clamped(self):
        scale = HistogramScale([1.0, 2.0])
        assert scale.normalize(-5.0) == 0.0
        assert scale.normalize(99.0) == 1.0


class TestInterpolationScales:
    def test_linear(self):
        scale = LinearScale([0.0, 10.0])
        assert scale.normalize(5.0) == 0.5

    def test_linear_constant(self):
        assert LinearScale([3.0, 3.0]).normalize(3.0) == 0.0

    def test_exponential_compresses_large_values(self):
        scale = ExponentialScale([1.0, 10.0, 100.0])
        assert scale.normalize(10.0) == pytest.approx(0.5)

    def test_exponential_needs_positive(self):
        with pytest.raises(VisualizationError):
            ExponentialScale([0.0, 0.0])


class TestMakeScaling:
    @pytest.mark.parametrize("name", ["mean", "median", "histogram", "linear", "exponential"])
    def test_by_name(self, name):
        scale = make_scaling(name, [1.0, 2.0, 3.0])
        assert scale.method.value == name

    def test_unknown(self):
        with pytest.raises(VisualizationError):
            make_scaling("rainbow", [1.0])

    @given(
        st.sampled_from(["mean", "median", "histogram", "linear"]),
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_normalize_always_in_unit_interval(self, method, values):
        scale = make_scaling(method, values)
        for v in values:
            assert 0.0 <= scale.normalize(v) <= 1.0

    def test_exponential_bounds_one_ulp_apart(self):
        scale = make_scaling("exponential", [0.001, 0.0010000000000000002])
        assert scale.normalize(0.001) == scale.normalize(0.0010000000000000002) == 0.0

    @given(
        st.sampled_from(["mean", "median", "histogram", "linear", "exponential"]),
        st.lists(st.floats(min_value=0.001, max_value=1e6), min_size=2, max_size=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_normalization_is_monotone(self, method, values):
        scale = make_scaling(method, values)
        ordered = sorted(values)
        normalized = [scale.normalize(v) for v in ordered]
        assert all(a <= b + 1e-12 for a, b in zip(normalized, normalized[1:]))


class TestCentersMatchStatistics:
    """The centered scales fit on a NumPy array; their centers and bounds
    stay bit-equal to the ``statistics`` calls on the cleaned values,
    signed zeros included."""

    @given(st.lists(
        st.one_of(
            st.sampled_from([0, 0.0, -0.0, 1, 2.5]),
            st.integers(0, 2**60),
            st.floats(min_value=0, max_value=1e300),
            st.builds(float, st.just("nan")),
        ),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=500, deadline=None)
    def test_centers_equal_statistics(self, values):
        cleaned = [float(v) for v in values if not math.isnan(float(v))]
        if not cleaned:
            with pytest.raises(VisualizationError):
                MedianCenteredScale(values)
            return
        median = MedianCenteredScale(values)
        assert repr(median.center) == repr(statistics.median(cleaned))
        assert repr(median.domain()) == repr(
            (0.0, max(cleaned)) if median.center == 0 else (0.0, 2.0 * median.center)
        )
        assert repr(MeanCenteredScale(values).center) == repr(statistics.fmean(cleaned))


class TestHeatmap:
    def test_assignments(self):
        hm = Heatmap({"a": 1.0, "b": 2.0, "c": 3.0}, method="median")
        colors = hm.assignments()
        assert set(colors) == {"a", "b", "c"}

    def test_outlier_gets_red_under_mean(self):
        hm = Heatmap(dict(enumerate(DISTRIBUTION_WITH_OUTLIER)), method="mean")
        outlier_color = hm.color(6)
        assert outlier_color.r > outlier_color.g  # red end

    def test_method_switch(self):
        hm = Heatmap({"a": 1.0, "b": 2.0}, method="mean")
        hm2 = hm.with_method("histogram")
        assert hm2.method is ScalingMethod.HISTOGRAM
        assert hm.method is ScalingMethod.MEAN

    def test_colorblind_swap(self):
        hm = Heatmap({"a": 1.0, "b": 2.0}).with_colors(COLORBLIND_SCALE)
        assert hm.colors is COLORBLIND_SCALE

    def test_legend(self):
        hm = Heatmap({"a": 0.0, "b": 10.0}, method="linear")
        legend = hm.legend(3)
        assert len(legend) == 3
        assert legend[0][0] == 0.0
        assert legend[-1][0] == 10.0

    def test_histogram_separates_more_colors(self):
        # On a clustered distribution the histogram scale assigns at least
        # as many distinct colors as the mean-centered scale (Fig. 2's
        # "clearly highlighting the distribution" behaviour).
        values = dict(enumerate([1.0, 1.1, 1.2, 1.3, 500.0]))
        mean_hm = Heatmap(values, method="mean")
        hist_hm = Heatmap(values, method="histogram")
        assert hist_hm.distinct_colors() >= mean_hm.distinct_colors()

    def test_empty_rejected(self):
        with pytest.raises(VisualizationError):
            Heatmap({})


class TestZeroCenterFallback:
    """Regression tests for the zero-center bug: with ``center == 0``
    (e.g. the median of a movement heatmap where most edges move
    nothing), ``value / (2 * center)`` used to clamp *every* value to
    position 0.0, so the only hot spots rendered as the coolest color —
    inverting the Section IV-C intent.  The scale must fall back to
    max-based linear interpolation instead."""

    def test_outliers_still_saturate_when_median_is_zero(self):
        scale = MedianCenteredScale([0.0, 0.0, 0.0, 5.0, 10.0])
        assert scale.center == 0
        assert scale.normalize(10.0) == 1.0  # the hottest edge is red
        assert scale.normalize(5.0) == 0.5
        assert scale.normalize(0.0) == 0.0

    def test_domain_matches_the_fallback_scale(self):
        scale = MedianCenteredScale([0.0, 0.0, 0.0, 5.0, 10.0])
        assert scale.domain() == (0.0, 10.0)
        # Legend ticks stay consistent with normalize().
        ticks = scale.ticks(3)
        assert ticks[0] == (0.0, 0.0)
        assert ticks[-1] == (10.0, 1.0)

    def test_all_zero_values_stay_flat(self):
        scale = MedianCenteredScale([0.0, 0.0, 0.0])
        assert scale.normalize(0.0) == 0.0
        assert scale.normalize(123.0) == 0.0  # nothing observed to rank
        assert scale.domain() == (0.0, 0.0)

    def test_mean_scale_gets_the_same_fallback(self):
        scale = MeanCenteredScale([0.0, 0.0, 0.0, 0.0])
        assert scale.center == 0
        assert scale.normalize(1.0) == 0.0
        assert scale.domain() == (0.0, 0.0)

    def test_heatmap_with_zero_median_highlights_hot_edges(self):
        hm = Heatmap(
            {"cold1": 0.0, "cold2": 0.0, "cold3": 0.0, "hot": 8.0},
            method="median",
        )
        hot = hm.color("hot")
        cold = hm.color("cold1")
        assert hot.r > hot.g  # warm end of the scale
        assert cold.g > cold.r  # cool end
