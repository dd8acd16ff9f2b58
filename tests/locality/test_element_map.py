"""``ElementMap`` against the dict built from the same arrays."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VisualizationError
from repro.locality import ElementCounts, ElementMap
from repro.viz.scaling import ScalingMethod, make_scaling


@st.composite
def element_counts(draw):
    """Dense counts over a random index span: ascending positions and one
    non-negative count each, in an int32 or int64 array as the engine
    narrows them."""
    shape = tuple(draw(st.lists(st.integers(1, 5), max_size=3)))
    size = math.prod(shape)
    present = sorted(draw(st.sets(st.integers(0, size - 1), max_size=size)))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    high = np.iinfo(dtype).max
    counts = draw(st.lists(
        st.one_of(st.just(0), st.integers(0, high)),
        min_size=len(present), max_size=len(present),
    ))
    total = np.array(counts, dtype=dtype)
    return ElementCounts(shape, np.array(present, dtype=dtype), total, total, total)


def scaled(method, values):
    """What a render's scaling makes of *values*: its domain and
    normalized values, or the error it raises."""
    try:
        scaling = make_scaling(method, values)
    except VisualizationError as exc:
        return str(exc)
    return scaling.domain(), scaling.normalize_all()


def probes(shape):
    """Keys present, absent, outside the span (negative or past the end)
    and of the wrong rank."""
    index = st.integers(-2, max(shape, default=1) + 1)
    return st.lists(
        st.integers(max(len(shape) - 1, 0), len(shape) + 1).flatmap(
            lambda rank: st.tuples(*[index] * rank)
        ),
        max_size=12,
    )


class TestElementMapIsTheDict:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_dict(self, data):
        counts = data.draw(element_counts())
        mapping = ElementMap(counts, counts.total)
        reference = dict(zip(counts.indices(), counts.total.tolist()))

        assert len(mapping) == len(reference)
        assert list(mapping) == list(reference)
        assert list(mapping.keys()) == list(reference.keys())
        assert list(mapping.items()) == list(reference.items())
        assert mapping == reference and reference == mapping
        assert not mapping != reference and not reference != mapping
        assert repr(mapping) == repr(reference)

        values = list(mapping.values())
        assert values == list(reference.values())
        assert [type(v) for v in values] == [type(v) for v in reference.values()]
        for method in ScalingMethod:
            if values:
                assert scaled(method, values) == scaled(method, list(reference.values()))

        for key in data.draw(probes(counts.shape)) + list(reference):
            assert (key in mapping) == (key in reference), key
            assert mapping.get(key) == reference.get(key), key
            assert mapping.get(key, "absent") == reference.get(key, "absent"), key
            if key in reference:
                assert mapping[key] == reference[key]
                assert type(mapping[key]) is int
            else:
                with pytest.raises(KeyError):
                    mapping[key]

    @settings(max_examples=50, deadline=None)
    @given(element_counts())
    def test_unequal_when_a_count_differs(self, counts):
        mapping = ElementMap(counts, counts.total)
        reference = dict(zip(counts.indices(), counts.total.tolist()))
        if reference:
            key = next(iter(reference))
            reference[key] += 1
            assert mapping != reference and reference != mapping
        reference["extra"] = 0
        assert mapping != reference and reference != mapping

    def test_keys_that_are_not_index_tuples(self):
        total = np.array([3, 4], dtype=np.int32)
        counts = ElementCounts((2, 2), np.array([1, 2], dtype=np.int32), total, total, total)
        mapping = ElementMap(counts, total)
        assert mapping == {(0, 1): 3, (1, 0): 4}
        for key in ((0.0, 1.0), (False, True), (np.int64(1), np.int8(0))):
            assert key in mapping
        for key in ((0.5, 1), ("0", 1), [0, 1], 1, None, (0, 1, 0)):
            assert key not in mapping
            assert mapping.get(key) is None

    def test_rank_zero(self):
        total = np.array([7], dtype=np.int64)
        counts = ElementCounts((), np.array([0]), total, total, total)
        assert ElementMap(counts, total) == {(): 7}
        assert repr(ElementMap(counts, total)) == "{(): 7}"
