"""Per-container local-view queries: the name check, the read-only memo,
and what a warm slider step computes."""

import itertools

import pytest

import repro.passes.base as passes_base
from repro.apps import hdiff
from repro.errors import UnknownContainerError
from repro.locality import ElementCounts, analyze_locality
from repro.sdfg import dtypes
from repro.tool import Session

#: The slider point and capacity of a warm ``interactive_hdiff`` step.
STEP_POINT = {"I": 28, "J": 18, "K": 8}
STEP_CAPACITY = 32


class TestUnknownContainer:
    QUERIES = {
        "miss_heatmap": lambda lv, name: lv.miss_heatmap(name),
        "access_heatmap": lambda lv, name: lv.access_heatmap(name),
        "miss_counts": lambda lv, name: lv.miss_counts(name),
        "render_container": lambda lv, name: lv.render_container(name),
        "reuse_distances": lambda lv, name: lv.reuse_distances(name),
        "cache_line_neighbors": lambda lv, name: lv.cache_line_neighbors(name, (0,)),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_rejected_before_any_pass(self, query):
        session = Session(hdiff.build_sdfg())
        lv = session.local_view(hdiff.LOCAL_VIEW_SIZES)
        with pytest.raises(UnknownContainerError) as info:
            self.QUERIES[query](lv, "nope")
        assert info.value.name == "nope"
        assert info.value.containers == sorted(session.sdfg.arrays)
        assert "'nope'" in str(info.value) and "in_field" in str(info.value)
        counters = session.metrics.to_dict()["counters"]
        assert not any(name.startswith("pass.") for name in counters), counters

    def test_declared_but_unaccessed_container_answers_empty(self):
        sdfg = hdiff.build_sdfg()
        sdfg.add_array("unused", [4, 3], dtypes.float64)
        lv = Session(sdfg).local_view(hdiff.LOCAL_VIEW_SIZES)
        assert lv.miss_heatmap("unused") == {}
        assert lv.access_heatmap("unused") == {}
        assert lv.miss_counts("unused") == {}
        assert lv.render_container("unused", values=lv.miss_heatmap("unused")) == (
            lv.render_container("unused")
        )


class TestReadOnlyMemo:
    def test_element_counts_reject_writes(self):
        analytic = analyze_locality(hdiff.build_sdfg(), STEP_POINT)
        counts = analytic.element_counts("in_field", STEP_CAPACITY)
        for array in (counts.present, counts.total, counts.cold, counts.capacity):
            with pytest.raises(ValueError):
                array[:] = 0
        assert analytic.element_counts("in_field", STEP_CAPACITY).total.any()
        empty = analytic.element_counts("not accessed", STEP_CAPACITY)
        with pytest.raises(ValueError):
            empty.present.resize(4)

    def test_heatmaps_hand_out_read_only_arrays(self):
        lv = Session(hdiff.build_sdfg()).local_view(STEP_POINT, capacity_lines=STEP_CAPACITY)
        before = dict(lv.access_heatmap("in_field"))
        for heat in (lv.access_heatmap("in_field"), lv.miss_heatmap("in_field")):
            for array in (heat.positions, heat.counts):
                with pytest.raises(ValueError):
                    array[:] = 0
        assert lv.access_heatmap("in_field") == before


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


class TestWarmStep:
    """A warm revisit of a slider point: the view reads the memoized
    dense counts and draws them without a per-element tuple, and hashes
    the focus state once per pipeline query."""

    @staticmethod
    def step(session):
        view = session.local_view(STEP_POINT, capacity_lines=STEP_CAPACITY)
        view.physical_movement()
        heat = view.miss_heatmap("in_field")
        return view, heat, view.render_container(
            "in_field", values=heat, value_label="misses"
        )

    def test_builds_no_index_tuple_and_hashes_each_state_once_per_query(
        self, monkeypatch
    ):
        session = Session(hdiff.build_sdfg())
        _, _, cold_svg = self.step(session)
        calls: dict[str, int] = {}
        with monkeypatch.context() as spies:
            _count_calls(spies, ElementCounts, "indices", calls)
            _count_calls(spies, itertools, "product", calls)
            _count_calls(spies, passes_base, "state_fingerprint", calls)
            view, heat, warm_svg = self.step(session)
        assert calls == {"state_fingerprint": 2}
        assert warm_svg == cold_svg
        assert warm_svg == view.render_container(
            "in_field", values=dict(heat), value_label="misses"
        )
