"""Unit tests for the pass scheduler, context, and result store."""

import pytest

from repro.apps import linalg
from repro.errors import PipelineError
from repro.obs import MetricsRegistry, Tracer
from repro.passes import Pass, PassContext, Pipeline, ResultStore, build_pipeline
from repro.transforms import pad_strides_to_multiple


def context(**kwargs):
    return PassContext(linalg.build_outer_product(), **kwargs)


class CountingPass(Pass):
    """Configurable dummy pass counting its own executions."""

    def __init__(self, name, depends_on=(), uses=(), value=None):
        self.name = name
        self.depends_on = tuple(depends_on)
        self.uses = tuple(uses)
        self.value = value if value is not None else name
        self.executions = 0

    def run(self, ctx, inputs):
        self.executions += 1
        return (self.value, dict(inputs))


class TestResultStore:
    def test_none_is_storable(self):
        store = ResultStore()
        store.put(("k",), None)
        assert store.get(("k",)) is None
        assert not ResultStore.is_miss(store.get(("k",)))
        assert ResultStore.is_miss(store.get(("absent",)))

    def test_lru_eviction(self):
        store = ResultStore(maxsize=2)
        store.put(("a",), 1)
        store.put(("b",), 2)
        assert store.get(("a",)) == 1  # refresh "a"
        store.put(("c",), 3)
        assert not store.contains(("b",))
        assert store.get(("a",)) == 1 and store.get(("c",)) == 3

    def test_contains_does_not_count(self):
        store = ResultStore()
        store.put(("x",), 0)
        store.contains(("x",))
        store.contains(("y",))
        info = store.info()
        assert info["hits"] == 0 and info["misses"] == 0

    def test_clear(self):
        store = ResultStore()
        store.put(("x",), 1)
        store.clear()
        assert len(store) == 0
        assert ResultStore.is_miss(store.get(("x",)))


class TestRegistry:
    def test_rejects_duplicate_product(self):
        pipeline = Pipeline([CountingPass("a")])
        with pytest.raises(PipelineError):
            pipeline.register(CountingPass("a"))

    def test_rejects_unnamed_pass(self):
        with pytest.raises(PipelineError):
            Pipeline([CountingPass("")])

    def test_unknown_product(self):
        pipeline = Pipeline([CountingPass("a")])
        with pytest.raises(PipelineError, match="unknown product"):
            pipeline.run("zzz", context())

    def test_contains(self):
        pipeline = Pipeline([CountingPass("a")])
        assert "a" in pipeline and "b" not in pipeline


class TestTopologicalOrder:
    def test_orders_dependencies_first(self):
        pipeline = Pipeline([
            CountingPass("c", depends_on=("b",)),
            CountingPass("a"),
            CountingPass("b", depends_on=("a",)),
        ])
        names = [p.name for p in pipeline.order()]
        assert names.index("a") < names.index("b") < names.index("c")

    def test_cycle_detected(self):
        pipeline = Pipeline([
            CountingPass("a", depends_on=("b",)),
            CountingPass("b", depends_on=("a",)),
        ])
        with pytest.raises(PipelineError, match="cycle"):
            pipeline.order()

    def test_unregistered_dependency(self):
        pipeline = Pipeline([CountingPass("a", depends_on=("ghost",))])
        with pytest.raises(PipelineError, match="unregistered"):
            pipeline.order()


class TestMemoization:
    def test_second_run_is_a_hit(self):
        p = CountingPass("a", uses=("env",))
        pipeline = Pipeline([p], metrics=MetricsRegistry())
        ctx = context(env={"M": 4, "N": 4})
        first = pipeline.run("a", ctx)
        second = pipeline.run("a", context(env={"M": 4, "N": 4}))
        assert second is first
        assert p.executions == 1
        assert pipeline.runs("a") == 1

    def test_component_change_recomputes(self):
        p = CountingPass("a", uses=("env",))
        pipeline = Pipeline([p])
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        pipeline.run("a", context(env={"M": 8, "N": 4}))
        assert p.executions == 2

    def test_dependency_values_are_passed(self):
        pipeline = Pipeline([
            CountingPass("a", value="A"),
            CountingPass("b", depends_on=("a",)),
        ])
        _, inputs = pipeline.run("b", context())
        assert inputs["a"] == ("A", {})

    def test_upstream_change_invalidates_downstream(self):
        up = CountingPass("a", uses=("env",))
        down = CountingPass("b", depends_on=("a",), uses=())
        pipeline = Pipeline([up, down])
        pipeline.run("b", context(env={"M": 4, "N": 4}))
        pipeline.run("b", context(env={"M": 5, "N": 4}))
        assert up.executions == 2
        assert down.executions == 2  # its key embeds the upstream key

    def test_graph_mutation_changes_key(self):
        p = CountingPass("a", uses=("arrays",))
        pipeline = Pipeline([p])
        sdfg = linalg.build_outer_product()
        key_before = pipeline.key("a", PassContext(sdfg))
        pad_strides_to_multiple(sdfg, "C", 8)
        key_after = pipeline.key("a", PassContext(sdfg))
        assert key_before != key_after

    def test_logical_component_ignores_layout(self):
        p = CountingPass("a", uses=("arrays.logical",))
        pipeline = Pipeline([p])
        sdfg = linalg.build_outer_product()
        key_before = pipeline.key("a", PassContext(sdfg))
        pad_strides_to_multiple(sdfg, "C", 8)
        assert pipeline.key("a", PassContext(sdfg)) == key_before

    def test_key_is_pure(self):
        """Keys are computable without ever running a pass."""
        p = CountingPass("a", uses=("env",))
        pipeline = Pipeline([p])
        key = pipeline.key("a", context(env={"M": 2, "N": 2}))
        assert p.executions == 0
        assert key[0] == "a"


class TestInvalidationRecords:
    def test_first_run_reason(self):
        pipeline = Pipeline([CountingPass("a", uses=("env",))])
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        record = pipeline.last_invalidation("a")
        assert record is not None and "first run" in record.reasons

    def test_env_change_reason(self):
        pipeline = Pipeline([CountingPass("a", uses=("env",))])
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        pipeline.run("a", context(env={"M": 8, "N": 4}))
        record = pipeline.last_invalidation("a")
        assert "symbol values changed" in record.describe()

    def test_upstream_reason(self):
        pipeline = Pipeline([
            CountingPass("a", uses=("env",)),
            CountingPass("b", depends_on=("a",)),
        ])
        pipeline.run("b", context(env={"M": 4, "N": 4}))
        pipeline.run("b", context(env={"M": 8, "N": 4}))
        record = pipeline.last_invalidation("b")
        assert "upstream pass 'a' recomputed" in record.describe()

    def test_transform_attribution(self):
        pipeline = Pipeline([CountingPass("a", uses=("arrays",))])
        sdfg = linalg.build_outer_product()
        pipeline.run("a", PassContext(sdfg))
        pad_strides_to_multiple(sdfg, "C", 8)
        pipeline.note_transform("pad_strides_to_multiple on C")
        pipeline.run("a", PassContext(sdfg))
        record = pipeline.last_invalidation("a")
        assert "data descriptors changed" in record.describe()
        assert "pad_strides_to_multiple on C" in record.describe()

    def test_eviction_reason(self):
        pipeline = Pipeline([CountingPass("a", uses=("env",))])
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        pipeline.store.clear()
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        record = pipeline.last_invalidation("a")
        assert "evicted" in record.describe()


class TestObservability:
    def test_dependencies_resolve_inside_the_pass_span(self):
        tracer = Tracer()
        pipeline = Pipeline(
            [CountingPass("a"), CountingPass("b", depends_on=("a",))],
            tracer=tracer,
        )
        pipeline.run("b", context())
        (root,) = tracer.roots()
        assert root.name == "pass:b"
        assert [s.name for s in tracer.children(root)] == ["pass:a"]

    def test_spans_and_counters(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        pipeline = Pipeline(
            [CountingPass("a", uses=("env",))], tracer=tracer, metrics=metrics
        )
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        assert metrics.counter("pass.a.runs").value == 1
        assert metrics.counter("pass.a.hits").value == 1
        assert metrics.counter("pass.a.misses").value == 1

    def test_report_renders(self):
        pipeline = Pipeline(
            [CountingPass("a", uses=("env",))],
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )
        pipeline.run("a", context(env={"M": 4, "N": 4}))
        pipeline.note_transform("some transform")
        report = pipeline.report()
        assert "a" in report and "runs" in report
        assert "some transform" in report

    def test_runs_requires_metrics(self):
        pipeline = Pipeline([CountingPass("a")])
        with pytest.raises(PipelineError):
            pipeline.runs("a")


class TestPassContext:
    def test_unknown_component(self):
        with pytest.raises(PipelineError, match="unknown context component"):
            context().component("bogus")

    def test_require_env(self):
        with pytest.raises(PipelineError, match="symbol environment"):
            context().require_env("some.pass")

    def test_state_component_falls_back_to_all_states(self):
        sdfg = linalg.build_outer_product()
        unfocused = PassContext(sdfg)
        focused = PassContext(sdfg, state=sdfg.start_state)
        assert unfocused.component("state") == unfocused.component("states")
        assert focused.component("state") != unfocused.component("states")

    def test_adopt_components_skips_env(self):
        sdfg = linalg.build_outer_product()
        a = PassContext(sdfg, env={"M": 2, "N": 2})
        a.component("states")
        a.component("env")
        b = PassContext(sdfg, env={"M": 9, "N": 9})
        b.adopt_components(a)
        assert "states" in b._components
        assert b.component("env") == (("M", 9), ("N", 9))


class TestDefaultPipeline:
    def test_registers_global_and_local_chains(self):
        pipeline = build_pipeline()
        for product in (
            "global.movement", "global.movement.eval", "global.opcount",
            "global.intensity", "global.totals", "local.analytic",
            "local.trace", "local.classify", "local.physmove", "local.point",
        ):
            assert product in pipeline
        # The engine answers the reuse views: no second stack-distance
        # pass over the simulated trace.
        for product in ("local.layout", "local.stackdist"):
            assert product not in pipeline
        names = [p.name for p in pipeline.order()]
        assert names.index("local.analytic") < names.index("local.classify")

    def test_miss_counts_come_from_the_analytic_product_alone(self):
        deps = {p.name: p.depends_on for p in build_pipeline().passes()}
        assert deps["local.classify"] == ("local.analytic",)
        assert deps["local.point"] == (
            "local.analytic", "local.classify", "local.physmove"
        )
