"""``SDFG.copy``: the structural clone against its JSON round-trip oracle.

The clone must serialize exactly like ``from_json(to_json(sdfg))``, give
every node the connectors the round trip rebuilds, and share no mutable
object with its original — so mutating either side never shows on the
other, and a tuner's sibling variants never disturb each other.
"""

import pytest
from hypothesis import given, settings

from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.errors import TransformError
from repro.frontend.program import Program
from repro.sdfg import Memlet, NestedSDFG, Tasklet
from repro.sdfg.serialize import from_json, sdfg_fingerprint, to_json
from repro.transforms.loop_reorder import reorder_map
from repro.transforms.protocol import default_transforms
from tests.sdfg.test_nested import build_outer
from tests.simulation.test_vectorized_differential import random_programs

APPS = [
    pytest.param(hdiff.build_sdfg, id="hdiff"),
    pytest.param(conv.build_conv, id="conv"),
    pytest.param(bert.build_sdfg, id="bert"),
    pytest.param(linalg.build_matmul, id="matmul"),
    pytest.param(cloudsc.build_sdfg, id="cloudsc"),
    pytest.param(build_outer, id="nested"),
]


def with_interstate_edge():
    """The nested-SDFG program plus a second state behind an assignment."""
    sdfg = build_outer()
    tail = sdfg.add_state("tail")
    sdfg.add_interstate_edge(sdfg.start_state, tail, assignments={"k": "0"})
    return sdfg


def mutable_parts(sdfg):
    """Every object of *sdfg* that a rewrite may assign or mutate."""
    yield sdfg
    yield sdfg.arrays
    yield sdfg.symbols
    yield from sdfg.arrays.values()
    yield sdfg.state_graph()
    for edge in sdfg.interstate_edges():
        yield from (edge, edge.data, edge.data.assignments)
    for state in sdfg.states():
        yield from (state, state.graph)
        for node in state.nodes():
            yield from (node, node.in_connectors, node.out_connectors)
            if hasattr(node, "map"):
                yield from (node.map, node.map.params, node.map.ranges)
            if isinstance(node, NestedSDFG):
                yield node.symbol_mapping
                yield from mutable_parts(node.sdfg)
        for edge in state.edges():
            yield from (edge, edge.data)
            if edge.data.memlet is not None:
                yield edge.data.memlet


def connectors(sdfg):
    """Each node's ``(in, out)`` connectors, in node order, nested too."""
    out = []
    for state in sdfg.states():
        for node in state.nodes():
            out.append((list(node.in_connectors), list(node.out_connectors)))
            if isinstance(node, NestedSDFG):
                out.append(connectors(node.sdfg))
    return out


def assert_matches_round_trip(sdfg):
    copy = sdfg.copy()
    round_trip = from_json(to_json(sdfg))
    assert to_json(copy) == to_json(round_trip)
    assert sdfg_fingerprint(copy) == sdfg_fingerprint(round_trip)
    assert connectors(copy) == connectors(round_trip)
    shared = {id(p) for p in mutable_parts(sdfg)} & {
        id(p) for p in mutable_parts(copy)
    }
    assert not shared


class TestRoundTripOracle:
    @pytest.mark.parametrize("build", APPS)
    def test_app(self, build):
        assert_matches_round_trip(build())

    def test_interstate_edge(self):
        assert_matches_round_trip(with_interstate_edge())

    @given(random_programs())
    @settings(max_examples=40, deadline=None)
    def test_random_program(self, sdfg):
        assert_matches_round_trip(sdfg)

    def test_declared_connectors(self):
        """A tasklet keeps declared connectors its edges do not name, in
        declared order; a map entry has only the ones its edges name."""
        sdfg = with_interstate_edge()
        state = sdfg.start_state
        entry, _ = state.add_map("scope", {"i": "0:N"})
        entry.add_in_connector("IN_unused")
        tasklet = state.add_tasklet("t", ["b", "a", "unused"], ["out"], "out = a + b")
        a = state.add_access("A")
        state.add_edge(a, None, tasklet, "a", Memlet("A", "0"))
        state.add_edge(a, None, tasklet, "b", Memlet("A", "1"))
        state.add_edge(tasklet, "out", state.add_access("B"), None, Memlet("B", "0"))
        assert_matches_round_trip(sdfg)
        copied = next(t for t in sdfg.copy().start_state.tasklets() if t.name == "t")
        assert copied.in_connectors == ["b", "a", "unused"]


# -- isolation: mutate one side, the other's serialization stays put --------


def flip_transient(sdfg):
    desc = sdfg.arrays["in_field"]
    desc.transient = not desc.transient


def replace_descriptor(sdfg):
    desc = sdfg.arrays["in_field"]
    sdfg.replace_descriptor("in_field", desc.with_strides(desc.strides, 8))


def first_memlet_edge(sdfg):
    return next(e for e in sdfg.start_state.edges() if e.data.memlet is not None)


def assign_memlet(sdfg):
    edge = first_memlet_edge(sdfg)
    edge.data.memlet = Memlet(edge.data.memlet.data, "0, 0, 0")


def reorder(sdfg):
    reorder_map(sdfg.start_state.map_entries()[0], [2, 1, 0])


def edit_code(sdfg):
    tasklet = sdfg.start_state.tasklets()[0]
    tasklet.code = tasklet.code.replace("4.0", "5.0")


def edit_assignment(sdfg):
    sdfg.interstate_edges()[0].data.assignments["k"] = "1"


def add_symbol(sdfg):
    sdfg.add_symbol("EXTRA")


def edit_nested_state(sdfg):
    nested = next(
        n for n in sdfg.start_state.nodes() if isinstance(n, NestedSDFG)
    )
    nested.sdfg.start_state.add_access("inp")


MUTATIONS = [
    pytest.param(hdiff.build_sdfg, flip_transient, id="transient"),
    pytest.param(hdiff.build_sdfg, replace_descriptor, id="replace_descriptor"),
    pytest.param(hdiff.build_sdfg, assign_memlet, id="memlet"),
    pytest.param(hdiff.build_sdfg, reorder, id="reorder_map"),
    pytest.param(hdiff.build_sdfg, edit_code, id="tasklet_code"),
    pytest.param(with_interstate_edge, edit_assignment, id="assignments"),
    pytest.param(with_interstate_edge, add_symbol, id="symbols"),
    pytest.param(with_interstate_edge, edit_nested_state, id="nested_state"),
]


@pytest.mark.parametrize("build, mutate", MUTATIONS)
def test_mutating_the_copy_leaves_the_original(build, mutate):
    original = build()
    before = to_json(original)
    copy = original.copy()
    mutate(copy)
    assert to_json(copy) != before, "the mutation must change the copy"
    assert to_json(original) == before


@pytest.mark.parametrize("build, mutate", MUTATIONS)
def test_mutating_the_original_leaves_the_copy(build, mutate):
    original = build()
    copy = original.copy()
    before = to_json(copy)
    mutate(original)
    assert to_json(original) != before, "the mutation must change the original"
    assert to_json(copy) == before


class TestProgramToSdfg:
    """``Program.to_sdfg()`` hands out copies of its cached instance."""

    @pytest.fixture
    def program(self):
        return Program(hdiff.hdiff_program.func)

    def test_copy_matches_round_trip(self, program):
        cached = program.to_sdfg(copy=False)
        fresh = program.to_sdfg()
        assert to_json(fresh) == to_json(from_json(to_json(cached)))
        assert connectors(fresh) == connectors(from_json(to_json(cached)))
        shared = {id(p) for p in mutable_parts(cached)} & {
            id(p) for p in mutable_parts(fresh)
        }
        assert not shared

    @pytest.mark.parametrize(
        "mutate", [flip_transient, replace_descriptor, assign_memlet, reorder, edit_code]
    )
    def test_mutations_stay_on_their_side(self, program, mutate):
        cached = program.to_sdfg(copy=False)
        before = to_json(cached)
        mutate(program.to_sdfg())
        assert to_json(cached) == before
        assert to_json(program.to_sdfg()) == before
        fresh = program.to_sdfg()
        mutate(cached)
        assert to_json(fresh) == before


# -- siblings: a tuner's variants never disturb each other -------------------

#: Second-generation matches applied per (parent, transform); BERT's
#: full second generation would be ~35k variants.
GEN2_MATCHES = 8


def expand(parent, limit=None):
    """Every registered transform's matches, each on its own copy."""
    children = []
    for transform in default_transforms():
        for match in transform.enumerate_matches(parent)[:limit]:
            child = parent.copy()
            try:
                transform.apply(child, match)
            except TransformError:
                continue
            children.append((transform.name, child, sdfg_fingerprint(child)))
    return children


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(hdiff.build_sdfg, id="hdiff"),
        pytest.param(bert.build_sdfg, id="bert"),
        pytest.param(cloudsc.build_sdfg, id="cloudsc"),
    ],
)
def test_sibling_variants_stay_independent(build):
    """Two generations of variants, each fingerprinted when made.

    The first generation applies every match on the program; the second
    expands each transform's first child (a copy of a rewritten copy)
    by up to :data:`GEN2_MATCHES` matches of every transform.
    """
    base = build()
    made = [(base, sdfg_fingerprint(base))]
    first = expand(base)
    made += [(child, fp) for _, child, fp in first]
    parents = {}
    for name, child, _ in first:
        parents.setdefault(name, child)
    assert len(parents) >= 4
    for parent in parents.values():
        made += [(child, fp) for _, child, fp in expand(parent, GEN2_MATCHES)]
    changed = [sdfg.name for sdfg, fp in made if sdfg_fingerprint(sdfg) != fp]
    assert not changed
