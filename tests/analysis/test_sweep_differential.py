"""Serial == pool: both sweep paths run the same ``local.point`` passes.

A pooled sweep evaluates its points in worker processes, on a
deserialized copy of the program and a fresh pass store; the serial
sweep runs them in process.  Every seed app must give the same misses,
moved bytes and access counts either way.  The workers return each
point's capacity-independent ``local.analytic`` product to the session
store, so a re-sweep at another capacity only classifies — and must
still equal a fresh serial session and the enumeration chain.
"""

import pickle

import pytest

from repro.analysis.movement import total_movement_bytes
from repro.analysis.opcount import program_ops
from repro.analysis.parametric import LocalSweepPoint
from repro.apps import bert, cloudsc, conv, hdiff, linalg
from repro.locality import analyze_locality
from repro.simulation import CacheModel, MemoryModel, simulate_state
from repro.simulation.arrays import build_array_trace, per_container_misses_array
from repro.simulation.stackdist import stack_distances_array
from repro.tool.session import Session

APPS = [
    pytest.param(hdiff.build_sdfg, id="hdiff"),
    pytest.param(conv.build_conv, id="conv"),
    pytest.param(linalg.build_matmul, id="matmul"),
    pytest.param(bert.build_sdfg, id="bert"),
    pytest.param(cloudsc.build_sdfg, id="cloudsc"),
]


def _grid(sdfg) -> list[dict[str, int]]:
    """Two small points: every symbol at 8, then the first one at 6."""
    names = sorted(
        program_ops(sdfg).free_symbols()
        | total_movement_bytes(sdfg).free_symbols()
    )
    base = {name: 8 for name in names}
    return [base, {**base, names[0]: 6}]


def _assert_same(pooled, serial, grid):
    assert [p.params for p in pooled] == grid
    for got, want in zip(pooled, serial):
        assert got.misses == want.misses
        assert got.moved_bytes == want.moved_bytes
        assert got.total_accesses == want.total_accesses


@pytest.mark.parametrize("build", APPS)
def test_session_sweep_pool_equals_serial(build):
    sdfg = build()
    grid = _grid(sdfg)
    serial = Session(sdfg).sweep(grid, capacity_lines=16)
    pooled_session = Session(sdfg)
    pooled = pooled_session.sweep(
        grid, workers=2, adaptive=False, capacity_lines=16
    )
    assert pooled_session.metrics.counter("sweep.pool_spawns").value == 1
    _assert_same(pooled, serial, grid)


def _enumerated_misses(sdfg, params, capacity):
    """Per-container misses from the enumeration chain."""
    result = simulate_state(sdfg, params)
    trace = build_array_trace(result, MemoryModel(sdfg, params, line_size=64))
    distances = stack_distances_array(trace.lines)
    return per_container_misses_array(trace, distances, CacheModel(64, capacity))


def _pickled_size(point) -> int:
    return len(pickle.dumps(point))


@pytest.mark.parametrize("build", APPS)
def test_capacity_resweep_of_a_pooled_grid_only_classifies(build):
    sdfg = build()
    grid = _grid(sdfg)
    session = Session(sdfg)
    streamed = {}
    pooled = session.sweep(
        grid, workers=2, adaptive=False, capacity_lines=16,
        on_result=streamed.__setitem__,
    )
    assert session.metrics.counter("sweep.pool_spawns").value == 1
    runs = session.metrics.counter("pass.local.analytic.runs").value
    resweep = session.sweep(grid, capacity_lines=4)
    assert session.metrics.counter("pass.local.analytic.runs").value == runs
    assert session.metrics.counter("sweep.classified").value == len(grid)

    fresh = Session(sdfg).sweep(grid, capacity_lines=4)
    _assert_same(resweep, fresh, grid)
    for point in resweep:
        assert point.misses == _enumerated_misses(sdfg, point.params, 4)

    # No returned, stored or streamed point carries the worker's product:
    # each pickles to the size of a point a serial sweep made.
    serial = Session(sdfg).sweep(grid, capacity_lines=16)
    stored = [session.store.get(session.product_key(
        "local.point", session.point_context(p, capacity_lines=16)
    )) for p in grid]
    for points in (pooled, stored, [streamed[i] for i in range(len(grid))]):
        assert all(type(p) is LocalSweepPoint for p in points)
        assert list(map(_pickled_size, points)) == list(map(_pickled_size, serial))
    assert list(map(_pickled_size, resweep)) == list(map(_pickled_size, fresh))


#: Reshaped hdiff (``apply_reshape``) at slider points whose window
#: folds; at the second, neighbouring K-planes share boundary lines.
FOLDED_RESHAPED = [{"I": 28, "J": 18, "K": 8}, {"I": 31, "J": 20, "K": 8}]


def test_pooled_folded_products_equal_serial():
    """Folded products with resolved shared lines cross the pool's pipe
    and answer every query as the in-process engine's do."""
    sdfg = hdiff.build_sdfg()
    hdiff.apply_reshape(sdfg)
    serial = Session(sdfg).sweep(FOLDED_RESHAPED, capacity_lines=16)
    session = Session(sdfg)
    pooled = session.sweep(
        FOLDED_RESHAPED, workers=2, adaptive=False, capacity_lines=16
    )
    assert session.metrics.counter("sweep.pool_spawns").value == 1
    assert session.metrics.counter("locality.analytic.hits").value == len(FOLDED_RESHAPED)
    _assert_same(pooled, serial, FOLDED_RESHAPED)
    resweep = session.sweep(FOLDED_RESHAPED, capacity_lines=4)
    assert session.metrics.counter("pass.local.analytic.runs").value == 0
    for point in resweep:
        assert point.misses == _enumerated_misses(sdfg, point.params, 4)
        shipped = session.store.get(session.product_key(
            "local.analytic", session.point_context(point.params, capacity_lines=4)
        ))
        local = analyze_locality(sdfg, point.params)
        assert shipped.analytic_regions == 1
        for name in local.containers:
            assert shipped.per_element_misses(name, 4) == local.per_element_misses(name, 4)
