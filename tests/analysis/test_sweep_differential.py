"""Serial == pool: both sweep paths run the same ``local.point`` passes.

A pooled sweep evaluates its points in worker processes, on a
deserialized copy of the program and a fresh pass store; the serial
sweep runs them in process.  Every seed app must give the same misses,
moved bytes and access counts either way.
"""

import pytest

from repro.analysis.movement import total_movement_bytes
from repro.analysis.opcount import program_ops
from repro.analysis.parametric import sweep_local_views
from repro.apps import bert, cloudsc, conv, hdiff, linalg
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


@pytest.mark.parametrize("build", APPS)
def test_sweep_local_views_pool_equals_serial(build):
    sdfg = build()
    grid = _grid(sdfg)
    serial = sweep_local_views(sdfg, grid, capacity_lines=16)
    pooled = sweep_local_views(sdfg, grid, workers=2, capacity_lines=16)
    _assert_same(pooled, serial, grid)
