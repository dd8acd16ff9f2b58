"""Executor grid points for tests whose scenarios ride in the parameters.

:meth:`~repro.analysis.executor.SweepExecutor.run` takes one point
context per grid point plus the caller's in-process evaluator.  A real
:class:`~repro.passes.base.PassContext` coerces its environment to
integers, so these stand-ins carry the marker files, log paths and sleep
times the fault scenarios need; the pool still ships each point's real
program.
"""

from typing import Any, NamedTuple


class Point(NamedTuple):
    """What the executor reads of a point context."""

    sdfg: Any
    env: dict
    line_size: int = 64
    capacity_lines: int = 512
    include_transients: bool = False


def grid_points(sdfg, grid) -> list[Point]:
    """One point over *sdfg* per parameter dict of *grid*."""
    return [Point(sdfg, dict(params)) for params in grid]


def in_process(point_fn):
    """The serial path's evaluator: *point_fn* called on a point as a
    worker would call it, without the program text it does not read."""
    return lambda point: point_fn(
        None, point.env, point.line_size, point.capacity_lines,
        point.include_transients,
    )
