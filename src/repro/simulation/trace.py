"""Access traces: the raw output of the pattern simulation.

A simulated trace is stored as :class:`TraceBlock` columns: each block
holds the accesses of one (container, kind, tasklet) as an ``int64``
index matrix plus the trace positions of its rows.  The step, execution
and iteration point of every row come from the block's *firings* — one
of two small tables that build per-row arrays only when asked:

- :class:`~repro.simulation.vectorized.ScopeFirings` for vectorized map
  scopes, where row *i* is iteration *i* of the scope, so everything
  follows from the scope's bases and parameter ranges;
- :class:`RecordedFirings` for interpreted scopes, nested-SDFG bodies
  and access-node copies, which record one row per tasklet firing.

:class:`AccessEvent` objects are the per-event view of the same data,
built on demand (:attr:`repro.simulation.simulator.SimulationResult.events`).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import SimulationError

__all__ = ["AccessKind", "AccessEvent", "TraceBlock", "RecordedFirings"]


class AccessKind(enum.Enum):
    """Whether an access reads or writes its element."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class AccessEvent:
    """One element access observed during simulation.

    Attributes
    ----------
    data:
        Container name.
    indices:
        Concrete element indices.
    kind:
        Read or write.
    step:
        Global ordinal of the *timestep* (map iteration) this access
        belongs to; the playback animation advances one step at a time and
        highlights all events sharing it.
    execution:
        Ordinal of the tasklet execution producing the access; related-
        access analysis groups events by this.
    tasklet:
        Name of the executing tasklet.
    point:
        The map iteration point (parameter values) of the execution.
    """

    __slots__ = ("data", "indices", "kind", "step", "execution", "tasklet", "point")

    def __init__(
        self,
        data: str,
        indices: tuple[int, ...],
        kind: AccessKind,
        step: int,
        execution: int,
        tasklet: str,
        point: tuple[int, ...],
    ):
        self.data = data
        self.indices = indices
        self.kind = kind
        self.step = step
        self.execution = execution
        self.tasklet = tasklet
        self.point = point

    def __repr__(self) -> str:
        idx = ", ".join(str(i) for i in self.indices)
        return (
            f"AccessEvent({self.kind.value} {self.data}[{idx}] @step {self.step})"
        )


def _tuples(matrix: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of an integer matrix as tuples of Python ints."""
    if matrix.shape[1] == 0:
        return [()] * matrix.shape[0]
    return list(zip(*(matrix[:, d].tolist() for d in range(matrix.shape[1]))))


class RecordedFirings:
    """Explicit firings of a recorded block: run *r* is one tasklet
    firing at ``steps[r]``, ``executions[r]`` and ``points[r]`` that
    covers ``counts[r]`` consecutive rows (``counts=None``: one row each).
    """

    __slots__ = ("counts", "run_steps", "run_executions", "run_points")

    def __init__(
        self,
        counts: np.ndarray | None,
        steps: np.ndarray,
        executions: np.ndarray,
        points: np.ndarray,
    ):
        self.counts = counts
        self.run_steps = steps
        self.run_executions = executions
        self.run_points = points

    def _rows(self, values: np.ndarray) -> np.ndarray:
        if self.counts is None:
            return values
        return np.repeat(values, self.counts, axis=0)

    def steps(self) -> np.ndarray:
        return self._rows(self.run_steps)

    def executions(self) -> np.ndarray:
        return self._rows(self.run_executions)

    def points(self) -> np.ndarray:
        return self._rows(self.run_points)


class TraceBlock:
    """One column of a simulated trace.

    The accesses of one (container, kind, tasklet): ``matrix`` holds
    their element indices, shape ``(count, ndims)``, and ``positions``
    their places in the trace, ascending — a ``slice`` for the strided
    columns of a vectorized scope, an ``int64`` array otherwise.
    ``firings`` derives each row's step, execution and iteration point.
    """

    __slots__ = ("data", "kind", "tasklet", "matrix", "positions", "firings")

    def __init__(
        self,
        data: str,
        kind: AccessKind,
        tasklet: str,
        matrix: np.ndarray,
        positions: slice | np.ndarray,
        firings,
    ):
        self.data = data
        self.kind = kind
        self.tasklet = tasklet
        self.matrix = matrix
        self.positions = positions
        self.firings = firings

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def first_position(self) -> int:
        if isinstance(self.positions, slice):
            return self.positions.start
        return int(self.positions[0])

    def position_array(self) -> np.ndarray:
        if isinstance(self.positions, slice):
            p = self.positions
            return np.arange(p.start, p.start + p.step * self.count, p.step)
        return self.positions

    def steps(self) -> np.ndarray:
        return self.firings.steps()

    def executions(self) -> np.ndarray:
        return self.firings.executions()

    def points(self) -> np.ndarray:
        """Iteration points, one row per access."""
        return self.firings.points()

    def check_indices(self) -> None:
        """Raise :class:`SimulationError` on a negative element index."""
        if not self.matrix.size or self.matrix.min() >= 0:
            return
        low = self.matrix.min(axis=0)
        for dim, value in enumerate(low.tolist()):
            if value < 0:
                raise SimulationError(
                    f"container {self.data!r} is accessed at negative index "
                    f"{value} in dimension {dim}"
                )

    def events(self, rows: np.ndarray | None = None) -> list[AccessEvent]:
        """The block's accesses as :class:`AccessEvent` objects, in row
        order (restricted to *rows*, a row selector, when given)."""
        matrix, steps = self.matrix, self.steps()
        executions, points = self.executions(), self.points()
        if rows is not None:
            matrix, steps = matrix[rows], steps[rows]
            executions, points = executions[rows], points[rows]
        return [
            AccessEvent(self.data, indices, self.kind, step, execution, self.tasklet, point)
            for indices, step, execution, point in zip(
                _tuples(matrix), steps.tolist(), executions.tolist(), _tuples(points)
            )
        ]

    def __repr__(self) -> str:
        return (
            f"TraceBlock({self.kind.value} {self.data} by {self.tasklet}, "
            f"count={self.count})"
        )
