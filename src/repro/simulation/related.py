"""Related-access derivation (Section V-C, Fig. 4c).

"The same information can be used to derive and visualize data accesses
related to other accesses, based on whether they occur in the same
computations."  Two accesses are *related* when they belong to the same
tasklet execution.  Selecting one or more memory locations stacks the
related-access counts of all executions touching them into a heatmap that
exposes replication and tiling opportunities.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.simulation.simulator import SimulationResult

__all__ = ["related_access_counts"]

Selection = tuple[str, tuple[int, ...]]


def related_access_counts(
    result: SimulationResult,
    selections: Sequence[Selection],
    data: str | None = None,
) -> dict[Selection, int]:
    """Stacked related-access counts per element.

    An access is related when its execution also accesses a selected
    ``(container, indices)`` element; the selected elements' own accesses
    count too (they are trivially related to themselves), matching the
    tool's behaviour of highlighting the selection.  Multiple selections
    stack (Fig. 4c selects C[3,0], C[3,1] and C[3,2] simultaneously);
    restrict the result to one container with *data*.  Keys appear in
    trace order of their first related access.
    """
    wanted: dict[str, set[tuple[int, ...]]] = {}
    for name, indices in selections:
        wanted.setdefault(name, set()).add(tuple(indices))
    blocks = result.blocks
    hit: list[np.ndarray] = []
    for block in blocks:
        for indices in wanted.get(block.data, ()):
            if len(indices) != block.matrix.shape[1]:
                continue
            rows = np.all(block.matrix == np.asarray(indices, dtype=np.int64), axis=1)
            if rows.any():
                hit.append(block.executions()[rows])
    if not hit:
        return {}
    executions = np.unique(np.concatenate(hit))
    positions: list[np.ndarray] = []
    keys: list = []
    for block in blocks:
        if data is not None and block.data != data:
            continue
        rows = np.flatnonzero(np.isin(block.executions(), executions))
        if rows.size:
            positions.append(block.position_array()[rows])
            keys.extend(
                (block.data, tuple(row)) for row in block.matrix[rows].tolist()
            )
    counts: dict[Selection, int] = {}
    if not keys:
        return counts
    for t in np.argsort(np.concatenate(positions), kind="stable").tolist():
        key = keys[t]
        counts[key] = counts.get(key, 0) + 1
    return counts
