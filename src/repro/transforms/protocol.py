"""The uniform transform protocol: ``enumerate_matches`` / ``apply``.

The SDFG paper's enabling design — transformations as uniform match/apply
objects over the graph IR — turned into the minimal protocol the
auto-tuner (:mod:`repro.tuning`) searches over:

- a :class:`Transform` is a stateless (or configuration-only) object with
  a stable :attr:`~Transform.name`;
- :meth:`Transform.enumerate_matches` lists every place it applies as
  :class:`Match` descriptors — **content-keyed** tuples of primitives
  (state names, container names, permutations), never object references.
  A match enumerated on one SDFG therefore applies verbatim to any
  content-identical copy, and the triple ``(pipeline key, transform,
  match)`` is cacheable across candidate variants;
- :meth:`Transform.apply` resolves the descriptor against the given SDFG,
  mutates it in place and returns a
  :class:`~repro.transforms.report.TransformReport` stating what changed
  (and whether the change was layout-only — the pipeline's cheap
  re-scoring path).  ``apply`` must not change the program's operation
  count: transforms move data and reorder work, they never add or drop
  it, so the tuner counts ops once per search.

The free functions the case studies call
(:func:`~repro.transforms.layout.permute_array_layout`,
:func:`~repro.transforms.loop_reorder.reorder_map`, ...) remain the
implementation core; the protocol classes wrap them with matching and
reporting.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.errors import TransformError
from repro.sdfg.data import Array
from repro.sdfg.nodes import MapEntry
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.transforms.interchange import find_loop_map_nests, move_loop_into_map
from repro.transforms.layout import pad_strides_to_multiple, permute_array_layout
from repro.transforms.loop_reorder import reorder_map
from repro.transforms.map_fusion import MapFusion
from repro.transforms.report import TransformReport
from repro.transforms.strides import change_strides
from repro.symbolic.expr import Integer

__all__ = [
    "Match",
    "Transform",
    "PermuteArrayLayout",
    "ReorderMap",
    "PadStrides",
    "ChangeStrides",
    "MoveLoopIntoMap",
    "MapFusionTransform",
    "default_transforms",
    "get_transform",
]


class Match:
    """One applicable site of a transform, as a content-keyed descriptor.

    *descriptor* is a tuple of primitives (strings, ints, nested tuples)
    that addresses graph elements by **name**, never by object identity —
    so a match survives SDFG serialization round trips and applies to any
    content-identical copy.  ``(transform, descriptor)`` is the stable
    :attr:`key` the tuner's caches and dedup sets use.
    """

    __slots__ = ("transform", "descriptor", "detail")

    def __init__(self, transform: str, descriptor: tuple, detail: str = ""):
        self.transform = transform
        self.descriptor = descriptor
        self.detail = detail

    @property
    def key(self) -> tuple:
        return (self.transform, self.descriptor)

    def to_dict(self) -> dict:
        return {
            "transform": self.transform,
            "descriptor": list(self.descriptor),
            "detail": self.detail,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Match({self.transform}, {self.descriptor})"


class Transform:
    """Protocol base: uniform matching and application over an SDFG."""

    #: Stable registry/report name (also the first element of match keys).
    name: str = "transform"

    def enumerate_matches(self, sdfg: SDFG) -> list[Match]:
        """All applicable matches on *sdfg*, in deterministic order."""
        raise NotImplementedError

    def apply(self, sdfg: SDFG, match: Match) -> TransformReport:
        """Apply *match* to *sdfg* in place; return what changed.

        Must keep the program's operation count
        (:func:`~repro.analysis.opcount.program_ops`): the tuner scores
        every variant with its baseline's count.
        """
        raise NotImplementedError

    # -- shared resolution helpers ----------------------------------------
    def _check(self, match: Match) -> None:
        if match.transform != self.name:
            raise TransformError(
                f"match {match!r} belongs to {match.transform!r}, "
                f"not {self.name!r}"
            )

    @staticmethod
    def _state(sdfg: SDFG, name: str) -> SDFGState:
        for state in sdfg.states():
            if state.name == name:
                return state
        raise TransformError(f"no state {name!r} in SDFG {sdfg.name!r}")

    @staticmethod
    def _array(sdfg: SDFG, name: str) -> Array:
        desc = sdfg.arrays.get(name)
        if not isinstance(desc, Array):
            raise TransformError(f"{name!r} is not an array container")
        return desc

    @staticmethod
    def _map_entry(state: SDFGState, label: str, occurrence: int) -> MapEntry:
        entries = [e for e in state.map_entries() if e.map.label == label]
        if occurrence >= len(entries):
            raise TransformError(
                f"state {state.name!r} has no map {label!r} "
                f"(occurrence {occurrence})"
            )
        return entries[occurrence]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _permutations(n: int) -> list[tuple[int, ...]]:
    """Non-identity candidate orders: exhaustive up to rank 3, rotations above.

    Bounded enumeration keeps the search space polynomial for wide maps
    while staying exhaustive where the case studies live (rank ≤ 3).
    """
    identity = tuple(range(n))
    if n <= 3:
        return [p for p in itertools.permutations(range(n)) if p != identity]
    return [tuple(range(r, n)) + tuple(range(r)) for r in range(1, n)]


def _states_touching(sdfg: SDFG, data: str) -> tuple[str, ...]:
    """Names of states with at least one memlet on container *data*."""
    out = []
    for state in sdfg.states():
        if any(m.data == data for _, m in state.all_memlets()):
            out.append(state.name)
    return tuple(out)


class PermuteArrayLayout(Transform):
    """Logically reorder an array's dimensions with a fresh contiguous layout.

    Matches every rank ≥ 2 array with every (bounded) non-identity
    permutation.  Not layout-only: memlets are rewritten, so the access
    *pattern* analyses change too.
    """

    name = "permute_array_layout"

    def enumerate_matches(self, sdfg: SDFG) -> list[Match]:
        matches = []
        for name, desc in sorted(sdfg.arrays.items()):
            if not isinstance(desc, Array) or desc.ndim < 2 or desc.transient:
                continue
            for order in _permutations(desc.ndim):
                matches.append(Match(
                    self.name, (name, order),
                    detail=f"{name} -> dims {list(order)}",
                ))
        return matches

    def apply(self, sdfg: SDFG, match: Match) -> TransformReport:
        self._check(match)
        name, order = match.descriptor
        touched = _states_touching(sdfg, name)
        permute_array_layout(sdfg, name, list(order))
        return TransformReport(
            self.name,
            modified_states=touched,
            modified_arrays=(name,),
            detail=f"{name} permuted to dimension order {list(order)}",
        )


class ReorderMap(Transform):
    """Permute a map scope's parameter (loop-nest) order."""

    name = "reorder_map"

    def enumerate_matches(self, sdfg: SDFG) -> list[Match]:
        matches = []
        for state in sdfg.states():
            seen: dict[str, int] = {}
            for entry in state.map_entries():
                label = entry.map.label
                occurrence = seen.get(label, 0)
                seen[label] = occurrence + 1
                if len(entry.map.params) < 2:
                    continue
                for order in _permutations(len(entry.map.params)):
                    new_params = [entry.map.params[i] for i in order]
                    matches.append(Match(
                        self.name,
                        (state.name, label, occurrence, order),
                        detail=f"{label} -> params {new_params}",
                    ))
        return matches

    def apply(self, sdfg: SDFG, match: Match) -> TransformReport:
        self._check(match)
        state_name, label, occurrence, order = match.descriptor
        state = self._state(sdfg, state_name)
        entry = self._map_entry(state, label, occurrence)
        report = reorder_map(entry, list(order))
        return TransformReport(
            self.name,
            modified_states=(state_name,),
            detail=report.detail,
        )


class PadStrides(Transform):
    """Pad the second-innermost stride up to the cache-line size.

    Configured by *line_bytes*; the per-array padding multiple is the
    line size in elements.  Layout-only: shape and memlets are unchanged.
    """

    name = "pad_strides_to_multiple"

    def __init__(self, line_bytes: int = 64):
        if line_bytes <= 0:
            raise TransformError("line_bytes must be positive")
        self.line_bytes = int(line_bytes)

    def _multiple(self, desc: Array) -> int:
        return max(1, self.line_bytes // desc.dtype.itemsize)

    def enumerate_matches(self, sdfg: SDFG) -> list[Match]:
        matches = []
        for name, desc in sorted(sdfg.arrays.items()):
            if not isinstance(desc, Array) or desc.ndim < 2 or desc.transient:
                continue
            multiple = self._multiple(desc)
            if multiple <= 1:
                continue
            matches.append(Match(
                self.name, (name, multiple),
                detail=f"{name} rows padded to {multiple} elements",
            ))
        return matches

    def apply(self, sdfg: SDFG, match: Match) -> TransformReport:
        self._check(match)
        name, multiple = match.descriptor
        pad_strides_to_multiple(sdfg, name, int(multiple))
        return TransformReport(
            self.name,
            modified_arrays=(name,),
            layout_only=True,
            detail=f"{name} strides padded to multiples of {multiple} elements",
        )

    def __repr__(self) -> str:
        return f"PadStrides(line_bytes={self.line_bytes})"


class ChangeStrides(Transform):
    """Make a chosen dimension stride-1 (AoS↔SoA relayout).

    Matches every non-stride-1 dimension of every rank ≥ 2 array.
    Layout-only: the logical descriptor and every memlet are untouched,
    so re-scoring a candidate reuses the cached simulation trace.
    """

    name = "change_strides"

    def enumerate_matches(self, sdfg: SDFG) -> list[Match]:
        matches = []
        for name, desc in sorted(sdfg.arrays.items()):
            if not isinstance(desc, Array) or desc.ndim < 2 or desc.transient:
                continue
            for dim in range(desc.ndim):
                if desc.strides[dim] == Integer(1):
                    continue
                matches.append(Match(
                    self.name, (name, dim),
                    detail=f"{name} dimension {dim} -> stride 1",
                ))
        return matches

    def apply(self, sdfg: SDFG, match: Match) -> TransformReport:
        self._check(match)
        name, dim = match.descriptor
        change_strides(sdfg, name, int(dim))
        return TransformReport(
            self.name,
            modified_arrays=(name,),
            layout_only=True,
            detail=f"{name} relayouted with dimension {dim} stride-1",
        )


class MoveLoopIntoMap(Transform):
    """Merge a single-parameter loop scope into the map it wraps."""

    name = "move_loop_into_map"

    def enumerate_matches(self, sdfg: SDFG) -> list[Match]:
        matches = []
        for state in sdfg.states():
            for outer in find_loop_map_nests(state):
                children = state.scope_children().get(outer, [])
                inner = next(n for n in children if isinstance(n, MapEntry))
                matches.append(Match(
                    self.name,
                    (state.name, outer.map.label),
                    detail=(
                        f"loop {outer.map.params[0]!r} into map "
                        f"{inner.map.label!r}"
                    ),
                ))
        return matches

    def apply(self, sdfg: SDFG, match: Match) -> TransformReport:
        self._check(match)
        state_name, label = match.descriptor
        state = self._state(sdfg, state_name)
        for outer in find_loop_map_nests(state):
            if outer.map.label == label:
                return move_loop_into_map(state, outer)
        raise TransformError(
            f"state {state_name!r} has no loop/map nest under {label!r}"
        )


class MapFusionTransform(Transform):
    """Fuse a producer map into its consumer through a transient."""

    name = "map_fusion"

    def enumerate_matches(self, sdfg: SDFG) -> list[Match]:
        matches = []
        for state in sdfg.states():
            for site in MapFusion.find_matches(sdfg, state):
                matches.append(Match(
                    self.name,
                    (state.name, site.intermediate.data),
                    detail=(
                        f"{site.producer_exit.label} <- "
                        f"{site.consumer_entry.label} through "
                        f"{site.intermediate.data}"
                    ),
                ))
        return matches

    def apply(self, sdfg: SDFG, match: Match) -> TransformReport:
        self._check(match)
        state_name, transient = match.descriptor
        state = self._state(sdfg, state_name)
        for site in MapFusion.find_matches(sdfg, state):
            if site.intermediate.data == transient:
                return site.apply()
        raise TransformError(
            f"no fusion opportunity through {transient!r} in state {state_name!r}"
        )


#: Transform names accepted by :func:`get_transform` / the tuner CLI.
_REGISTRY = {
    cls.name: cls
    for cls in (
        PermuteArrayLayout,
        ReorderMap,
        PadStrides,
        ChangeStrides,
        MoveLoopIntoMap,
        MapFusionTransform,
    )
}


def default_transforms(line_bytes: int = 64) -> tuple[Transform, ...]:
    """The full transform set the auto-tuner searches by default."""
    return (
        PermuteArrayLayout(),
        ReorderMap(),
        PadStrides(line_bytes),
        ChangeStrides(),
        MoveLoopIntoMap(),
        MapFusionTransform(),
    )


def get_transform(name: str, line_bytes: int = 64) -> Transform:
    """Instantiate one registered transform by its stable name."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise TransformError(
            f"unknown transform {name!r}; choose from {sorted(_REGISTRY)}"
        )
    if cls is PadStrides:
        return PadStrides(line_bytes)
    return cls()


def resolve_transforms(
    names: Iterable[str] | Sequence[Transform] | None,
    line_bytes: int = 64,
) -> tuple[Transform, ...]:
    """Coerce a mixed name/instance list into transform instances."""
    if names is None:
        return default_transforms(line_bytes)
    out: list[Transform] = []
    for item in names:
        if isinstance(item, Transform):
            out.append(item)
        else:
            out.append(get_transform(str(item), line_bytes))
    return tuple(out)
