"""Memlet propagation through map scopes.

An edge *inside* a map scope carries a per-iteration subset expressed in
the map parameters (e.g. ``A[i, 0:K]``).  The corresponding edge *outside*
the scope must describe the union over all iterations (``A[0:I, 0:K]``)
with a volume of ``per-iteration volume × number of iterations``.  This is
how the global view obtains whole-program logical movement volumes from
per-iteration annotations.

The propagation implemented here is exact for subsets whose bounds are
monotonic in each map parameter (all affine subsets, which is the program
class the frontend accepts): the union bound per dimension is obtained by
substituting each parameter with its extreme values and taking the
symbolic min/max.
"""

from __future__ import annotations

from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import Map
from repro.symbolic.expr import Expr, mul, smax, smin
from repro.symbolic.ranges import Range, Subset

__all__ = ["propagate_memlet", "propagate_subset", "subset_union"]


def subset_union(a: Subset, b: Subset) -> Subset:
    """Smallest dense subset covering both *a* and *b* (per-dim bounds).

    Used when several reads of the same container in one scope share a
    single outer edge: the outer subset is the bounding box of the per-read
    propagated subsets.
    """
    if a.dims != b.dims:
        raise ValueError(
            f"cannot union subsets of different rank ({a.dims} vs {b.dims})"
        )
    return Subset(
        Range(smin(ra.begin, rb.begin), smax(ra.end, rb.end))
        for ra, rb in zip(a.ranges, b.ranges)
    )


def _bound_candidates(expr: Expr, map_obj: Map) -> list[Expr]:
    """All substitutions of map params by their range endpoints.

    For ``k`` parameters appearing in *expr* this enumerates up to ``2**k``
    corner substitutions; affine bounds attain their extrema at corners.
    """
    params = [p for p in map_obj.params if p in expr.free_symbols()]
    candidates = [expr]
    for p in params:
        r = map_obj.range_of(p)
        lo, hi = r.begin, r.end
        next_candidates = []
        for c in candidates:
            next_candidates.append(c.subs({p: lo}))
            next_candidates.append(c.subs({p: hi}))
        candidates = next_candidates
    return candidates


def propagate_subset(subset: Subset, map_obj: Map) -> Subset:
    """Union of *subset* over all iterations of *map_obj* (per-dim bounds)."""
    new_ranges = []
    for r in subset.ranges:
        if not (r.free_symbols() & set(map_obj.params)):
            new_ranges.append(r)
            continue
        begins = _bound_candidates(r.begin, map_obj)
        ends = _bound_candidates(r.end, map_obj)
        # The union is contiguous for step-1 map ranges; for strided maps it
        # over-approximates (conservatively) with a dense range.
        new_ranges.append(Range(smin(*begins), smax(*ends)))
    return Subset(new_ranges)


def propagate_memlet(memlet: Memlet, map_obj: Map) -> Memlet:
    """Propagate *memlet* from inside *map_obj* to outside its scope.

    The resulting memlet covers the union subset and carries an exact
    volume hint of ``inner volume × iterations``.
    """
    outer_subset = propagate_subset(memlet.subset, map_obj)
    volume = mul(memlet.volume(), map_obj.num_iterations())
    # When the union subset's element count already equals the total moved
    # volume, the hint is redundant — keep it anyway only if they differ, so
    # that repeated propagation stays exact.
    hint: Expr | None = volume
    if outer_subset.num_elements() == volume:
        hint = None
    return Memlet(memlet.data, outer_subset, wcr=memlet.wcr, volume_hint=hint)
