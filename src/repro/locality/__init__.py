"""Analytic locality engine: closed-form reuse distances at scale.

The array pipeline (:mod:`repro.simulation.arrays` →
:mod:`~repro.simulation.stackdist`) enumerates every access of the
iteration space, so its cost grows with the total access count — fine at
paper "local view" sizes, impossible at production shapes with millions
of elements.  This package derives the same per-container reuse-distance
histograms, cold/capacity miss counts and per-element miss aggregates
from a *constant* number of enumerated loop blocks:

- :func:`~repro.locality.engine.analyze_locality` decomposes a state
  into regions (one per top-level scope), window-folds uniform-shift
  affine map regions (:mod:`repro.locality.fold`) and enumerates the
  rest per region, stitching both into one exact product;
- :class:`~repro.locality.engine.AnalyticLocality` answers the same
  queries as the enumeration pipeline (``miss_counts``,
  ``per_element_misses``, ``histogram``) with exactly equal results;
- folded regions additionally emit :mod:`repro.symbolic` count
  expressions over the outer extent
  (:class:`~repro.locality.engine.SymbolicLocality`), evaluable on whole
  parameter grids through :func:`repro.symbolic.compiled.compile_expr`.
"""

from repro.locality.engine import (
    AnalyticLocality,
    ElementCounts,
    ElementMap,
    SymbolicLocality,
    analyze_locality,
)
from repro.locality.regions import FoldCandidate, Region, extract_regions

__all__ = [
    "AnalyticLocality",
    "ElementCounts",
    "ElementMap",
    "SymbolicLocality",
    "analyze_locality",
    "FoldCandidate",
    "Region",
    "extract_regions",
]
