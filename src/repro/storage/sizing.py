"""Approximate in-memory sizing of cached analysis products.

Entry-*count* bounds alone cannot keep a cache's footprint predictable:
a handful of large local-view products (traces, layout matrices) can
dwarf hundreds of tiny symbolic results.  :func:`approx_sizeof` gives a
cheap, recursive :func:`sys.getsizeof`-based estimate that the bounded
caches use as a secondary, byte-denominated eviction bound.

The estimate is deliberately approximate: shared sub-objects are
counted once, and objects that resist ``getsizeof`` fall back to a flat
default.  Callers that know their payloads better can pass their own
``sizeof`` callable to the caches.
"""

from __future__ import annotations

import sys
from typing import Any

import numpy as np

__all__ = ["approx_sizeof"]

#: Flat fallback for objects whose ``__sizeof__`` misbehaves.
_DEFAULT_OBJECT_SIZE = 64
#: Types with nothing further to walk.
_LEAVES = frozenset({int, float, complex, bool, str, bytes, type(None)})


def approx_sizeof(obj: Any) -> int:
    """Approximate recursive byte size of *obj*.

    Containers (and instance ``__dict__``/``__slots__``) are walked to
    any depth, so NumPy buffers nested deep inside a product — the
    analytic engine keeps them four levels down — are counted; each
    distinct object is counted once, which also ends cycles.  A NumPy
    array reports the buffer it owns through ``__sizeof__``; one that
    does not own its buffer — a view, or an array unpickled from a
    worker's result, which wraps the pickle's bytes — is charged its
    ``base`` instead.  The walk is iterative, so deep nesting cannot
    exhaust the interpreter stack.
    """
    seen: set[int] = set()
    pending = [obj]
    size = 0
    while pending:
        value = pending.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        try:
            size += sys.getsizeof(value, _DEFAULT_OBJECT_SIZE)
        except TypeError:  # a misdeclared __sizeof__
            size += _DEFAULT_OBJECT_SIZE
        if type(value) in _LEAVES:
            continue
        if isinstance(value, np.ndarray):
            if value.base is not None:
                pending.append(value.base)
        elif isinstance(value, dict):
            pending.extend(value.keys())
            pending.extend(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            pending.extend(value)
        else:
            attrs = getattr(value, "__dict__", None)
            if attrs is not None:
                pending.append(attrs)
            for slot in getattr(type(value), "__slots__", ()):
                pending.append(getattr(value, slot, None))
    return size
