"""Content-addressed result store for the analysis-pass pipeline.

Pass results are memoized under *content keys* — tuples built from the
pass name, the content fingerprints of everything the pass reads, and
(recursively) its dependencies' keys.  A key therefore changes exactly
when some input content changes; invalidation is never an explicit event,
it is the absence of the new key in the store.

The store wraps every value in a cell so that ``None`` (or any falsy
product) is a legal cached result, and delegates storage to a pluggable
*backing* cache — any object with the ``get``/``put``/``clear``/``info``
protocol of :class:`_LRUBacking` — so a session exposes one store, with
one set of hit/miss counters, whether or not a disk tier
(:class:`~repro.storage.tiered.TieredBacking`) sits behind it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.storage.sizing import approx_sizeof

__all__ = ["ResultStore"]

_MISS = object()


class _LRUBacking:
    """Minimal bounded LRU used when no external backing cache is given.

    Bounded two ways: by entry *count* (``maxsize``) and — because a few
    large local-view products can dwarf hundreds of tiny symbolic
    entries — by approximate *bytes* (``max_bytes``, measured with
    *sizeof*, default :func:`~repro.storage.sizing.approx_sizeof`).
    """

    def __init__(
        self,
        maxsize: int,
        max_bytes: int | None = None,
        sizeof: Callable[[Any], int] | None = None,
    ):
        self.maxsize = int(maxsize)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._sizeof = sizeof if sizeof is not None else approx_sizeof
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self._sizes: dict[tuple, int] = {}
        self.approx_bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def _measure(self, value: Any) -> int:
        try:
            return int(self._sizeof(value))
        except Exception:  # noqa: BLE001 — fault barrier: sizing must never break caching
            return 0

    def _over_budget(self) -> bool:
        if len(self._entries) > self.maxsize:
            return True
        return self.max_bytes is not None and self.approx_bytes > self.max_bytes

    def put(self, key: tuple, value: Any) -> None:
        if key in self._entries:
            self.approx_bytes -= self._sizes.pop(key, 0)
        self._entries[key] = value
        self._entries.move_to_end(key)
        size = self._measure(value)
        self._sizes[key] = size
        self.approx_bytes += size
        # The just-inserted entry is exempt: evicting a single oversized
        # product would only buy a put/miss recompute loop.
        while len(self._entries) > 1 and self._over_budget():
            evicted, _ = self._entries.popitem(last=False)
            self.approx_bytes -= self._sizes.pop(evicted, 0)

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.approx_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def info(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "approx_bytes": self.approx_bytes,
            "max_bytes": 0 if self.max_bytes is None else self.max_bytes,
        }


class ResultStore:
    """Cell-wrapping facade over a bounded LRU of pass results."""

    def __init__(
        self,
        backing=None,
        maxsize: int = 256,
        max_bytes: int | None = None,
    ):
        self.backing = (
            backing
            if backing is not None
            else _LRUBacking(maxsize, max_bytes=max_bytes)
        )

    def get(self, key: tuple, default: Any = _MISS) -> Any:
        """The stored value, or *default* (a private sentinel) on a miss."""
        cell = self.backing.get(key)
        if cell is None:
            return default
        return cell[0]

    def contains(self, key: tuple) -> bool:
        """Key presence without touching the hit/miss counters."""
        return key in self.backing

    def put(self, key: tuple, value: Any) -> None:
        self.backing.put(key, (value,))

    def clear(self) -> None:
        self.backing.clear()

    def __len__(self) -> int:
        return len(self.backing)

    def info(self) -> dict[str, int]:
        return self.backing.info()

    @staticmethod
    def is_miss(value: Any) -> bool:
        return value is _MISS

    def __repr__(self) -> str:
        return f"ResultStore({self.info()})"
