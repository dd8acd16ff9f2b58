"""Crash-safe persistent storage for content-addressed analysis results.

The storage layer makes the incremental pass pipeline survive process
restarts: a :class:`~repro.storage.diskcache.DiskCache` persists every
pass product under its content key with atomic writes, checksummed
entries, corruption quarantine and advisory cross-process locking;
:class:`~repro.storage.tiered.TieredBacking` layers the in-memory LRU
on top so the :class:`~repro.passes.store.ResultStore` reads through
memory first and writes through to disk.

Failure contract: no storage failure ever corrupts a result or raises
into an analysis — corrupt entries are quarantined and recomputed, and
unusable directories (read-only, full, lock-starved) degrade the layer
to memory-only with one warning and one counter.

Quick start::

    session = Session(program, cache_dir="~/.cache/repro")
    # or: REPRO_CACHE_DIR=~/.cache/repro, or repro-view --cache-dir ...
"""

from __future__ import annotations

from repro.storage.diskcache import (
    DEFAULT_MAX_BYTES,
    FORMAT_VERSION,
    SCHEMA_VERSION,
    DiskCache,
    StorageDegradedWarning,
    key_digest,
)
from repro.storage.locks import FileLock
from repro.storage.sizing import approx_sizeof
from repro.storage.tiered import TieredBacking

__all__ = [
    "DEFAULT_MAX_BYTES",
    "FORMAT_VERSION",
    "SCHEMA_VERSION",
    "DiskCache",
    "FileLock",
    "StorageDegradedWarning",
    "TieredBacking",
    "approx_sizeof",
    "key_digest",
]
