"""Crash-safe on-disk content-addressed cache with corruption quarantine.

:class:`DiskCache` persists analysis results under content-addressed
keys (the tuples produced by
:meth:`repro.passes.pipeline.Pipeline.key`), so a process restart — or a
different process entirely — can serve a previously computed result
without re-running any pass.  It implements the same
``get``/``put``/``clear``/``info`` backing protocol as the in-memory
LRU caches, so a :class:`~repro.passes.store.ResultStore` can sit
directly on top of it.

Failure philosophy: **no storage failure may ever corrupt a result or
raise into an analysis** — the worst case is always a recompute.
Concretely:

- *Atomicity* — an entry is written to a temporary file in the cache
  directory, flushed and ``fsync``-ed, then published with
  :func:`os.replace`.  A crash mid-write leaves at most a stray temp
  file, never a half-visible entry; the next walk under the writer lock
  removes it (``disk.tmp_removed``).
- *Integrity* — every entry carries a fixed header (magic, format
  version, schema version, payload length, SHA-256 payload checksum)
  followed by the pickled ``(key, value)`` payload.  Reads verify all
  of it, plus that the stored key matches the requested one.
- *Quarantine* — a truncated, bit-flipped, version-mismatched or
  otherwise unreadable entry is moved into ``quarantine/`` (falling
  back to deletion), counted (``disk.corrupt``), and reported as a
  miss.  Quarantined files are kept for postmortems, never re-read.
- *Cross-process coordination* — writers serialize through an advisory
  :class:`~repro.storage.locks.FileLock` with a timeout; readers are
  lock-free (``os.replace`` publication makes entries appear
  atomically).
- *Degradation* — an unwritable directory, ``ENOSPC``, or lock
  starvation permanently degrades the cache to a no-op (memory-only
  operation for the owning store) with exactly one warning and one
  ``disk.degraded`` counter increment.  An unpicklable value skips
  only that entry (``disk.unpicklable``).
- *Eviction* — the cache is byte-budgeted: when the directory exceeds
  ``max_bytes``, the oldest entries by mtime are removed
  (``disk.evicted_bytes``).  Reads touch mtime, approximating LRU.  The
  entry bytes are kept in a ledger, one fixed-width record in
  ``<root>/.ledger`` that is read and rewritten only under the writer
  lock, so a put under budget adds its size in O(1).  The directory is
  walked (``disk.scans``) only on an instance's first write, when the
  record is missing or unreadable, or when the sum passes the budget.
  The record never decides what is served: an unlocked removal
  (quarantine) can only leave it too high, which brings the next walk
  earlier, and the walk corrects it.
"""

from __future__ import annotations

import errno
import hashlib
import io
import itertools
import os
import pickle
import struct
import warnings
import zlib
from contextlib import nullcontext
from pathlib import Path
from typing import Any

from repro.errors import LockTimeout
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import inject as _chaos
from repro.storage.locks import FileLock

__all__ = [
    "DiskCache",
    "StorageDegradedWarning",
    "FORMAT_VERSION",
    "SCHEMA_VERSION",
    "key_digest",
]

#: First bytes of every entry file.
MAGIC = b"RPRC"
#: On-disk framing version: bump when the header layout changes.
FORMAT_VERSION = 1
#: Payload schema version: bump when the pickled product types change
#: incompatibly; older entries are then quarantined and recomputed.
SCHEMA_VERSION = 9

#: magic, format version, schema version, payload length, payload SHA-256.
_HEADER = struct.Struct("<4sHHQ32s")

#: Default byte budget for the on-disk cache (1 GiB).
DEFAULT_MAX_BYTES = 1 << 30

_ENTRY_SUFFIX = ".rpc"
_TMP_PREFIX = ".tmp-"

#: The byte ledger's record: magic, entry bytes, CRC-32 of the bytes.
_LEDGER = struct.Struct("<4sQI")
_LEDGER_MAGIC = b"RPLB"

_tmp_counter = itertools.count()


class StorageDegradedWarning(RuntimeWarning):
    """The persistent cache turned itself off; analysis continues in memory."""


def _canonical(obj: Any) -> str:
    """A deterministic text form of a cache key, stable across processes.

    Pipeline keys are tuples of strings, numbers, booleans and nested
    tuples — all with deterministic ``repr`` — but sets and dicts are
    canonicalized by sorting so no caller can accidentally produce an
    order-dependent digest.
    """
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_canonical(item) for item in obj) + ")"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(item) for item in obj)) + "}"
    if isinstance(obj, dict):
        pairs = sorted(
            (_canonical(k), _canonical(v)) for k, v in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in pairs) + "}"
    return repr(obj)


def _ledger_check(total: int) -> int:
    """CRC-32 of a ledger total: a damaged record fails it and is rebuilt."""
    return zlib.crc32(total.to_bytes(8, "little"))


def key_digest(key: Any) -> str:
    """Hex SHA-256 naming the on-disk entry for *key*."""
    return hashlib.sha256(_canonical(key).encode("utf-8")).hexdigest()


class DiskCache:
    """Persistent content-addressed cache directory (backing protocol).

    Parameters
    ----------
    root:
        Cache directory; created on first use.  Entries live in 256
        two-hex-digit shard subdirectories; corrupt files move to
        ``quarantine/``.
    max_bytes:
        Byte budget; oldest entries (by mtime) are evicted past it.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        the ``disk.*`` counters.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` receiving
        ``storage:*`` spans around reads, writes and evictions.
    lock_timeout:
        Seconds to wait for the writer lock before declaring starvation.
    breaker:
        Circuit breaker guarding reads and writes against *transient*
        I/O faults and corruption bursts.  Unlike :meth:`_degrade`
        (permanent, for conditions that cannot heal in-process), an
        open breaker silences the disk tier only for its cooldown and
        then probes it again.  A default breaker is created when none
        is passed.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int = DEFAULT_MAX_BYTES,
        metrics=None,
        tracer=None,
        lock_timeout: float = 5.0,
        breaker: CircuitBreaker | None = None,
    ):
        self.root = Path(root)
        self.max_bytes = int(max_bytes)
        self.metrics = metrics
        self.tracer = tracer
        self.disabled = False
        self._degraded_reason: str | None = None
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            "disk", failure_threshold=3, reset_timeout=30.0, metrics=metrics
        )
        self._lock = FileLock(self.root / ".lock", timeout=lock_timeout)
        #: The shared byte ledger; outside the shards, so no walk counts it.
        self._ledger = self.root / ".ledger"
        #: Whether this instance walked the directory and wrote the
        #: record since; until then its next write walks (re-baselines).
        self._baselined = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._degrade(f"cannot create cache directory {self.root}: {exc}")

    # -- observability -----------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _span(self, name: str, **attributes):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, **attributes)

    def _degrade(self, reason: str) -> None:
        """Turn the disk layer off: one warning, one counter, then silence."""
        if self.disabled:
            return
        self.disabled = True
        self._degraded_reason = reason
        self._count("disk.degraded")
        warnings.warn(
            f"persistent cache disabled, continuing memory-only: {reason}",
            StorageDegradedWarning,
            stacklevel=4,
        )

    # -- paths -------------------------------------------------------------
    def _entry_path(self, key: Any) -> Path:
        digest = key_digest(key)
        return self.root / digest[:2] / f"{digest}{_ENTRY_SUFFIX}"

    def _entry_files(self, sweep: bool = False):
        """Every entry file, in one directory walk.

        With *sweep* (the caller holds the writer lock) the walk also
        removes the stray temp files it meets (``disk.tmp_removed``): a
        writer creates its temp file and publishes or unlinks it under
        that lock, so one seen here was left by a writer that died.
        """
        removed = 0
        try:
            for shard in self.root.iterdir():
                if not (shard.is_dir() and len(shard.name) == 2):
                    continue
                for path in shard.iterdir():
                    if path.name.endswith(_ENTRY_SUFFIX):
                        yield path
                    elif sweep and path.name.startswith(_TMP_PREFIX):
                        try:
                            path.unlink()
                            removed += 1
                        except OSError:
                            pass  # never read: only entries are
        except OSError:
            return
        finally:
            self._count("disk.tmp_removed", removed)

    def _stat_entries(self, sweep: bool = False):
        """``(path, stat)`` of every entry file, in one directory walk
        (which, with *sweep*, removes stray temp files).

        A file that vanishes mid-walk (another process evicted or
        quarantined it) is skipped.
        """
        for path in self._entry_files(sweep):
            try:
                yield path, path.stat()
            except OSError:
                continue

    # -- byte ledger -------------------------------------------------------
    def _read_ledger(self) -> int | None:
        """The recorded entry bytes; ``None`` if the record is missing,
        short or fails its checksum."""
        try:
            fd = os.open(self._ledger, os.O_RDONLY)
        except OSError:
            return None
        try:
            record = os.read(fd, _LEDGER.size)
        except OSError:
            return None
        finally:
            os.close(fd)
        if len(record) != _LEDGER.size:
            return None
        magic, total, check = _LEDGER.unpack(record)
        if magic != _LEDGER_MAGIC or check != _ledger_check(total):
            return None
        return total

    def _write_ledger(self, total: int) -> None:
        """Rewrite the record in place (called with the writer lock held)."""
        record = _LEDGER.pack(_LEDGER_MAGIC, total, _ledger_check(total))
        fd = os.open(self._ledger, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.write(fd, record)
        finally:
            os.close(fd)

    def _account(self, size: int, keep: Path) -> None:
        """Add a just-published entry's *size* to the ledger.

        Called with the writer lock held.  Walks the directory (and
        evicts to budget) only when this instance has not walked yet,
        when the record is unreadable, or when the sum passes
        ``max_bytes``; otherwise the put costs one record read and one
        rewrite.
        """
        total = self._read_ledger() if self._baselined else None
        # Cleared until the record is rewritten: if the walk or the
        # rewrite fails, this instance's next write walks again.
        self._baselined = False
        if total is None or total + size > self.max_bytes:
            total = self._evict_to_budget(keep=keep)
        else:
            total += size
        self._write_ledger(total)
        self._baselined = True

    # -- quarantine --------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (never raising) and count it."""
        self._count("disk.corrupt")
        with self._span("storage:quarantine", file=path.name, reason=reason):
            target_dir = self.root / "quarantine"
            try:
                target_dir.mkdir(exist_ok=True)
                target = target_dir / f"{path.name}.{os.getpid()}"
                os.replace(path, target)
            except OSError:
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass  # another process already moved or removed it

    # -- backing protocol --------------------------------------------------
    def get(self, key: Any) -> Any:
        """The stored value, or ``None`` on miss/corruption/degradation.

        Never raises: every abnormal entry is quarantined and reported
        as a miss, so the caller recomputes.
        """
        if self.disabled:
            return None
        if not self.breaker.allow():
            self._count("disk.breaker_skips")
            return None
        path = self._entry_path(key)
        with self._span("storage:read", file=path.name):
            try:
                _chaos("disk.read")
                blob = path.read_bytes()
            except FileNotFoundError:
                # A plain miss is healthy — it must not trip the breaker.
                self._count("disk.misses")
                return None
            except OSError:
                self._count("disk.misses")
                self._count("disk.io_errors")
                self.breaker.record_failure()
                return None
            value = self._decode(blob, key, path)
            if value is None:
                # Corruption burst (every entry quarantined) also opens
                # the breaker: stop paying read+quarantine per request.
                self._count("disk.misses")
                self.breaker.record_failure()
                return None
            self._count("disk.hits")
            self.breaker.record_success()
            try:
                os.utime(path)  # refresh LRU position
            except OSError:
                pass  # eviction accuracy is best-effort
            return value[0]

    def _decode(self, blob: bytes, key: Any, path: Path) -> tuple | None:
        """``(value,)`` on success; quarantines and returns None otherwise."""
        if len(blob) < _HEADER.size:
            self._quarantine(path, "truncated header")
            return None
        magic, fmt, schema, length, digest = _HEADER.unpack_from(blob)
        if magic != MAGIC:
            self._quarantine(path, "bad magic")
            return None
        if fmt != FORMAT_VERSION or schema != SCHEMA_VERSION:
            self._quarantine(path, f"version mismatch (format={fmt}, schema={schema})")
            return None
        payload = blob[_HEADER.size:]
        if len(payload) != length:
            self._quarantine(path, "truncated payload")
            return None
        if hashlib.sha256(payload).digest() != digest:
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            stored_key, value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — fault barrier: unpickling raises arbitrarily on corrupt data
            self._quarantine(path, "unpicklable payload")
            return None
        if stored_key != key:
            self._quarantine(path, "key mismatch")
            return None
        return (value,)

    def put(self, key: Any, value: Any) -> None:
        """Persist *value* under *key*; never raises.

        Same key ⇒ same content (the store is content-addressed), so an
        existing entry is left untouched.  Serialization failures skip
        the entry; I/O failures and lock starvation degrade the cache.
        """
        if self.disabled:
            return
        if not self.breaker.allow():
            self._count("disk.breaker_skips")
            return
        path = self._entry_path(key)
        if path.exists():
            return
        try:
            payload = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — fault barrier: arbitrary __getstate__/__reduce__ failures
            self._count("disk.unpicklable")
            return
        header = _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            SCHEMA_VERSION,
            len(payload),
            hashlib.sha256(payload).digest(),
        )
        with self._span("storage:write", file=path.name, bytes=len(payload)):
            try:
                lock = self._lock.acquire()
            except LockTimeout as exc:
                self._count("disk.lock_timeouts")
                self._degrade(f"writer lock starvation: {exc}")
                return
            try:
                # Another process may have published the key meanwhile:
                # it is then neither rewritten nor counted twice.
                if not path.exists():
                    blob = header + payload
                    self._write_entry(path, blob)
                    self._account(len(blob), keep=path)
            except OSError as exc:
                if exc.errno == errno.ENOSPC:
                    # Disk full cannot heal from here: degrade for good.
                    self._degrade(f"disk full writing {path.name}: {exc}")
                elif exc.errno in (errno.EACCES, errno.EPERM, errno.EROFS):
                    # Permission/read-only faults cannot heal in-process
                    # either: degrade permanently rather than retrying
                    # a write that will never be allowed.
                    self._degrade(f"unwritable cache directory: {exc}")
                else:
                    # Any other I/O fault is treated as transient: the
                    # breaker silences the tier for a cooldown, then a
                    # half-open probe retries — an NFS blip no longer
                    # costs the whole process its persistent cache.
                    self._count("disk.io_errors")
                    self.breaker.record_failure()
            else:
                self.breaker.record_success()
            finally:
                lock.release()

    def _write_entry(self, path: Path, blob: bytes) -> None:
        """Atomic publication: temp file + fsync + ``os.replace``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{_TMP_PREFIX}{os.getpid()}-{next(_tmp_counter)}"
        try:
            _chaos("disk.write")
            with io.open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass  # a stray temp file is never read: only entries are
            raise
        self._count("disk.writes")

    def _evict_to_budget(self, keep: Path | None = None) -> int:
        """Walk the directory, drop the oldest entries past the byte
        budget, and return the entry bytes that remain.

        Called with the writer lock held, so the walk also removes stray
        temp files, which no budget counts.  The just-written entry is
        exempt so a single oversized product cannot evict itself into a
        write/miss loop.
        """
        self._count("disk.scans")
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path, stat in self._stat_entries(sweep=True):
            total += stat.st_size
            entries.append((stat.st_mtime, stat.st_size, path))
        if total <= self.max_bytes:
            return total
        with self._span("storage:evict", bytes=total - self.max_bytes):
            evicted = 0
            for _, size, path in sorted(entries):
                if total <= self.max_bytes:
                    break
                if keep is not None and path == keep:
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                evicted += size
                self._count("disk.evictions")
            self._count("disk.evicted_bytes", evicted)
        return total

    def clear(self) -> None:
        """Remove every entry (an explicit wipe; never done implicitly).

        The ledger is left at the bytes of the entries that could not
        be deleted.
        """
        if self.disabled:
            return
        try:
            with self._lock:
                self._count("disk.scans")
                left = 0
                for path in list(self._entry_files(sweep=True)):
                    try:
                        path.unlink()
                    except OSError:
                        try:
                            left += path.stat().st_size
                        except OSError:
                            pass  # gone after all
                try:
                    self._write_ledger(left)
                    self._baselined = True
                except OSError:
                    self._baselined = False  # the next write re-baselines
        except LockTimeout as exc:
            self._count("disk.lock_timeouts")
            self._degrade(f"writer lock starvation: {exc}")

    def __contains__(self, key: Any) -> bool:
        return not self.disabled and self._entry_path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files()) if not self.disabled else 0

    def total_bytes(self) -> int:
        """Current on-disk footprint of all entries (walks the directory)."""
        return sum(stat.st_size for _, stat in self._stat_entries())

    def info(self) -> dict[str, Any]:
        entries = size = 0
        for _, stat in self._stat_entries():
            entries += 1
            size += stat.st_size
        return {
            "root": str(self.root),
            "entries": 0 if self.disabled else entries,
            "bytes": size,
            "max_bytes": self.max_bytes,
            "disabled": self.disabled,
            "degraded_reason": self._degraded_reason,
            "breaker": self.breaker.snapshot(),
        }

    def __repr__(self) -> str:
        state = "disabled" if self.disabled else f"{len(self)} entries"
        return f"DiskCache({str(self.root)!r}, {state})"
