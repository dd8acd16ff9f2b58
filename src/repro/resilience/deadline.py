"""Request deadlines: a bound on a client's wait and on a run's work.

A :class:`Deadline` is an absolute point on the monotonic clock.  The
serve layer creates one from the ``X-Repro-Deadline-Ms`` header (or a
``deadline_ms`` body field).  It bounds *waits* in the coalescer, whose
waiters individually stop waiting when *their* deadline passes, and at
admission.  For streams and searches it bounds *work*: :meth:`Deadline.arm`
cancels the run's :class:`~repro.analysis.executor.CancelToken`, the one
stop signal the executor and the tuning search read, so in-flight work
stops cooperatively at the next point boundary.

Deadline expiry and client disconnect share the cancellation machinery
but stay distinguishable: an armed deadline cancels with the reason
``"deadline exceeded"``, which ends up verbatim in the
:class:`~repro.analysis.executor.SweepPointError` records of abandoned
points, makes a search report ``stopped == "deadline"`` and selects the
stream's terminal deadline record.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import ReproError

__all__ = ["Deadline", "DeadlineExceeded", "DEADLINE_REASON"]

#: Cancellation reason carried by deadline-armed tokens.
DEADLINE_REASON = "deadline exceeded"


class DeadlineExceeded(ReproError):
    """The request's deadline passed before its result was ready.

    The serve layer maps this to HTTP 504; streaming endpoints emit a
    terminal error event instead (the status line is already out).
    """


class Deadline:
    """An absolute monotonic-clock deadline.

    Construct via :meth:`after` (relative seconds) or :meth:`after_ms`
    (the wire format).  The raw :attr:`at` value is comparable across
    every component of one process, which is all deadline propagation
    needs — deadlines never cross process boundaries (workers are
    cancelled from the coordinating side instead).
    """

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = float(at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds!r}")
        return cls(time.monotonic() + float(seconds))

    @classmethod
    def after_ms(cls, ms: float) -> "Deadline":
        return cls.after(float(ms) / 1000.0)

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.at

    def tighten(self, other: "Deadline | None") -> "Deadline":
        """The earlier of two deadlines (``other`` may be ``None``)."""
        if other is None or self.at <= other.at:
            return self
        return other

    def arm(self, token: Any, reason: str = DEADLINE_REASON) -> threading.Timer:
        """Cancel *token* (a :class:`CancelToken`) when the deadline hits.

        Returns the daemon :class:`threading.Timer`; the caller cancels
        it once the work finished in time.
        """
        # Timer waits longer than TIMEOUT_MAX raise in the timer thread.
        wait = min(self.remaining(), threading.TIMEOUT_MAX)
        timer = threading.Timer(wait, token.cancel, args=(reason,))
        timer.daemon = True
        timer.start()
        return timer

    def raise_if_expired(self) -> None:
        if self.expired:
            raise DeadlineExceeded(DEADLINE_REASON)

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"
