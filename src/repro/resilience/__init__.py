"""Production resilience primitives for the analysis service.

The serve/executor/storage layers compose these to keep the service up
under overload and component failure (DESIGN.md §16):

- :mod:`~repro.resilience.admission` — bounded per-endpoint concurrency
  with fast-fail 429 load shedding;
- :mod:`~repro.resilience.deadline` — request deadlines that bound waits
  and, armed on a run's cancel token, the run's work;
- :mod:`~repro.resilience.breaker` — circuit breakers around the worker
  pool and the persistent disk cache;
- :mod:`~repro.resilience.drain` — SIGTERM-initiated graceful drain;
- :mod:`~repro.resilience.chaos` — deterministic fault injection at
  named sites (``REPRO_CHAOS``), so every failure path above is
  exercised by tests and benchmarks instead of trusted on faith.
"""

from repro.resilience.admission import AdmissionController, EndpointLimit, Overloaded
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.chaos import Chaos, ChaosSpecError
from repro.resilience.deadline import DEADLINE_REASON, Deadline, DeadlineExceeded
from repro.resilience.drain import DrainState

__all__ = [
    "AdmissionController",
    "Chaos",
    "ChaosSpecError",
    "CircuitBreaker",
    "DEADLINE_REASON",
    "Deadline",
    "DeadlineExceeded",
    "DrainState",
    "EndpointLimit",
    "Overloaded",
]
