"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of the library with a single handler while
still being able to distinguish the failing subsystem.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "ReproError",
    "SymbolicError",
    "ParseError",
    "EvaluationError",
    "GraphError",
    "InvalidSDFGError",
    "FrontendError",
    "AnalysisError",
    "UnknownSymbolError",
    "UnknownContainerError",
    "PipelineError",
    "StorageError",
    "LockTimeout",
    "SimulationError",
    "TransformError",
    "TuningError",
    "CodegenError",
    "VisualizationError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class SymbolicError(ReproError):
    """Errors from the symbolic expression engine."""


class ParseError(SymbolicError):
    """An expression or program string could not be parsed."""


class EvaluationError(SymbolicError):
    """An expression could not be evaluated (e.g. free symbols remain)."""


class GraphError(ReproError):
    """Errors from the graph substrate (missing nodes, invalid edges...)."""


class InvalidSDFGError(ReproError):
    """The SDFG failed validation.

    Attributes
    ----------
    element:
        The offending IR element (node, edge, state, ...) if known.
    """

    def __init__(self, message: str, element: object | None = None):
        super().__init__(message)
        self.element = element


class FrontendError(ReproError):
    """The Python frontend could not translate a program."""


class AnalysisError(ReproError):
    """A static analysis failed."""


class UnknownSymbolError(ReproError):
    """A parameter names no free symbol of the program.

    Raised before any pass runs: a name the program does not use would
    otherwise enter the cache key and store one computation under many
    keys.

    Attributes
    ----------
    name:
        The offending parameter name.
    symbols:
        The program's free symbols, sorted.
    """

    def __init__(
        self,
        name: str,
        symbols: Iterable[str],
        what: str = "parameter",
        options: Iterable[str] = (),
    ):
        self.name = name
        self.symbols = sorted(symbols)
        alternative = f"an option {sorted(options)} nor " if options else ""
        super().__init__(
            f"unknown {what} {name!r}: not {alternative}a program symbol "
            f"{self.symbols}"
        )


class UnknownContainerError(ReproError):
    """A name is not one of the program's data containers.

    Raised by a local view before any pass runs: a per-container query
    for such a name would otherwise answer empty, as if the container
    were never accessed.

    Attributes
    ----------
    name:
        The offending container name.
    containers:
        The program's containers, sorted.
    """

    def __init__(self, name: str, containers: Iterable[str]):
        self.name = name
        self.containers = sorted(containers)
        super().__init__(
            f"unknown container {name!r}: not a program container "
            f"{self.containers}"
        )


class PipelineError(ReproError):
    """The analysis-pass pipeline is misconfigured (unknown product,
    missing dependency, dependency cycle) or a pass was run without the
    context it requires."""


class StorageError(ReproError):
    """The persistent storage layer failed internally.

    Never raised into an analysis: the disk cache converts every storage
    failure into a miss (recompute) or a degradation to memory-only
    operation.  The class exists so storage-internal control flow (lock
    timeouts, protocol violations) stays inside the library hierarchy.
    """


class LockTimeout(StorageError):
    """An advisory file lock could not be acquired within its timeout."""


class SimulationError(ReproError):
    """The access-pattern simulation failed."""


class TransformError(ReproError):
    """A transformation could not be matched or applied."""


class TuningError(ReproError):
    """The auto-tuning search was misconfigured or could not run."""


class CodegenError(ReproError):
    """Code generation failed."""


class VisualizationError(ReproError):
    """A renderer or visualization component failed."""
