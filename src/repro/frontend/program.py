"""The ``@program`` decorator and the ``pmap`` iteration marker."""

from __future__ import annotations

import functools
import inspect
import textwrap
from typing import Any, Callable, Mapping

from repro.errors import FrontendError
from repro.sdfg.sdfg import SDFG

__all__ = ["pmap", "program", "Program", "transient", "TransientAnnotation"]


class TransientAnnotation:
    """Marks a parameter as a program-managed intermediate array.

    Transient parameters are allocated by the program itself — callers do
    not pass them, and fusion transformations may eliminate them entirely.
    Produced by :func:`transient`.
    """

    __slots__ = ("dtype", "shape")

    def __init__(self, dtype, shape):
        self.dtype = dtype
        self.shape = shape


def transient(annotation) -> TransientAnnotation:
    """Wrap a ``dtype[shape]`` annotation to declare a transient array.

    Example::

        @program
        def f(A: float64[I], tmp: transient(float64[I]), B: float64[I]):
            ...
    """
    if not (isinstance(annotation, tuple) and len(annotation) == 2):
        raise FrontendError("transient() expects a dtype[shape] annotation")
    return TransientAnnotation(annotation[0], annotation[1])


def pmap(*bounds, **named_bounds):
    """Marker for a parametric parallel loop inside a ``@program`` function.

    Never executed: the frontend recognizes ``for i, j in pmap(...)``
    syntactically.  Each positional argument gives one dimension's
    iteration range:

    - an expression ``E`` → range ``0:E``;
    - a 2-tuple ``(b, e)`` → range ``b:e`` (end exclusive);
    - a 3-tuple ``(b, e, s)`` → strided range;
    - a string ``"b:e"`` or ``"b:e:s"``.

    Keyword arguments name the parameters explicitly (``pmap(i=I, j=J)``);
    positional arguments take their names from the loop target.
    """
    raise FrontendError(
        "pmap() is a frontend marker and may only appear as the iterator of "
        "a for-loop inside a @program-decorated function"
    )


class Program:
    """A parsed ``@program`` function.

    Lazily translates to an SDFG (cached) and can be called directly with
    NumPy arrays, which compiles the SDFG through the NumPy code generator
    and executes it.
    """

    def __init__(self, func: Callable):
        self.func = func
        self.name = func.__name__
        functools.update_wrapper(self, func)
        try:
            source = inspect.getsource(func)
        except (OSError, TypeError) as exc:
            raise FrontendError(
                f"cannot retrieve source of {self.name!r}; @program requires "
                "source availability"
            ) from exc
        self.source = textwrap.dedent(source)
        self._sdfg: SDFG | None = None

    def to_sdfg(self, validate: bool = True, copy: bool = True) -> SDFG:
        """Translate the function into an SDFG.

        Parsing happens once and is cached; by default every call returns
        an independent **copy** (:meth:`SDFG.copy`: a structural clone
        whose graph, nodes, maps, memlets and descriptors are its own and
        which shares only immutable symbolic expressions and ranges), so
        callers (e.g. transformations) can mutate the result freely.  Pass
        ``copy=False`` to share the cached instance for read-only use.
        """
        if self._sdfg is None:
            from repro.frontend.parser import parse_program

            sdfg = parse_program(self)
            if validate:
                sdfg.validate()
            self._sdfg = sdfg
        return self._sdfg.copy() if copy else self._sdfg

    def compile(self, symbols: Mapping[str, int] | None = None):
        """Compile to an executable via the NumPy code generator."""
        from repro.codegen import compile_sdfg

        return compile_sdfg(self.to_sdfg(), symbols=symbols)

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        """Execute the program on NumPy arrays (compiles on first use)."""
        from repro.codegen import call_sdfg

        return call_sdfg(self.to_sdfg(), *args, **kwargs)

    def __repr__(self) -> str:
        return f"Program({self.name})"


def program(func: Callable) -> Program:
    """Decorator: parse *func* as an affine array program.

    Array parameters are annotated with ``dtype[shape...]`` (e.g.
    ``float64[I, J]``); scalar parameters with a bare dtype.  The function
    body consists of ``for ... in pmap(...)`` loops whose statements assign
    array elements (``C[i, j] = ...``), accumulate with write-conflict
    resolution (``C[i, j] += ...``) or define per-iteration locals
    (``tmp = ...``).
    """
    if not callable(func):
        raise FrontendError("@program expects a function")
    return Program(func)
