"""Pass and context abstractions of the incremental analysis pipeline.

Every analysis in the library — the global view's symbolic metrics, their
parametric evaluations, and the local view's simulation → layout →
stack-distance → miss-classification → physical-movement chain — is a
:class:`Pass`: a named unit of work that declares which upstream products
it consumes (:attr:`Pass.depends_on`) and which *content components* of
the analysis context determine its output (:attr:`Pass.uses`).

A :class:`PassContext` bundles one analysis question — an SDFG, an
optional focus state, a symbol environment, and the cache-model
configuration — and lazily computes the content fingerprints the
scheduler keys results by.  Fingerprints come from
:mod:`repro.sdfg.serialize`'s stable hashing, so a context over a mutated
SDFG can never alias a context over its pre-mutation content.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Any, Hashable, Mapping

from repro.errors import PipelineError
from repro.sdfg.serialize import (
    arrays_fingerprint,
    sdfg_fingerprint,
    state_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sdfg.sdfg import SDFG
    from repro.sdfg.state import SDFGState

__all__ = ["Pass", "PassContext", "COMPONENTS", "GRAPH_COMPONENTS"]

#: Recognized content-component names a pass may list in :attr:`Pass.uses`.
COMPONENTS = (
    "scope",          # session scope (program name, load generation)
    "state",          # focus state's content hash (all states when unset)
    "states",         # every state's content hash (whole-program passes)
    "sdfg",           # whole-SDFG content hash (structure + descriptors)
    "arrays",         # physical descriptor hashes, in allocation order
    "arrays.logical", # descriptor hashes w/o layout fields (dtype/shape)
    "env",            # the concrete symbol assignment
    "sim",            # simulation configuration (transients)
    "line",           # cache-line size in bytes
    "capacity",       # modeled cache capacity in lines
)

#: The components that hash graph content alone; the only ones
#: :meth:`PassContext.adopt_components` shares between contexts.
GRAPH_COMPONENTS = ("state", "states", "sdfg", "arrays", "arrays.logical")


class PassContext:
    """One analysis question plus memoized content fingerprints.

    Fingerprint components are computed at most once per context; facades
    create a fresh context per query, so a mutation of the underlying
    SDFG (a transform, a descriptor swap) is always observed by the next
    query's fingerprints.
    """

    def __init__(
        self,
        sdfg: "SDFG",
        state: "SDFGState | None" = None,
        env: Mapping[str, int] | None = None,
        line_size: int = 64,
        capacity_lines: int = 512,
        include_transients: bool = False,
        scope: tuple = (),
        timings=None,
        metrics=None,
    ):
        self.sdfg = sdfg
        self.state = state
        self.env = None if env is None else {k: int(v) for k, v in env.items()}
        self.line_size = int(line_size)
        self.capacity_lines = int(capacity_lines)
        self.include_transients = bool(include_transients)
        self.scope = tuple(scope)
        self.timings = timings
        self.metrics = metrics
        self.created_at = perf_counter()
        self._components: dict[str, Hashable] = {}

    def require_env(self, pass_name: str) -> dict[str, int]:
        if self.env is None:
            raise PipelineError(
                f"pass {pass_name!r} needs a symbol environment, but the "
                "context has none (pass env= when building the context)"
            )
        return self.env

    def component(self, name: str) -> Hashable:
        """The named content component, computed lazily and memoized."""
        try:
            return self._components[name]
        except KeyError:
            pass
        value = self._compute_component(name)
        self._components[name] = value
        return value

    def adopt_components(self, other: "PassContext") -> None:
        """Share *other*'s already-computed graph fingerprints.

        Valid only when both contexts view the same, unchanged SDFG —
        the parameter-sweep case, where fingerprinting the graph once
        per point would be pure waste.  Only :data:`GRAPH_COMPONENTS`
        are copied (``state`` only under the same focus state), so the
        contexts may differ in environment, cache model, simulation
        configuration and scope: those components are always this
        context's own.
        """
        for name in GRAPH_COMPONENTS:
            if name == "state" and other.state is not self.state:
                continue
            if name in other._components:
                self._components.setdefault(name, other._components[name])

    def _compute_component(self, name: str) -> Hashable:
        if name == "scope":
            return self.scope
        if name == "state":
            if self.state is not None:
                return state_fingerprint(self.state)
            return self.component("states")
        if name == "states":
            return tuple(state_fingerprint(s) for s in self.sdfg.states())
        if name == "sdfg":
            return sdfg_fingerprint(self.sdfg, self.component("states"))
        if name == "arrays":
            return arrays_fingerprint(self.sdfg)
        if name == "arrays.logical":
            return arrays_fingerprint(self.sdfg, logical=True)
        if name == "env":
            return None if self.env is None else tuple(sorted(self.env.items()))
        if name == "sim":
            return (self.include_transients,)
        if name == "line":
            return self.line_size
        if name == "capacity":
            return self.capacity_lines
        raise PipelineError(f"unknown context component {name!r}")

    def __repr__(self) -> str:
        state = self.state.name if self.state is not None else None
        return (
            f"PassContext({self.sdfg.name!r}, state={state!r}, env={self.env}, "
            f"line={self.line_size}, capacity={self.capacity_lines})"
        )


class Pass:
    """One unit of analysis work in the incremental pipeline.

    Subclasses declare:

    - :attr:`name` — the product this pass produces (its registry key);
    - :attr:`depends_on` — product names consumed as inputs;
    - :attr:`uses` — the context components that, together with the
      dependencies' cache keys, *fully determine* the output.  Listing
      too few components makes caching unsound; listing too many only
      costs unnecessary recomputation.

    and implement :meth:`run`.  Passes are stateless: all inputs arrive
    through the context and the ``inputs`` mapping, so one instance can
    serve any number of pipelines.
    """

    name: str = ""
    depends_on: tuple[str, ...] = ()
    uses: tuple[str, ...] = ()

    def fingerprint(self, ctx: PassContext) -> dict[str, Hashable]:
        """The content components keying this pass's result."""
        return {component: ctx.component(component) for component in self.uses}

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        deps = ", ".join(self.depends_on)
        return f"{type(self).__name__}({self.name!r}, depends_on=[{deps}])"
