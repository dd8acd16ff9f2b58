"""Global-view analyses as incremental pipeline passes.

The symbolic metrics behind the global view's overlays — logical data
movement, operation counts, arithmetic intensity, and whole-program
totals — each become a :class:`~repro.passes.base.Pass`.  Symbolic
passes depend only on graph content, so slider moves (a new symbol
environment) re-run *only* the cheap evaluation passes; conversely, a
transform invalidates the symbolic passes but an unchanged environment
lets the evaluation passes reuse their own key structure.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.intensity import scope_intensities
from repro.analysis.movement import edge_movement_bytes, total_movement_bytes
from repro.analysis.opcount import program_ops, scope_ops
from repro.analysis.parametric import evaluate_metrics
from repro.passes.base import Pass, PassContext

__all__ = [
    "MovementPass",
    "OpCountPass",
    "IntensityPass",
    "ProgramTotalsPass",
    "MovementEvalPass",
    "OpCountEvalPass",
    "IntensityEvalPass",
    "global_passes",
]


class MovementPass(Pass):
    """Symbolic per-edge movement volumes, in both counting modes.

    The product maps ``"unique"`` (distinct elements crossing each edge —
    the heatmap metric) and ``"counted"`` (access counts) to per-edge
    byte expressions.  Depends on the focus state's graph content and the
    *logical* descriptors only: element sizes matter, strides do not.
    """

    name = "global.movement"
    uses = ("scope", "state", "arrays.logical")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        return {
            "unique": edge_movement_bytes(ctx.sdfg, ctx.state, unique=True),
            "counted": edge_movement_bytes(ctx.sdfg, ctx.state, unique=False),
        }


class OpCountPass(Pass):
    """Symbolic per-node arithmetic-operation counts of the focus state."""

    name = "global.opcount"
    uses = ("scope", "state")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        if ctx.state is not None:
            return scope_ops(ctx.state)
        out: dict = {}
        for state in ctx.sdfg.states():
            out.update(scope_ops(state))
        return out


class IntensityPass(Pass):
    """Symbolic arithmetic intensity, reusing the opcount product."""

    name = "global.intensity"
    depends_on = ("global.opcount",)
    uses = ("scope", "state", "arrays.logical")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        ops = inputs["global.opcount"]
        states = [ctx.state] if ctx.state is not None else ctx.sdfg.states()
        out: dict = {}
        for state in states:
            out.update(scope_intensities(ctx.sdfg, state, ops=ops))
        return out


class ProgramTotalsPass(Pass):
    """Whole-program symbolic totals: movement (both modes) and ops."""

    name = "global.totals"
    uses = ("scope", "states", "arrays.logical")

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        return {
            "movement_unique": total_movement_bytes(ctx.sdfg, unique=True),
            "movement_counted": total_movement_bytes(ctx.sdfg, unique=False),
            "ops": program_ops(ctx.sdfg),
        }


class _EvalPass(Pass):
    """Evaluate one symbolic product under the context's environment.

    Keyed only by ``env`` plus the upstream pass's key (embedded in this
    pass's own key), so a slider move re-runs just this evaluation while
    an unchanged environment over unchanged content is a pure cache hit.
    A pass evaluates one environment, so it walks each expression with
    the tree evaluator (:func:`~repro.analysis.parametric.evaluate_metrics`);
    grids of environments go through the compiled engine
    (:class:`~repro.analysis.parametric.ParameterSweep`).
    """

    source = ""

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        return evaluate_metrics(inputs[self.source], ctx.require_env(self.name))


class MovementEvalPass(_EvalPass):
    name = "global.movement.eval"
    depends_on = ("global.movement",)
    uses = ("env",)
    source = "global.movement"

    def run(self, ctx: PassContext, inputs: dict[str, Any]) -> Any:
        env = ctx.require_env(self.name)
        return {
            mode: evaluate_metrics(mode_metrics, env)
            for mode, mode_metrics in inputs[self.source].items()
        }


class OpCountEvalPass(_EvalPass):
    name = "global.opcount.eval"
    depends_on = ("global.opcount",)
    uses = ("env",)
    source = "global.opcount"


class IntensityEvalPass(_EvalPass):
    name = "global.intensity.eval"
    depends_on = ("global.intensity",)
    uses = ("env",)
    source = "global.intensity"


def global_passes() -> tuple[Pass, ...]:
    """One fresh instance of every global-view pass."""
    return (
        MovementPass(),
        OpCountPass(),
        IntensityPass(),
        ProgramTotalsPass(),
        MovementEvalPass(),
        OpCountEvalPass(),
        IntensityEvalPass(),
    )
