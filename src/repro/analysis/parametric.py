"""Parametric scaling analysis (paper Section IV-D) and local-view sweeps.

Symbolic metrics become concrete numbers under a symbol assignment; the
global view "adapt[s] the heatmap visualizations on the fly by
re-evaluating symbolic expressions with the new values".  A
:class:`ParameterSweep` automates the interactive what-if loop: vary one
(or more) parameters and collect how a metric responds, exposing which
input parameters dominate performance.

The what-if loop extends to the *local* view: ``Session.sweep`` runs the
pass pipeline's ``local.point`` product (analytic locality → miss
classification → physical movement) at every point of a
:func:`parameter_grid` and yields one :class:`LocalSweepPoint` per point,
through :func:`~repro.analysis.executor.sweep_points`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Generic, Hashable, Iterable, Mapping, Sequence, TypeVar

from repro.errors import AnalysisError, EvaluationError
from repro.symbolic.expr import Expr, Number

__all__ = [
    "evaluate_metrics",
    "ParameterSweep",
    "SweepResult",
    "LocalSweepPoint",
    "parameter_grid",
]

K = TypeVar("K", bound=Hashable)


def evaluate_metrics(
    metrics: Mapping[K, Expr], env: Mapping[str, int | float]
) -> dict[K, float]:
    """Evaluate a symbolic metric map under the parameter values *env*.

    Raises :class:`~repro.errors.AnalysisError` naming the first metric
    whose expression still contains unassigned symbols.
    """
    out: dict[K, float] = {}
    for key, expr in metrics.items():
        try:
            out[key] = float(expr.evaluate(env))
        except EvaluationError as exc:
            raise AnalysisError(
                f"metric for {key!r} cannot be evaluated: {exc}"
            ) from exc
    return out


class SweepResult(Generic[K]):
    """Series data from a parameter sweep: one metric value per point."""

    def __init__(self, parameter: str, points: Sequence[int | float]):
        self.parameter = parameter
        self.points: list[int | float] = list(points)
        self.values: list[float] = []

    def growth_factors(self) -> list[float]:
        """Ratio between consecutive metric values (scaling behaviour)."""
        return [
            b / a if a else float("inf")
            for a, b in zip(self.values[:-1], self.values[1:])
        ]

    def __iter__(self):
        return iter(zip(self.points, self.values))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{p}: {v:g}" for p, v in self)
        return f"SweepResult({self.parameter}; {pairs})"


class ParameterSweep:
    """Sweep one parameter while holding the rest of *base_env* fixed.

    Example::

        sweep = ParameterSweep(base_env={"I": 64, "J": 64, "K": 64})
        result = sweep.run("I", [64, 128, 256], total_movement)
    """

    def __init__(
        self,
        base_env: Mapping[str, int | float],
        *,
        metrics_registry=None,
        tracer=None,
    ):
        self.base_env = dict(base_env)
        self.metrics_registry = metrics_registry
        self.tracer = tracer

    def run(
        self,
        parameter: str,
        points: Iterable[int | float],
        metric: Expr | Callable[[Mapping[str, int | float]], float],
    ) -> SweepResult:
        """Evaluate *metric* at every sweep point.

        *metric* is a symbolic expression or a callable receiving the full
        environment (for metrics that are not a single expression).
        Symbolic metrics are compiled once and evaluated over all points
        in a single batched call (:mod:`repro.symbolic.compiled`).
        """
        result = SweepResult(parameter, list(points))
        if isinstance(metric, Expr):
            envs = [
                {**self.base_env, parameter: point} for point in result.points
            ]
            try:
                result.values = self._eval_grid(metric, envs)
                return result
            except EvaluationError:
                # Re-run point by point so the error names the first
                # offending sweep point, like the serial path always did.
                pass
        for point in result.points:
            env = dict(self.base_env)
            env[parameter] = point
            if isinstance(metric, Expr):
                try:
                    value = float(metric.evaluate(env))
                except EvaluationError as exc:
                    raise AnalysisError(f"sweep point {point}: {exc}") from exc
            else:
                value = float(metric(env))
            result.values.append(value)
        return result

    def _eval_grid(
        self, metric: Expr, envs: Sequence[Mapping[str, int | float]]
    ) -> list[float]:
        from repro.symbolic.compiled import compile_expr

        if isinstance(metric, Number):
            # A constant needs no program: broadcasting it costs a
            # fraction of compiling and running one.
            return [float(metric.value)] * len(envs)
        fn = compile_expr(
            metric, metrics=self.metrics_registry, tracer=self.tracer
        )
        return [float(v) for v in fn.eval_points(envs)]

    def rank_parameters(
        self,
        metric: Expr,
        scale_factor: float = 2.0,
    ) -> list[tuple[str, float]]:
        """Rank parameters by metric growth when each is scaled alone.

        Returns ``(parameter, growth)`` pairs sorted by descending growth —
        the "which input parameters are crucial factors" question of the
        paper, answered without program execution.  All scaled
        environments (plus the base point) evaluate as one batched call.
        """
        names = sorted(metric.free_symbols())
        for name in names:
            if name not in self.base_env:
                raise AnalysisError(f"no base value for parameter {name!r}")
        envs: list[Mapping[str, int | float]] = [self.base_env]
        for name in names:
            env = dict(self.base_env)
            env[name] = env[name] * scale_factor
            envs.append(env)
        try:
            values = self._eval_grid(metric, envs)
        except EvaluationError as exc:
            raise AnalysisError(
                f"cannot evaluate metric at the base point: {exc}"
            ) from exc
        base = values[0]
        if base == 0:
            raise AnalysisError("metric evaluates to zero at the base point")
        ranking = [
            (name, scaled / base) for name, scaled in zip(names, values[1:])
        ]
        ranking.sort(key=lambda pair: (-pair[1], pair[0]))
        return ranking


# -- local-view parametric sweeps ---------------------------------------------


def parameter_grid(spec: Mapping[str, Iterable[int]]) -> list[dict[str, int]]:
    """Cross product of per-parameter value lists, as environment dicts.

    ``parameter_grid({"I": [8, 16], "J": [8]})`` yields
    ``[{"I": 8, "J": 8}, {"I": 16, "J": 8}]`` — points vary the *last*
    parameter fastest, matching :func:`itertools.product`.
    """
    names = list(spec)
    axes = [list(spec[name]) for name in names]
    if not names:
        return [{}]
    return [dict(zip(names, combo)) for combo in itertools.product(*axes)]


class LocalSweepPoint:
    """Locality metrics of one parameter point of a local-view sweep.

    Picklable (it crosses process boundaries when the sweep fans out):

    - :attr:`params` — the evaluated symbol assignment;
    - :attr:`misses` — per-container
      :class:`~repro.simulation.cache.MissCounts`;
    - :attr:`moved_bytes` — estimated physical movement per container;
    - :attr:`total_accesses` — trace length;
    - :attr:`seconds` — pipeline wall time for this point.
    """

    __slots__ = ("params", "misses", "moved_bytes", "total_accesses", "seconds")

    def __init__(
        self,
        params: dict[str, int],
        misses: dict,
        moved_bytes: dict[str, int],
        total_accesses: int,
        seconds: float,
    ):
        self.params = params
        self.misses = misses
        self.moved_bytes = moved_bytes
        self.total_accesses = total_accesses
        self.seconds = seconds

    @property
    def total_misses(self) -> int:
        return sum(counts.misses for counts in self.misses.values())

    @property
    def total_moved_bytes(self) -> int:
        return sum(self.moved_bytes.values())

    def to_dict(self) -> dict:
        """JSON-ready summary (the analysis service's response payload)."""
        containers = {}
        for name in sorted(set(self.misses) | set(self.moved_bytes)):
            counts = self.misses.get(name)
            entry = {
                "hits": 0 if counts is None else counts.hits,
                "cold": 0 if counts is None else counts.cold,
                "capacity": 0 if counts is None else counts.capacity,
                "conflict": 0 if counts is None else counts.conflict,
                "misses": 0 if counts is None else counts.misses,
                "moved_bytes": int(self.moved_bytes.get(name, 0)),
            }
            containers[name] = entry
        return {
            "params": dict(self.params),
            "total_accesses": int(self.total_accesses),
            "total_misses": int(self.total_misses),
            "total_moved_bytes": int(self.total_moved_bytes),
            "seconds": float(self.seconds),
            "containers": containers,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalSweepPoint):
            return NotImplemented
        return (
            self.params == other.params
            and self.misses == other.misses
            and self.moved_bytes == other.moved_bytes
            and self.total_accesses == other.total_accesses
        )

    def __repr__(self) -> str:
        return (
            f"LocalSweepPoint({self.params}, accesses={self.total_accesses}, "
            f"misses={self.total_misses}, moved={self.total_moved_bytes}B)"
        )
