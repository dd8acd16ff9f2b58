"""Differential harness: compiled grid evaluation vs the tree interpreter.

The compiled engine (:mod:`repro.symbolic.compiled`) lowers hash-consed
expression DAGs to vectorized NumPy programs.  Its correctness claim is
*exact* agreement with the reference tree interpreter — ``Expr.evaluate``
and :func:`~repro.symbolic.expr.evaluate_int` — at every grid point,
including negative operands, zero-valued parameters, int64 overflow, and
the error contract for division by zero.  Every node type is covered by
a directed differential test, and a Hypothesis property checks random
trees against random environments.

Pinned division-by-zero contract: if *any* grid point makes a
``Div``/``FloorDiv``/``Mod`` denominator zero, the whole batched call
raises :class:`~repro.errors.EvaluationError` naming the offending
subexpression — no partial results.  This matches the interpreter's
per-point behaviour lifted grid-wide.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError, SymbolicError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.symbolic import (
    clear_compile_cache,
    compile_expr,
    div,
    evaluate_grid,
    evaluate_int,
    floor_div,
    intern,
    mod,
    pow_,
    smax,
    smin,
    sympify,
)

I = sympify("I")
J = sympify("J")
K = sympify("K")


def _random_envs(rng, names, n, lo=-10, hi=10, exclude=()):
    """Randomized environments spanning negatives, zero, and positives."""
    pool = [v for v in range(lo, hi + 1) if v not in exclude]
    return [{name: rng.choice(pool) for name in names} for _ in range(n)]


def _assert_matches(expr, envs):
    """Compiled evaluation must equal the tree interpreter at every point."""
    fn = compile_expr(expr)
    got = fn.eval_points(envs)
    assert len(got) == len(envs)
    for value, env in zip(got, envs):
        expected = expr.evaluate(env)
        if isinstance(expected, int):
            assert int(value) == expected, (env, value, expected)
            assert float(value) == float(expected)
        else:
            assert float(value) == float(expected), (env, value, expected)


class TestNodeDifferential:
    """One directed differential per node type, on randomized grids."""

    rng = random.Random(0xC0FFEE)

    def test_add_nested(self):
        _assert_matches(I + J + K + (-3), _random_envs(self.rng, "IJK", 64))

    def test_mul_nested(self):
        _assert_matches(I * J * K * 2, _random_envs(self.rng, "IJK", 64))

    def test_sub_and_neg(self):
        _assert_matches(I - J - 5, _random_envs(self.rng, "IJ", 64))
        _assert_matches(-I + J, _random_envs(self.rng, "IJ", 64))

    def test_pow_constant_exponent(self):
        _assert_matches(pow_(I, 3), _random_envs(self.rng, "I", 64))

    def test_pow_symbolic_exponent(self):
        # Positive exponents stay on the int64 fast path; the grid also
        # exercises negative bases.
        envs = [
            {"I": self.rng.choice([-3, -2, -1, 1, 2, 3]), "J": self.rng.randrange(0, 5)}
            for _ in range(64)
        ]
        _assert_matches(pow_(I, J), envs)

    def test_pow_negative_exponent_escalates_to_float(self):
        # int ** negative int is a float in Python; the compiled path
        # must escalate off the int64 fast path and agree exactly.
        envs = [{"I": 2, "J": -1}, {"I": -2, "J": -3}, {"I": 5, "J": 2}]
        _assert_matches(pow_(I, J), envs)

    def test_div_true_division(self):
        _assert_matches(div(I, J), _random_envs(self.rng, "IJ", 64, exclude=(0,)))

    def test_floor_div_negative_operands(self):
        # Python floor semantics: (-7) // 2 == -4, 7 // -2 == -4.
        _assert_matches(
            floor_div(I, J), _random_envs(self.rng, "IJ", 64, exclude=(0,))
        )
        _assert_matches(floor_div(I, J), [{"I": -7, "J": 2}, {"I": 7, "J": -2}])

    def test_mod_negative_operands(self):
        # Python sign-of-divisor semantics: (-7) % 2 == 1, 7 % -2 == -1.
        _assert_matches(mod(I, J), _random_envs(self.rng, "IJ", 64, exclude=(0,)))
        _assert_matches(mod(I, J), [{"I": -7, "J": 2}, {"I": 7, "J": -2}])

    def test_min_max(self):
        _assert_matches(smin(I, J, 3), _random_envs(self.rng, "IJ", 64))
        _assert_matches(smax(I, J, -3), _random_envs(self.rng, "IJ", 64))

    def test_nested_combination(self):
        expr = smax((I + 4) * (J + 4), floor_div(I * J, K)) + mod(I, K)
        _assert_matches(expr, _random_envs(self.rng, "IJK", 128, exclude=(0,)))

    def test_zero_valued_parameters(self):
        # Zeros are ordinary values everywhere except as divisors.
        expr = (I + J) * K + smin(I, 0)
        envs = [{"I": 0, "J": 0, "K": 0}, {"I": 0, "J": -2, "K": 5}]
        _assert_matches(expr, envs)

    def test_evaluate_int_agreement(self):
        expr = (I + 4) * (J + 4) - floor_div(K, 2)
        envs = _random_envs(self.rng, "IJK", 32)
        fn = compile_expr(expr)
        got = fn.eval_points(envs)
        for value, env in zip(got, envs):
            assert int(value) == evaluate_int(expr, env)

    def test_evaluate_grid_helper(self):
        envs = _random_envs(self.rng, "IJ", 16)
        out = evaluate_grid(I * J + 1, envs)
        assert [int(v) for v in out] == [env["I"] * env["J"] + 1 for env in envs]

    def test_constant_expression_broadcasts(self):
        out = compile_expr(sympify(7)).eval_points([{}, {}, {}])
        assert list(out) == [7, 7, 7]

    def test_empty_grid(self):
        out = compile_expr(I + J).eval_points([])
        assert len(out) == 0


class TestIntegerSemantics:
    def test_int64_overflow_falls_back_to_exact_objects(self):
        expr = I * I * I
        envs = [{"I": 2**40}, {"I": -(2**40)}, {"I": 3}]
        fn = compile_expr(expr)
        got = fn.eval_points(envs)
        assert got.dtype == object
        for value, env in zip(got, envs):
            assert value == env["I"] ** 3  # exact big ints, no wrap

    def test_huge_constants_compile_exactly(self):
        expr = I + 2**70
        got = compile_expr(expr).eval_points([{"I": 1}, {"I": -(2**70)}])
        assert list(got) == [2**70 + 1, 0]

    def test_small_grids_stay_int64(self):
        got = compile_expr(I * J).eval_points([{"I": 3, "J": -4}])
        assert got.dtype == np.int64
        assert got[0] == -12


class TestDivisionByZeroContract:
    """Pinned: any zero denominator fails the whole grid, by name."""

    @pytest.mark.parametrize(
        "build, op_name",
        [
            (lambda: div(I, J), "division"),
            (lambda: floor_div(I, J), "floor division"),
            (lambda: mod(I, J), "modulo"),
        ],
    )
    def test_zero_denominator_raises_grid_wide(self, build, op_name):
        expr = build()
        fn = compile_expr(expr)
        envs = [{"I": 6, "J": 2}, {"I": 1, "J": 0}]
        with pytest.raises(EvaluationError, match=f"{op_name} by zero"):
            fn.eval_points(envs)
        # The interpreter agrees point-wise on the offending env.
        with pytest.raises(EvaluationError, match="by zero"):
            expr.evaluate({"I": 1, "J": 0})

    def test_error_names_the_subexpression(self):
        expr = div(I, J + (-1))
        with pytest.raises(EvaluationError, match=r"I / \(-1 \+ J\)"):
            compile_expr(expr).eval_points([{"I": 1, "J": 1}])

    def test_missing_symbol_matches_interpreter_message(self):
        fn = compile_expr(I + J)
        with pytest.raises(EvaluationError, match="no value provided for symbol"):
            fn.eval_points([{"I": 1}])


# -- Hypothesis property: random trees, random grids -------------------------

SYMS = ("I", "J", "K")


@st.composite
def trees(draw, depth=3):
    """Random expression trees built through the smart constructors."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return sympify(draw(st.integers(min_value=-8, max_value=8)))
        return sympify(draw(st.sampled_from(SYMS)))
    op = draw(
        st.sampled_from(
            ["add", "sub", "mul", "div", "floordiv", "mod", "min", "max", "pow"]
        )
    )
    a = draw(trees(depth=depth - 1))
    b = draw(trees(depth=depth - 1))
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op in ("div", "floordiv", "mod"):
        build = {"div": div, "floordiv": floor_div, "mod": mod}[op]
        try:
            return build(a, b)
        except SymbolicError:
            # The constructors reject a literal-zero denominator at
            # build time; fall back to a sum for this draw.
            return a + b
    if op == "min":
        return smin(a, b)
    if op == "max":
        return smax(a, b)
    return pow_(a, draw(st.integers(min_value=0, max_value=3)))


@st.composite
def grids(draw):
    """1–4 environments; values span negatives, zero, and positives."""
    n = draw(st.integers(min_value=1, max_value=4))
    value = st.integers(min_value=-6, max_value=6)
    return [{name: draw(value) for name in SYMS} for _ in range(n)]


class TestDifferentialProperty:
    @given(trees(), grids())
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_interpreter(self, expr, envs):
        expected = []
        for env in envs:
            try:
                expected.append(expr.evaluate(env))
            except EvaluationError:
                expected.append(EvaluationError)
        fn = compile_expr(expr)
        if EvaluationError in expected:
            # Some point divides by zero: the batched call must refuse
            # the whole grid with the interpreter's error type.
            with pytest.raises(EvaluationError):
                fn.eval_points(envs)
            return
        got = fn.eval_points(envs)
        for value, env, want in zip(got, envs, expected):
            if isinstance(want, int):
                assert int(value) == want, (expr, env)
                assert float(value) == float(want)
            else:
                assert float(value) == float(want), (expr, env)

    @given(trees())
    @settings(max_examples=200, deadline=None)
    def test_intern_preserves_structure(self, expr):
        canonical = intern(expr)
        assert canonical == expr
        assert str(canonical) == str(expr)
        assert intern(canonical) is canonical


# -- observability ------------------------------------------------------------


class TestCompileObservability:
    def test_cache_hits_and_misses_counted(self):
        clear_compile_cache()
        metrics = MetricsRegistry()
        expr_a = (I + 4) * (J + 4)
        expr_b = (I + 4) * (J + 4)  # structural twin, distinct object
        assert expr_a is not expr_b
        compile_expr(expr_a, metrics=metrics)
        compile_expr(expr_b, metrics=metrics)
        assert metrics.counter("expr.compile.misses").value == 1
        assert metrics.counter("expr.compile.hits").value == 1

    def test_compile_span_recorded(self):
        clear_compile_cache()
        tracer = Tracer()
        compile_expr(I * J + K, tracer=tracer)
        [span] = tracer.spans("symbolic:compile")
        assert "expr" in span.attributes

    def test_session_counts_compiles(self, tmp_path):
        from repro.apps import hdiff
        from repro.tool.session import Session

        session = Session(hdiff.build_sdfg())
        clear_compile_cache()
        view = session.global_view()
        misses = session.metrics.counter("expr.compile.misses")
        hits = session.metrics.counter("expr.compile.hits")
        # A slider move evaluates one environment with the tree
        # evaluator: it compiles nothing.
        view.movement_heatmap(env={"I": 16, "J": 16, "K": 4})
        view.movement_heatmap(env={"I": 32, "J": 32, "K": 4})
        assert (misses.value, hits.value) == (0, 0)
        # A scaling sweep evaluates its grid through the compiled engine;
        # a second sweep over the same metric reuses the compiled program.
        base = {"I": 16, "J": 16, "K": 4}
        view.scaling_sweep("I", [16, 32, 64], base)
        compiled = misses.value
        assert compiled > 0
        view.scaling_sweep("I", [8, 128], base)
        assert misses.value == compiled
        assert hits.value >= compiled
