"""Hash-consed expression DAGs and compiled batched grid evaluation.

This module provides the two halves of the batched sweep engine:

1. **Interning** (:func:`intern`): rebuild an immutable :class:`Expr`
   tree as a *hash-consed DAG* with structural sharing — one canonical
   node per distinct subexpression, process-wide.  Canonical nodes
   compare by pointer identity (``a is b`` iff structurally equal),
   which makes downstream memoization (the compile cache, the lowering
   memo) cheap and immune to the ``id()``-reuse pitfalls of caching on
   transient objects.  The table holds nodes weakly, so interning never
   leaks expressions that nothing else references.

2. **Compilation** (:func:`compile_expr`): lower the canonical DAG to a
   :class:`GridFn` — a topologically-ordered sequence of vectorized
   NumPy instructions that evaluates *all sweep points at once*.
   Inputs are parameter arrays of shape ``(n_points,)``; each distinct
   subexpression is computed exactly once per grid regardless of how
   often it appears in the tree.

Integer semantics
-----------------
The tree interpreter (`Expr.evaluate` / :func:`evaluate_int`) computes
with exact Python integers.  The compiled fast path uses ``int64``
arrays with a conservative per-instruction magnitude bound; whenever a
result *could* exceed the exact-representable range the evaluation
transparently restarts in **object mode** (NumPy object arrays holding
Python ints), which reproduces Python's arbitrary-precision semantics
element-wise.  ``FloorDiv``/``Mod`` use NumPy's ``floor_divide`` /
``remainder``, which match Python's floored semantics on negative
operands.  Integer ``base ** negative`` (a float in Python) also
escalates to object mode.

Division by zero
----------------
The tree evaluator raises :class:`~repro.errors.EvaluationError` when a
``Div``/``FloorDiv``/``Mod`` denominator is zero.  The batched
evaluator pins the same contract grid-wide: if *any* point's
denominator is zero, the whole grid call raises ``EvaluationError``
naming the offending subexpression (no partial results).

The compile cache keyed by ``(canonical expr, params)`` is bounded
(LRU) and exposes ``expr.compile.hits`` / ``expr.compile.misses``
counters plus a ``symbolic:compile`` tracer span per actual lowering.
"""

from __future__ import annotations

import math
import threading
import weakref
from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.errors import EvaluationError, SymbolicError
from repro.symbolic.expr import (
    Add,
    Div,
    Expr,
    FloorDiv,
    Max,
    Min,
    Mod,
    Mul,
    Number,
    Pow,
    Symbol,
    sympify,
)

__all__ = [
    "intern",
    "interned_count",
    "GridFn",
    "compile_expr",
    "evaluate_grid",
    "compile_cache_info",
    "clear_compile_cache",
]

# Results with magnitude strictly below 2**63 fit an int64 exactly.
_INT64_LIMIT = 2 ** 63
# Integers up to 2**53 convert to float64 without rounding; anything
# larger mixed into a float operation forces object mode to keep the
# compiled result bit-equal to the interpreter's Python arithmetic.
_FLOAT_EXACT_LIMIT = 2 ** 53


# ---------------------------------------------------------------------------
# Interning (hash-consing)
# ---------------------------------------------------------------------------

#: Canonical node per structural key.  Weak values: a canonical node is
#: dropped as soon as no expression references it anymore.
_intern_table: "weakref.WeakValueDictionary[tuple, Expr]" = weakref.WeakValueDictionary()
_intern_lock = threading.RLock()


def _intern_key(node: Expr, children: tuple[Expr, ...]) -> tuple:
    """Structural identity key of *node* given already-canonical children.

    Children are keyed by ``id()`` — sound precisely because they are
    canonical: one live object per distinct subexpression, and the
    table's weak values keep them alive while any referencing key
    exists (each canonical composite holds strong refs to its
    children).
    """
    cls = type(node).__name__
    if isinstance(node, Number):  # covers Integer, distinguished by cls
        return (cls, node.value, type(node.value).__name__)
    if isinstance(node, Symbol):
        return (cls, node.name)
    return (cls, tuple(id(c) for c in children))


def _rebuild(node: Expr, children: tuple[Expr, ...]) -> Expr:
    """Reconstruct *node* with canonical *children* (no re-simplification:
    the tree is already canonical; smart constructors are not re-run)."""
    if isinstance(node, (Number, Symbol)):
        return node
    if isinstance(node, (Add, Mul, Min, Max)):
        # Identity comparison, not ``==``: Expr equality is structural,
        # and a structurally-equal child may still be a different
        # (non-canonical) object that must be swapped out.
        if len(children) == len(node.args) and all(
            c is original for c, original in zip(children, node.args)
        ):
            return node
        return type(node)(children)
    if isinstance(node, (Pow, Div, FloorDiv, Mod)):
        if children[0] is node.left and children[1] is node.right:
            return node
        return type(node)(children[0], children[1])
    raise SymbolicError(f"cannot intern {type(node).__name__} nodes")


def intern(expr: Expr) -> Expr:
    """Return the canonical hash-consed form of *expr*.

    The result is structurally equal to *expr*, and pointer-identical
    to every other interned expression with the same structure:
    ``intern(a) is intern(b)`` iff ``a == b``.  Interning is idempotent
    (``intern(intern(e)) is intern(e)``) and never mutates its input.
    """
    expr = sympify(expr)
    # Iterative post-order: children are canonicalized before parents.
    memo: dict[int, Expr] = {}
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    with _intern_lock:
        while stack:
            node, ready = stack.pop()
            if id(node) in memo:
                continue
            children = node.children()
            if not ready:
                stack.append((node, True))
                for c in children:
                    if id(c) not in memo:
                        stack.append((c, False))
                continue
            canon_children = tuple(memo[id(c)] for c in children)
            key = _intern_key(node, canon_children)
            canonical = _intern_table.get(key)
            if canonical is None:
                canonical = _rebuild(node, canon_children)
                _intern_table[key] = canonical
            memo[id(node)] = canonical
        return memo[id(expr)]


def interned_count() -> int:
    """Number of canonical nodes currently alive in the intern table."""
    with _intern_lock:
        return len(_intern_table)


# ---------------------------------------------------------------------------
# Lowering: canonical DAG -> instruction list
# ---------------------------------------------------------------------------

# Instruction opcodes.  Each instruction is
# ``(op, dst, a, b, payload)`` over a flat slot vector; ``a``/``b`` are
# source slot indices (or -1), ``payload`` carries op-specific data
# (constant value, parameter index, or the subexpression's string form
# for error messages).
_CONST = 0
_PARAM = 1
_ADD = 2
_MUL = 3
_POW = 4
_DIV = 5
_FDIV = 6
_MOD = 7
_MIN = 8
_MAX = 9

_OP_NAMES = {
    _DIV: "division",
    _FDIV: "floor division",
    _MOD: "modulo",
}


class _Escalate(Exception):
    """Internal: int64 fast mode cannot guarantee exactness; rerun in
    object mode."""


class GridFn:
    """A compiled expression: evaluates a whole parameter grid at once.

    Call with a mapping of parameter name to value sequence (all the
    same length ``n``) and get back an array of shape ``(n,)`` holding
    the expression's value at each point.  Results are exact: integer
    results equal :func:`~repro.symbolic.expr.evaluate_int` point for
    point, float results equal ``Expr.evaluate``.
    """

    __slots__ = ("expr", "params", "_program", "_n_slots", "_out_slot")

    def __init__(
        self,
        expr: Expr,
        params: tuple[str, ...],
        program: list[tuple[int, int, int, int, object]],
        n_slots: int,
        out_slot: int,
    ):
        self.expr = expr
        self.params = params
        self._program = program
        self._n_slots = n_slots
        self._out_slot = out_slot

    @property
    def n_ops(self) -> int:
        """Number of instructions (== distinct subexpressions)."""
        return len(self._program)

    def __call__(
        self, grids: Mapping[str, Sequence[int | float]]
    ) -> np.ndarray:
        """Evaluate on per-parameter value arrays of equal length."""
        n: int | None = None
        columns: list[np.ndarray] = []
        object_mode = False
        for name in self.params:
            if name not in grids:
                raise EvaluationError(
                    f"no value provided for symbol {name!r}"
                )
            try:
                col = np.asarray(grids[name])
            except OverflowError:
                col = np.asarray(grids[name], dtype=object)
            if col.ndim != 1:
                col = col.reshape(-1)
            if col.dtype == object or col.dtype.kind not in "if":
                col = np.asarray(list(grids[name]), dtype=object)
                object_mode = True
            if n is None:
                n = col.shape[0]
            elif col.shape[0] != n:
                raise EvaluationError(
                    f"parameter grid for {name!r} has {col.shape[0]} points, "
                    f"expected {n}"
                )
            columns.append(col)
        if n is None:
            n = 1  # constant expression: a single broadcast point
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if not object_mode:
            try:
                return self._run_fast(columns, n)
            except _Escalate:
                object_mode = True
        cols = [
            c
            if c.dtype == object
            else np.array([v.item() for v in c], dtype=object)
            for c in columns
        ]
        return self._run_object(cols, n)

    def eval_points(
        self, envs: Sequence[Mapping[str, int | float]]
    ) -> np.ndarray:
        """Evaluate on a sequence of per-point environments."""
        try:
            grids = {name: [env[name] for env in envs] for name in self.params}
        except KeyError as exc:
            raise EvaluationError(
                f"no value provided for symbol {exc.args[0]!r}"
            ) from exc
        if not self.params:
            out = self(grids)
            return np.broadcast_to(out, (len(envs),)) if len(envs) != 1 else out
        return self(grids)

    # -- int64 fast mode --------------------------------------------------
    def _run_fast(self, columns: list[np.ndarray], n: int) -> np.ndarray:
        vals: list[np.ndarray | np.generic | float | None] = [None] * self._n_slots
        # Magnitude bound per slot; ``None`` marks float-valued slots
        # (floats follow IEEE and need no overflow tracking).
        bounds: list[int | None] = [None] * self._n_slots

        def as_float_operand(slot: int):
            # An int operand feeding a float op must fit float64 exactly.
            b = bounds[slot]
            if b is not None and b > _FLOAT_EXACT_LIMIT:
                raise _Escalate
            return vals[slot]

        for op, dst, a, b, payload in self._program:
            if op == _CONST:
                value = payload
                if isinstance(value, int):
                    if abs(value) >= _INT64_LIMIT:
                        raise _Escalate
                    vals[dst] = np.int64(value)
                    bounds[dst] = abs(value)
                else:
                    vals[dst] = float(value)
                continue
            if op == _PARAM:
                col = columns[payload]
                if col.dtype.kind == "i":
                    col = col.astype(np.int64, copy=False)
                    vals[dst] = col
                    bounds[dst] = max(abs(int(col.min())), abs(int(col.max())))
                else:
                    vals[dst] = col.astype(np.float64, copy=False)
                continue

            ba, bb = bounds[a], bounds[b]
            both_int = ba is not None and bb is not None
            if op == _ADD:
                if both_int:
                    bound = ba + bb
                    if bound >= _INT64_LIMIT:
                        raise _Escalate
                    bounds[dst] = bound
                    vals[dst] = np.add(vals[a], vals[b])
                else:
                    vals[dst] = np.add(as_float_operand(a), as_float_operand(b))
            elif op == _MUL:
                if both_int:
                    bound = ba * bb
                    if bound >= _INT64_LIMIT:
                        raise _Escalate
                    bounds[dst] = bound
                    vals[dst] = np.multiply(vals[a], vals[b])
                else:
                    vals[dst] = np.multiply(
                        as_float_operand(a), as_float_operand(b)
                    )
            elif op == _POW:
                if both_int:
                    exp = vals[b]
                    emin = int(np.min(exp))
                    if emin < 0:
                        raise _Escalate  # int ** negative is a float in Python
                    emax = int(np.max(exp))
                    if ba <= 1:
                        bound = 1
                    elif emax == 0:
                        bound = 1
                    elif emax * math.log2(ba) >= 62.5:
                        raise _Escalate
                    else:
                        bound = ba ** emax
                        if bound >= _INT64_LIMIT:
                            raise _Escalate
                    bounds[dst] = bound
                    vals[dst] = np.power(vals[a], vals[b])
                else:
                    vals[dst] = np.power(
                        as_float_operand(a), as_float_operand(b)
                    )
            elif op in (_DIV, _FDIV, _MOD):
                den = vals[b]
                if np.any(np.equal(den, 0)):
                    raise EvaluationError(
                        f"{_OP_NAMES[op]} by zero in {payload}"
                    )
                if op == _DIV:
                    vals[dst] = np.true_divide(
                        as_float_operand(a), as_float_operand(b)
                    )
                elif both_int:
                    if op == _FDIV:
                        # |a // b| <= max(|a|, 1) for |b| >= 1.
                        bounds[dst] = max(ba, 1)
                        vals[dst] = np.floor_divide(vals[a], vals[b])
                    else:
                        bounds[dst] = bb
                        vals[dst] = np.remainder(vals[a], vals[b])
                else:
                    fa, fb = as_float_operand(a), as_float_operand(b)
                    vals[dst] = (
                        np.floor_divide(fa, fb)
                        if op == _FDIV
                        else np.remainder(fa, fb)
                    )
            elif op == _MIN or op == _MAX:
                fn = np.minimum if op == _MIN else np.maximum
                if both_int:
                    bounds[dst] = max(ba, bb)
                    vals[dst] = fn(vals[a], vals[b])
                else:
                    vals[dst] = fn(as_float_operand(a), as_float_operand(b))

        out = vals[self._out_slot]
        result = np.asarray(out)
        if result.ndim == 0:
            result = np.broadcast_to(result, (n,))
        return result

    # -- exact object mode ------------------------------------------------
    def _run_object(self, columns: list[np.ndarray], n: int) -> np.ndarray:
        """Evaluate with Python objects element-wise: exact big-int
        arithmetic and Python operator semantics throughout."""
        vals: list[object] = [None] * self._n_slots
        for op, dst, a, b, payload in self._program:
            if op == _CONST:
                vals[dst] = payload
            elif op == _PARAM:
                vals[dst] = columns[payload]
            elif op == _ADD:
                vals[dst] = np.add(vals[a], vals[b])
            elif op == _MUL:
                vals[dst] = np.multiply(vals[a], vals[b])
            elif op == _POW:
                vals[dst] = np.power(vals[a], vals[b])
            elif op in (_DIV, _FDIV, _MOD):
                den = vals[b]
                if np.any(np.equal(den, 0)):
                    raise EvaluationError(
                        f"{_OP_NAMES[op]} by zero in {payload}"
                    )
                if op == _DIV:
                    vals[dst] = np.true_divide(vals[a], vals[b])
                elif op == _FDIV:
                    vals[dst] = np.floor_divide(vals[a], vals[b])
                else:
                    vals[dst] = np.remainder(vals[a], vals[b])
            elif op == _MIN:
                vals[dst] = np.minimum(vals[a], vals[b])
            elif op == _MAX:
                vals[dst] = np.maximum(vals[a], vals[b])
        out = vals[self._out_slot]
        result = np.asarray(out, dtype=object)
        if result.ndim == 0:
            result = np.broadcast_to(result, (n,))
        return result


def _lower(expr: Expr, params: tuple[str, ...]) -> GridFn:
    """Lower the canonical DAG rooted at *expr* to a :class:`GridFn`."""
    param_index = {name: i for i, name in enumerate(params)}
    missing = sorted(expr.free_symbols() - set(params))
    if missing:
        raise EvaluationError(
            f"no value provided for symbol {missing[0]!r}"
        )

    program: list[tuple[int, int, int, int, object]] = []
    slot_of: dict[int, int] = {}  # id(canonical node) -> slot

    def emit(op: int, a: int, b: int, payload: object) -> int:
        dst = len(program)
        program.append((op, dst, a, b, payload))
        return dst

    def fold(op: int, slots: list[int], node: Expr) -> int:
        # Left-fold n-ary ops into binary chains, matching the
        # interpreter's sequential accumulation order (relevant for
        # float rounding).
        acc = slots[0]
        payload = str(node) if op in _OP_NAMES else None
        for s in slots[1:]:
            acc = emit(op, acc, s, payload)
        return acc

    # Iterative post-order over the DAG (identity-deduplicated).
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in slot_of:
            continue
        children = node.children()
        if not ready:
            stack.append((node, True))
            for c in children:
                if id(c) not in slot_of:
                    stack.append((c, False))
            continue
        if isinstance(node, Symbol):
            slot = emit(_PARAM, -1, -1, param_index[node.name])
        elif isinstance(node, Number):
            slot = emit(_CONST, -1, -1, node.value)
        elif isinstance(node, Add):
            slot = fold(_ADD, [slot_of[id(c)] for c in children], node)
        elif isinstance(node, Mul):
            # The interpreter seeds the product with int 1, so a pure
            # left-fold over the (canonically sorted) args matches it.
            slot = fold(_MUL, [slot_of[id(c)] for c in children], node)
        elif isinstance(node, Min):
            slot = fold(_MIN, [slot_of[id(c)] for c in children], node)
        elif isinstance(node, Max):
            slot = fold(_MAX, [slot_of[id(c)] for c in children], node)
        elif isinstance(node, Pow):
            slot = emit(_POW, slot_of[id(node.left)], slot_of[id(node.right)], None)
        elif isinstance(node, (Div, FloorDiv, Mod)):
            op = {Div: _DIV, FloorDiv: _FDIV, Mod: _MOD}[type(node)]
            slot = emit(op, slot_of[id(node.left)], slot_of[id(node.right)], str(node))
        else:
            raise SymbolicError(
                f"cannot compile {type(node).__name__} nodes"
            )
        slot_of[id(node)] = slot

    return GridFn(expr, params, program, len(program), slot_of[id(expr)])


# ---------------------------------------------------------------------------
# Compile cache
# ---------------------------------------------------------------------------


class _CompileCache:
    """Bounded LRU of compiled :class:`GridFn` keyed by canonical expr.

    The key holds the *canonical* (interned) expression itself, never a
    raw ``id()``: object ids are recycled by the allocator, so an
    id-keyed cache can silently serve a stale compilation for a new
    expression that happens to reuse the address.  Hashing a canonical
    node is cheap (memoized structural hash, identity fast path).
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, GridFn]" = OrderedDict()

    def lookup(self, key: tuple) -> GridFn | None:
        with self._lock:
            fn = self._entries.get(key)
            if fn is not None:
                self.hits += 1
                self._entries.move_to_end(key)
            else:
                self.misses += 1
            return fn

    def store(self, key: tuple, fn: GridFn) -> None:
        with self._lock:
            self._entries[key] = fn
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def info(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "maxsize": self.maxsize,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_compile_cache = _CompileCache()


def compile_cache_info() -> dict:
    """Snapshot of the process-wide compile cache (hits/misses/entries)."""
    return _compile_cache.info()


def clear_compile_cache() -> None:
    """Drop all cached compilations and reset the hit/miss counters."""
    _compile_cache.clear()


def compile_expr(
    expr: Expr,
    params: Sequence[str] | None = None,
    *,
    metrics=None,
    tracer=None,
) -> GridFn:
    """Compile *expr* for batched evaluation over *params*.

    *params* defaults to the expression's free symbols (sorted).  The
    compilation is cached per canonical expression; pass a
    ``MetricsRegistry`` as *metrics* to count ``expr.compile.hits`` /
    ``expr.compile.misses``, and a ``Tracer`` as *tracer* to record a
    ``symbolic:compile`` span around each actual lowering.
    """
    expr = sympify(expr)
    if params is None:
        params = tuple(sorted(expr.free_symbols()))
    else:
        params = tuple(params)
    canonical = intern(expr)
    key = (canonical, params)
    fn = _compile_cache.lookup(key)
    if fn is not None:
        if metrics is not None:
            metrics.counter("expr.compile.hits").inc()
        return fn
    if metrics is not None:
        metrics.counter("expr.compile.misses").inc()
    if tracer is not None:
        with tracer.span("symbolic:compile") as span:
            span.set(expr=str(canonical)[:120])
            fn = _lower(canonical, params)
    elif metrics is not None:
        with metrics.timer("expr.compile.seconds"):
            fn = _lower(canonical, params)
    else:
        fn = _lower(canonical, params)
    _compile_cache.store(key, fn)
    return fn


def evaluate_grid(
    expr: Expr,
    envs: Sequence[Mapping[str, int | float]],
    *,
    metrics=None,
    tracer=None,
) -> np.ndarray:
    """Evaluate *expr* at every environment in *envs* with one compiled
    batched call.  Equivalent to ``[expr.evaluate(env) for env in envs]``
    (and to :func:`evaluate_int` for integer results), but vectorized."""
    fn = compile_expr(expr, metrics=metrics, tracer=tracer)
    return fn.eval_points(envs)
