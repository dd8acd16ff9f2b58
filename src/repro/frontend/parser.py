"""AST → SDFG translation for ``@program`` functions."""

from __future__ import annotations

import ast
import itertools
from typing import TYPE_CHECKING

from repro.errors import FrontendError
from repro.frontend.astutils import ALLOWED_CALLS, index_expressions, subscript_data_name, unparse
from repro.sdfg import dtypes
from repro.sdfg.data import Array
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit
from repro.sdfg.propagation import propagate_memlet, subset_union
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.expr import add as sym_add
from repro.symbolic.parser import parse_expr
from repro.symbolic.ranges import Range, Subset

if TYPE_CHECKING:  # pragma: no cover
    from repro.frontend.program import Program

__all__ = ["parse_program"]

_AUGOPS = {ast.Add: "sum", ast.Mult: "product"}


def parse_program(prog: "Program") -> SDFG:
    """Translate a :class:`~repro.frontend.program.Program` into an SDFG."""
    tree = ast.parse(prog.source)
    funcdef = next(
        (n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
        None,
    )
    if funcdef is None:
        raise FrontendError(f"no function definition found in {prog.name!r}")
    sdfg = SDFG(prog.name)
    _declare_arguments(sdfg, funcdef, prog)
    state = sdfg.add_state("main")
    ctx = _StateContext(sdfg, state)
    for stmt in funcdef.body:
        ctx.parse_toplevel(stmt)
    return sdfg


def _declare_arguments(sdfg: SDFG, funcdef: ast.FunctionDef, prog: "Program") -> None:
    """Register function parameters as containers from their annotations."""
    func = prog.func
    closure: dict[str, object] = dict(func.__globals__)
    if func.__closure__:
        closure.update(
            {
                name: cell.cell_contents
                for name, cell in zip(func.__code__.co_freevars, func.__closure__)
            }
        )
    args = funcdef.args
    if args.kwonlyargs or args.vararg or args.kwarg or args.posonlyargs:
        raise FrontendError(
            f"{prog.name!r}: only plain positional parameters are supported"
        )
    for arg in args.args:
        if arg.annotation is None:
            raise FrontendError(
                f"parameter {arg.arg!r} of {prog.name!r} needs a dtype[shape] "
                "annotation"
            )
        try:
            annotation = eval(  # noqa: S307 - annotations are trusted source
                compile(ast.Expression(arg.annotation), filename="<annotation>", mode="eval"),
                closure,
            )
        except Exception as exc:  # noqa: BLE001 — converted to FrontendError
            raise FrontendError(
                f"cannot evaluate annotation of parameter {arg.arg!r}: {exc}"
            ) from exc
        from repro.frontend.program import TransientAnnotation

        if isinstance(annotation, TransientAnnotation):
            sdfg.add_transient(arg.arg, list(annotation.shape), annotation.dtype)
        elif isinstance(annotation, dtypes.Dtype):
            sdfg.add_scalar(arg.arg, annotation)
        elif (
            isinstance(annotation, tuple)
            and len(annotation) == 2
            and isinstance(annotation[0], dtypes.Dtype)
        ):
            dtype, shape = annotation
            sdfg.add_array(arg.arg, list(shape), dtype)
        else:
            raise FrontendError(
                f"parameter {arg.arg!r}: annotation must be a dtype or "
                f"dtype[shape], got {annotation!r}"
            )


class _StateContext:
    """Tracks access-node versions while statements extend one state."""

    def __init__(self, sdfg: SDFG, state: SDFGState):
        self.sdfg = sdfg
        self.state = state
        #: Latest access node per container (dataflow versioning).
        self.latest: dict[str, AccessNode] = {}
        self._tmp_counter = itertools.count()

    # -- access-node versioning ------------------------------------------------
    def read_node(self, data: str) -> AccessNode:
        node = self.latest.get(data)
        if node is None:
            node = self.state.add_access(data)
            self.latest[data] = node
        return node

    def write_node(self, data: str) -> AccessNode:
        node = self.state.add_access(data)
        self.latest[data] = node
        return node

    def fresh_name(self, hint: str) -> str:
        while True:
            name = f"__{hint}_{next(self._tmp_counter)}"
            if name not in self.sdfg.arrays:
                return name

    # -- top-level statements ----------------------------------------------------
    def parse_toplevel(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return  # docstring
        if isinstance(stmt, ast.Pass):
            return
        if isinstance(stmt, ast.For):
            self._parse_pmap(stmt)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                raise FrontendError(
                    "@program functions return through their array parameters; "
                    "'return <value>' is not supported"
                )
            return
        raise FrontendError(
            f"unsupported top-level statement: {unparse(stmt)!r} (only "
            "'for ... in pmap(...)' loops are allowed)"
        )

    # -- pmap loops ----------------------------------------------------------------
    def _parse_pmap(self, stmt: ast.For) -> None:
        params = self._loop_params(stmt.target)
        ranges = self._pmap_ranges(stmt.iter, params)
        if stmt.orelse:
            raise FrontendError("for/else is not supported on pmap loops")
        for p in params:
            if p in self.sdfg.arrays:
                raise FrontendError(
                    f"loop parameter {p!r} shadows a container of the same name"
                )

        label = f"map_{len(self.state.map_entries())}"
        entry, exit_ = self.state.add_map(label, dict(zip(params, ranges)))
        body = _MapBodyParser(self, entry, exit_, params)
        for inner in stmt.body:
            body.parse_statement(inner)
        body.finalize()

    def _loop_params(self, target: ast.expr) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, ast.Tuple) and all(
            isinstance(e, ast.Name) for e in target.elts
        ):
            return [e.id for e in target.elts]  # type: ignore[union-attr]
        raise FrontendError(
            f"pmap loop target must be a name or tuple of names, got "
            f"{unparse(target)!r}"
        )

    def _pmap_ranges(self, iter_node: ast.expr, params: list[str]) -> list[Range]:
        call = iter_node
        if not isinstance(call, ast.Call):
            raise FrontendError(
                f"for-loops must iterate over pmap(...), got {unparse(iter_node)!r}"
            )
        func = call.func
        func_name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if func_name != "pmap":
            raise FrontendError(
                f"for-loops must iterate over pmap(...), got call to {func_name!r}"
            )
        bounds: list[ast.expr] = list(call.args)
        if call.keywords:
            names = [kw.arg for kw in call.keywords]
            if bounds or names != params:
                raise FrontendError(
                    "pmap keyword arguments must match the loop target names "
                    f"exactly (expected {params}, got {names})"
                )
            bounds = [kw.value for kw in call.keywords]
        if len(bounds) != len(params):
            raise FrontendError(
                f"pmap has {len(bounds)} dimensions but the loop target binds "
                f"{len(params)} names"
            )
        return [self._bound_to_range(b) for b in bounds]

    def _bound_to_range(self, node: ast.expr) -> Range:
        if isinstance(node, ast.Tuple):
            parts = [parse_expr(unparse(e)) for e in node.elts]
            if len(parts) == 2:
                return Range(parts[0], sym_add(parts[1], -1))
            if len(parts) == 3:
                return Range(parts[0], sym_add(parts[1], -1), parts[2])
            raise FrontendError(
                f"pmap tuple bound must have 2 or 3 entries, got {unparse(node)!r}"
            )
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return Range.from_string(node.value)
        try:
            end = parse_expr(unparse(node))
        except Exception as exc:  # noqa: BLE001 — converted to FrontendError
            raise FrontendError(
                f"invalid pmap bound {unparse(node)!r}: {exc}"
            ) from exc
        return Range(0, sym_add(end, -1))


class _MapBodyParser:
    """Parses the statements inside one pmap scope."""

    def __init__(
        self,
        ctx: _StateContext,
        entry: MapEntry,
        exit_: MapExit,
        params: list[str],
    ):
        self.ctx = ctx
        self.state = ctx.state
        self.sdfg = ctx.sdfg
        self.entry = entry
        self.exit = exit_
        self.params = set(params)
        #: local name -> (container name, access node producing it)
        self.locals: dict[str, tuple[str, AccessNode]] = {}
        #: per container: list of inner read memlets (for outer aggregation)
        self.reads: dict[str, list[Memlet]] = {}
        self.writes: dict[str, list[Memlet]] = {}
        #: tasklets created by this body (to attach scope-keeping edges)
        self.tasklets: list = []

    # -- statements -----------------------------------------------------------
    def parse_statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            if len(stmt.targets) != 1:
                raise FrontendError(
                    f"multiple assignment targets are not supported: "
                    f"{unparse(stmt)!r}"
                )
            self._parse_assign(stmt.targets[0], stmt.value, wcr=None)
            return
        if isinstance(stmt, ast.AugAssign):
            wcr = _AUGOPS.get(type(stmt.op))
            if wcr is None:
                raise FrontendError(
                    f"unsupported accumulation operator in {unparse(stmt)!r} "
                    "(only += and *= map to write-conflict resolution)"
                )
            if not isinstance(stmt.target, ast.Subscript):
                raise FrontendError(
                    f"accumulation requires an array element target: "
                    f"{unparse(stmt)!r}"
                )
            self._parse_assign(stmt.target, stmt.value, wcr=wcr)
            return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return  # stray docstring/comment expression
        raise FrontendError(
            f"unsupported statement inside pmap: {unparse(stmt)!r}"
        )

    def _parse_assign(self, target: ast.expr, value: ast.expr, wcr: str | None) -> None:
        builder = _TaskletBuilder(self)
        code_rhs = builder.rewrite(value)

        if isinstance(target, ast.Subscript):
            data = subscript_data_name(target)
            if data not in self.sdfg.arrays:
                raise FrontendError(f"assignment to undefined container {data!r}")
            indices = index_expressions(target)
            desc = self.sdfg.arrays[data]
            if len(indices) != len(desc.shape):
                raise FrontendError(
                    f"{data!r} has rank {len(desc.shape)} but is indexed with "
                    f"{len(indices)} indices"
                )
            tasklet_name = f"{data}_write_{len(self.state.tasklets())}"
            tasklet = self.state.add_tasklet(
                tasklet_name, sorted(builder.connectors), ["_out"], f"_out = {code_rhs}"
            )
            self.tasklets.append(tasklet)
            builder.wire_inputs(tasklet)
            memlet = Memlet(data, Subset.from_indices(list(indices)), wcr=wcr)
            self.state.add_edge(tasklet, "_out", self.exit, f"IN_{data}", memlet)
            self.exit.add_out_connector(f"OUT_{data}")
            self.writes.setdefault(data, []).append(memlet)
            return

        if isinstance(target, ast.Name):
            if wcr is not None:
                raise FrontendError("accumulation into locals is not supported")
            name = target.id
            if name in self.params:
                raise FrontendError(f"cannot assign to loop parameter {name!r}")
            container = self.ctx.fresh_name(name)
            self.sdfg.add_scalar(container, self._local_dtype(), transient=True)
            tasklet = self.state.add_tasklet(
                f"{name}_def_{len(self.state.tasklets())}",
                sorted(builder.connectors),
                ["_out"],
                f"_out = {code_rhs}",
            )
            self.tasklets.append(tasklet)
            builder.wire_inputs(tasklet)
            access = self.state.add_access(container)
            self.state.add_edge(tasklet, "_out", access, None, Memlet(container))
            self.locals[name] = (container, access)
            return

        raise FrontendError(f"unsupported assignment target {unparse(target)!r}")

    def _local_dtype(self) -> dtypes.Dtype:
        """Element type for body locals: widest floating type in use."""
        for desc in self.sdfg.arrays.values():
            if desc.dtype.is_floating:
                return desc.dtype
        return dtypes.float64

    # -- scope closing -----------------------------------------------------------
    def finalize(self) -> None:
        """Create the aggregated outer edges once the body is parsed."""
        for data, memlets in self.reads.items():
            propagated = [propagate_memlet(m, self.entry.map) for m in memlets]
            subset = propagated[0].subset
            for p in propagated[1:]:
                subset = subset_union(subset, p.subset)
            volume = propagated[0].volume()
            for p in propagated[1:]:
                volume = sym_add(volume, p.volume())
            outer = Memlet(data, subset, volume_hint=volume)
            src = self.ctx.read_node(data)
            self.entry.add_out_connector(f"OUT_{data}")
            self.state.add_edge(src, None, self.entry, f"IN_{data}", outer)
        for data, memlets in self.writes.items():
            propagated = [propagate_memlet(m, self.entry.map) for m in memlets]
            subset = propagated[0].subset
            for p in propagated[1:]:
                subset = subset_union(subset, p.subset)
            volume = propagated[0].volume()
            for p in propagated[1:]:
                volume = sym_add(volume, p.volume())
            wcr = memlets[0].wcr
            outer = Memlet(data, subset, wcr=wcr, volume_hint=volume)
            dst = self.ctx.write_node(data)
            self.state.add_edge(self.exit, f"OUT_{data}", dst, None, outer)
        # Keep computation attached to the scope even without data inputs
        # (e.g. `C[i, j] = 0`): an empty ordering edge from the entry.
        for tasklet in self.tasklets:
            if not self.state.in_edges(tasklet):
                self.state.add_edge(self.entry, None, tasklet, None, None)


class _TaskletBuilder(ast.NodeTransformer):
    """Rewrites an expression AST into tasklet code, collecting inputs."""

    def __init__(self, body: _MapBodyParser):
        self.body = body
        self.connectors: set[str] = set()
        #: connector -> ("array", data, indices) or ("local", container, node)
        self.bindings: dict[str, tuple] = {}
        self._array_conns: dict[tuple, str] = {}

    def rewrite(self, node: ast.expr) -> str:
        return unparse(self.visit(_copy_ast(node)))

    # -- visitors -------------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> ast.AST:
        data = subscript_data_name(node)
        if data not in self.body.sdfg.arrays:
            raise FrontendError(f"read of undefined container {data!r}")
        indices = index_expressions(node)
        key = (data, indices)
        conn = self._array_conns.get(key)
        if conn is None:
            conn = f"_in_{data}_{len(self._array_conns)}"
            self._array_conns[key] = conn
            self.connectors.add(conn)
            self.bindings[conn] = ("array", data, indices)
        return ast.copy_location(ast.Name(id=conn, ctx=ast.Load()), node)

    def visit_Name(self, node: ast.Name) -> ast.AST:
        name = node.id
        if name in self.body.params:
            return node  # loop parameter: a runtime value in the tasklet
        if name in self.body.locals:
            conn = f"_inl_{name}"
            if conn not in self.connectors:
                self.connectors.add(conn)
                container, access = self.body.locals[name]
                self.bindings[conn] = ("local", container, access)
            return ast.copy_location(ast.Name(id=conn, ctx=ast.Load()), node)
        if name in self.body.sdfg.arrays:
            desc = self.body.sdfg.arrays[name]
            if isinstance(desc, Array):
                raise FrontendError(
                    f"array {name!r} used without subscript in a tasklet "
                    "expression"
                )
            conn = f"_in_{name}"
            if conn not in self.connectors:
                self.connectors.add(conn)
                self.bindings[conn] = ("scalar", name)
            return ast.copy_location(ast.Name(id=conn, ctx=ast.Load()), node)
        if name in self.body.sdfg.symbols or name in ALLOWED_CALLS:
            return node
        raise FrontendError(f"unknown name {name!r} in tasklet expression")

    def visit_Call(self, node: ast.Call) -> ast.AST:
        if not isinstance(node.func, ast.Name) or node.func.id not in ALLOWED_CALLS:
            raise FrontendError(
                f"call to {unparse(node.func)!r} is not allowed in tasklet "
                f"expressions (allowed: {sorted(ALLOWED_CALLS)})"
            )
        node.args = [self.visit(a) for a in node.args]
        return node

    def generic_visit(self, node: ast.AST) -> ast.AST:
        allowed = (
            ast.BinOp,
            ast.UnaryOp,
            ast.Constant,
            ast.IfExp,
            ast.Compare,
            ast.BoolOp,
            ast.operator,
            ast.unaryop,
            ast.cmpop,
            ast.boolop,
            ast.expr_context,
        )
        if not isinstance(node, allowed):
            raise FrontendError(
                f"unsupported syntax in tasklet expression: {unparse(node)!r}"
            )
        return super().generic_visit(node)

    # -- wiring ------------------------------------------------------------------
    def wire_inputs(self, tasklet) -> None:
        state = self.body.state
        entry = self.body.entry
        for conn in sorted(self.connectors):
            binding = self.bindings[conn]
            if binding[0] == "array":
                _, data, indices = binding
                memlet = Memlet(data, Subset.from_indices(list(indices)))
                entry.add_in_connector(f"IN_{data}")
                state.add_edge(entry, f"OUT_{data}", tasklet, conn, memlet)
                self.body.reads.setdefault(data, []).append(memlet)
            elif binding[0] == "scalar":
                _, name = binding
                memlet = Memlet(name)
                entry.add_in_connector(f"IN_{name}")
                state.add_edge(entry, f"OUT_{name}", tasklet, conn, memlet)
                self.body.reads.setdefault(name, []).append(memlet)
            else:  # local
                _, container, access = binding
                state.add_edge(access, None, tasklet, conn, Memlet(container))


def _copy_ast(node: ast.expr) -> ast.expr:
    """Deep-copy an expression AST so rewriting never mutates the source tree."""
    return ast.parse(unparse(node), mode="eval").body
