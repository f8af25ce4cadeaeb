"""A tree-walking interpreter for the C subset emitted by the front-end.

Together with :mod:`repro.mpisim.comm` this is the "compile and run"
substitute used to validate MPI programs (Section VI-C of the paper compiles
and runs the 11 numerical benchmark programs; we interpret them on a simulated
multi-rank MPI runtime instead).

Supported C: declarations (scalars, fixed arrays, malloc'ed arrays), the full
expression grammar produced by the parser, control flow (if/while/do/for/
switch/break/continue/return), user-defined functions, and a library of C
standard functions (printf, malloc/free, math, rand) plus the MPI bindings in
:class:`MPIBindings`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..clang import ast_nodes as ast
from ..clang.errors import InterpreterError
from .comm import SimCommunicator, SplitRegistry
from .datatypes import C_TYPE_SIZES, MPI_CONSTANT_VALUES, MPIDatatype, MPIOp, MPISentinel
from .memory import Cell, Pointer, RawAllocation, Scope, read_buffer, write_buffer


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _AbortSignal(Exception):
    """Raised by MPI_Abort / exit."""

    def __init__(self, code: int) -> None:
        self.code = code


class RankStopped(BaseException):
    """Unwinds a rank whose run was stopped at its deadline.

    A ``BaseException``, so no ``except Exception`` on the way up swallows
    it; :class:`repro.mpisim.runtime.MPIRuntime` catches it per rank.
    """


@dataclass
class RankContext:
    """Per-rank execution context shared with the MPI bindings."""

    rank: int
    comm_world: SimCommunicator
    split_registry: SplitRegistry
    stdout: list[str] = field(default_factory=list)
    wall_clock: float = 0.0
    rand_state: int = 1
    initialized: bool = False
    finalized: bool = False
    #: The blocking MPI call this rank is currently inside (e.g.
    #: ``"MPI_Recv(source=1, tag=0)"``), or None when it is computing.  Set by
    #: :class:`MPIBindings` around every potentially blocking operation and
    #: deliberately *left set* when that operation raises
    #: :class:`repro.mpisim.comm.SimulationDeadlock` — the runtime reads it to
    #: report which ranks were blocked in which call.
    blocked_in: str | None = None
    #: Set by the runtime at the run's deadline; the interpreter checks it on
    #: every loop back-edge and user-function call and raises
    #: :class:`RankStopped`.
    stop: threading.Event = field(default_factory=threading.Event)

    def srand(self, seed: int) -> None:
        self.rand_state = (int(seed) & 0x7FFFFFFF) or 1

    def rand(self) -> int:
        # Deterministic LCG (glibc-like constants) so runs are reproducible.
        self.rand_state = (1103515245 * self.rand_state + 12345) & 0x7FFFFFFF
        return self.rand_state

    def wtime(self) -> float:
        # A simulated clock: advances a little on every call.
        self.wall_clock += 1e-3
        return self.wall_clock


class MPIBindings:
    """Implementations of the MPI functions the interpreter dispatches to."""

    def __init__(self, context: RankContext) -> None:
        self.context = context
        #: request id -> ("send", None) | ("recv", (buffer, source, tag))
        self._pending: dict[int, tuple[str, Any]] = {}
        self._next_request = 1

    @contextmanager
    def _blocking(self, label: str) -> Iterator[None]:
        """Mark this rank as blocked in ``label`` for the duration of a call.

        On success the marker is cleared; on failure (deadlock timeout, or a
        rank thread that never returns at all) it stays set, so the runtime
        and the exception handler can report *which call* the rank was stuck
        in.  Nested blocking calls cannot occur (the interpreter is
        single-threaded per rank), so a plain attribute is enough.
        """
        self.context.blocked_in = label
        yield
        self.context.blocked_in = None

    # ----------------------------------------------------------- environment

    def MPI_Init(self, *_args) -> int:
        self.context.initialized = True
        return 0

    def MPI_Init_thread(self, *_args) -> int:
        self.context.initialized = True
        return 0

    def MPI_Finalize(self, *_args) -> int:
        self.context.finalized = True
        return 0

    def MPI_Abort(self, _comm=None, code: int = 1) -> int:
        raise _AbortSignal(int(code))

    def MPI_Comm_rank(self, comm, rank_out) -> int:
        communicator = self._resolve_comm(comm)
        write_buffer(rank_out, [communicator.rank])
        return 0

    def MPI_Comm_size(self, comm, size_out) -> int:
        communicator = self._resolve_comm(comm)
        write_buffer(size_out, [communicator.size])
        return 0

    def MPI_Get_processor_name(self, name_out, len_out) -> int:
        name = f"simnode{self.context.rank:03d}"
        write_buffer(name_out, [name])
        write_buffer(len_out, [len(name)])
        return 0

    def MPI_Wtime(self) -> float:
        return self.context.wtime()

    def MPI_Barrier(self, comm) -> int:
        communicator = self._resolve_comm(comm)
        with self._blocking("MPI_Barrier"):
            communicator.barrier()
        return 0

    # --------------------------------------------------------- point to point

    def MPI_Send(self, buf, count, _dtype, dest, tag, comm) -> int:
        communicator = self._resolve_comm(comm)
        dest = int(dest)
        if dest < 0:
            return 0
        communicator.send(read_buffer(buf, int(count)), dest, int(tag))
        return 0

    MPI_Ssend = MPI_Send
    MPI_Rsend = MPI_Send
    MPI_Bsend = MPI_Send

    def MPI_Recv(self, buf, count, _dtype, source, tag, comm, _status=None) -> int:
        communicator = self._resolve_comm(comm)
        source = int(source)
        if source < 0:
            return 0
        with self._blocking(f"MPI_Recv(source={source}, tag={int(tag)})"):
            values = communicator.recv(source, int(tag))
        write_buffer(buf, values[: int(count)])
        return 0

    def MPI_Isend(self, buf, count, dtype, dest, tag, comm, request_out) -> int:
        # The simulator's sends never block, so Isend completes eagerly.
        self.MPI_Send(buf, count, dtype, dest, tag, comm)
        request_id = self._register_request(("send", None))
        write_buffer(request_out, [request_id])
        return 0

    def MPI_Irecv(self, buf, count, _dtype, source, tag, comm, request_out) -> int:
        request_id = self._register_request(("recv", (buf, int(count), int(source),
                                                      int(tag), comm)))
        write_buffer(request_out, [request_id])
        return 0

    def MPI_Wait(self, request, _status=None) -> int:
        request_id = self._request_id(request)
        self._complete(request_id)
        return 0

    def MPI_Waitall(self, count, requests, _statuses=None) -> int:
        ids = read_buffer(requests, int(count))
        for request_id in ids:
            self._complete(int(request_id))
        return 0

    def MPI_Sendrecv(self, sendbuf, sendcount, _sdtype, dest, sendtag,
                     recvbuf, recvcount, _rdtype, source, recvtag, comm,
                     _status=None) -> int:
        communicator = self._resolve_comm(comm)
        dest = int(dest)
        source = int(source)
        if dest >= 0:
            communicator.send(read_buffer(sendbuf, int(sendcount)), dest, int(sendtag))
        if source >= 0:
            with self._blocking(
                    f"MPI_Sendrecv(source={source}, recvtag={int(recvtag)})"):
                values = communicator.recv(source, int(recvtag))
            write_buffer(recvbuf, values[: int(recvcount)])
        return 0

    def MPI_Get_count(self, _status, _dtype, count_out) -> int:
        write_buffer(count_out, [0])
        return 0

    # ------------------------------------------------------------ collectives

    def MPI_Bcast(self, buf, count, _dtype, root, comm) -> int:
        communicator = self._resolve_comm(comm)
        payload = read_buffer(buf, int(count)) if communicator.rank == int(root) else None
        with self._blocking(f"MPI_Bcast(root={int(root)})"):
            result = communicator.bcast(payload, int(root))
        write_buffer(buf, result[: int(count)])
        return 0

    def MPI_Reduce(self, sendbuf, recvbuf, count, _dtype, op, root, comm) -> int:
        communicator = self._resolve_comm(comm)
        with self._blocking(f"MPI_Reduce(root={int(root)})"):
            result = communicator.reduce(read_buffer(sendbuf, int(count)),
                                         self._resolve_op(op), int(root))
        if result is not None:
            write_buffer(recvbuf, result[: int(count)])
        return 0

    def MPI_Allreduce(self, sendbuf, recvbuf, count, _dtype, op, comm) -> int:
        communicator = self._resolve_comm(comm)
        with self._blocking("MPI_Allreduce"):
            result = communicator.allreduce(read_buffer(sendbuf, int(count)),
                                            self._resolve_op(op))
        write_buffer(recvbuf, result[: int(count)])
        return 0

    def MPI_Scan(self, sendbuf, recvbuf, count, _dtype, op, comm) -> int:
        communicator = self._resolve_comm(comm)
        with self._blocking("MPI_Scan"):
            result = communicator.scan(read_buffer(sendbuf, int(count)),
                                       self._resolve_op(op))
        write_buffer(recvbuf, result[: int(count)])
        return 0

    def MPI_Scatter(self, sendbuf, sendcount, _sdtype, recvbuf, recvcount, _rdtype,
                    root, comm) -> int:
        communicator = self._resolve_comm(comm)
        payload = None
        if communicator.rank == int(root):
            payload = read_buffer(sendbuf, int(sendcount) * communicator.size)
        with self._blocking(f"MPI_Scatter(root={int(root)})"):
            received = communicator.scatter(payload, int(sendcount), int(root))
        write_buffer(recvbuf, received[: int(recvcount)])
        return 0

    def MPI_Gather(self, sendbuf, sendcount, _sdtype, recvbuf, recvcount, _rdtype,
                   root, comm) -> int:
        communicator = self._resolve_comm(comm)
        with self._blocking(f"MPI_Gather(root={int(root)})"):
            gathered = communicator.gather(read_buffer(sendbuf, int(sendcount)),
                                           int(root))
        if gathered is not None:
            write_buffer(recvbuf, gathered)
        return 0

    def MPI_Allgather(self, sendbuf, sendcount, _sdtype, recvbuf, _recvcount, _rdtype,
                      comm) -> int:
        communicator = self._resolve_comm(comm)
        with self._blocking("MPI_Allgather"):
            gathered = communicator.allgather(read_buffer(sendbuf, int(sendcount)))
        write_buffer(recvbuf, gathered)
        return 0

    def MPI_Alltoall(self, sendbuf, sendcount, _sdtype, recvbuf, _recvcount, _rdtype,
                     comm) -> int:
        communicator = self._resolve_comm(comm)
        payload = read_buffer(sendbuf, int(sendcount) * communicator.size)
        with self._blocking("MPI_Alltoall"):
            received = communicator.alltoall(payload, int(sendcount))
        write_buffer(recvbuf, received)
        return 0

    # ----------------------------------------------------------- communicators

    def MPI_Comm_split(self, comm, color, key, newcomm_out) -> int:
        communicator = self._resolve_comm(comm)
        with self._blocking("MPI_Comm_split"):
            child = communicator.split(int(color), int(key),
                                       self.context.split_registry)
        write_buffer(newcomm_out, [child])
        return 0

    def MPI_Comm_dup(self, comm, newcomm_out) -> int:
        write_buffer(newcomm_out, [self._resolve_comm(comm)])
        return 0

    def MPI_Comm_free(self, _comm_ref) -> int:
        return 0

    # -------------------------------------------------------------- topology

    def MPI_Dims_create(self, nnodes, ndims, dims) -> int:
        nnodes, ndims = int(nnodes), int(ndims)
        current = read_buffer(dims, ndims)
        # Fill in zero entries with a balanced factorisation.
        factors = _balanced_dims(nnodes, ndims)
        result = [int(c) if int(c) > 0 else factors.pop(0) for c in current]
        write_buffer(dims, result)
        return 0

    def MPI_Cart_create(self, comm, _ndims, _dims, _periods, _reorder, newcomm_out) -> int:
        write_buffer(newcomm_out, [self._resolve_comm(comm)])
        return 0

    def MPI_Cart_coords(self, comm, rank, ndims, coords_out) -> int:
        communicator = self._resolve_comm(comm)
        ndims = int(ndims)
        dims = _balanced_dims(communicator.size, ndims)
        remaining = int(rank)
        coords = []
        for d in reversed(dims):
            coords.append(remaining % d)
            remaining //= d
        write_buffer(coords_out, list(reversed(coords)))
        return 0

    def MPI_Cart_shift(self, comm, _direction, disp, source_out, dest_out) -> int:
        communicator = self._resolve_comm(comm)
        rank, size = communicator.rank, communicator.size
        disp = int(disp)
        write_buffer(source_out, [(rank - disp) % size])
        write_buffer(dest_out, [(rank + disp) % size])
        return 0

    # -------------------------------------------------------------- internals

    def _register_request(self, entry: tuple[str, Any]) -> int:
        request_id = self._next_request
        self._next_request += 1
        self._pending[request_id] = entry
        return request_id

    def _request_id(self, request) -> int:
        if isinstance(request, Pointer):
            return int(request.deref())
        if isinstance(request, Cell):
            return int(request.value)
        return int(request)

    def _complete(self, request_id: int) -> None:
        entry = self._pending.pop(request_id, None)
        if entry is None:
            return
        kind, payload = entry
        if kind == "recv":
            buf, count, source, tag, comm = payload
            communicator = self._resolve_comm(comm)
            if source >= 0:
                with self._blocking(f"MPI_Wait(recv source={source}, tag={tag})"):
                    values = communicator.recv(source, tag)
                write_buffer(buf, values[:count])

    def _resolve_comm(self, comm) -> SimCommunicator:
        if isinstance(comm, SimCommunicator):
            return comm
        if isinstance(comm, Cell):
            return self._resolve_comm(comm.value)
        if isinstance(comm, Pointer):
            return self._resolve_comm(comm.deref())
        if isinstance(comm, MPISentinel):
            return self.context.comm_world
        if comm is None or comm == 0:
            return self.context.comm_world
        raise InterpreterError(f"cannot resolve communicator from {comm!r}")

    @staticmethod
    def _resolve_op(op) -> MPIOp:
        if isinstance(op, MPIOp):
            return op
        raise InterpreterError(f"unsupported reduction operator {op!r}")


def _balanced_dims(nnodes: int, ndims: int) -> list[int]:
    """A near-square factorisation of ``nnodes`` into ``ndims`` factors."""
    dims = [1] * ndims
    remaining = nnodes
    idx = 0
    factor = 2
    while remaining > 1 and factor <= remaining:
        if remaining % factor == 0:
            dims[idx % ndims] *= factor
            remaining //= factor
            idx += 1
        else:
            factor += 1
    dims.sort(reverse=True)
    return dims


class CInterpreter:
    """Execute one translation unit for one simulated rank."""

    def __init__(self, unit: ast.TranslationUnit, context: RankContext) -> None:
        self.unit = unit
        self.context = context
        self._stop = context.stop
        self.bindings = MPIBindings(context)
        self.globals = Scope()
        self.functions: dict[str, ast.FunctionDef] = {}
        self._install_constants()
        self._install_globals()

    # ------------------------------------------------------------------ api

    def run_main(self, argv: list[str] | None = None) -> int:
        """Execute ``main`` and return its exit code."""
        main = self.functions.get("main")
        if main is None:
            raise InterpreterError("program has no main function")
        scope = self.globals.child()
        argv = argv or ["program"]
        scope.declare("argc", len(argv), "int")
        scope.declare("argv", list(argv), "char**")
        try:
            self._exec_block(main.body, scope)
        except _ReturnSignal as signal:
            return int(signal.value or 0)
        except _AbortSignal as signal:
            return int(signal.code)
        return 0

    @property
    def stdout(self) -> str:
        return "".join(self.context.stdout)

    # ------------------------------------------------------------- installers

    def _install_constants(self) -> None:
        for name, value in MPI_CONSTANT_VALUES.items():
            self.globals.declare(name, value, "const")
        self.globals.declare("MPI_COMM_WORLD_OBJECT", self.context.comm_world, "MPI_Comm")
        # MPI_COMM_WORLD resolves through the sentinel; keep both paths working.

    def _install_globals(self) -> None:
        for item in self.unit.items:
            if isinstance(item, ast.FunctionDef):
                self.functions[item.name] = item
            elif isinstance(item, ast.Declaration):
                scope_cells = self._exec_declaration(item, self.globals)
                _ = scope_cells

    # -------------------------------------------------------------- statements

    def _exec_block(self, block: ast.Compound, scope: Scope) -> None:
        inner = scope.child()
        for statement in block.statements:
            self._exec_statement(statement, inner)

    def _exec_statement(self, node: ast.Node, scope: Scope) -> None:
        if isinstance(node, ast.Declaration):
            self._exec_declaration(node, scope)
        elif isinstance(node, ast.ExpressionStatement):
            if node.expr is not None:
                self._eval(node.expr, scope)
        elif isinstance(node, ast.Compound):
            self._exec_block(node, scope)
        elif isinstance(node, ast.If):
            if self._truthy(self._eval(node.cond, scope)):
                self._exec_statement(node.then, scope)
            elif node.otherwise is not None:
                self._exec_statement(node.otherwise, scope)
        elif isinstance(node, ast.While):
            while self._truthy(self._eval(node.cond, scope)):
                if self._stop.is_set():
                    raise RankStopped()
                try:
                    self._exec_statement(node.body, scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(node, ast.DoWhile):
            while True:
                if self._stop.is_set():
                    raise RankStopped()
                try:
                    self._exec_statement(node.body, scope)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if not self._truthy(self._eval(node.cond, scope)):
                    break
        elif isinstance(node, ast.For):
            self._exec_for(node, scope)
        elif isinstance(node, ast.Switch):
            self._exec_switch(node, scope)
        elif isinstance(node, ast.Return):
            value = self._eval(node.value, scope) if node.value is not None else 0
            raise _ReturnSignal(value)
        elif isinstance(node, ast.Break):
            raise _BreakSignal()
        elif isinstance(node, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(node, (ast.Label, ast.CaseLabel, ast.Include, ast.TypedefDecl,
                               ast.StructDef)):
            return
        elif isinstance(node, ast.Goto):
            raise InterpreterError("goto is not supported by the simulator")
        else:
            raise InterpreterError(f"unsupported statement kind {node.kind!r}")

    def _exec_for(self, node: ast.For, scope: Scope) -> None:
        loop_scope = scope.child()
        if node.init is not None:
            if isinstance(node.init, ast.Declaration):
                self._exec_declaration(node.init, loop_scope)
            elif isinstance(node.init, ast.ExpressionStatement):
                if node.init.expr is not None:
                    self._eval(node.init.expr, loop_scope)
            else:
                self._eval(node.init, loop_scope)
        while True:
            if node.cond is not None and not self._truthy(self._eval(node.cond, loop_scope)):
                break
            if self._stop.is_set():
                raise RankStopped()
            try:
                self._exec_statement(node.body, loop_scope)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if node.update is not None:
                self._eval(node.update, loop_scope)

    def _exec_switch(self, node: ast.Switch, scope: Scope) -> None:
        value = self._eval(node.cond, scope)
        statements = node.body.statements
        matched = False
        try:
            for statement in statements:
                if isinstance(statement, ast.CaseLabel):
                    if matched:
                        continue
                    if statement.value is None:
                        matched = True
                    else:
                        matched = self._eval(statement.value, scope) == value
                    continue
                if matched:
                    self._exec_statement(statement, scope)
        except _BreakSignal:
            return

    def _exec_declaration(self, node: ast.Declaration, scope: Scope) -> list[Cell]:
        cells: list[Cell] = []
        for declarator in node.declarators:
            value: Any
            if declarator.array_dims:
                size = 1
                for dim in declarator.array_dims:
                    size *= int(self._eval(dim, scope)) if dim is not None else 0
                value = [self._zero_for(node.type_name)] * max(size, 0)
            elif declarator.init is not None:
                value = self._eval(declarator.init, scope)
                if isinstance(value, ast.Node):
                    raise InterpreterError("unexpected AST node as initialiser value")
                if isinstance(value, RawAllocation):
                    value = self._materialise_allocation(value, node.type_name)
            elif declarator.pointer:
                value = None
            else:
                value = self._zero_for(node.type_name)
            if isinstance(declarator.init, ast.InitList):
                value = [self._eval(v, scope) for v in declarator.init.values]
            cell = scope.declare(declarator.name, value, node.type_name)
            cells.append(cell)
        return cells

    @staticmethod
    def _zero_for(type_name: str) -> Any:
        if "double" in type_name or "float" in type_name:
            return 0.0
        return 0

    @staticmethod
    def _materialise_allocation(alloc: RawAllocation, type_name: str) -> list:
        element = 8 if ("double" in type_name or "long" in type_name) else 4
        if "char" in type_name:
            element = 1
        count = max(alloc.num_bytes // element, 0)
        zero = 0.0 if ("double" in type_name or "float" in type_name) else 0
        return [zero] * count

    # ------------------------------------------------------------- expressions

    def _eval(self, node: ast.Node, scope: Scope) -> Any:
        if isinstance(node, ast.Literal):
            return self._eval_literal(node)
        if isinstance(node, ast.Identifier):
            return self._eval_identifier(node, scope)
        if isinstance(node, ast.Parenthesized):
            return self._eval(node.inner, scope)
        if isinstance(node, ast.BinaryOp):
            return self._eval_binary(node, scope)
        if isinstance(node, ast.UnaryOp):
            return self._eval_unary(node, scope)
        if isinstance(node, ast.PostfixOp):
            return self._eval_postfix(node, scope)
        if isinstance(node, ast.Assignment):
            return self._eval_assignment(node, scope)
        if isinstance(node, ast.Call):
            return self._eval_call(node, scope)
        if isinstance(node, ast.ArraySubscript):
            return self._eval_subscript(node, scope)
        if isinstance(node, ast.Cast):
            return self._eval_cast(node, scope)
        if isinstance(node, ast.Conditional):
            if self._truthy(self._eval(node.cond, scope)):
                return self._eval(node.then, scope)
            return self._eval(node.otherwise, scope)
        if isinstance(node, ast.CommaExpression):
            result = None
            for part in node.parts:
                result = self._eval(part, scope)
            return result
        if isinstance(node, ast.InitList):
            return [self._eval(v, scope) for v in node.values]
        if isinstance(node, ast.MemberAccess):
            raise InterpreterError("struct member access is not supported by the simulator")
        raise InterpreterError(f"unsupported expression kind {node.kind!r}")

    @staticmethod
    def _eval_literal(node: ast.Literal) -> Any:
        if node.category == "number":
            text = node.value.rstrip("uUlLfF")
            if any(c in text for c in ".eE") and not text.startswith("0x"):
                return float(text)
            return int(text, 0)
        if node.category == "string":
            return _decode_c_string(node.value)
        # char literal
        inner = node.value[1:-1]
        decoded = inner.encode().decode("unicode_escape")
        return ord(decoded) if decoded else 0

    def _eval_identifier(self, node: ast.Identifier, scope: Scope) -> Any:
        cell = scope.lookup(node.name)
        if cell is not None:
            return cell.value
        if node.name in self.functions:
            return node.name
        raise InterpreterError(f"undefined identifier {node.name!r}")

    def _eval_binary(self, node: ast.BinaryOp, scope: Scope) -> Any:
        op = node.op
        if op == "&&":
            return 1 if (self._truthy(self._eval(node.left, scope))
                         and self._truthy(self._eval(node.right, scope))) else 0
        if op == "||":
            return 1 if (self._truthy(self._eval(node.left, scope))
                         or self._truthy(self._eval(node.right, scope))) else 0

        left = self._eval(node.left, scope)
        right = self._eval(node.right, scope)

        # Pointer arithmetic.
        if isinstance(left, Pointer) and isinstance(right, (int, float)):
            if op == "+":
                return left.shifted(int(right))
            if op == "-":
                return left.shifted(-int(right))
        if isinstance(left, list) and isinstance(right, (int, float)) and op == "+":
            return Pointer(left, int(right))

        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise InterpreterError("integer division by zero")
                return int(left / right) if (left < 0) != (right < 0) else left // right
            return left / right
        if op == "%":
            if right == 0:
                raise InterpreterError("modulo by zero")
            return int(math.fmod(left, right))
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<<":
            return int(left) << int(right)
        if op == ">>":
            return int(left) >> int(right)
        if op == "&":
            return int(left) & int(right)
        if op == "|":
            return int(left) | int(right)
        if op == "^":
            return int(left) ^ int(right)
        raise InterpreterError(f"unsupported binary operator {op!r}")

    def _eval_unary(self, node: ast.UnaryOp, scope: Scope) -> Any:
        op = node.op
        if op == "&":
            return self._address_of(node.operand, scope)
        if op == "*":
            value = self._eval(node.operand, scope)
            if isinstance(value, Pointer):
                return value.deref()
            if isinstance(value, list):
                return value[0]
            raise InterpreterError("cannot dereference a non-pointer value")
        if op == "sizeof":
            return self._eval_sizeof(node.operand, scope)
        if op in ("++", "--"):
            reference = self._lvalue(node.operand, scope)
            new_value = reference.deref() + (1 if op == "++" else -1)
            reference.store(new_value)
            return new_value
        value = self._eval(node.operand, scope)
        if op == "-":
            return -value
        if op == "+":
            return value
        if op == "!":
            return 0 if self._truthy(value) else 1
        if op == "~":
            return ~int(value)
        raise InterpreterError(f"unsupported unary operator {op!r}")

    def _eval_postfix(self, node: ast.PostfixOp, scope: Scope) -> Any:
        reference = self._lvalue(node.operand, scope)
        old_value = reference.deref()
        reference.store(old_value + (1 if node.op == "++" else -1))
        return old_value

    def _eval_assignment(self, node: ast.Assignment, scope: Scope) -> Any:
        reference = self._lvalue(node.target, scope)
        value = self._eval(node.value, scope)
        if isinstance(value, RawAllocation):
            cell = reference.target if isinstance(reference.target, Cell) else None
            type_name = cell.c_type if cell is not None else "double"
            value = self._materialise_allocation(value, type_name)
        if node.op == "=":
            reference.store(value)
            return value
        current = reference.deref()
        operator = node.op[:-1]
        updated = _apply_compound(current, value, operator)
        reference.store(updated)
        return updated

    def _eval_subscript(self, node: ast.ArraySubscript, scope: Scope) -> Any:
        array = self._eval(node.array, scope)
        index = int(self._eval(node.index, scope))
        if isinstance(array, Pointer):
            return array.index(index)
        if isinstance(array, (list, str)):
            return array[index]
        raise InterpreterError("subscript applied to a non-array value")

    def _eval_cast(self, node: ast.Cast, scope: Scope) -> Any:
        value = self._eval(node.operand, scope)
        type_name = node.type_name
        if isinstance(value, RawAllocation):
            return self._materialise_allocation(value, type_name)
        if "*" in type_name:
            return value
        if "double" in type_name or "float" in type_name:
            return float(value)
        if any(t in type_name for t in ("int", "long", "short", "char", "unsigned", "size_t")):
            return int(value)
        return value

    def _eval_sizeof(self, operand: ast.Node, scope: Scope) -> int:
        if isinstance(operand, ast.Identifier):
            name = operand.name.replace("*", " *").strip()
            base = name.replace("*", "").strip()
            if "*" in operand.name:
                return 8
            if base in C_TYPE_SIZES:
                return C_TYPE_SIZES[base]
            cell = scope.lookup(base)
            if cell is not None:
                return C_TYPE_SIZES.get(cell.c_type, 8)
            return 8
        value = self._eval(operand, scope)
        if isinstance(value, float):
            return 8
        if isinstance(value, list):
            return 8 * len(value)
        return 4

    # ----------------------------------------------------------------- lvalues

    def _lvalue(self, node: ast.Node, scope: Scope) -> Pointer:
        if isinstance(node, ast.Identifier):
            cell = scope.lookup(node.name)
            if cell is None:
                cell = scope.declare(node.name, 0, "int")
            return Pointer(cell)
        if isinstance(node, ast.ArraySubscript):
            array = self._eval(node.array, scope)
            index = int(self._eval(node.index, scope))
            if isinstance(array, Pointer):
                return Pointer(array.target, array.offset + index) \
                    if not isinstance(array.target, Cell) else Pointer(array.target)
            if isinstance(array, list):
                return Pointer(array, index)
            raise InterpreterError("cannot take an element reference of a non-array")
        if isinstance(node, ast.UnaryOp) and node.op == "*":
            value = self._eval(node.operand, scope)
            if isinstance(value, Pointer):
                return value
            if isinstance(value, list):
                return Pointer(value, 0)
            raise InterpreterError("cannot dereference a non-pointer value")
        if isinstance(node, ast.Parenthesized):
            return self._lvalue(node.inner, scope)
        raise InterpreterError(f"expression of kind {node.kind!r} is not assignable")

    def _address_of(self, node: ast.Node, scope: Scope) -> Pointer:
        return self._lvalue(node, scope)

    # ------------------------------------------------------------------- calls

    def _eval_call(self, node: ast.Call, scope: Scope) -> Any:
        name = node.callee_name
        if name is None:
            raise InterpreterError("indirect calls are not supported")

        if name.startswith("MPI_"):
            return self._call_mpi(name, node.args, scope)

        if name in self.functions:
            return self._call_user_function(self.functions[name], node.args, scope)

        return self._call_builtin(name, node.args, scope)

    def _call_mpi(self, name: str, args: list[ast.Node], scope: Scope) -> Any:
        handler = getattr(self.bindings, name, None)
        if handler is None:
            raise InterpreterError(f"MPI function {name} is not implemented by the simulator")
        values = [self._eval_mpi_arg(arg, scope) for arg in args]
        return handler(*values)

    def _eval_mpi_arg(self, node: ast.Node, scope: Scope) -> Any:
        # `&x` style output arguments need pointers; everything else evaluates
        # normally (arrays already evaluate to lists, which are by-reference).
        if isinstance(node, ast.UnaryOp) and node.op == "&":
            return self._address_of(node.operand, scope)
        return self._eval(node, scope)

    def _call_user_function(self, function: ast.FunctionDef, args: list[ast.Node],
                            scope: Scope) -> Any:
        if self._stop.is_set():
            raise RankStopped()
        call_scope = self.globals.child()
        for param, arg in zip(function.params, args):
            value = self._eval(arg, scope)
            call_scope.declare(param.name or "_", value, param.type_name)
        try:
            self._exec_block(function.body, call_scope)
        except _ReturnSignal as signal:
            return signal.value
        return 0

    def _call_builtin(self, name: str, args: list[ast.Node], scope: Scope) -> Any:
        evaluated = [self._eval(arg, scope) for arg in args]
        builtin = _BUILTINS.get(name)
        if builtin is not None:
            return builtin(self, evaluated)
        raise InterpreterError(f"unknown function {name!r}")

    # --------------------------------------------------------------- utilities

    @staticmethod
    def _truthy(value: Any) -> bool:
        if isinstance(value, (int, float)):
            return value != 0
        return bool(value)


def _apply_compound(current: Any, value: Any, operator: str) -> Any:
    if operator == "+":
        return current + value
    if operator == "-":
        return current - value
    if operator == "*":
        return current * value
    if operator == "/":
        if isinstance(current, int) and isinstance(value, int):
            return current // value
        return current / value
    if operator == "%":
        return current % value
    if operator == "&":
        return int(current) & int(value)
    if operator == "|":
        return int(current) | int(value)
    if operator == "^":
        return int(current) ^ int(value)
    if operator == "<<":
        return int(current) << int(value)
    if operator == ">>":
        return int(current) >> int(value)
    raise InterpreterError(f"unsupported compound assignment operator {operator!r}")


def _decode_c_string(literal: str) -> str:
    inner = literal
    if inner.startswith('"') and inner.endswith('"'):
        inner = inner[1:-1]
    return inner.encode().decode("unicode_escape")


# ------------------------------------------------------------------- builtins


def _builtin_printf(interp: CInterpreter, args: list) -> int:
    if not args:
        return 0
    fmt = args[0] if isinstance(args[0], str) else str(args[0])
    text = _format_c(fmt, args[1:])
    interp.context.stdout.append(text)
    return len(text)


def _builtin_fprintf(interp: CInterpreter, args: list) -> int:
    # Treat the first argument (stream) as ignorable.
    return _builtin_printf(interp, args[1:])


def _format_c(fmt: str, values: list) -> str:
    import re as _re

    python_fmt = _re.sub(r"%(-?\d*\.?\d*)l{1,2}([dufxe])", r"%\1\2", fmt)
    python_fmt = python_fmt.replace("%u", "%d").replace("%zu", "%d")
    cleaned = []
    for value in values:
        # A char buffer that received a string (e.g. MPI_Get_processor_name).
        if isinstance(value, list) and value and isinstance(value[0], str):
            value = value[0]
        cleaned.append(value)
    try:
        return python_fmt % tuple(cleaned)
    except (TypeError, ValueError):
        return python_fmt + " " + " ".join(str(v) for v in cleaned)


def _builtin_malloc(_interp: CInterpreter, args: list) -> RawAllocation:
    return RawAllocation(int(args[0]) if args else 0)


def _builtin_calloc(_interp: CInterpreter, args: list) -> RawAllocation:
    count = int(args[0]) if args else 0
    size = int(args[1]) if len(args) > 1 else 1
    return RawAllocation(count * size)


def _builtin_free(_interp: CInterpreter, _args: list) -> int:
    return 0

def _builtin_exit(_interp: CInterpreter, args: list) -> None:
    raise _AbortSignal(int(args[0]) if args else 0)


def _builtin_rand(interp: CInterpreter, _args: list) -> int:
    return interp.context.rand()


def _builtin_srand(interp: CInterpreter, args: list) -> int:
    interp.context.srand(int(args[0]) if args else 1)
    return 0


def _math_unary(fn: Callable[[float], float]) -> Callable[[CInterpreter, list], float]:
    def wrapper(_interp: CInterpreter, args: list) -> float:
        return float(fn(float(args[0])))
    return wrapper


def _builtin_pow(_interp: CInterpreter, args: list) -> float:
    return float(args[0]) ** float(args[1])


def _builtin_abs(_interp: CInterpreter, args: list) -> int:
    return abs(int(args[0]))


_BUILTINS: dict[str, Callable[[CInterpreter, list], Any]] = {
    "printf": _builtin_printf,
    "fprintf": _builtin_fprintf,
    "malloc": _builtin_malloc,
    "calloc": _builtin_calloc,
    "free": _builtin_free,
    "exit": _builtin_exit,
    "rand": _builtin_rand,
    "srand": _builtin_srand,
    "sqrt": _math_unary(math.sqrt),
    "fabs": _math_unary(abs),
    "sin": _math_unary(math.sin),
    "cos": _math_unary(math.cos),
    "tan": _math_unary(math.tan),
    "exp": _math_unary(math.exp),
    "log": _math_unary(math.log),
    "floor": _math_unary(math.floor),
    "ceil": _math_unary(math.ceil),
    "pow": _builtin_pow,
    "abs": _builtin_abs,
}
