"""Summary-based forward taint propagation over the call graph.

Each function gets a :class:`Summary`: which *tokens* its return value
(or yielded values) may carry, and which of its parameters flow into a
user-facing sink unsanitized.  Tokens are either :data:`SOURCE` (raw
backend/evaluation data) or a parameter index; summaries are joined to
a fixpoint with a worklist, so taint crosses function boundaries in
both directions — a function returning its tainted argument and a
function sinking its parameter are both visible to every caller.

Propagation is deliberately conservative-but-closed-world:

* attribute access, subscripting, tuple/list packing, comprehensions
  and the registered repackaging builtins *preserve* taint;
* constructors of project classes preserve the union of their argument
  taints (wrapping rows in a ``Relation`` does not launder them) —
  except registered sink envelopes, whose results are clean because
  their checked payload was verified on the way in;
* calls that cannot be resolved in the closed world *drop* taint; they
  are recorded as unresolved (``--graph``) rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis import registry
from repro.analysis.flow.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    Resolution,
)
from repro.analysis.framework import Violation

#: The taint token for raw backend/evaluation data.
SOURCE = "source"

#: A taint token: :data:`SOURCE` or a parameter index.
Token = Union[int, str]

TokenSet = FrozenSet[Token]

_EMPTY: TokenSet = frozenset()


@dataclass(frozen=True)
class Summary:
    """What a function does with taint, from a caller's viewpoint."""

    returns: TokenSet = _EMPTY
    sink_params: FrozenSet[int] = frozenset()


@dataclass
class SinkHit:
    """A tainted value reaching a checked sink argument."""

    function: FunctionInfo
    node: ast.AST
    description: str
    tokens: TokenSet


@dataclass
class _BodyResult:
    returns: Set[Token] = field(default_factory=set)
    sink_params: Set[int] = field(default_factory=set)
    hits: List[SinkHit] = field(default_factory=list)


class TaintAnalysis:
    """The SL010 fixpoint: summaries, then violations."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, Summary] = {}
        self.violations: List[Violation] = []
        self._sources: FrozenSet[str] = registry.TAINT_SOURCES
        self._sanitizers: FrozenSet[str] = registry.TAINT_SANITIZERS
        self._sinks = registry.TAINT_SINKS
        self._sink_methods = registry.TAINT_SINK_METHODS
        self._yield_types = registry.TAINT_YIELD_TYPES
        self._preserving = registry.TAINT_PRESERVING_CALLS
        self._callers: Dict[str, Set[str]] = {}
        self._types: Dict[str, Dict[str, ClassInfo]] = {}

    # -- driver --------------------------------------------------------

    def run(self) -> List[Violation]:
        functions = list(self.graph.functions.values())
        for fn in functions:
            self.summaries[fn.qualname] = Summary()
        # First full pass records the caller map for the worklist.
        worklist: List[str] = []
        for fn in functions:
            if self._update(fn):
                worklist.append(fn.qualname)
        rounds = 0
        while worklist and rounds < 50_000:
            rounds += 1
            qual = worklist.pop()
            for caller in sorted(self._callers.get(qual, ())):
                fn = self.graph.functions[caller]
                if self._update(fn) and caller not in worklist:
                    worklist.append(caller)
        # Summaries are stable; one reporting pass collects the hits.
        hits: List[SinkHit] = []
        for fn in functions:
            hits.extend(self._analyze(fn).hits)
        self.violations = [self._violation(h) for h in hits]
        return self.violations

    def _update(self, fn: FunctionInfo) -> bool:
        result = self._analyze(fn)
        old = self.summaries[fn.qualname]
        returns: TokenSet = frozenset(result.returns)
        if fn.qualname in self._sources:
            returns = frozenset({SOURCE})
        elif fn.qualname in self._sanitizers:
            returns = _EMPTY
        new = Summary(returns=returns,
                      sink_params=frozenset(result.sink_params))
        if new == old:
            return False
        self.summaries[fn.qualname] = new
        return True

    def _violation(self, hit: SinkHit) -> Violation:
        line = getattr(hit.node, "lineno", 1)
        return Violation(
            "SL010", hit.function.source.relative, line,
            f"unmasked backend/evaluation data reaches {hit.description}"
            f" in {hit.function.qualname}; route the value through a"
            f" registered mask application (registry.TAINT_SANITIZERS)"
            f" or suppress with a justification",
        )

    # -- per-function analysis -----------------------------------------

    def _analyze(self, fn: FunctionInfo) -> _BodyResult:
        types = self._types.get(fn.qualname)
        if types is None:
            types = self.graph.local_types(fn)
            self._types[fn.qualname] = types
        frame = _Frame(self, fn, types)
        return frame.run()

    def summary_for(self, qual: str) -> Summary:
        return self.summaries.get(qual, Summary())

    def note_call(self, caller: str, callee: str) -> None:
        self._callers.setdefault(callee, set()).add(caller)


class _Frame:
    """One flow-insensitive pass over a single function body."""

    def __init__(self, analysis: TaintAnalysis, fn: FunctionInfo,
                 types: Dict[str, ClassInfo]) -> None:
        self.analysis = analysis
        self.graph = analysis.graph
        self.fn = fn
        self.types = types
        self.env: Dict[str, Set[Token]] = {
            name: {index} for index, name in enumerate(fn.params)
        }
        self.result = _BodyResult()
        self.is_yield_sink = any(
            marker in fn.returns_text
            for marker in analysis._yield_types
        )
        #: Sink hits are only recorded once the env has stabilized,
        #: so the fixpoint iterations don't duplicate them.
        self._collect = False

    def run(self) -> _BodyResult:
        for _ in range(8):
            before = {k: set(v) for k, v in self.env.items()}
            for stmt in self.fn.node.body:
                self._stmt(stmt)
            if self.env == before:
                break
        self._collect = True
        for stmt in self.fn.node.body:
            self._stmt(stmt)
        return self.result

    # -- statements ----------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are separate functions
        if isinstance(stmt, ast.Assign):
            tokens = self._taint(stmt.value)
            for target in stmt.targets:
                self._bind(target, tokens)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._taint(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            tokens = self._taint(stmt.value)
            if isinstance(stmt.target, ast.Name):
                tokens = tokens | self.env.get(stmt.target.id, set())
            self._bind(stmt.target, tokens)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.result.returns |= self._taint(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._taint(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self._taint(stmt.iter))
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.If)):
            self._taint(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tokens = self._taint(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, tokens)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._taint(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._taint(stmt.test)
        elif isinstance(stmt, (ast.Match,)):
            self._taint(stmt.subject)
            for case in stmt.cases:
                self._block(case.body)

    def _block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _bind(self, target: ast.expr, tokens: Set[Token]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, set()) | tokens
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, tokens)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tokens)
        # Attribute/subscript stores would need a heap model; skipped.

    # -- expressions ---------------------------------------------------

    def _taint(self, expr: Optional[ast.expr]) -> Set[Token]:
        if expr is None:
            return set()
        if isinstance(expr, ast.Name):
            return set(self.env.get(expr.id, set()))
        if isinstance(expr, ast.Attribute):
            return self._taint(expr.value)
        if isinstance(expr, ast.Subscript):
            return self._taint(expr.value) | self._taint(expr.slice)
        if isinstance(expr, ast.Starred):
            return self._taint(expr.value)
        if isinstance(expr, ast.Await):
            return self._taint(expr.value)
        if isinstance(expr, ast.NamedExpr):
            tokens = self._taint(expr.value)
            self._bind(expr.target, tokens)
            return tokens
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            tokens: Set[Token] = set()
            for element in expr.elts:
                tokens |= self._taint(element)
            return tokens
        if isinstance(expr, ast.Dict):
            tokens = set()
            for key in expr.keys:
                if key is not None:
                    tokens |= self._taint(key)
            for value in expr.values:
                tokens |= self._taint(value)
            return tokens
        if isinstance(expr, ast.IfExp):
            self._taint(expr.test)
            return self._taint(expr.body) | self._taint(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            tokens = set()
            for value in expr.values:
                tokens |= self._taint(value)
            return tokens
        if isinstance(expr, ast.BinOp):
            return self._taint(expr.left) | self._taint(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self._taint(expr.operand)
        if isinstance(expr, ast.Compare):
            self._taint(expr.left)
            for comparator in expr.comparators:
                self._taint(comparator)
            return set()
        if isinstance(expr, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self._comprehension(
                [expr.elt], expr.generators)
        if isinstance(expr, ast.DictComp):
            return self._comprehension(
                [expr.key, expr.value], expr.generators)
        if isinstance(expr, (ast.Yield, ast.YieldFrom)):
            tokens = self._taint(expr.value)
            self.result.returns |= tokens
            if self.is_yield_sink:
                self._check_sink(
                    tokens, expr,
                    "a user-delivered chunk yield")
            return set()
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Lambda):
            return set()
        if isinstance(expr, ast.JoinedStr):
            return set()
        return set()

    def _comprehension(self, elements: Sequence[ast.expr],
                       generators: Sequence[ast.comprehension],
                       ) -> Set[Token]:
        for generator in generators:
            iter_tokens = self._taint(generator.iter)
            self._bind(generator.target, iter_tokens)
            for condition in generator.ifs:
                self._taint(condition)
        tokens: Set[Token] = set()
        for element in elements:
            tokens |= self._taint(element)
        return tokens

    # -- calls ---------------------------------------------------------

    def _call(self, call: ast.Call) -> Set[Token]:
        # Delivery methods are sinks regardless of receiver type
        # (futures are stdlib, outside the closed world).
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in self.analysis._sink_methods:
            self._taint(call.func.value)
            for arg in call.args:
                self._check_sink(
                    self._taint(arg), call,
                    f"a client delivery call .{call.func.attr}(...)")
            for keyword in call.keywords:
                self._check_sink(
                    self._taint(keyword.value), call,
                    f"a client delivery call .{call.func.attr}(...)")
            return set()
        resolution = self.graph.resolve_call(
            call, self.types, self.fn.module)
        if resolution.kind == "function" and \
                resolution.function is not None:
            return self._function_call(call, resolution)
        if resolution.kind == "class" and resolution.cls is not None:
            return self._constructor_call(call, resolution.cls)
        # Builtins and unresolved calls: evaluate arguments for their
        # side effects on the env, then drop or preserve taint.
        tokens: Set[Token] = set()
        for arg in call.args:
            tokens |= self._taint(arg)
        for keyword in call.keywords:
            tokens |= self._taint(keyword.value)
        name = ""
        if isinstance(call.func, ast.Name):
            name = call.func.id
        elif isinstance(call.func, ast.Attribute):
            name = call.func.attr
            self._taint(call.func.value)
        if name in self.analysis._preserving:
            return tokens
        return set()

    def _function_call(self, call: ast.Call,
                       resolution: Resolution) -> Set[Token]:
        callee = resolution.function
        assert callee is not None
        self.analysis.note_call(self.fn.qualname, callee.qualname)
        qual = callee.qualname
        bound = self._bind_arguments(call, callee, resolution.receiver)
        arg_taints: Dict[int, Set[Token]] = {
            index: self._taint(arg) for index, arg in bound.items()
        }
        if qual in self.analysis._sanitizers:
            return set()
        if qual in self.analysis._sources:
            return {SOURCE}
        summary = self.analysis.summary_for(qual)
        for index in summary.sink_params:
            tokens = arg_taints.get(index, set())
            self._check_sink(
                tokens, call,
                f"parameter {callee.params[index]!r} of"
                f" {qual} (which forwards it to a sink)",
            )
        tokens = set()
        for token in summary.returns:
            if token == SOURCE:
                tokens.add(SOURCE)
            elif isinstance(token, int):
                tokens |= arg_taints.get(token, set())
        return tokens

    def _constructor_call(self, call: ast.Call,
                          cls: ClassInfo) -> Set[Token]:
        self.analysis.note_call(self.fn.qualname, cls.qualname)
        sink = self.analysis._sinks.get(cls.qualname)
        if sink is None:
            tokens: Set[Token] = set()
            for arg in call.args:
                tokens |= self._taint(arg)
            for keyword in call.keywords:
                tokens |= self._taint(keyword.value)
            return tokens
        # Sink envelope: check the named parameters, return clean.
        names = self._constructor_params(cls)
        for index, arg in enumerate(call.args):
            arg_tokens = self._taint(arg)
            name = names[index] if index < len(names) else f"#{index}"
            if sink.params is None or name in sink.params:
                self._check_sink(
                    arg_tokens, call,
                    f"sink {cls.name}({name}=...)")
        for keyword in call.keywords:
            arg_tokens = self._taint(keyword.value)
            if keyword.arg is None:
                continue
            if sink.params is None or keyword.arg in sink.params:
                self._check_sink(
                    arg_tokens, call,
                    f"sink {cls.name}({keyword.arg}=...)")
        return set()

    def _constructor_params(self, cls: ClassInfo) -> Tuple[str, ...]:
        init = self.graph.lookup_method(cls, "__init__")
        if init is not None and len(init.params) > 1:
            return init.params[1:]
        return cls.field_order

    def _bind_arguments(self, call: ast.Call, callee: FunctionInfo,
                        receiver: Optional[ast.expr],
                        ) -> Dict[int, ast.expr]:
        bound: Dict[int, ast.expr] = {}
        offset = 0
        if receiver is not None and callee.is_method:
            bound[0] = receiver
            offset = 1
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                self._taint(arg)
                continue
            bound[position + offset] = arg
        params = list(callee.params)
        for keyword in call.keywords:
            if keyword.arg is None:
                self._taint(keyword.value)
                continue
            if keyword.arg in params:
                bound[params.index(keyword.arg)] = keyword.value
        return bound

    # -- sinks ---------------------------------------------------------

    def _check_sink(self, tokens: Set[Token], node: ast.AST,
                    description: str) -> None:
        if SOURCE in tokens and self._collect:
            self.result.hits.append(SinkHit(
                function=self.fn, node=node,
                description=description,
                tokens=frozenset(tokens),
            ))
        for token in tokens:
            if isinstance(token, int):
                self.result.sink_params.add(token)
