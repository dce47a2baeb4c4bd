"""AllocSan: static allocation-shape analysis over the call graph.

``@o1`` bounds how *simulated* cost scales; this pass bounds what a
call *allocates on the real heap*.  A function's Python source is
classified into allocation shapes — list / dict / set / tuple displays,
comprehensions, generator expressions, nested ``def`` / ``lambda``
(closure objects), f-strings and string concatenation, slicing,
``*args`` / ``**kwargs`` call sites, materializing builtins
(``sorted``, ``zip``, ``list``, ``.items()``, ``.to_bytes()``, ...),
and resolved in-package constructor calls — and the shapes propagate
bottom-up through the same propagation as the cost summaries
(:class:`repro.lint.summaries.Propagation`, one subclass each), into the
lattice

    NONE < BOUNDED < PER_ELEMENT < UNBOUNDED

scaled by unbounded-loop nesting exactly like cost: a BOUNDED shape
inside one unbounded loop is PER_ELEMENT, deeper is UNBOUNDED, and a
loop's header (a ``for`` iterable, a comprehension's first iterable)
sits at the loop's enclosing depth, since it runs once.

Judgments:

``alloc-exceeds-declared``
    a function decorated ``@allocfree`` has a transitive summary above
    NONE, or ``@allocbound(n)`` above BOUNDED, with the witness chain
    down to the offending shape.
``alloc-undeclared-hot``
    a function reachable from one of the four hot access entries
    (``Kernel.access``, ``Kernel.access_range``, ``Cpu.access``,
    ``Tlb.lookup``) is neither declared nor allocation-free.
``alloc-control-missing``
    the planted mislabeled control was not flagged — the pass itself
    is broken.

Deliberate blind spots, by policy: CPython arithmetic boxing (every
``a + b`` on large ints allocates; unfixable at this layer) and
attribute-call allocation outside the curated builtin list.  The
empirical cross-check (:mod:`repro.lint.allocfit`) covers the gap: it
re-runs the certified ops under ``tracemalloc`` and fails on net
steady-state growth, so a static certificate cannot quietly lie.

Every finding fails the gate; a justified inline ``# alloc: allow``
comment plus the parenthesized rule, on the flagged line or alone on
the line above it, is the only escape — a separate namespace from
``# o1: allow`` so one pass's suppressions never mask the other's.
Shape-kind names double as rules, ``cold-call`` marks a call site off
the steady state (fault recovery, TLB refill, traced mode) and
excludes it from both the caller's summary and the hot-closure walk,
and stale alloc suppressions are findings like stale o1 ones.  Shapes
inside ``raise`` statements and ``except`` handler bodies are excused
automatically: error paths are terminal, not steady state.

Findings, stale suppressions, the planted-control split and both
verdicts (a declaration exceeded, an undeclared function in the hot
closure) are :mod:`repro.lint.flow`'s, shared with that pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.lint.astcheck import (
    AllowMap,
    _is_constant_bounded,
    _LoopNode,
    loop_parts,
)
from repro.lint.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    build_callgraph,
    resolve_class_name,
)
from repro.lint.flow import (
    Finding,
    StaleSuppression,
    closure_findings,
    exceeds_findings,
    split_controls,
    stale_suppressions,
)
from repro.lint.summaries import RULE_BOUNDED, Propagation, Walk, Witness

RULE_ALLOC_EXCEEDS = "alloc-exceeds-declared"
RULE_ALLOC_HOT = "alloc-undeclared-hot"
RULE_ALLOC_CONTROL_MISSING = "alloc-control-missing"
#: Suppression-only: marks a call site cold (fault / refill / traced
#: path) — excluded from the caller's summary and the hot-closure walk.
RULE_COLD_CALL = "cold-call"

_ALLOC_EXCEEDS = "declared {declared} but the call graph reaches {level}"
_ALLOC_HOT = (
    "reachable from hot access entry {entry} with {level} but no "
    "@allocfree/@allocbound declaration"
)

#: Planted controls the pass must flag on every run (function, rule).
ALLOC_CONTROLS: Tuple[Tuple[str, str], ...] = (
    (
        "repro.lint.controls.control_allocfree_hidden_comprehension",
        RULE_ALLOC_EXCEEDS,
    ),
)

#: The four hot access entries whose reachable closure must be declared
#: or allocation-free — the per-access paths the paper's O(1) claim
#: lives or dies on.
HOT_ENTRY_METHODS: Tuple[Tuple[str, str], ...] = (
    ("Kernel", "access"),
    ("Kernel", "access_range"),
    ("Cpu", "access"),
    ("Tlb", "lookup"),
)

#: Builtins (and stdlib container constructors) whose call materializes
#: a new object.  ``int`` / ``float`` / ``bool`` are deliberately
#: absent: arithmetic boxing is outside the contract.
_BOXING_BUILTINS = frozenset(
    {
        "list",
        "dict",
        "set",
        "tuple",
        "frozenset",
        "sorted",
        "zip",
        "enumerate",
        "map",
        "filter",
        "reversed",
        "range",
        "iter",
        "bytes",
        "bytearray",
        "memoryview",
        "str",
        "repr",
        "format",
        "hex",
        "bin",
        "oct",
        "divmod",
        "vars",
        "dir",
        "OrderedDict",
        "defaultdict",
        "deque",
        "Counter",
        "namedtuple",
    }
)

#: Method names whose call returns a fresh container / string.
#: Curated for precision over recall: mutators that return None
#: (``append``, ``move_to_end``, ``update``) and transient-pair
#: returns (``popitem``) stay out; allocfit catches what this misses.
_BOXING_ATTRS = frozenset(
    {
        "to_bytes",
        "from_bytes",
        "items",
        "keys",
        "values",
        "split",
        "rsplit",
        "splitlines",
        "partition",
        "rpartition",
        "join",
        "copy",
        "deepcopy",
        "most_common",
        "decode",
        "encode",
        "format",
        "format_map",
        "ljust",
        "rjust",
        "zfill",
        "replace",
        "strip",
        "lstrip",
        "rstrip",
        "upper",
        "lower",
        "union",
        "intersection",
        "difference",
        "symmetric_difference",
        "tolist",
        "readlines",
    }
)


class AllocClass(IntEnum):
    """Per-call allocation lattice; comparison is growth order."""

    NONE = 0
    BOUNDED = 1
    PER_ELEMENT = 2
    UNBOUNDED = 3

    @property
    def label(self) -> str:
        return _ALLOC_LABEL[self]


_ALLOC_LABEL = {
    AllocClass.NONE: "allocation-free",
    AllocClass.BOUNDED: "bounded allocation",
    AllocClass.PER_ELEMENT: "per-element allocation",
    AllocClass.UNBOUNDED: "unbounded allocation",
}


def _scale(klass: AllocClass, depth: int) -> AllocClass:
    """Allocation of ``depth`` nested unbounded loops around ``klass``."""
    if klass is AllocClass.NONE or depth == 0:
        return klass
    if depth == 1:
        if klass is AllocClass.BOUNDED:
            return AllocClass.PER_ELEMENT
        return AllocClass.UNBOUNDED
    return AllocClass.UNBOUNDED


def alloc_declared_bound(func: FunctionNode) -> Optional[int]:
    """Syntactic ``@allocfree`` / ``@allocbound`` match on a definition.

    Mirrors :func:`repro.lint.astcheck.declared_class_of`: the static
    pass never imports analyzed code, it reads the decorator spelling.
    Returns the declared per-call bound (0 for allocfree, the argument
    or -1 for allocbound), or None when undeclared.
    """
    for deco in func.node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            name = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        else:
            continue
        if name == "allocfree":
            return 0
        if name == "allocbound":
            if isinstance(deco, ast.Call) and deco.args:
                first = deco.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, int
                ):
                    return first.value
            return -1
    return None


# ---------------------------------------------------------------------------
# Per-function shape classification
# ---------------------------------------------------------------------------
def _render(node: ast.AST, limit: int = 48) -> str:
    try:
        return ast.unparse(node)[:limit]
    except Exception:  # pragma: no cover
        return "..."


class _Classifier:
    """One function body -> allocation shapes + call-site geometry."""

    def __init__(
        self, graph: CallGraph, func: FunctionNode, allowed: AllowMap
    ) -> None:
        self.graph = graph
        self.func = func
        self.allowed = allowed
        self.info = graph.modules.get(func.module)
        self.out: Walk[AllocClass] = Walk()

    def run(self) -> Walk[AllocClass]:
        for stmt in self.func.node.body:
            self._visit(stmt, depth=0, cold=False)
        return self.out

    # -- helpers -------------------------------------------------------
    def _add(
        self, kind: str, node: ast.AST, detail: str, depth: int, klass: AllocClass
    ) -> None:
        line = getattr(node, "lineno", self.func.lineno)
        if self.allowed.allow(self.allowed.lines_for(line), kind):
            return
        scaled = _scale(klass, depth)
        if depth and scaled is not klass:
            detail += " inside an unbounded loop"
        self.out.own.append((scaled, Witness("shape", line, detail)))

    def _loop_bounded(self, loop: _LoopNode) -> bool:
        """Constant-bounded for scaling purposes.

        Reuses the o1 allow map *read-only* (``match``, never
        ``allow``): an ``# o1: allow(flow-bounded)`` comment is a
        human-verified bound, and reading it here must not perturb the
        o1 pass's stale-suppression accounting.
        """
        if _is_constant_bounded(loop):
            return True
        o1_map = self.graph.allow_maps[self.func.path]
        lines = [*o1_map.lines_for(loop.lineno), self.func.lineno]
        return o1_map.match(lines, RULE_BOUNDED) is not None

    def _visit_loop(self, loop: _LoopNode, depth: int, cold: bool) -> None:
        """The header once at ``depth``, the rest per iteration."""
        header, per_iteration = loop_parts(loop)
        if header is not None:
            self._visit(header, depth, cold)
        inner = depth if self._loop_bounded(loop) else depth + 1
        for child in per_iteration:
            self._visit(child, inner, cold)

    def _ctor_target(self, call: ast.Call) -> Optional[str]:
        """Class id when ``call`` constructs an in-package class."""
        if self.info is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            dotted = func.id
        elif isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            dotted = f"{func.value.id}.{func.attr}"
        else:
            return None
        return resolve_class_name(self.graph, dotted, self.info)

    def _classify_call(self, node: ast.Call, depth: int) -> None:
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            self._add(
                "star-args",
                node,
                f"call {_render(node.func)}(...) packs *args/**kwargs",
                depth,
                AllocClass.BOUNDED,
            )
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in _BOXING_BUILTINS:
                self._add(
                    "boxing-call",
                    node,
                    f"{name}(...) materializes a new object",
                    depth,
                    AllocClass.BOUNDED,
                )
                return
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr in _BOXING_ATTRS:
                self._add(
                    "boxing-call",
                    node,
                    f".{node.func.attr}() materializes a new object",
                    depth,
                    AllocClass.BOUNDED,
                )
                return
        cid = self._ctor_target(node)
        if cid is not None:
            self._add(
                "ctor",
                node,
                f"constructs {self.graph.classes[cid].name}",
                depth,
                AllocClass.BOUNDED,
            )

    # -- walk ----------------------------------------------------------
    def _visit_fstring_calls(self, node: ast.AST, depth: int) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self.out.call_depth[id(sub)] = depth

    def _visit(self, node: ast.AST, depth: int, cold: bool) -> None:
        if isinstance(node, (ast.Raise, ast.Assert)):
            # Terminal error paths: the calls they carry are cold.
            return
        if isinstance(node, ast.ExceptHandler):
            for child in node.body:
                self._visit(child, depth, cold=True)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if not cold:
                self._add(
                    "closure",
                    node,
                    "nested def/lambda creates a function object per call",
                    depth,
                    AllocClass.BOUNDED,
                )
            # The nested body is its own scope; calls inside run when
            # the closure does, which this pass does not model.
            return
        if isinstance(node, ast.Call):
            if not cold:
                self.out.call_depth[id(node)] = depth
                self._classify_call(node, depth)
            for child in ast.iter_child_nodes(node):
                self._visit(child, depth, cold)
            return
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            self._visit_loop(node, depth, cold)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            if not cold:
                bounded = self._loop_bounded(node)
                klass = AllocClass.BOUNDED if bounded else AllocClass.PER_ELEMENT
                self._add(
                    "comprehension",
                    node,
                    f"comprehension {_render(node)}",
                    depth,
                    klass,
                )
            self._visit_loop(node, depth, cold)
            return
        if isinstance(node, ast.GeneratorExp):
            if not cold:
                self._add(
                    "genexp",
                    node,
                    f"generator expression {_render(node)}",
                    depth,
                    AllocClass.BOUNDED,
                )
            self._visit_loop(node, depth, cold)
            return
        if isinstance(node, ast.JoinedStr):
            if not cold:
                self._add(
                    "fstring",
                    node,
                    f"f-string {_render(node)}",
                    depth,
                    AllocClass.BOUNDED,
                )
                self._visit_fstring_calls(node, depth)
            return
        if not cold:
            if isinstance(node, ast.List) and isinstance(node.ctx, ast.Load):
                self._add(
                    "list-display", node, f"list {_render(node)}", depth,
                    AllocClass.BOUNDED,
                )
            elif isinstance(node, ast.Set):
                self._add(
                    "set-display", node, f"set {_render(node)}", depth,
                    AllocClass.BOUNDED,
                )
            elif isinstance(node, ast.Dict):
                self._add(
                    "dict-display", node, f"dict {_render(node)}", depth,
                    AllocClass.BOUNDED,
                )
            elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
                # All-constant tuples are folded at compile time.
                if not all(isinstance(el, ast.Constant) for el in node.elts):
                    self._add(
                        "tuple-display", node, f"tuple {_render(node)}", depth,
                        AllocClass.BOUNDED,
                    )
            elif isinstance(node, ast.BinOp):
                str_side = any(
                    isinstance(side, ast.JoinedStr)
                    or (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, str)
                    )
                    for side in (node.left, node.right)
                )
                if isinstance(node.op, ast.Add) and str_side:
                    self._add(
                        "str-concat", node,
                        f"string concatenation {_render(node)}", depth,
                        AllocClass.BOUNDED,
                    )
                elif isinstance(node.op, ast.Mod) and isinstance(
                    node.left, ast.Constant
                ) and isinstance(node.left.value, str):
                    self._add(
                        "str-concat", node,
                        f"%-formatting {_render(node)}", depth,
                        AllocClass.BOUNDED,
                    )
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Slice)
                and isinstance(node.ctx, ast.Load)
            ):
                self._add(
                    "slice", node, f"slice {_render(node)}", depth,
                    AllocClass.BOUNDED,
                )
        for child in ast.iter_child_nodes(node):
            self._visit(child, depth, cold)


# ---------------------------------------------------------------------------
# Interprocedural propagation
# ---------------------------------------------------------------------------
class AllocTable(Propagation[AllocClass]):
    """Allocation summaries; ``cold-call`` allows cut call sites, and
    calls on error paths are never charged (cold by construction)."""

    bottom = AllocClass.NONE
    top = AllocClass.UNBOUNDED
    cycle_note = "alloc-undeclared"

    def __init__(self, graph: CallGraph) -> None:
        self.declared: Dict[str, int] = {}
        for fid, func in graph.functions.items():
            bound = alloc_declared_bound(func)
            if bound is not None:
                self.declared[fid] = bound
        super().__init__(graph, graph.alloc_allow_maps)

    def label(self, level: AllocClass) -> str:
        return level.label

    def scale(self, level: AllocClass, depth: int) -> AllocClass:
        return _scale(level, depth)

    def declared_level(self, fid: str) -> Optional[AllocClass]:
        bound = self.declared.get(fid)
        if bound is None:
            return None
        return AllocClass.NONE if bound == 0 else AllocClass.BOUNDED

    def declared_text(self, fid: str) -> str:
        bound = self.declared[fid]
        return "@allocfree" if bound == 0 else f"@allocbound({bound})"

    def _walk(self, func: FunctionNode) -> Walk[AllocClass]:
        return _Classifier(self.graph, func, self.allows[func.path]).run()

    def _excuse_line(self, func: FunctionNode, site: CallSite) -> Optional[int]:
        allowed = self.allows[func.path]
        return allowed.match(allowed.lines_for(site.line), RULE_COLD_CALL)


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------
@dataclass
class AllocResult:
    """Everything ``lint --alloc`` reports."""

    findings: List[Finding]
    controls_verified: List[Finding]
    stale_suppressions: List[StaleSuppression]
    entries: List[str]
    hot_reachable: int
    declared_allocfree: int
    declared_allocbound: int
    files: int
    functions: int
    graph: CallGraph = field(repr=False)
    table: AllocTable = field(repr=False)


def hot_entry_points(graph: CallGraph) -> List[str]:
    """The four hot access entries, resolved to function ids."""
    wanted = set(HOT_ENTRY_METHODS)
    entries: List[str] = []
    for klass in sorted(graph.classes.values(), key=lambda k: k.cid):
        for name, fid in sorted(klass.methods.items()):
            if (klass.name, name) in wanted:
                entries.append(fid)
    return entries


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
def run_alloc(
    root: Path,
    package: str = "repro",
    graph: Optional[CallGraph] = None,
) -> AllocResult:
    """Run AllocSan over the package at ``root``.

    Pass ``graph`` to share the call graph with the o1 pass in the same
    invocation instead of parsing the tree twice; its ``# alloc: allow``
    maps were read when it was built.
    """
    if graph is None:
        graph = build_callgraph(root, package)
    table = AllocTable(graph)
    entries = hot_entry_points(graph)
    declared_free = sum(1 for b in table.declared.values() if b == 0)
    hot_findings, hot_reachable = closure_findings(
        table, entries, RULE_ALLOC_HOT, _ALLOC_HOT
    )
    findings = exceeds_findings(table, RULE_ALLOC_EXCEEDS, _ALLOC_EXCEEDS) + hot_findings
    findings, verified = split_controls(
        findings, ALLOC_CONTROLS, RULE_ALLOC_CONTROL_MISSING, "alloc"
    )
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.function))
    stale = stale_suppressions(graph.alloc_allow_maps, "alloc")
    return AllocResult(
        findings=findings,
        controls_verified=verified,
        stale_suppressions=stale,
        entries=entries,
        hot_reachable=hot_reachable,
        declared_allocfree=declared_free,
        declared_allocbound=len(table.declared) - declared_free,
        files=graph.files_parsed,
        functions=len(graph.functions),
        graph=graph,
        table=table,
    )
