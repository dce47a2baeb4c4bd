"""Syntactic call graph over a package tree, for interprocedural lint.

The graph is built without importing the analyzed code: every module
under the package root is read, parsed and tokenized once (its comment
tokens fill the ``# o1: allow`` and ``# alloc: allow`` maps), functions
and classes are registered under module-qualified names, and each call
expression is resolved to its possible targets with a deliberately
conservative, type-hint-assisted resolver:

* plain names resolve through the module's own defs and its imports
  (``from repro.vm.addrspace import AddressSpace`` makes ``AddressSpace``
  a constructor call);
* ``self.m()`` / ``cls.m()`` resolve through the enclosing class's MRO
  (in-package bases only) plus every in-package subclass override, so
  virtual dispatch contributes its worst case;
* ``obj.m()`` resolves when the receiver's class is recoverable from a
  parameter annotation, an annotated assignment, a constructor call, a
  module-level singleton assignment, a defaulting conditional
  (``x if x is not None else X()``), an attribute whose type was pinned
  in ``__init__``, or a property/method return annotation;
* as a last resort, an attribute call whose method name is defined by
  exactly one class in the package resolves there (never for common
  container-protocol names like ``get`` or ``append``).

Anything else stays an *unresolved* site: the cost analysis treats it as
free (the coverage gate is what forces hot-path code into the resolved
world) and the protocol checkers fall back to matching the raw attribute
name against their primitive sets, so an invalidation through an
untyped handle still counts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.astcheck import (
    AllowMap,
    FuncDef,
    allow_maps,
    declared_class_of,
    module_name_for,
)
from repro.lint.decorators import ComplexityClass

#: Attribute names that belong to builtin container/string protocols;
#: the unique-method fallback never fires for these, no matter how few
#: classes define them, because the receiver is far more likely a dict
#: or a list than the one in-package class that happens to share the
#: name.
_COMMON_ATTRS = frozenset(
    {
        "add",
        "append",
        "clear",
        "copy",
        "count",
        "decode",
        "discard",
        "encode",
        "endswith",
        "extend",
        "format",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "split",
        "startswith",
        "strip",
        "update",
        "values",
    }
)

#: Typing constructs unwrapped (``Optional[X]`` -> ``X``) or skipped
#: when reading annotations.
_OPTIONAL_NAMES = frozenset({"Optional"})


@dataclass
class FunctionNode:
    """One function or method definition in the analyzed package."""

    fid: str
    module: str
    qualname: str
    name: str
    path: str
    lineno: int
    node: FuncDef = field(repr=False)
    owner: Optional[str]
    declared: Optional[ComplexityClass]

    @property
    def function(self) -> str:
        """Fully qualified dotted name (``module.qualname``)."""
        return self.fid


@dataclass
class ClassNode:
    """One class definition plus the type facts mined from it."""

    cid: str
    module: str
    name: str
    lineno: int
    bases_raw: List[str] = field(default_factory=list)
    base_ids: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    return_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    col: int
    raw: str
    attr: Optional[str]
    targets: Tuple[str, ...]
    node: ast.Call = field(repr=False)

    @property
    def resolved(self) -> bool:
        return bool(self.targets)


@dataclass
class _ModuleInfo:
    module: str
    path: str
    tree: ast.Module = field(repr=False)
    is_package: bool
    imports: Dict[str, str] = field(default_factory=dict)


class CallGraph:
    """Functions, classes, and resolved call edges for one package."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        #: path -> ``# o1: allow`` / ``# alloc: allow`` map, both read
        #: from one tokenize of the file.
        self.allow_maps: Dict[str, AllowMap] = {}
        self.alloc_allow_maps: Dict[str, AllowMap] = {}
        self.modules: Dict[str, _ModuleInfo] = {}
        #: module -> {global name -> class id} for module-level singletons
        #: (``_machine = Machine(...)``); consulted when a local name has
        #: no binding in the function's own environment.
        self.module_globals: Dict[str, Dict[str, str]] = {}
        self.files_parsed = 0
        self.sites_total = 0
        self.sites_resolved = 0
        self._class_by_simple: Dict[str, List[str]] = {}
        self._method_index: Dict[str, List[str]] = {}
        self._subclasses: Dict[str, List[str]] = {}

    # -- queries -------------------------------------------------------
    def callees(self, fid: str) -> Iterator[str]:
        """Every resolved target reachable in one hop from ``fid``."""
        for site in self.calls.get(fid, ()):
            yield from site.targets

    def mro(self, cid: str) -> List[str]:
        """In-package linearization: the class, then bases depth-first."""
        seen: List[str] = []
        stack = [cid]
        while stack:
            current = stack.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.append(current)
            stack.extend(self.classes[current].base_ids)
        return seen

    def lookup_method(self, cid: str, name: str) -> Optional[str]:
        """Resolve ``name`` on ``cid`` through the in-package MRO."""
        for klass in self.mro(cid):
            fid = self.classes[klass].methods.get(name)
            if fid is not None:
                return fid
        return None

    def override_targets(self, cid: str, name: str) -> List[str]:
        """MRO hit plus every in-package subclass override of ``name``."""
        targets: List[str] = []
        primary = self.lookup_method(cid, name)
        if primary is not None:
            targets.append(primary)
        stack = list(self._subclasses.get(cid, ()))
        while stack:
            sub = stack.pop()
            stack.extend(self._subclasses.get(sub, ()))
            fid = self.classes[sub].methods.get(name)
            if fid is not None and fid not in targets:
                targets.append(fid)
        return targets

    def lookup_attr_type(self, cid: str, name: str) -> Optional[str]:
        for klass in self.mro(cid):
            hit = self.classes[klass].attr_types.get(name)
            if hit is not None:
                return hit
        return None

    def lookup_return_type(self, cid: str, name: str) -> Optional[str]:
        for klass in self.mro(cid):
            hit = self.classes[klass].return_types.get(name)
            if hit is not None:
                return hit
        return None

    def methods_named(self, name: str) -> List[str]:
        return list(self._method_index.get(name, ()))

    # -- dot export ----------------------------------------------------
    def to_dot(self) -> str:
        """Graphviz rendering: modules as clusters, declared nodes boxed."""
        lines = ["digraph callgraph {", "  rankdir=LR;", "  node [fontsize=9];"]
        by_module: Dict[str, List[FunctionNode]] = {}
        for info in self.functions.values():
            by_module.setdefault(info.module, []).append(info)
        for index, (module, funcs) in enumerate(sorted(by_module.items())):
            lines.append(f'  subgraph "cluster_{index}" {{')
            lines.append(f'    label="{module}";')
            for info in sorted(funcs, key=lambda f: f.lineno):
                shape = "box" if info.declared is not None else "ellipse"
                label = info.qualname
                if info.declared is not None:
                    label += f"\\n{info.declared}"
                lines.append(f'    "{info.fid}" [shape={shape}, label="{label}"];')
            lines.append("  }")
        for fid in sorted(self.calls):
            seen: Set[str] = set()
            for site in self.calls[fid]:
                for target in site.targets:
                    if target in seen:
                        continue
                    seen.add(target)
                    lines.append(f'  "{fid}" -> "{target}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------
def _dotted(node: ast.expr) -> Optional[str]:
    """Flatten a Name/Attribute chain to ``a.b.c``, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _render_call(call: ast.Call) -> str:
    target = _dotted(call.func)
    if target is None:
        try:
            target = ast.unparse(call.func)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            target = "<call>"
    if len(target) > 60:
        target = target[:57] + "..."
    return f"{target}(...)"


def resolve_class_name(
    graph: CallGraph, name: str, info: _ModuleInfo
) -> Optional[str]:
    """Map a (possibly dotted) source-level name to a class id.

    Shared by the builder's type miner and AllocSan's constructor-call
    detector (a resolved in-package constructor is an allocation even
    when the class has no source-level ``__init__`` to call into).
    """
    if name in graph.classes:
        return name
    head, _, rest = name.partition(".")
    expanded = info.imports.get(head)
    if expanded is not None:
        candidate = f"{expanded}.{rest}" if rest else expanded
        if candidate in graph.classes:
            return candidate
    candidate = f"{info.module}.{name}"
    if candidate in graph.classes:
        return candidate
    if "." not in name:
        hits = graph._class_by_simple.get(name, [])
        if len(hits) == 1:
            return hits[0]
    return None


class _Builder:
    def __init__(self, root: Path, package: str) -> None:
        self.root = root
        self.package = package
        self.graph = CallGraph()

    # -- pass 1: collect ----------------------------------------------
    def collect(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            module = module_name_for(path, self.root, self.package)
            tree = ast.parse(source, filename=str(path))
            info = _ModuleInfo(
                module=module,
                path=str(path),
                tree=tree,
                is_package=path.name == "__init__.py",
            )
            self.graph.modules[module] = info
            o1_allows, alloc_allows = allow_maps(source)
            self.graph.allow_maps[info.path] = o1_allows
            self.graph.alloc_allow_maps[info.path] = alloc_allows
            self.graph.files_parsed += 1
            self._collect_imports(info)
            self._collect_defs(info, tree, scope=(), owner=None)
        for klass in self.graph.classes.values():
            self.graph._class_by_simple.setdefault(klass.name, []).append(
                klass.cid
            )
        for klass in self.graph.classes.values():
            for name, fid in klass.methods.items():
                self.graph._method_index.setdefault(name, []).append(fid)

    def _collect_imports(self, info: _ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    info.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}" if base else alias.name

    def _import_base(
        self, info: _ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        parts = info.module.split(".")
        if not info.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop > len(parts):
            return None
        base_parts = parts[: len(parts) - drop] if drop else parts
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def _collect_defs(
        self,
        info: _ModuleInfo,
        node: ast.AST,
        scope: Tuple[str, ...],
        owner: Optional[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = ".".join(scope + (child.name,))
                fid = f"{info.module}.{qualname}"
                self.graph.functions[fid] = FunctionNode(
                    fid=fid,
                    module=info.module,
                    qualname=qualname,
                    name=child.name,
                    path=info.path,
                    lineno=child.lineno,
                    node=child,
                    owner=owner,
                    declared=declared_class_of(child),
                )
                if owner is not None and len(scope) == 1:
                    self.graph.classes[owner].methods[child.name] = fid
                self._collect_defs(info, child, scope + (child.name,), None)
            elif isinstance(child, ast.ClassDef):
                cid = f"{info.module}.{'.'.join(scope + (child.name,))}"
                klass = ClassNode(
                    cid=cid,
                    module=info.module,
                    name=child.name,
                    lineno=child.lineno,
                    bases_raw=[
                        dotted
                        for base in child.bases
                        if (dotted := _dotted(base)) is not None
                    ],
                )
                self.graph.classes[cid] = klass
                self._collect_defs(
                    info, child, scope + (child.name,), owner=cid
                )
            elif isinstance(child, (ast.stmt, ast.excepthandler)):
                # A def under an ``if``/``try``/``with``/loop body.
                self._collect_defs(info, child, scope, owner)

    # -- pass 2: resolve types ----------------------------------------
    def link(self) -> None:
        for klass in self.graph.classes.values():
            info = self.graph.modules[klass.module]
            for raw in klass.bases_raw:
                cid = self._resolve_class_name(raw, info)
                if cid is not None:
                    klass.base_ids.append(cid)
                    self.graph._subclasses.setdefault(cid, []).append(
                        klass.cid
                    )
        for klass in self.graph.classes.values():
            self._mine_class_types(klass)
        for info in self.graph.modules.values():
            self._mine_module_globals(info)

    def _mine_module_globals(self, info: _ModuleInfo) -> None:
        """Pin types of module-level singletons (``x = ClassName(...)``)."""
        for stmt in info.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if not isinstance(target, ast.Name):
                continue
            cid = self._ann_to_cid(annotation, info)
            if cid is None and isinstance(value, ast.Call):
                callee = _dotted(value.func)
                if callee is not None:
                    cid = self._resolve_class_name(callee, info)
            if cid is not None:
                self.graph.module_globals.setdefault(info.module, {})[
                    target.id
                ] = cid

    def _resolve_class_name(
        self, name: str, info: _ModuleInfo
    ) -> Optional[str]:
        """Map a (possibly dotted) source-level name to a class id."""
        return resolve_class_name(self.graph, name, info)

    def _ann_to_cid(
        self, ann: Optional[ast.expr], info: _ModuleInfo
    ) -> Optional[str]:
        """Class id named by an annotation, unwrapping Optional/unions."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                parsed = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
            return self._ann_to_cid(parsed, info)
        if isinstance(ann, ast.Subscript):
            base = _dotted(ann.value)
            if base is not None and base.split(".")[-1] in _OPTIONAL_NAMES:
                return self._ann_to_cid(ann.slice, info)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self._ann_to_cid(ann.left, info)
            return left if left is not None else self._ann_to_cid(ann.right, info)
        dotted = _dotted(ann)
        if dotted is None or dotted == "None":
            return None
        return self._resolve_class_name(dotted, info)

    def _mine_class_types(self, klass: ClassNode) -> None:
        info = self.graph.modules[klass.module]
        body = self._class_body(klass)
        for stmt in body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                cid = self._ann_to_cid(stmt.annotation, info)
                if cid is not None:
                    klass.attr_types[stmt.target.id] = cid
        for name, fid in klass.methods.items():
            func = self.graph.functions[fid].node
            cid = self._ann_to_cid(func.returns, info)
            if cid is not None:
                klass.return_types[name] = cid
        init_fid = klass.methods.get("__init__")
        if init_fid is not None:
            self._mine_init(klass, self.graph.functions[init_fid].node, info)

    def _class_body(self, klass: ClassNode) -> Sequence[ast.stmt]:
        for node in ast.walk(self.graph.modules[klass.module].tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name == klass.name
                and node.lineno == klass.lineno
            ):
                return node.body
        return ()

    def _mine_init(
        self, klass: ClassNode, init: FuncDef, info: _ModuleInfo
    ) -> None:
        """Pin ``self.attr`` types from annotated params / ctor calls."""
        param_types: Dict[str, Optional[str]] = {}
        args = init.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            param_types[arg.arg] = self._ann_to_cid(arg.annotation, info)
        for stmt in ast.walk(init):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            cid = self._ann_to_cid(annotation, info)
            if cid is None and value is not None:
                cid = self._init_value_cid(value, param_types, info)
            if cid is not None and attr not in klass.attr_types:
                klass.attr_types[attr] = cid

    def _init_value_cid(
        self,
        value: ast.expr,
        param_types: Dict[str, Optional[str]],
        info: _ModuleInfo,
    ) -> Optional[str]:
        """Type of an ``__init__`` RHS: param, ctor call, or a defaulting
        conditional (``tlb if tlb is not None else Tlb()``) over those."""
        if isinstance(value, ast.Name):
            return param_types.get(value.id)
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee is not None:
                return self._resolve_class_name(callee, info)
            return None
        if isinstance(value, ast.IfExp):
            body = self._init_value_cid(value.body, param_types, info)
            orelse = self._init_value_cid(value.orelse, param_types, info)
            if body is not None and orelse is not None:
                return body if body == orelse else None
            return body if body is not None else orelse
        return None

    # -- pass 3: resolve calls ----------------------------------------
    def resolve_calls(self) -> None:
        for fid, func in self.graph.functions.items():
            info = self.graph.modules[func.module]
            env = self._build_env(func, info)
            sites: List[CallSite] = []
            for call in self._own_calls(func.node):
                targets, attr = self._resolve_call(call, func, info, env)
                site = CallSite(
                    line=call.lineno,
                    col=call.col_offset,
                    raw=_render_call(call),
                    attr=attr,
                    targets=tuple(targets),
                    node=call,
                )
                sites.append(site)
                self.graph.sites_total += 1
                if site.resolved:
                    self.graph.sites_resolved += 1
            self.graph.calls[fid] = sites

    def _own_calls(self, func: FuncDef) -> List[ast.Call]:
        """Call expressions in ``func`` body, excluding nested defs."""
        calls: List[ast.Call] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Call):
                calls.append(node)
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        return calls

    def _build_env(
        self, func: FunctionNode, info: _ModuleInfo
    ) -> Dict[str, str]:
        """Local name -> class id, from annotations and simple assigns."""
        env: Dict[str, str] = {}
        args = func.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg in ("self", "cls"):
                if func.owner is not None:
                    env[arg.arg] = func.owner
                continue
            cid = self._ann_to_cid(arg.annotation, info)
            if cid is not None:
                env[arg.arg] = cid
        assigns: List[Tuple[int, str, Optional[str]]] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(func.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            if not isinstance(target, ast.Name):
                continue
            cid = self._ann_to_cid(annotation, info)
            if cid is None and value is not None:
                cid = self._expr_type(value, func, info, env)
            assigns.append((node.lineno, target.id, cid))
        for _, name, cid in sorted(assigns):
            if cid is not None:
                env[name] = cid
        return env

    def _expr_type(
        self,
        expr: ast.expr,
        func: FunctionNode,
        info: _ModuleInfo,
        env: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(expr, ast.Name):
            hit = env.get(expr.id)
            if hit is not None:
                return hit
            return self.graph.module_globals.get(info.module, {}).get(expr.id)
        if isinstance(expr, ast.IfExp):
            body = self._expr_type(expr.body, func, info, env)
            orelse = self._expr_type(expr.orelse, func, info, env)
            if body is not None and orelse is not None:
                return body if body == orelse else None
            return body if body is not None else orelse
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(expr.value, func, info, env)
            if base is not None:
                return self.graph.lookup_attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Call):
            callee = expr.func
            if isinstance(callee, (ast.Name, ast.Attribute)):
                dotted = _dotted(callee)
                if dotted is not None:
                    cid = self._resolve_class_name(dotted, info)
                    if cid is not None:
                        return cid
            if isinstance(callee, ast.Attribute):
                base = self._expr_type(callee.value, func, info, env)
                if base is not None:
                    return self.graph.lookup_return_type(base, callee.attr)
        return None

    def _resolve_call(
        self,
        call: ast.Call,
        func: FunctionNode,
        info: _ModuleInfo,
        env: Dict[str, str],
    ) -> Tuple[List[str], Optional[str]]:
        callee = call.func
        if isinstance(callee, ast.Name):
            return self._resolve_name_call(callee.id, info), None
        if not isinstance(callee, ast.Attribute):
            return [], None
        attr = callee.attr
        receiver_cid = self._expr_type(callee.value, func, info, env)
        if receiver_cid is not None:
            targets = self.graph.override_targets(receiver_cid, attr)
            if targets:
                return targets, attr
            return [], attr
        dotted = _dotted(callee)
        if dotted is not None:
            resolved = self._resolve_dotted_function(dotted, info)
            if resolved is not None:
                return resolved, attr
        if attr not in _COMMON_ATTRS:
            hits = self.graph.methods_named(attr)
            if len(hits) == 1:
                return hits, attr
        return [], attr

    def _resolve_name_call(self, name: str, info: _ModuleInfo) -> List[str]:
        fid = f"{info.module}.{name}"
        if fid in self.graph.functions:
            node = self.graph.functions[fid]
            if node.owner is None and "." not in node.qualname:
                return [fid]
        cid = self._resolve_class_name(name, info)
        if cid is None:
            expanded = info.imports.get(name)
            if expanded is not None and expanded in self.graph.functions:
                return [expanded]
            if fid in self.graph.functions:
                return [fid]
            return []
        init = self.graph.lookup_method(cid, "__init__")
        return [init] if init is not None else []

    def _resolve_dotted_function(
        self, dotted: str, info: _ModuleInfo
    ) -> Optional[List[str]]:
        """Resolve ``mod.func`` / ``pkg.mod.func`` style calls."""
        if dotted in self.graph.functions:
            return [dotted]
        head, _, rest = dotted.partition(".")
        if not rest:
            return None
        expanded = info.imports.get(head)
        if expanded is None:
            return None
        candidate = f"{expanded}.{rest}"
        if candidate in self.graph.functions:
            return [candidate]
        cid_part, _, meth = candidate.rpartition(".")
        if cid_part in self.graph.classes:
            hit = self.graph.lookup_method(cid_part, meth)
            if hit is not None:
                return [hit]
        return None


def build_callgraph(root: Path, package: str = "repro") -> CallGraph:
    """Parse every module under ``root`` and resolve its call sites."""
    builder = _Builder(root.resolve(), package)
    builder.collect()
    builder.link()
    builder.resolve_calls()
    return builder.graph
