"""Shared syntax for the static passes, and the two intraprocedural rules.

The call-graph builder (:mod:`repro.lint.callgraph`) parses and
tokenizes each module once; everything here works on that one parse:
allow-comment maps, declaration matching, the constant-bound test for
loops, and two rules that judge one function body on its own.  The
flow pass (:mod:`repro.lint.flow`) runs them on every function of the
graph and reports what they return as findings:

========================  ==================================================
``o1-recursion``          self-recursion in a declared-O(1)/O(log n)
                          function (a declared callee is a cut point for
                          the cost summaries, so only this rule sees it)
``persist-outside-txn``   a journaled-write apply (``_apply_alloc`` /
                          ``_apply_shrink`` / ``_apply_free`` /
                          ``_apply_migrate``) in a function
                          that never issued ``_journal_commit`` first — the
                          static half of PersistSan's ordering check; applies
                          to *every* function, declared or not
========================  ==================================================

The one escape hatch is an inline ``# o1: allow(rule) -- reason``
comment on the flagged line, alone on the line above it, or on the
``def`` line.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.lint.decorators import ComplexityClass

RULE_RECURSION = "o1-recursion"
RULE_PERSIST_OUTSIDE_TXN = "persist-outside-txn"

#: Journal *apply* methods: each mutates durable metadata and must be
#: ordered after a commit (PersistSan checks this dynamically; the rule
#: below is the static half).
_PERSIST_APPLY_ATTRS = frozenset(
    {"_apply_alloc", "_apply_shrink", "_apply_free", "_apply_migrate"}
)

#: The call that makes a journal record durable.
_PERSIST_COMMIT_ATTR = "_journal_commit"

_ALLOW_RE = re.compile(r"#\s*o1:\s*allow\(([^)]*)\)")

#: The AllocSan spelling; same grammar, separate namespace, so one line
#: can carry both an ``# o1: allow`` and an ``# alloc: allow`` comment
#: without the rule vocabularies colliding.
_ALLOC_ALLOW_RE = re.compile(r"#\s*alloc:\s*allow\(([^)]*)\)")

_LoopNode = Union[
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
]

_LOOP_TYPES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


# ---------------------------------------------------------------------------
# Inline suppressions
# ---------------------------------------------------------------------------
class AllowMap:
    """Inline-suppression map for one file, with usage tracking.

    ``rules_by_line`` maps the line of each allow *comment* to the rules
    it names (``*`` when it names none); text that merely looks like an
    allow inside a string literal is not a comment and never counts.
    ``allow()`` is the query the lint passes use: it returns True when
    one of the candidate lines carries an allow comment naming the rule
    (or ``*``), and records the matched line so unused comments can be
    reported as stale afterwards.  ``match()`` is the same lookup
    without the usage side effect, for callers that only commit to the
    suppression later (e.g. a ``flow-bounded`` call-site allow is *used*
    only if the callee was actually non-constant).  ``own_lines`` are
    the lines that hold nothing but a comment: only an allow on such a
    line speaks for the line below it.
    """

    def __init__(
        self, rules_by_line: Dict[int, Set[str]], own_lines: Set[int]
    ) -> None:
        self.rules_by_line = rules_by_line
        self.own_lines = own_lines
        self.used: Set[int] = set()

    def match(self, lines: Iterable[int], rule: str) -> Optional[int]:
        """First candidate line allowing ``rule``, or None; no marking."""
        for lineno in lines:
            rules = self.rules_by_line.get(lineno)
            if rules is not None and (rule in rules or "*" in rules):
                return lineno
        return None

    def allow(self, lines: Iterable[int], rule: str) -> bool:
        """True (and mark the comment used) if any line allows ``rule``."""
        lineno = self.match(lines, rule)
        if lineno is None:
            return False
        self.used.add(lineno)
        return True

    def mark_used(self, lineno: int) -> None:
        self.used.add(lineno)

    def lines_for(self, lineno: int) -> List[int]:
        """The allow lines that speak for code on ``lineno``: its own,
        and the line above when that line holds only a comment."""
        if lineno - 1 in self.own_lines:
            return [lineno, lineno - 1]
        return [lineno]


def allow_maps(source: str) -> Tuple[AllowMap, AllowMap]:
    """The ``# o1: allow`` and ``# alloc: allow`` maps of one module,
    read from its comment tokens in one tokenize pass."""
    found: Tuple[Dict[int, Set[str]], Dict[int, Set[str]]] = ({}, {})
    own_lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        if not token.line[: token.start[1]].strip():
            own_lines.add(token.start[0])
        for pattern, rules_by_line in zip((_ALLOW_RE, _ALLOC_ALLOW_RE), found):
            match = pattern.search(token.string)
            if match is not None:
                rules = {
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                }
                rules_by_line[token.start[0]] = rules or {"*"}
    return AllowMap(found[0], own_lines), AllowMap(found[1], own_lines)


# ---------------------------------------------------------------------------
# Declaration matching (syntactic — mirrors repro.lint.decorators)
# ---------------------------------------------------------------------------
def _decorator_name(node: ast.expr) -> Optional[str]:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def declared_class_of(func: FuncDef) -> Optional[ComplexityClass]:
    """The complexity class declared by the function's decorators, if any."""
    for decorator in func.decorator_list:
        name = _decorator_name(decorator)
        if name == "o1":
            return ComplexityClass.CONSTANT
        if name == "complexity" and isinstance(decorator, ast.Call):
            if decorator.args and isinstance(decorator.args[0], ast.Constant):
                value = decorator.args[0].value
                if isinstance(value, str):
                    try:
                        return ComplexityClass.parse(value)
                    except ValueError:
                        return None
    return None


# ---------------------------------------------------------------------------
# Loop shape
# ---------------------------------------------------------------------------
def _is_constant_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_constant_expr(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_constant_expr(node.left) and _is_constant_expr(node.right)
    return False


def _loop_iterables(loop: _LoopNode) -> List[ast.expr]:
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return [loop.iter]
    if isinstance(loop, ast.While):
        return [loop.test]
    return [generator.iter for generator in loop.generators]


def _is_constant_bounded(loop: _LoopNode) -> bool:
    """True when the loop provably runs a compile-time-constant number of
    times: ``range(<literals>)``, or iteration over a literal collection."""
    if isinstance(loop, ast.While):
        return False
    for iterable in _loop_iterables(loop):
        if isinstance(iterable, ast.Call):
            name = _decorator_name(iterable)
            if name in {"range", "reversed", "enumerate"} and all(
                _is_constant_expr(arg)
                or (isinstance(arg, (ast.Tuple, ast.List)) and not arg.elts)
                for arg in iterable.args
            ):
                continue
            return False
        if isinstance(iterable, (ast.Tuple, ast.List, ast.Set)):
            if all(not isinstance(elt, ast.Starred) for elt in iterable.elts):
                continue
            return False
        return False
    return True


def loop_parts(loop: _LoopNode) -> Tuple[Optional[ast.expr], List[ast.AST]]:
    """``(header, per_iteration)``: the iterable a loop evaluates once,
    before its first iteration (None for ``while``), and the parts that
    run on every iteration."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        return loop.iter, [loop.target, *loop.body, *loop.orelse]
    if isinstance(loop, ast.While):
        return None, [loop.test, *loop.body, *loop.orelse]
    first, *rest = loop.generators
    if isinstance(loop, ast.DictComp):
        elements: List[ast.AST] = [loop.key, loop.value]
    else:
        elements = [loop.elt]
    return first.iter, [first.target, *first.ifs, *rest, *elements]


# ---------------------------------------------------------------------------
# The intraprocedural rules
# ---------------------------------------------------------------------------
def recursive_calls(func: FuncDef) -> List[ast.Call]:
    """Calls of ``func`` to itself, by name or through ``self``/``cls``."""
    name = func.name
    calls: List[ast.Call] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_TYPES):
            continue  # nested defs are separate declarations
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        is_self_call = (
            isinstance(callee, ast.Name) and callee.id == name
        ) or (
            isinstance(callee, ast.Attribute)
            and callee.attr == name
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls")
        )
        if is_self_call:
            calls.append(node)
    return calls


def applies_before_commit(func: FuncDef) -> List[ast.Call]:
    """Journaled-write applies with no preceding commit in scope.

    A call to one of :data:`_PERSIST_APPLY_ATTRS` mutates durable FS
    metadata, so it may only run after the journal record describing it
    has been committed.  Statically that means: within the calling
    function there must be a ``_journal_commit(...)`` call on an earlier
    line, or the site carries an explicit
    ``# o1: allow(persist-outside-txn)`` justification (e.g. crash
    recovery redoing records the *previous* boot committed).
    """
    if func.name in _PERSIST_APPLY_ATTRS:
        return []  # the apply implementations themselves
    commit_line: Optional[int] = None
    applies: List[ast.Call] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_TYPES):
            continue  # nested defs are their own transaction scopes
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        attr = node.func.attr
        if attr == _PERSIST_COMMIT_ATTR:
            if commit_line is None or node.lineno < commit_line:
                commit_line = node.lineno
        elif attr in _PERSIST_APPLY_ATTRS:
            applies.append(node)
    return [
        call
        for call in applies
        if commit_line is None or commit_line >= call.lineno
    ]


def module_name_for(path: Path, root: Path, package: str) -> str:
    """Dotted module name for ``path`` under package root ``root``."""
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package
