"""AST cost-shape linter: declared complexity vs. the shape of the code.

The linter parses every module under a package root, finds functions
decorated ``@o1`` / ``@complexity("...")`` (matched syntactically, so the
checked code is never imported), and flags constructs that contradict the
declared class:

========================  ==================================================
``o1-size-loop``          a loop that can scale with operand size in a
                          declared-O(1) function (or a loop over a
                          page/frame/extent collection in a declared-O(log n)
                          function)
``o1-charge-in-loop``     a cost charge (``clock.advance`` / ``bump`` /
                          ``_charge``) inside such a loop — the signature of
                          per-page cost creep
``o1-recursion``          self-recursion in a declared-O(1)/O(log n) function
``o1-nested-size-loop``   nested size-dependent loops in a declared-linear
                          function
``persist-outside-txn``   a journaled-write apply (``_apply_alloc`` /
                          ``_apply_shrink`` / ``_apply_free`` /
                          ``_apply_migrate``) in a function
                          that never issued ``_journal_commit`` first — the
                          static half of PersistSan's ordering check; applies
                          to *every* function, declared or not
========================  ==================================================

Loops the AST can prove constant-bounded (``range(4)``, iteration over a
literal tuple) never flag.  Everything else is a heuristic, and every
finding fails the gate.  The one escape hatch is an inline
``# o1: allow(rule) -- reason`` comment on the flagged line, the line
above it, or the ``def`` line, for paths that are O(n) by design.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.decorators import ComplexityClass

RULE_SIZE_LOOP = "o1-size-loop"
RULE_CHARGE_IN_LOOP = "o1-charge-in-loop"
RULE_RECURSION = "o1-recursion"
RULE_NESTED_SIZE_LOOP = "o1-nested-size-loop"
RULE_PERSIST_OUTSIDE_TXN = "persist-outside-txn"

ALL_RULES = (
    RULE_SIZE_LOOP,
    RULE_CHARGE_IN_LOOP,
    RULE_RECURSION,
    RULE_NESTED_SIZE_LOOP,
    RULE_PERSIST_OUTSIDE_TXN,
)

#: Journal *apply* methods: each mutates durable metadata and must be
#: ordered after a commit (PersistSan checks this dynamically; the rule
#: below is the static half).
_PERSIST_APPLY_ATTRS = frozenset(
    {"_apply_alloc", "_apply_shrink", "_apply_free", "_apply_migrate"}
)

#: The call that makes a journal record durable.
_PERSIST_COMMIT_ATTR = "_journal_commit"

#: Identifier fragments that suggest an iterable scales with operand size.
_SIZE_NAME_RE = re.compile(
    r"size|count|pages?|npages|frames?|ptes?|extents?|blocks?|bytes"
    r"|length|entries|items|windows|segments|runs?|slots|vmas|pieces",
    re.IGNORECASE,
)

#: Stricter subset: collections of per-page objects.  O(log n) functions
#: may loop over orders/levels/retries, but never over these.
_PAGE_COLLECTION_RE = re.compile(
    r"pages?|npages|frames?|ptes?|extents?|blocks?|entries|windows"
    r"|segments|vmas|pieces",
    re.IGNORECASE,
)

#: Method names that charge simulated cost; one of these inside a
#: size-dependent loop is per-operand cost by construction.
_CHARGE_ATTRS = frozenset({"advance", "bump", "_charge", "charge", "observe"})

_ALLOW_RE = re.compile(r"#\s*o1:\s*allow\(([^)]*)\)")

#: The AllocSan spelling; same grammar, separate namespace, so one line
#: can carry both an ``# o1: allow`` and an ``# alloc: allow`` comment
#: without the rule vocabularies colliding.
ALLOC_ALLOW_RE = re.compile(r"#\s*alloc:\s*allow\(([^)]*)\)")

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


@dataclass(frozen=True)
class Violation:
    """One conformance finding: a rule broken inside one function."""

    path: str
    line: int
    module: str
    qualname: str
    declared: Optional[ComplexityClass]
    rule: str
    message: str

    @property
    def function(self) -> str:
        """Fully qualified dotted name (``module.qualname``)."""
        return f"{self.module}.{self.qualname}"

    def format(self) -> str:
        """One-line human-readable rendering."""
        if self.declared is None:
            return (
                f"{self.path}:{self.line}: [{self.rule}] {self.function}: "
                f"{self.message}"
            )
        return (
            f"{self.path}:{self.line}: [{self.rule}] {self.function} "
            f"declared {self.declared}: {self.message}"
        )


@dataclass
class LintResult:
    """Outcome of linting a tree: findings plus coverage counts."""

    violations: List[Violation]
    inline_suppressed: int
    files_checked: int
    functions_checked: int
    #: path -> line numbers of ``# o1: allow`` comments that suppressed
    #: (or bounded) something; the stale-suppression detector subtracts
    #: these (plus the flow pass's set) from every allow comment found.
    used_allows: Dict[str, Set[int]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Inline suppressions
# ---------------------------------------------------------------------------
def _allowed_lines(
    source: str, pattern: "re.Pattern[str]" = _ALLOW_RE
) -> Dict[int, Set[str]]:
    """line number -> rules allowed by an ``# o1: allow(...)`` comment."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = pattern.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        allowed[lineno] = rules or {"*"}
    return allowed


def allow_comment_lines(
    source: str, pattern: "re.Pattern[str]" = _ALLOW_RE
) -> Dict[int, Set[str]]:
    """Like :func:`_allowed_lines`, but only *real* comments count.

    The plain line scan also matches ``o1: allow(...)`` text inside
    docstrings (this module's own header, for one); staleness reporting
    must not flag those, so it works from the token stream instead.
    Falls back to the line scan if the file does not tokenize.
    """
    allowed: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = pattern.search(token.string)
            if match is None:
                continue
            rules = {
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            }
            allowed[token.start[0]] = rules or {"*"}
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return _allowed_lines(source, pattern)
    return allowed


class AllowMap:
    """Inline-suppression map for one file, with usage tracking.

    ``allow()`` is the query the lint passes use: it returns True when
    one of the candidate lines carries an allow comment naming the rule
    (or ``*``), and records the matched line so unused comments can be
    reported as stale afterwards.  ``match()`` is the same lookup
    without the usage side effect, for callers that only commit to the
    suppression later (e.g. a ``flow-bounded`` call-site allow is *used*
    only if the callee was actually non-constant).

    The default ``pattern`` reads ``# o1: allow(...)`` comments; the
    AllocSan pass builds its maps with :data:`ALLOC_ALLOW_RE` so the two
    suppression namespaces stay disjoint.
    """

    def __init__(
        self, source: str, pattern: "re.Pattern[str]" = _ALLOW_RE
    ) -> None:
        self.rules_by_line = _allowed_lines(source, pattern)
        self.comment_lines = allow_comment_lines(source, pattern)
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


def declared_class_of(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Optional[ComplexityClass]:
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
# Loop shape heuristics
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


def _names_in(node: ast.AST) -> List[str]:
    names: List[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.append(child.id)
        elif isinstance(child, ast.Attribute):
            names.append(child.attr)
    return names


def _matches(loop: _LoopNode, pattern: "re.Pattern[str]") -> bool:
    for iterable in _loop_iterables(loop):
        for name in _names_in(iterable):
            if pattern.search(name):
                return True
    return False


def _contains_charge(loop: _LoopNode) -> bool:
    for child in ast.walk(loop):  # nested defs are rare inside loops; accept
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in _CHARGE_ATTRS:
                return True
    return False


# ---------------------------------------------------------------------------
# Per-function analysis
# ---------------------------------------------------------------------------
class _FunctionChecker:
    """Applies the class-specific rules to one declared function."""

    def __init__(
        self,
        func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        declared: ComplexityClass,
        module: str,
        qualname: str,
        path: str,
        allowed: AllowMap,
    ) -> None:
        self._func = func
        self._declared = declared
        self._module = module
        self._qualname = qualname
        self._path = path
        self._allowed = allowed
        self.violations: List[Violation] = []
        self.suppressed = 0

    def run(self) -> None:
        self._check_loops(self._func.body, depth=0, flagged_ancestor=False)
        if self._declared in (ComplexityClass.CONSTANT, ComplexityClass.LOG):
            self._check_recursion()

    # -- loops ---------------------------------------------------------
    def _check_loops(
        self, body: Sequence[ast.stmt], depth: int, flagged_ancestor: bool
    ) -> None:
        for stmt in body:
            self._visit(stmt, depth, flagged_ancestor)

    def _visit(self, node: ast.AST, depth: int, flagged_ancestor: bool) -> None:
        if isinstance(node, _SCOPE_TYPES):
            return  # nested defs are separate declarations (or none)
        if isinstance(node, _LOOP_TYPES):
            flagged = False
            if not flagged_ancestor and not _is_constant_bounded(node):
                flagged = self._judge_loop(node, depth)
            for child in ast.iter_child_nodes(node):
                self._visit(child, depth + 1, flagged_ancestor or flagged)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, depth, flagged_ancestor)

    def _judge_loop(self, loop: _LoopNode, depth: int) -> bool:
        declared = self._declared
        if declared is ComplexityClass.CONSTANT:
            if _contains_charge(loop):
                return self._flag(
                    loop,
                    RULE_CHARGE_IN_LOOP,
                    "cost charged inside a loop the AST cannot bound",
                )
            return self._flag(
                loop, RULE_SIZE_LOOP, "loop the AST cannot bound to a constant"
            )
        if declared is ComplexityClass.LOG:
            if _matches(loop, _PAGE_COLLECTION_RE):
                rule = (
                    RULE_CHARGE_IN_LOOP
                    if _contains_charge(loop)
                    else RULE_SIZE_LOOP
                )
                return self._flag(
                    loop, rule, "loop over a page/frame/extent collection"
                )
            return False
        # LINEAR / LINEARITHMIC: one size loop is the contract; flag nests.
        if depth >= 1 and _matches(loop, _SIZE_NAME_RE):
            return self._flag(
                loop,
                RULE_NESTED_SIZE_LOOP,
                "size-dependent loop nested inside another loop",
            )
        return False

    def _flag(self, node: ast.AST, rule: str, message: str) -> bool:
        line = getattr(node, "lineno", self._func.lineno)
        if self._allowed.allow((line, line - 1, self._func.lineno), rule):
            self.suppressed += 1
            return False
        self.violations.append(
            Violation(
                path=self._path,
                line=line,
                module=self._module,
                qualname=self._qualname,
                declared=self._declared,
                rule=rule,
                message=message,
            )
        )
        return True

    # -- recursion -----------------------------------------------------
    def _check_recursion(self) -> None:
        name = self._func.name
        stack: List[ast.AST] = list(ast.iter_child_nodes(self._func))
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
                self._flag(node, RULE_RECURSION, f"recursive call to {name}()")


# ---------------------------------------------------------------------------
# Persist-ordering rule (applies to every function, declared or not)
# ---------------------------------------------------------------------------
def _check_persist_ordering(
    func: Union[ast.FunctionDef, ast.AsyncFunctionDef],
    module: str,
    qualname: str,
    path: str,
    allowed: AllowMap,
) -> Tuple[List[Violation], int]:
    """Flag journaled-write applies with no preceding commit in scope.

    A call to one of :data:`_PERSIST_APPLY_ATTRS` mutates durable FS
    metadata, so it may only run after the journal record describing it
    has been committed.  Statically that means: within the calling
    function there must be a ``_journal_commit(...)`` call on an earlier
    line, or the site carries an explicit
    ``# o1: allow(persist-outside-txn)`` justification (e.g. crash
    recovery redoing records the *previous* boot committed).
    """
    if func.name in _PERSIST_APPLY_ATTRS:
        return [], 0  # the apply implementations themselves
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
    violations: List[Violation] = []
    suppressed = 0
    for call in applies:
        if commit_line is not None and commit_line < call.lineno:
            continue
        if allowed.allow(
            (call.lineno, call.lineno - 1, func.lineno),
            RULE_PERSIST_OUTSIDE_TXN,
        ):
            suppressed += 1
            continue
        attr_name = call.func.attr if isinstance(call.func, ast.Attribute) else "?"
        violations.append(
            Violation(
                path=path,
                line=call.lineno,
                module=module,
                qualname=qualname,
                declared=None,
                rule=RULE_PERSIST_OUTSIDE_TXN,
                message=(
                    f"journaled mutation {attr_name}() applied with no "
                    "preceding _journal_commit() in scope"
                ),
            )
        )
    return violations, suppressed


# ---------------------------------------------------------------------------
# Module / tree walking
# ---------------------------------------------------------------------------
def lint_source(
    source: str,
    module: str,
    path: str = "<string>",
    allowed: Optional[AllowMap] = None,
) -> LintResult:
    """Lint one module's source text (exposed for tests).

    ``allowed`` lets a caller share one :class:`AllowMap` between this
    pass and the flow pass so suppression *usage* accumulates in one
    place; by default a private map is built from ``source``.
    """
    tree = ast.parse(source, filename=path)
    if allowed is None:
        allowed = AllowMap(source)
    violations: List[Violation] = []
    suppressed = 0
    functions = 0

    def walk(node: ast.AST, scope: Tuple[str, ...]) -> None:
        nonlocal suppressed, functions
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared = declared_class_of(child)
                qualname = ".".join(scope + (child.name,))
                if declared is not None:
                    functions += 1
                    checker = _FunctionChecker(
                        func=child,
                        declared=declared,
                        module=module,
                        qualname=qualname,
                        path=path,
                        allowed=allowed,
                    )
                    checker.run()
                    violations.extend(checker.violations)
                    suppressed += checker.suppressed
                persist_violations, persist_suppressed = _check_persist_ordering(
                    child, module, qualname, path, allowed
                )
                violations.extend(persist_violations)
                suppressed += persist_suppressed
                walk(child, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + (child.name,))
            else:
                walk(child, scope)

    walk(tree, ())
    return LintResult(
        violations=violations,
        inline_suppressed=suppressed,
        files_checked=1,
        functions_checked=functions,
        used_allows={path: set(allowed.used)},
    )


def module_name_for(path: Path, root: Path, package: str) -> str:
    """Dotted module name for ``path`` under package root ``root``."""
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def lint_tree(root: Path, package: str = "repro") -> LintResult:
    """Lint every ``*.py`` file under ``root`` (the package directory)."""
    root = root.resolve()
    total = LintResult(
        violations=[], inline_suppressed=0, files_checked=0, functions_checked=0
    )
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        result = lint_source(
            source, module_name_for(path, root, package), str(path)
        )
        total.violations.extend(result.violations)
        total.inline_suppressed += result.inline_suppressed
        total.files_checked += 1
        total.functions_checked += result.functions_checked
        for used_path, lines in result.used_allows.items():
            total.used_allows.setdefault(used_path, set()).update(lines)
    total.violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return total
