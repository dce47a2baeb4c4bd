"""Complexity and allocation declarations: ``@o1``, ``@complexity``,
``@allocfree`` and ``@allocbound``.

A declaration is a *contract*.  ``@o1`` / ``@complexity("log n")`` bound
how an operation's *simulated* cost may scale with its operand size
(pages, frames, extents, entries — whatever the function naturally
consumes).  ``@allocfree`` / ``@allocbound(n)`` bound how many
*Python-level allocations* the function may perform per call on the real
(wall-clock) hot loop — the orthogonal axis AllocSan
(:mod:`repro.lint.alloc`) checks statically and
:mod:`repro.lint.allocfit` cross-checks under ``tracemalloc``.

Both the AST linters and the empirical checkers enforce the contracts;
the static passes read the decorators from the source, so each one
returns its function unchanged.  Decorating a hot path costs nothing on
the hot path (an O(1) checker must itself be O(1), and an allocation
checker must itself be allocation-free per call).  The allocation
contracts are also recorded in a module-level registry at import time,
which :mod:`repro.lint.allocfit` reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, TypeVar, overload

F = TypeVar("F", bound=Callable[..., object])


class ComplexityClass(enum.Enum):
    """Asymptotic cost classes the checker can declare and fit."""

    CONSTANT = "1"
    LOG = "log n"
    LINEAR = "n"
    LINEARITHMIC = "n log n"

    def __str__(self) -> str:
        return f"O({self.value})"

    @property
    def order(self) -> int:
        """Rank for comparisons: lower grows slower."""
        return _ORDER[self]

    @classmethod
    def parse(cls, text: str) -> "ComplexityClass":
        """Parse a declaration string, accepting common spellings.

        >>> ComplexityClass.parse("O(1)") is ComplexityClass.CONSTANT
        True
        >>> ComplexityClass.parse("log n") is ComplexityClass.LOG
        True
        """
        key = text.strip().lower()
        if key.startswith("o(") and key.endswith(")"):
            key = key[2:-1].strip()
        try:
            return _ALIASES[key]
        except KeyError:
            raise ValueError(
                f"unknown complexity class {text!r}; "
                f"known: {sorted(set(_ALIASES))}"
            ) from None


_ORDER: Dict[ComplexityClass, int] = {
    ComplexityClass.CONSTANT: 0,
    ComplexityClass.LOG: 1,
    ComplexityClass.LINEAR: 2,
    ComplexityClass.LINEARITHMIC: 3,
}

_ALIASES: Dict[str, ComplexityClass] = {
    "1": ComplexityClass.CONSTANT,
    "constant": ComplexityClass.CONSTANT,
    "const": ComplexityClass.CONSTANT,
    "log": ComplexityClass.LOG,
    "log n": ComplexityClass.LOG,
    "logn": ComplexityClass.LOG,
    "logarithmic": ComplexityClass.LOG,
    "n": ComplexityClass.LINEAR,
    "linear": ComplexityClass.LINEAR,
    "n log n": ComplexityClass.LINEARITHMIC,
    "nlogn": ComplexityClass.LINEARITHMIC,
    "linearithmic": ComplexityClass.LINEARITHMIC,
}


@overload
def o1(func: F) -> F: ...


@overload
def o1(func: None = None, *, note: str = "") -> Callable[[F], F]: ...


def o1(
    func: Optional[F] = None, *, note: str = ""
) -> object:
    """Declare a function O(1) in its operand size.

    Usable bare (``@o1``) or with a note (``@o1(note="per extent")``).
    """
    if func is not None:
        return func

    def wrap(inner: F) -> F:
        return inner

    return wrap


def complexity(klass: str, *, note: str = "") -> Callable[[F], F]:
    """Declare a function's cost class, e.g. ``@complexity("log n")``.

    The class string is parsed eagerly so a typo fails at import time,
    not lint time.
    """
    ComplexityClass.parse(klass)

    def wrap(func: F) -> F:
        return func

    return wrap


# ---------------------------------------------------------------------------
# Allocation contracts: @allocfree / @allocbound(n)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AllocDeclaration:
    """One recorded allocation contract.

    ``bound`` is the number of Python-level allocations the function may
    perform per call at steady state: 0 for ``@allocfree``, a small
    constant for ``@allocbound(n)`` (n <= 0 means "bounded, count
    unspecified").
    """

    module: str
    qualname: str
    bound: int
    note: str = ""

    @property
    def function(self) -> str:
        """Fully qualified dotted name (``module.qualname``)."""
        return f"{self.module}.{self.qualname}"

    @property
    def allocfree(self) -> bool:
        return self.bound == 0


#: Import-order registry of every allocation contract seen this process.
_ALLOC_REGISTRY: List[AllocDeclaration] = []


def _declare_alloc(func: F, bound: int, note: str) -> F:
    _ALLOC_REGISTRY.append(
        AllocDeclaration(
            module=func.__module__,
            qualname=func.__qualname__,
            bound=bound,
            note=note,
        )
    )
    return func


@overload
def allocfree(func: F) -> F: ...


@overload
def allocfree(func: None = None, *, note: str = "") -> Callable[[F], F]: ...


def allocfree(
    func: Optional[F] = None, *, note: str = ""
) -> object:
    """Declare a function allocation-free per call at steady state.

    Usable bare (``@allocfree``) or with a note.  Transient arithmetic
    boxing (CPython int objects) is outside the contract; Python-level
    allocation *shapes* — displays, comprehensions, f-strings, closures,
    materializing builtins — and net ``tracemalloc`` growth are not.
    """
    if func is not None:
        return _declare_alloc(func, 0, note)

    def wrap(inner: F) -> F:
        return _declare_alloc(inner, 0, note)

    return wrap


def allocbound(n: int = -1, *, note: str = "") -> Callable[[F], F]:
    """Declare a function's per-call allocations bounded by a constant.

    ``@allocbound(2)`` promises at most two allocations per call however
    large the operand; plain ``@allocbound()`` promises a constant bound
    without naming it.  The bound must not scale with operand size —
    per-element allocation needs no decorator, it needs fixing.
    """

    def wrap(func: F) -> F:
        return _declare_alloc(func, n, note)

    return wrap


def iter_alloc_declarations() -> Iterator[AllocDeclaration]:
    """Every allocation contract registered by modules imported so far."""
    return iter(list(_ALLOC_REGISTRY))
