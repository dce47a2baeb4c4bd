"""Where spans sit and what they are called: one table, installed from outside.

The simulator's modules carry no span code.  :data:`SPANS` names each
traced method once, with the span it opens (name and subsystem) and, for
a kernel entry point, where the running pid comes from.  While any
:class:`~repro.obs.trace.Tracer` is enabled, every row's method is
replaced on its class by a wrapper; disabling the last enabled tracer
puts back exactly the functions that were replaced.  An untraced run
therefore executes the plain methods, and enabling a tracer adds calls
around them without changing which code runs inside.

A wrapper finds its own machine's tracer through the instance: the
``counters.tracer`` slot of the component, or the kernel's tracer for
:class:`Kernel`, :class:`Syscalls` and :class:`FileOnlyMemory`.  It
passes straight through while that tracer is off, so a traced and an
untraced kernel can run side by side.  The span closes in a
``finally``, so a method that raises still ends its own span.

Wrapping the class, not the instance, also covers objects built before
tracing started (address spaces, ``Syscalls`` handles).  A bound method
taken before the wrappers went in would bypass them, so the simulator
never caches one for a row's method.
"""

from __future__ import annotations

import functools
import weakref
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.fom.manager import FileOnlyMemory
from repro.fs.pmfs import BlockAllocator, Pmfs
from repro.hw.cpu import Cpu
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Syscalls
from repro.paging.walker import PageWalker
from repro.vm.addrspace import AddressSpace
from repro.vm.reclaimd import ClockReclaimer, TwoQueueReclaimer

#: ``(instance, positional args, keyword args) -> pid`` of the process a
#: kernel entry point runs for.
PidSource = Callable[[object, tuple, dict], int]


class Row(NamedTuple):
    """One traced method."""

    cls: type
    method: str
    #: Span name, or None when the row only sets the running pid.
    span: Optional[str] = None
    subsystem: str = ""
    #: Where ``tracer.current_pid`` comes from; None leaves it alone.
    pid: Optional[PidSource] = None


def _argument(name: str) -> PidSource:
    """The pid of the process passed as the method's first argument."""

    def pid(_self: object, args: tuple, kwargs: dict) -> int:
        return (args[0] if args else kwargs[name]).pid

    return pid


def _bound_process(self: Syscalls, _args: tuple, _kwargs: dict) -> int:
    """The pid of the process a ``Syscalls`` handle is bound to."""
    return self._process.pid


_SYSCALLS = (
    "open", "close", "read", "write", "pread", "pwrite",
    "unlink", "mmap", "fork", "munmap", "mprotect",
)

#: Every traced method, each at the method that bounds its span.
SPANS: Tuple[Row, ...] = (
    Row(Cpu, "access", "access", "cpu"),
    Row(Cpu, "_fault_round_trip", "fault", "fault"),
    Row(PageWalker, "walk", "page_walk", "paging"),
    Row(AddressSpace, "handle_fault", "fault_handle", "fault"),
    Row(AddressSpace, "populate", "populate", "vm"),
    Row(AddressSpace, "munmap", "munmap", "vm"),
    Row(ClockReclaimer, "reclaim", "reclaim", "reclaim"),
    Row(TwoQueueReclaimer, "reclaim", "reclaim", "reclaim"),
    Row(BlockAllocator, "alloc_extent", "extent_alloc", "fs"),
    Row(Pmfs, "allocate_blocks", "fs_alloc_blocks", "fs"),
    Row(Pmfs, "free_blocks", "fs_free_blocks", "fs"),
    Row(Pmfs, "crash", "journal_replay", "fs"),
    Row(Kernel, "access", pid=_argument("process")),
    Row(Kernel, "access_range", "access_range", "cpu", _argument("process")),
    Row(Kernel, "fork", "fork", "kernel", _argument("parent")),
    Row(FileOnlyMemory, "allocate", pid=_argument("process")),
) + tuple(
    Row(Syscalls, name, f"sys_{name}", "kernel", _bound_process)
    for name in _SYSCALLS
)

#: How a wrapper reaches its machine's tracer; every other class reads
#: the ``counters.tracer`` slot of its own registry.
_TRACER_OF: Dict[type, Callable[[object], object]] = {
    Kernel: attrgetter("tracer"),
    Syscalls: attrgetter("_kernel.tracer"),
    FileOnlyMemory: attrgetter("_kernel.tracer"),
}
_COUNTERS_TRACER = attrgetter("_counters.tracer")

#: Tracers enabled right now; the wrappers stay in while any is.
_enabled: "weakref.WeakSet" = weakref.WeakSet()
#: (class, method, the function its wrapper replaced), in install order.
_replaced: List[Tuple[type, str, Callable]] = []


def _wrap(row: Row, fn: Callable, tracer_of: Callable[[object], object]) -> Callable:
    name, subsystem, pid_of = row.span, row.subsystem, row.pid

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        tracer = tracer_of(self)
        if tracer is None or not tracer.enabled:
            return fn(self, *args, **kwargs)
        if pid_of is not None:
            tracer.current_pid = pid_of(self, args, kwargs)
        if name is None:
            return fn(self, *args, **kwargs)
        tracer.begin(name, subsystem)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.end()

    return traced


def attach(tracer: object) -> None:
    """Count ``tracer`` as enabled; the first one installs the wrappers."""
    _enabled.add(tracer)
    if _replaced:
        return
    for row in SPANS:
        fn = row.cls.__dict__[row.method]
        tracer_of = _TRACER_OF.get(row.cls, _COUNTERS_TRACER)
        setattr(row.cls, row.method, _wrap(row, fn, tracer_of))
        _replaced.append((row.cls, row.method, fn))


def detach(tracer: object) -> None:
    """Stop counting ``tracer``; the last one out restores every method."""
    _enabled.discard(tracer)
    if not _enabled:
        uninstall()


def uninstall() -> None:
    """Put back every replaced method and forget the enabled tracers.

    :func:`detach` calls this when the last tracer is disabled; a test
    teardown calls it to undo a tracer that was never disabled.
    """
    _enabled.clear()
    while _replaced:
        cls, method, fn = _replaced.pop()
        setattr(cls, method, fn)


def installed_state() -> Dict[Tuple[type, str], object]:
    """The class attribute behind every row's method right now.

    Equal snapshots before and after a traced region show that every
    wrapper was removed.
    """
    return {(row.cls, row.method): row.cls.__dict__.get(row.method) for row in SPANS}
