"""Per-layer host-time spans, recorded from outside the simulator.

Each layer's public methods are wrapped on their classes for the length
of a traced run.  A wrapper records one span per call (name, start, end,
parent) while the recorder is active and adds the call's duration, minus
the time its child spans cover, to the layer's self time.  The kernel's
own tracer and profiler stay off: enabling them moves ``Cpu.access`` onto
a different host path, so the spans would no longer time the untraced
program.

Wrappers must be installed *before* the machine is built: ``Kernel.spawn``
binds ``dram_buddy.free_many`` when it creates a page table, and a bound
method taken before installation would bypass its wrapper.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List, Tuple

from repro.fs.pmfs import BlockAllocator, Pmfs
from repro.hw.cache import CacheModel
from repro.hw.cpu import Cpu
from repro.hw.tlb import Tlb
from repro.kernel.kernel import Kernel
from repro.kernel.syscalls import Syscalls
from repro.mem.bitmap import Bitmap
from repro.mem.buddy import BuddyAllocator
from repro.mem.frame_meta import FrameTable
from repro.obs.metrics import MetricsRegistry
from repro.paging.pagetable import PageTable
from repro.paging.walker import PageWalker
from repro.qos.controller import QosController
from repro.vm.addrspace import AddressSpace
from repro.vm.reclaimd import ClockReclaimer, LruLists
from repro.vm.swap import SwapDevice

#: Layer name (one per simulator module) -> the methods whose calls it owns.
LAYERS: Dict[str, Tuple[Tuple[type, Tuple[str, ...]], ...]] = {
    "kernel": ((Kernel, ("access", "access_range", "fork", "spawn")),),
    "kernel.syscalls": (
        (
            Syscalls,
            (
                "open", "close", "read", "write", "pread", "pwrite",
                "unlink", "mmap", "fork", "munmap", "mprotect",
            ),
        ),
    ),
    "hw.cpu": (
        (
            Cpu,
            (
                "access", "access_range", "invalidate_page",
                "invalidate_space_range", "switch_address_space",
            ),
        ),
    ),
    "hw.tlb": (
        (
            Tlb,
            (
                "lookup", "insert", "invalidate", "invalidate_range",
                "flush_asid", "flush_all",
            ),
        ),
    ),
    "hw.cache": ((CacheModel, ("reference", "touch_range", "evict_range")),),
    "paging.walker": ((PageWalker, ("walk",)),),
    "paging.pagetable": (
        (
            PageTable,
            (
                "map", "unmap", "protect", "lookup", "path_nodes",
                "link_subtree", "unlink_subtree", "window_write_protect",
                "privatize_window", "clear", "release",
            ),
        ),
    ),
    "vm.addrspace": (
        (
            AddressSpace,
            ("handle_fault", "evict_page", "munmap", "mmap", "populate", "mprotect"),
        ),
    ),
    "vm.reclaimd": (
        (ClockReclaimer, ("reclaim",)),
        (LruLists, ("page_mapped", "page_unmapped")),
    ),
    "vm.swap": ((SwapDevice, ("write_page", "read_page", "free_slot")),),
    "mem.buddy": ((BuddyAllocator, ("alloc", "alloc_pages", "free", "free_many")),),
    "mem.frame_meta": ((FrameTable, ("touch",)),),
    "mem.bitmap": (
        (
            Bitmap,
            ("test", "set_range", "clear_range", "run_is_clear", "find_clear_run"),
        ),
    ),
    "fs.pmfs": (
        (BlockAllocator, ("alloc_extent", "alloc_best_effort", "free_extent")),
        (
            Pmfs,
            (
                "create", "unlink", "allocate_blocks", "shrink_blocks",
                "free_blocks", "charge_block_lookup",
            ),
        ),
    ),
    "qos": (
        (
            QosController,
            (
                "reclaim_batch", "enter_pid", "on_frames_alloc",
                "on_frames_free", "on_nvm_alloc", "on_nvm_free",
            ),
        ),
    ),
    "obs.metrics": ((MetricsRegistry, ("bump", "observe")),),
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)


class SpanRecorder:
    """Spans and per-layer totals for the calls made while active.

    Totals (calls, self time) cover every call; full span records are
    kept for the first ``SPAN_CAP`` calls only, so a long run's memory
    stays bounded.
    """

    SPAN_CAP = 50_000

    def __init__(self) -> None:
        self.active = False
        self.reset()

    def reset(self) -> None:
        """Forget every span and total recorded so far."""
        self.calls = [0] * len(LAYER_NAMES)
        self.self_ns = [0] * len(LAYER_NAMES)
        #: [name, start_ns, end_ns, parent index or -1]
        self.spans: List[list] = []
        self.dropped = 0
        #: Open calls: [span index or -1, child time in ns].
        self._stack: List[list] = []

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """Layer name -> (calls, self ns)."""
        return {
            name: (self.calls[i], self.self_ns[i])
            for i, name in enumerate(LAYER_NAMES)
        }

    def wrap(self, layer: int, name: str, fn):
        """A wrapper of ``fn`` that records its calls under ``layer``."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = recorder._stack
            spans = recorder.spans
            parent = stack[-1][0] if stack else -1
            if len(spans) < recorder.SPAN_CAP:
                index = len(spans)
                span = [name, 0, 0, parent]
                spans.append(span)
            else:
                index = -1
                span = None
                recorder.dropped += 1
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                recorder.calls[layer] += 1
                recorder.self_ns[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span is not None:
                    span[1] = start
                    span[2] = end

        return wrapper

    def write(self, path: str) -> None:
        """Write the recorded spans and per-layer totals as JSON."""
        with open(path, "w") as out:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start_ns": s, "end_ns": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "dropped": self.dropped,
                    "layers": {
                        name: {"calls": c, "self_ns": ns}
                        for name, (c, ns) in self.totals().items()
                    },
                },
                out,
            )


def installed_state() -> Dict[Tuple[type, str], object]:
    """The current class attribute behind every wrapped method name.

    Comparing this before and after a traced run shows that every
    wrapper was removed.
    """
    return {
        (cls, method): cls.__dict__.get(method)
        for groups in LAYERS.values()
        for cls, methods in groups
        for method in methods
    }


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer method for the duration of the block."""
    saved = []
    try:
        for layer, groups in enumerate(LAYERS.values()):
            for cls, methods in groups:
                for method in methods:
                    own = cls.__dict__.get(method)
                    fn = getattr(cls, method)
                    saved.append((cls, method, own))
                    setattr(
                        cls,
                        method,
                        recorder.wrap(layer, f"{cls.__name__}.{method}", fn),
                    )
        yield recorder
    finally:
        for cls, method, own in reversed(saved):
            if own is None:
                delattr(cls, method)  # the method was inherited
            else:
                setattr(cls, method, own)
