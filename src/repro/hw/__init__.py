"""Simulated hardware: clock, cost model, caches, TLBs, and the CPU.

This package is the measurement backbone of the reproduction.  Every
memory-management event (a memory reference, a TLB miss, a page-table walk,
a trap into the kernel) flows through these models, which advance a
deterministic :class:`~repro.hw.clock.SimClock` by costs drawn from a
calibrated :class:`~repro.hw.costmodel.CostModel`.  The figures in the paper
are reproduced by *counting the same events* Linux incurs and charging a
fixed cost per event.  Events are counted in the one counter class,
:class:`repro.obs.metrics.MetricsRegistry` (no strict mode: a source audit
enforces counter names), and flag tests use int constants (``PageFlags``,
``Protection``, ``MapFlags``), so per-event bookkeeping stays cheap.
"""

from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel, MemoryTechnology
from repro.hw.cache import CacheModel
from repro.hw.tlb import Tlb, TlbEntry
from repro.hw.rtlb import RangeTlb
from repro.hw.cpu import Cpu

__all__ = [
    "CacheModel",
    "CostModel",
    "Cpu",
    "MemoryTechnology",
    "RangeTlb",
    "SimClock",
    "Tlb",
    "TlbEntry",
]
