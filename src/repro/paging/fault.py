"""Page-fault taxonomy shared by the CPU, vm layer and benchmarks.

The student-report portion of the paper's text distinguishes the two fault
kinds explicitly: a *major* fault "involves disk IO to bring in data",
while a *minor* fault "does not involve any disk IO, but updates the page
table entry to map the accessed virtual page to a free physical page".
All the paper's figures concern minor faults; major faults only occur in
this simulator when the swap baseline is enabled.
"""

from __future__ import annotations

from typing import Tuple


class FaultType:
    """Classification of a resolved page fault (int constants).

    Plain ints, not an enum: every resolved fault indexes the per-space
    tally and :data:`FAULT_COUNTERS` with one, where hashing an enum
    member and formatting its counter name cost ~0.7 µs per fault.
    """

    #: Translation absent but data already in memory (or fresh anon page).
    MINOR = 0
    #: Data had to be brought in from the swap device.
    MAJOR = 1
    #: Write to a read-only mapping resolved by copy-on-write.
    COW = 2


#: Counter name each fault kind is tallied under, indexed by kind.
FAULT_COUNTERS: Tuple[str, ...] = ("fault_minor", "fault_major", "fault_cow")
