"""Page-fault taxonomy shared by the CPU, vm layer and benchmarks.

The student-report portion of the paper's text distinguishes the two fault
kinds explicitly: a *major* fault "involves disk IO to bring in data",
while a *minor* fault "does not involve any disk IO, but updates the page
table entry to map the accessed virtual page to a free physical page".
All the paper's figures concern minor faults; major faults only occur in
this simulator when the swap baseline is enabled.
"""

from __future__ import annotations

import enum


class FaultType(enum.Enum):
    """Classification of a resolved page fault."""

    #: Translation absent but data already in memory (or fresh anon page).
    MINOR = "minor"
    #: Data had to be brought in from the swap device.
    MAJOR = "major"
    #: Write to a read-only mapping resolved by copy-on-write.
    COW = "cow"

    @property
    def counter_name(self) -> str:
        """Counter name under which this fault kind is tallied."""
        return f"fault_{self.value}"
