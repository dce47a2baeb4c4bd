"""Extent trees: file-block to physical-frame translation in long runs.

"Modern file systems, when possible, translate addresses in long extents
(e.g., Ext4, NTFS) rather than individual blocks" (§3.1).  An extent maps
a contiguous run of logical file blocks to a contiguous run of physical
frames with one fixed-size record, which is what lets file-only memory map
a whole file in O(#extents) instead of O(#pages) — and in O(1) when the
allocator produces single-extent files.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import FileSystemError
from repro.lint import complexity, o1


@dataclass(frozen=True)
class Extent:
    """One run: file blocks [logical, logical+count) -> frames [pfn, pfn+count)."""

    logical: int
    pfn: int
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"extent count must be positive, got {self.count}")
        if self.logical < 0 or self.pfn < 0:
            raise ValueError("extent offsets must be non-negative")

    @property
    def logical_end(self) -> int:
        """One past the last logical block covered."""
        return self.logical + self.count

    def covers(self, logical_block: int) -> bool:
        """True if this extent translates ``logical_block``."""
        return self.logical <= logical_block < self.logical_end

    def pfn_of(self, logical_block: int) -> int:
        """Frame backing ``logical_block`` (caller checked covers())."""
        return self.pfn + (logical_block - self.logical)

    def abuts(self, other: "Extent") -> bool:
        """True if ``other`` continues this extent both logically and physically."""
        return (
            other.logical == self.logical_end
            and other.pfn == self.pfn + self.count
        )


class ExtentTree:
    """Sorted, non-overlapping extent map for one file.

    Kept as a sorted list (files in this simulator have few extents by
    design — that is the whole point); lookup is a binary search.
    """

    def __init__(self) -> None:
        self._extents: List[Extent] = []
        self._logicals: List[int] = []

    @property
    def extent_count(self) -> int:
        """Number of extent records (the O(1) design drives this to 1)."""
        return len(self._extents)

    @property
    def block_count(self) -> int:
        """Total logical blocks mapped."""
        return sum(extent.count for extent in self._extents)

    def extents(self) -> List[Extent]:
        """All extents, ascending by logical block."""
        return list(self._extents)

    @o1(note="bisect insert + bounded neighbor merge")
    def insert(self, extent: Extent) -> None:
        """Add an extent; merges with an abutting predecessor."""
        index = bisect.bisect_left(self._logicals, extent.logical)
        if index > 0:
            prev = self._extents[index - 1]
            if prev.logical_end > extent.logical:
                raise FileSystemError(f"{extent!r} overlaps {prev!r}")
        if index < len(self._extents):
            nxt = self._extents[index]
            if extent.logical_end > nxt.logical:
                raise FileSystemError(f"{extent!r} overlaps {nxt!r}")
        # Merge with the predecessor when physically contiguous.
        if index > 0 and self._extents[index - 1].abuts(extent):
            prev = self._extents[index - 1]
            merged = Extent(prev.logical, prev.pfn, prev.count + extent.count)
            self._extents[index - 1] = merged
            self._maybe_merge_forward(index - 1)
            return
        self._extents.insert(index, extent)
        self._logicals.insert(index, extent.logical)
        self._maybe_merge_forward(index)

    def _maybe_merge_forward(self, index: int) -> None:
        if index + 1 < len(self._extents) and self._extents[index].abuts(
            self._extents[index + 1]
        ):
            left = self._extents[index]
            right = self._extents.pop(index + 1)
            self._logicals.pop(index + 1)
            self._extents[index] = Extent(
                left.logical, left.pfn, left.count + right.count
            )

    @o1(note="one bisect")
    def lookup(self, logical_block: int) -> Optional[Tuple[int, int]]:
        """(pfn, run_remaining) for ``logical_block``, or None if a hole.

        ``run_remaining`` is how many blocks from here stay contiguous —
        the walker/mapper uses it to batch work per extent.
        """
        index = bisect.bisect_right(self._logicals, logical_block) - 1
        if index < 0:
            return None
        extent = self._extents[index]
        if not extent.covers(logical_block):
            return None
        return (
            extent.pfn_of(logical_block),
            extent.logical_end - logical_block,
        )

    @complexity("n", note="one lookup per run; runs never outnumber blocks")
    def runs(self, start_block: int, nblocks: int) -> Iterator[Tuple[int, int, int]]:
        """(logical_block, pfn, run_len) covering ``[start, start+nblocks)``.

        Raises on holes: simulated files are fully allocated (the
        space-for-time trade).
        """
        block = start_block
        end = start_block + nblocks
        while block < end:
            found = self.lookup(block)
            if found is None:
                raise FileSystemError(
                    f"hole at logical block {block}; file is not fully allocated"
                )
            pfn, remaining = found
            run = min(remaining, end - block)
            yield block, pfn, run
            block += run

    def remove_all(self) -> List[Extent]:
        """Drop every extent, returning them for the allocator to free."""
        extents = self._extents
        self._extents = []
        self._logicals = []
        return extents
