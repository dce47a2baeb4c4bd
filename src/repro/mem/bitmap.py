"""Block bitmap with run-oriented operations.

File systems represent free space with one bit per block — the paper's §3.1
contrasts this ("unused blocks are represented by a single bit in a bitmap")
with the kernel's heavyweight per-page metadata.  The operations here are
run-oriented (``set_range``, ``find_clear_run``) because extent-based
allocation wants contiguous runs, and because run operations touch
O(run/word) memory rather than O(run) — part of what makes file-system
allocation cheap at scale.

The backing store is a single Python int used as a bitset, which makes the
word-level operations fast and the structure trivially copyable.  The
searches work by runs on the host too: ``find_clear_run`` and
``largest_clear_run`` step over a whole set or clear run per iteration,
and :meth:`Bitmap.mismatches` hands a checker the bits that differ from
an expected bitset in one XOR, so none of them pays one step per block.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lint.decorators import complexity


class Bitmap:
    """Fixed-size bitmap; bit i set means block i is allocated."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"bitmap size must be positive, got {size}")
        self._size = size
        self._bits = 0
        self._set_count = 0

    @property
    def size(self) -> int:
        """Number of bits tracked."""
        return self._size

    @property
    def set_count(self) -> int:
        """Number of set (allocated) bits."""
        return self._set_count

    @property
    def clear_count(self) -> int:
        """Number of clear (free) bits."""
        return self._size - self._set_count

    def _check_range(self, start: int, length: int) -> None:
        if start < 0 or length < 0 or start + length > self._size:
            raise IndexError(
                f"range [{start}, {start + length}) outside bitmap of "
                f"size {self._size}"
            )

    # ------------------------------------------------------------------
    # Single-bit operations
    # ------------------------------------------------------------------
    def test(self, index: int) -> bool:
        """True if bit ``index`` is set."""
        self._check_range(index, 1)
        return bool(self._bits >> index & 1)

    # ------------------------------------------------------------------
    # Run operations
    # ------------------------------------------------------------------
    def set_range(self, start: int, length: int) -> None:
        """Set ``length`` bits from ``start``; all must currently be clear."""
        self._check_range(start, length)
        if length == 0:
            return
        mask = (1 << length) - 1 << start
        if self._bits & mask:
            raise ValueError(
                f"set_range([{start}, {start + length})) overlaps set bits"
            )
        self._bits |= mask
        self._set_count += length

    def clear_range(self, start: int, length: int) -> None:
        """Clear ``length`` bits from ``start``; all must currently be set."""
        self._check_range(start, length)
        if length == 0:
            return
        mask = (1 << length) - 1 << start
        if self._bits & mask != mask:
            raise ValueError(
                f"clear_range([{start}, {start + length})) covers clear bits"
            )
        self._bits &= ~mask
        self._set_count -= length

    def run_is_clear(self, start: int, length: int) -> bool:
        """True if every bit in ``[start, start + length)`` is clear."""
        self._check_range(start, length)
        if length == 0:
            return True
        mask = (1 << length) - 1 << start
        return not self._bits & mask

    @complexity("n", note="next-fit scan across the bitmap")
    def find_clear_run(self, length: int, start_hint: int = 0) -> Optional[int]:
        """First index of ``length`` consecutive clear bits, or None.

        Searches from ``start_hint`` and wraps; allocators pass the last
        allocation point as the hint to approximate next-fit.
        """
        if length <= 0:
            raise ValueError(f"run length must be positive, got {length}")
        if length > self._size:
            return None
        hint = start_hint % self._size
        found = self._scan(hint, self._size, length)
        if found is None and hint:
            found = self._scan(0, hint + length - 1, length)
        return found

    @complexity("n", note="skips whole clear/set runs, worst case one pass")
    def _scan(self, lo: int, hi: int, length: int) -> Optional[int]:
        """Find a clear run of ``length`` within ``[lo, min(hi, size))``."""
        hi = min(hi, self._size)
        bits = self._bits
        index = lo
        while index + length <= hi:
            window = bits >> index
            if window & 1:
                # Skip the whole set run: the lowest clear bit of
                # ``window`` is the one ``window + 1`` carries into.
                index += ((window + 1) & ~window).bit_length() - 1
                continue
            # Found a clear bit: the clear run extends to the next set bit.
            if window == 0:
                return index  # everything from here up is clear
            next_set = (window & -window).bit_length() - 1
            if next_set >= length:
                return index
            index += next_set + 1
        return None

    @complexity("n", note="one step per clear/set run, worst case one pass")
    def largest_clear_run(self) -> int:
        """Length of the longest run of clear bits (fragmentation metric)."""
        best = 0
        bits = self._bits
        index = 0
        while index < self._size:
            window = bits >> index
            if window & 1:
                index += ((window + 1) & ~window).bit_length() - 1
                continue
            if window == 0:
                return max(best, self._size - index)
            run = (window & -window).bit_length() - 1
            best = max(best, run)
            index += run
        return best

    @complexity("n", note="one XOR, then one step per differing bit")
    def mismatches(self, expected: int) -> List[int]:
        """Indexes whose bit differs from bitset ``expected``, lowest first.

        Bits of ``expected`` at or beyond :attr:`size` are ignored, so a
        checker can OR in claims without clipping them to the bitmap.
        """
        diff = (self._bits ^ expected) & ((1 << self._size) - 1)
        found: List[int] = []
        while diff:
            lowest = diff & -diff
            found.append(lowest.bit_length() - 1)
            diff ^= lowest
        return found

    def __repr__(self) -> str:
        return f"Bitmap(size={self._size}, set={self._set_count})"
