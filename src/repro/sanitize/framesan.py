"""FrameSan: frame-lifetime detector.

Shadow state, per allocator:

* **DRAM (buddy)** — a full mirror of the allocator's outstanding
  blocks (``pfn -> order``), lazily seeded from the allocator's own
  ledger at the first armed event so allocations made before arming
  (e.g. the zero pool refilled inside ``Kernel.__init__``) are known.
* **NVM (PMFS block allocator)** — event-based: the blocks allocated
  and freed *since arming*, as two bitsets (Python ints, bit = block
  pfn - the region's first pfn), so an extent of any size updates each
  with one mask.  The bitmap's pre-arm contents are unknown and stay
  unjudged; a block freed twice since arming is a double free
  regardless.
* **Taint** — frames whose contents are not zero (crypto-erased or
  returned dirty).  The zero pool's fast path must only ever hand out
  frames that were zeroed since they were last dirtied.

Checks: double free / free of an unallocated block, use-after-free on
every CPU data access, read-of-non-zeroed-frame on the zero-pool fast
path, and leak accounting surfaced in the report (not a violation —
the simulator deliberately drops some COW frames at teardown).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Set, Tuple

from repro.lint.decorators import complexity, o1
from repro.units import PAGE_SIZE

Report = Callable[[str, str, Dict[str, Any]], None]


class FrameSan:
    """Frame-lifetime shadow ledgers and checks."""

    def __init__(self, report: Report) -> None:
        self._report = report
        #: id(buddy) -> {block pfn -> order} mirror of outstanding blocks.
        self._dram: Dict[int, Dict[int, int]] = {}
        #: id(buddy) -> (first_pfn, frame_count, max_order) for UAF lookup.
        self._dram_regions: Dict[int, Tuple[int, int, int]] = {}
        #: id(nvm allocator) -> bitset of blocks allocated since arming.
        self._nvm_allocated: Dict[int, int] = {}
        #: id(nvm allocator) -> bitset of blocks freed (and not re-allocated).
        self._nvm_freed: Dict[int, int] = {}
        #: id(nvm allocator) -> (first_pfn, block_count) for UAF lookup.
        self._nvm_regions: Dict[int, Tuple[int, int]] = {}
        #: 4 KiB frames whose contents are known non-zero.
        self._tainted: Set[int] = set()
        #: Frames permanently retired by RAS — any later allocation,
        #: free, or access of one is a violation.  PFNs are globally
        #: unique across regions, so one set covers DRAM and NVM.
        self._retired: Set[int] = set()

    # ------------------------------------------------------------------
    # DRAM buddy ledger
    # ------------------------------------------------------------------
    def _dram_ledger(self, allocator: Any) -> Dict[int, int]:
        key = id(allocator)
        ledger = self._dram.get(key)
        if ledger is None:
            # Lazy seed: everything the allocator already holds as
            # allocated predates arming and is taken on faith.
            ledger = dict(allocator._allocated)
            self._dram[key] = ledger
            region = allocator._region
            self._dram_regions[key] = (
                region.first_pfn,
                region.frame_count,
                allocator._max_order,
            )
        return ledger

    @o1(note="probes the retired set, not the block")
    def on_dram_alloc(self, allocator: Any, pfn: int, order: int) -> None:
        """Buddy handed out a block."""
        end = pfn + (1 << order)
        # Iterate the (small) retired set, not the (possibly huge) block.
        # o1: allow(flow-bounded) -- the retired set holds the few frames RAS pulled, not operand data
        if any(pfn <= retired < end for retired in self._retired):
            self._report(
                "retired-frame-realloc",
                f"buddy handed out block pfn {pfn:#x} order {order} "
                "containing a permanently retired frame",
                {"pfn": pfn, "order": order},
            )
        self._dram_ledger(allocator)[pfn] = order

    def on_dram_free(self, allocator: Any, pfn: int) -> None:
        """Buddy is about to free a block: it must be outstanding."""
        if pfn in self._retired:
            self._report(
                "retired-frame-free",
                f"free of permanently retired frame {pfn:#x}",
                {"pfn": pfn},
            )
            return
        ledger = self._dram_ledger(allocator)
        if pfn not in ledger:
            self._report(
                "double-free",
                f"buddy free of block pfn {pfn:#x} which is not an "
                "outstanding allocation (double free, or free of an "
                "interior/never-allocated frame)",
                {"pfn": pfn},
            )
            return
        del ledger[pfn]

    @o1(note="probes max_order + 1 candidate block starts")
    def dram_block_allocated(self, allocator_key: int, frame: int) -> bool:
        """Is the 4 KiB ``frame`` inside some outstanding buddy block?"""
        ledger = self._dram.get(allocator_key)
        region = self._dram_regions.get(allocator_key)
        if ledger is None or region is None:
            return True
        first, _, max_order = region
        offset = frame - first
        # o1: allow(flow-bounded) -- max_order is a config constant
        for order in range(max_order + 1):
            start = first + ((offset >> order) << order)
            if ledger.get(start) == order:
                return True
        return False

    # ------------------------------------------------------------------
    # NVM block ledger
    # ------------------------------------------------------------------
    def _nvm_mask(self, allocator: Any, first_block: int, block_count: int) -> Tuple[int, int]:
        """The ledger key of ``allocator`` and the bitset of its blocks
        ``[first_block, first_block + block_count)``."""
        key = id(allocator)
        region = self._nvm_regions.get(key)
        if region is None:
            region = (allocator._region.first_pfn, allocator._region.frame_count)
            self._nvm_regions[key] = region
            self._nvm_allocated[key] = 0
            self._nvm_freed[key] = 0
        return key, ((1 << block_count) - 1) << (first_block - region[0])

    @o1(note="one mask per ledger bitset; probes the retired set, not the extent")
    def on_nvm_alloc(self, allocator: Any, first_block: int, block_count: int) -> None:
        """PMFS allocated an extent of blocks."""
        end = first_block + block_count
        # o1: allow(flow-bounded) -- the retired set holds the few frames RAS pulled, not operand data
        if any(first_block <= retired < end for retired in self._retired):
            self._report(
                "retired-frame-realloc",
                f"NVM extent [{first_block:#x}, {end:#x}) contains a "
                "permanently retired block",
                {"pfn": first_block, "count": block_count},
            )
        key, mask = self._nvm_mask(allocator, first_block, block_count)
        self._nvm_freed[key] &= ~mask
        self._nvm_allocated[key] |= mask

    @o1(note="one mask per ledger bitset")
    def on_nvm_free(
        self, allocator: Any, first_block: int, block_count: int, check: bool
    ) -> None:
        """PMFS freed an extent.  ``check=False`` for fsck scrubbing."""
        key, mask = self._nvm_mask(allocator, first_block, block_count)
        refreed = self._nvm_freed[key] & mask if check else 0
        # A double free stops the extent at its lowest re-freed block:
        # the blocks below it are freed, that one is reported.
        lowest = refreed & -refreed
        if lowest:
            mask &= lowest - 1
        self._nvm_allocated[key] &= ~mask
        self._nvm_freed[key] |= mask
        if lowest:
            block = self._nvm_regions[key][0] + lowest.bit_length() - 1
            self._report(
                "double-free",
                f"NVM block {block:#x} freed twice (second free without "
                "an intervening allocation)",
                {"pfn": block},
            )

    # ------------------------------------------------------------------
    # Use-after-free at access time
    # ------------------------------------------------------------------
    @o1(note="scans the machine's handful of memory regions")
    def check_access(self, paddr: int) -> None:
        """A CPU data access resolved to ``paddr``: the frame must be live."""
        frame = paddr // PAGE_SIZE
        if frame in self._retired:
            self._report(
                "retired-frame-access",
                f"data access at pa {paddr:#x} landed in permanently "
                f"retired frame {frame:#x}",
                {"paddr": paddr, "pfn": frame},
            )
            return
        # o1: allow(flow-bounded) -- region list is machine topology, a config constant
        for key, (first, count, _) in self._dram_regions.items():
            if first <= frame < first + count:
                if not self.dram_block_allocated(key, frame):
                    self._report(
                        "use-after-free",
                        f"data access at pa {paddr:#x} landed in freed DRAM "
                        f"frame {frame:#x}",
                        {"paddr": paddr, "pfn": frame},
                    )
                return
        # o1: allow(flow-bounded) -- region list is machine topology, a config constant
        for key, (first, count) in self._nvm_regions.items():
            if first <= frame < first + count:
                if self._nvm_freed[key] >> (frame - first) & 1:
                    self._report(
                        "use-after-free",
                        f"data access at pa {paddr:#x} landed in freed NVM "
                        f"block {frame:#x}",
                        {"paddr": paddr, "pfn": frame},
                    )
                return

    # ------------------------------------------------------------------
    # RAS retirement
    # ------------------------------------------------------------------
    def on_dram_retired(self, allocator: Any, pfn: int) -> None:
        """RAS retired a free DRAM frame: the buddy now carries it as an
        order-0 allocation it will never hand out; mirror that and mark
        the frame permanently unusable."""
        self._dram_ledger(allocator)[pfn] = 0
        self._retired.add(pfn)

    @complexity("n", note="one ledger update per retired block")
    def on_nvm_retired(self, allocator: Any, first_block: int, block_count: int) -> None:
        """RAS retired NVM blocks (badblock adoption or migration): the
        bitmap keeps them allocated forever; mark them unusable."""
        key, mask = self._nvm_mask(allocator, first_block, block_count)
        self._nvm_allocated[key] |= mask
        self._retired.update(range(first_block, first_block + block_count))

    # ------------------------------------------------------------------
    # Zeroing taint
    # ------------------------------------------------------------------
    def taint(self, frames: Any) -> None:
        """These frames' contents are no longer zero."""
        self._tainted.update(frames)

    def untaint(self, frames: Any) -> None:
        """These frames were zeroed (eagerly, pooled, or by fresh key)."""
        self._tainted.difference_update(frames)

    def check_zeroed_handout(self, pfn: int) -> None:
        """The zero pool's fast path handed out ``pfn``: must be clean."""
        if pfn in self._tainted:
            self._report(
                "non-zeroed-frame",
                f"zero-pool fast path handed out frame {pfn:#x} whose "
                "contents were never re-zeroed after being dirtied",
                {"pfn": pfn},
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Leak-accounting counts for ``sanitize_report.json``."""
        return {
            "dram_blocks_outstanding": sum(len(lg) for lg in self._dram.values()),
            "nvm_blocks_outstanding_since_arming": sum(
                bin(bits).count("1") for bits in self._nvm_allocated.values()
            ),
            "tainted_frames": len(self._tainted),
            "retired_frames": len(self._retired),
        }
