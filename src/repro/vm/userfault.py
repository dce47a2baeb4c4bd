"""userfaultfd-style delegation: application-managed paging.

Paper §3.1: with file-only memory the kernel stops swapping, and "those
applications that need swapping could implement it themselves using
techniques such as userfaultfd".  This module supplies that escape hatch:
a :class:`UserFaultRegion` registers a user-mode handler for a VMA; when
the CPU faults inside it, the kernel upcalls into the handler (charging
the user/kernel bounce the real mechanism pays), and the handler decides
where the page comes from — a swap file, a remote node, decompression —
then installs it with :meth:`resolve`.

The kernel's own fault path stays untouched: the region's backing raises
to the handler instead of allocating, so this composes with any file
system backing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple, TYPE_CHECKING

from repro.errors import MappingError, ProtectionError
from repro.lint import complexity
from repro.units import PAGE_SIZE
from repro.vm.vma import MapFlags, MemoryBacking, Protection, Vma

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process

#: Extra round-trip cost of delivering a fault to user space and resuming:
#: wake the handler thread, context switch, read the uffd message, and the
#: ioctl back (two crossings + scheduling).
UPCALL_NS = 4_500

#: Handler callback: (page_index) -> bytes | None.  Returning data means
#: "copy this in" (UFFDIO_COPY); None means "map a zero page"
#: (UFFDIO_ZEROPAGE).
FaultHandler = Callable[[int], Optional[bytes]]


class _UserFaultBacking(MemoryBacking):
    """Backing that upcalls instead of allocating."""

    def __init__(self, region: "UserFaultRegion") -> None:
        self._region = region

    def frame_for(self, page_index: int, write: bool) -> int:
        return self._region._handle_user_fault(page_index)

    def frame_runs(self, start_page: int, npages: int) -> Iterator[Tuple[int, int, int]]:
        raise MappingError(
            "userfault regions cannot be pre-populated; faults are the point"
        )

    @complexity("n", note="one probe per page of the range")
    def release(self, page_index: int, npages: int) -> None:
        self._region._release_pages(page_index, npages)


class UserFaultRegion:
    """A demand region whose faults are resolved by application code."""

    def __init__(
        self,
        kernel: "Kernel",
        process: "Process",
        length: int,
        handler: FaultHandler,
        prot: int = Protection.rw(),
    ) -> None:
        if length <= 0 or length % PAGE_SIZE:
            raise MappingError(
                f"length must be a positive page multiple, got {length}"
            )
        self._kernel = kernel
        self._process = process
        self.handler = handler
        self._frames: Dict[int, int] = {}
        backing = _UserFaultBacking(self)
        self.vma: Vma = process.space.mmap(
            length=length,
            prot=prot,
            flags=MapFlags.SHARED,
            backing=backing,
            name="userfault",
        )
        self.vaddr = self.vma.start
        self.length = length
        #: Faults delivered to the handler so far.
        self.delivered = 0

    # ------------------------------------------------------------------
    # Kernel-side fault delivery
    # ------------------------------------------------------------------
    def _handle_user_fault(self, page_index: int) -> int:
        existing = self._frames.get(page_index)
        if existing is not None:
            return existing
        # Deliver to user space: the expensive bounce.
        self._kernel.clock.advance(UPCALL_NS)
        self._kernel.counters.bump("userfault_upcall")
        self.delivered += 1
        data = self.handler(page_index)
        return self.resolve(page_index, data)

    def resolve(self, page_index: int, data: Optional[bytes]) -> int:
        """Install the page (UFFDIO_COPY / UFFDIO_ZEROPAGE)."""
        if page_index in self._frames:
            raise MappingError(f"page {page_index} already resolved")
        pfn = self._kernel.dram_buddy.alloc(0)
        costs = self._kernel.costs
        if data is None:
            self._kernel.clock.advance(costs.zero_page_ns(PAGE_SIZE))
            self._kernel.counters.bump("userfault_zeropage")
        else:
            if len(data) > PAGE_SIZE:
                self._kernel.dram_buddy.free(pfn)
                raise MappingError(
                    f"resolved data of {len(data)} bytes exceeds a page"
                )
            lines = -(-max(len(data), 1) // 64)
            self._kernel.clock.advance(costs.copy_line_ns * lines * 2)
            self._kernel.counters.bump("userfault_copy")
        self._frames[page_index] = pfn
        return pfn

    # ------------------------------------------------------------------
    # Application-side eviction (self-managed swapping)
    # ------------------------------------------------------------------
    def evict(self, page_index: int) -> bool:
        """Drop a resident page so the next touch faults to the handler.

        This is the application "implementing swapping itself": it owns
        the copy-out (its handler must be able to reproduce the data).
        """
        pfn = self._frames.pop(page_index, None)
        if pfn is None:
            return False
        page_va = self.vaddr + page_index * PAGE_SIZE
        self._process.space.evict_page(page_va)
        self._kernel.dram_buddy.free(pfn)
        self._kernel.counters.bump("userfault_evict")
        return True

    def resident_pages(self) -> int:
        """Pages currently materialized."""
        return len(self._frames)

    @complexity("n", note="one probe per page of the range")
    def _release_pages(self, page_index: int, npages: int) -> None:
        for index in range(page_index, page_index + npages):
            pfn = self._frames.pop(index, None)
            if pfn is not None:
                self._kernel.dram_buddy.free(pfn)

    def close(self) -> None:
        """Unregister: unmap the VMA and free resident frames."""
        self._process.space.munmap(self.vaddr, self.length)
