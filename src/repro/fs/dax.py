"""DAX helpers: direct access to file frames, bypassing the page cache.

With file data resident in byte-addressable NVM, mmap can install
translations straight to the media's frames — no page cache, no copy.
"Given that data is already in memory, it is natural to simply expose that
data to programs directly rather than forcing the kernel to interpose on
every access" (§3/§4).

These helpers decide whether, and at what page size, file-only memory
can map a file extent-at-a-time.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.fs.pmfs import Pmfs
from repro.fs.vfs import FileSystem, Inode
from repro.units import PAGE_SIZE


def is_dax(fs: FileSystem) -> bool:
    """True if mappings of this file system go direct to media frames."""
    return isinstance(fs, Pmfs) and fs.dax


def direct_map_runs(inode: Inode) -> Iterator[Tuple[int, int, int]]:
    """(file_page, pfn, run_pages) for a whole DAX file, extent order.

    The enumeration that makes O(1)-per-extent mapping possible: a
    single-extent file yields exactly one run regardless of size.
    """
    fs = inode.fs
    if not is_dax(fs):
        raise ValueError(
            f"file system {fs.name!r} is not DAX; only PMFS files have "
            f"stable media frames"
        )
    npages = inode.page_count
    if npages == 0:
        return
    backing = fs.backing_for(inode)
    yield from backing.frame_runs(0, npages)


def largest_natural_alignment(inode: Inode) -> int:
    """Largest page-table-natural granularity every extent satisfies.

    Returns bytes (1 GiB, 2 MiB or 4 KiB): the page size file-only memory
    may use to map this file, which depends on how the allocator aligned
    its extents.
    """
    fs = inode.fs
    if not isinstance(fs, Pmfs):
        return PAGE_SIZE
    best = 1 << 30  # start optimistic at 1 GiB
    tree = fs._tree_of(inode)
    if tree.extent_count == 0:
        return PAGE_SIZE
    for extent in tree.extents():
        start = extent.pfn * PAGE_SIZE
        size = extent.count * PAGE_SIZE
        while best > PAGE_SIZE and (start % best or size % best):
            best //= 512
        if best < PAGE_SIZE:
            best = PAGE_SIZE
    return max(best, PAGE_SIZE)
