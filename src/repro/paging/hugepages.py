"""Huge-page selection: tiling a region with the largest legal pages.

x86-64 offers exactly three page sizes (4 KiB, 2 MiB, 1 GiB — "powers of
512 times bigger"), and a huge page is only usable where virtual *and*
physical addresses share its alignment.  The paper's §3 notes this forces
systems "to resort to small pages in many cases"; these helpers compute
the best legal tiling so the populate and file-mapping paths can measure
how much (or little) huge pages help a given allocation.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.lint.decorators import complexity, o1
from repro.units import HUGE_PAGE_1G, HUGE_PAGE_2M, PAGE_SIZE

#: All page sizes of the simulated processor, descending.
SUPPORTED_PAGE_SIZES: Tuple[int, ...] = (HUGE_PAGE_1G, HUGE_PAGE_2M, PAGE_SIZE)


@o1(note="the processor offers exactly three page sizes")
def largest_page_for(
    vaddr: int,
    paddr: int,
    remaining: int,
    allowed: Sequence[int] = SUPPORTED_PAGE_SIZES,
) -> int:
    """Largest allowed page usable at this (vaddr, paddr) position.

    A size qualifies only if both addresses are aligned to it and at least
    one full page of it fits in ``remaining`` bytes.
    """
    if remaining < PAGE_SIZE:
        raise ValueError(f"remaining {remaining} is smaller than a base page")
    # o1: allow(flow-bounded) -- `allowed` is the hardware page-size menu (three entries)
    for size in sorted(allowed, reverse=True):
        if remaining >= size and vaddr % size == 0 and paddr % size == 0:
            return size
    raise ValueError(
        f"no allowed page size fits at vaddr={vaddr:#x} paddr={paddr:#x}: "
        f"addresses must at least be {PAGE_SIZE}-aligned"
    )


@complexity("n", note="one yielded run per tile of the region")
def choose_page_runs(
    vaddr: int,
    paddr: int,
    length: int,
    allowed: Sequence[int] = SUPPORTED_PAGE_SIZES,
) -> Iterator[Tuple[int, int, int]]:
    """Tile ``[vaddr, vaddr+length)`` -> ``[paddr, ...)`` with legal pages.

    Yields ``(vaddr, paddr, page_size)`` per page, greedily using the
    largest size whose alignment both sides satisfy.  ``length`` must be a
    multiple of the base page size (callers round up — the space-for-time
    trade).

    >>> runs = list(choose_page_runs(0, 0, 4 * 1024 * 1024,
    ...                              allowed=(2 * 1024 * 1024, 4096)))
    >>> [size for _, _, size in runs]
    [2097152, 2097152]
    """
    if length <= 0 or length % PAGE_SIZE:
        raise ValueError(
            f"length must be a positive multiple of {PAGE_SIZE}, got {length}"
        )
    if vaddr % PAGE_SIZE or paddr % PAGE_SIZE:
        raise ValueError("vaddr and paddr must be base-page aligned")
    position = 0
    while position < length:
        size = largest_page_for(
            vaddr + position, paddr + position, length - position, allowed
        )
        yield vaddr + position, paddr + position, size
        position += size


def page_count_for_tiling(
    vaddr: int,
    paddr: int,
    length: int,
    allowed: Sequence[int] = SUPPORTED_PAGE_SIZES,
) -> int:
    """Number of PTEs the best tiling needs — the paper's linearity metric.

    With only 4 KiB pages this is length/4096; with aligned huge pages it
    collapses by up to 512x per level, which is why the paper wants
    file-system extents aligned to "the natural granularities of page
    table structures".
    """
    return sum(1 for _ in choose_page_runs(vaddr, paddr, length, allowed))
