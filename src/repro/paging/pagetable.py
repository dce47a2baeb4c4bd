"""Multi-level (radix) page tables, x86-64 style.

A page table is a radix tree with 512-entry nodes translating 9 bits per
level.  Four levels translate 48 bits; five translate 57 (Intel's 5-level
paging, which §2 of the paper cites as the price of ever-larger physical
memories).  Leaves can sit at any of the bottom three levels: a leaf at
the lowest level maps 4 KiB, one level up 2 MiB, two levels up 1 GiB —
matching x86-64's "powers of 512 times bigger than 4 KB" page sizes.

Two features exist specifically for the paper's O(1) designs:

* :meth:`PageTable.link_subtree` grafts an *existing* interior node into
  another table, which is how physically based mappings and pre-created
  page tables turn "map a file" into a single pointer write (§3.1:
  "mapping becomes changing a single pointer in a page table to refer to
  existing page tables");
* interior nodes are reference-counted so shared subtrees survive the
  teardown of any one address space.

Costs: creating a node charges ``pt_node_alloc_ns`` (a frame allocation
plus zeroing), and writing a leaf entry charges ``pte_write_ns``.  Walk
costs are charged by :mod:`repro.paging.walker`, not here.

Every leaf write goes through one pair: :meth:`PageTable.leaf_node`
descends (creating and unsharing the path) to the node that holds a
leaf, and :meth:`PageTable.write_leaf` writes one PTE into it.
:meth:`~PageTable.map` is one call of each; a populate descends once per
2 MiB window and writes each 4 KiB PTE of the window into the same node,
and :meth:`~PageTable.replace_leaf` swaps a COW-faulted leaf from one
descent.  Each PTE write still charges one ``pte_write_ns``.

Software reads descend once too; the walker reads a hardware walk's
path through :meth:`~PageTable.path_nodes`.  :meth:`PageTable.descend`
is the one uncharged software descent: it returns the node and slot
where ``vaddr``'s leaf sits, the raw leaf, and whether the path is
write-protected or shared, so an eviction or a per-page teardown
decides and acts from one descent; :meth:`~PageTable.lookup` is its
effective-leaf view.  A demand fault usually needs none: a flat walk
that finds its slot empty keeps the same answer for the fault
(:class:`~repro.paging.walker.MissedWalk`), and when the fault writes
its leaf into that walk's node the retry re-reads the walk's path
instead of calling :meth:`~PageTable.path_nodes` again.  Every leaf
clear ends in :meth:`PageTable.clear_slot` (delete, one PTE write, the
sanitizer hook), which callers holding an unshared path use directly
and :meth:`~PageTable.unmap` uses after unsharing.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import AlignmentError, ConfigurationError, MappingError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.lint import complexity, o1
from repro.obs.metrics import MetricsRegistry
from repro.units import HUGE_PAGE_1G, HUGE_PAGE_2M, PAGE_SIZE, PTES_PER_TABLE

#: Bits translated per level and by the page offset.
_BITS_PER_LEVEL = 9
_PAGE_SHIFT = 12
#: The radix index at depth ``d`` is ``(vaddr >> shifts[d]) & INDEX_MASK``;
#: ``_SHIFTS`` holds the per-depth shifts, root first, per level count.
INDEX_MASK = PTES_PER_TABLE - 1
_SHIFTS = {
    n: tuple(_PAGE_SHIFT + _BITS_PER_LEVEL * (n - 1 - d) for d in range(n))
    for n in (4, 5)
}

#: Page size mapped by a leaf at depth (levels - 1 - d) from the bottom.
_LEAF_SIZES = (PAGE_SIZE, HUGE_PAGE_2M, HUGE_PAGE_1G)

#: Synthetic physical addresses for page-table nodes when no frame source
#: is wired in (standalone/unit-test use).  Placed high so they never
#: collide with simulated RAM.
_SYNTHETIC_NODE_BASE = 1 << 52


class Pte(NamedTuple):
    """A leaf translation entry (immutable and hashable).

    ``pfn`` is in units of the entry's own ``page_size`` (so a 2 MiB PTE's
    pfn counts 2 MiB frames), mirroring how hardware reads the address
    bits of a huge-page entry.  A named tuple, not a dataclass: every
    fault builds one, and the tuple constructor is the cheaper of the two.
    """

    pfn: int
    page_size: int = PAGE_SIZE
    writable: bool = True
    user: bool = True
    dirty: bool = False
    accessed: bool = False

    def read_only(self) -> "Pte":
        """This entry with ``writable`` cleared and every other field kept.

        ``_replace(writable=False)`` without its keyword handling, which
        costs more than the tuple itself: a first store into a
        fork-shared window downgrades up to 512 leaves at once.  Name
        every field here, and in :meth:`PageTable.write_leaf`'s
        constructor, when adding one above.
        """
        return Pte(
            self.pfn, self.page_size, False, self.user, self.dirty, self.accessed
        )

    @property
    def paddr(self) -> int:
        """Base physical address of the mapped page."""
        return self.pfn * self.page_size


class PageTableNode:
    """One 4 KiB radix node holding up to 512 entries.

    ``refs`` counts how many parent slots (or table roots) point here;
    shared subtrees are freed only when the last reference drops.
    """

    _synthetic_addrs = itertools.count(_SYNTHETIC_NODE_BASE, PAGE_SIZE)

    __slots__ = ("entries", "depth", "paddr", "refs", "wp_slots")

    def __init__(self, depth: int, paddr: Optional[int] = None) -> None:
        self.entries: Dict[int, Union["PageTableNode", Pte]] = {}
        self.depth = depth
        self.paddr = paddr if paddr is not None else next(self._synthetic_addrs)
        self.refs = 1
        #: Slot indexes whose subtree is write-protected: hardware treats
        #: every translation below such a slot as read-only regardless of
        #: the leaf's own W bit.  This is how COW fork shares a whole
        #: window with one permission-bit write instead of downgrading
        #: each leaf.
        self.wp_slots: set = set()

    def __repr__(self) -> str:
        return (
            f"PageTableNode(depth={self.depth}, entries={len(self.entries)}, "
            f"refs={self.refs})"
        )


class PageTable:
    """A process's page-table tree.

    Parameters
    ----------
    levels:
        4 (48-bit VA) or 5 (57-bit VA).
    clock, costs, counters:
        The machine's; a table built without them keeps its own, so
        standalone use charges no one else's clock or registry.
    frame_source:
        Optional callable returning a PFN for each new node, so node
        frames come from the simulated buddy allocator.  Without it,
        synthetic high addresses are used.
    frame_sink:
        Optional callable taking a list of PFNs; :meth:`release` hands
        it every node frame this table owned, in one batch, so process
        exit returns page-table memory to the allocator at extent cost.
    """

    def __init__(
        self,
        levels: int = 4,
        clock: Optional[SimClock] = None,
        costs: Optional[CostModel] = None,
        counters: Optional[MetricsRegistry] = None,
        frame_source: Optional[Callable[[], int]] = None,
        frame_sink: Optional[Callable[[List[int]], None]] = None,
    ) -> None:
        if levels not in _SHIFTS:
            raise ConfigurationError(f"levels must be 4 or 5, got {levels}")
        #: Number of radix levels (4 or 5).
        self.levels = levels
        #: Depth of the lowest interior node (one 2 MiB window each).
        self.bottom_depth = levels - 1
        self.shifts: Tuple[int, ...] = _SHIFTS[levels]
        self._clock: SimClock = clock or SimClock()
        self._costs: CostModel = costs or CostModel()
        self._counters: MetricsRegistry = counters or MetricsRegistry()
        self._frame_source = frame_source
        self._frame_sink = frame_sink
        self._node_count = 0
        self._root = self._new_node(depth=0)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def root(self) -> PageTableNode:
        """Top-level node (CR3 target)."""
        return self._root

    @property
    def va_bits(self) -> int:
        """Virtual-address bits this table can translate."""
        return _PAGE_SHIFT + _BITS_PER_LEVEL * self.levels

    @property
    def node_count(self) -> int:
        """Interior+leaf nodes allocated by *this* table (shared subtrees
        grafted in via :meth:`link_subtree` are not counted)."""
        return self._node_count

    @o1(note="scan of the three supported leaf sizes")
    def _leaf_depth_for(self, page_size: int) -> int:
        """Tree depth at which a leaf of ``page_size`` sits."""
        # o1: allow(flow-bounded) -- _LEAF_SIZES is the hardware page-size menu
        for up, size in enumerate(_LEAF_SIZES):
            if size == page_size:
                depth = self.levels - 1 - up
                if depth < 1:
                    raise ConfigurationError(
                        f"page size {page_size} needs more levels than {self.levels}"
                    )
                return depth
        raise ConfigurationError(
            f"unsupported page size {page_size}; supported: {_LEAF_SIZES}"
        )

    def index_at(self, vaddr: int, depth: int) -> int:
        """Radix index used at ``depth`` (0 = root) for ``vaddr``."""
        return (vaddr >> self.shifts[depth]) & INDEX_MASK

    def span_at(self, depth: int) -> int:
        """Bytes of VA covered by one slot at ``depth``."""
        return 1 << self.shifts[depth]

    # ------------------------------------------------------------------
    # Charging helpers
    # ------------------------------------------------------------------
    def _new_node(self, depth: int) -> PageTableNode:
        pfn = self._frame_source() if self._frame_source is not None else None
        paddr = pfn * PAGE_SIZE if pfn is not None else None
        self._clock.advance(self._costs.pt_node_alloc_ns)
        self._counters.bump("pt_node_alloc")
        self._node_count += 1
        return PageTableNode(depth=depth, paddr=paddr)

    def _charge_pte_write(self) -> None:
        self._clock.advance(self._costs.pte_write_ns)
        self._counters.bump("pte_write")

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    @o1(note="one leaf write after a fixed-depth descent")
    def map(
        self,
        vaddr: int,
        pfn: int,
        page_size: int = PAGE_SIZE,
        writable: bool = True,
        user: bool = True,
    ) -> Pte:
        """Install one leaf PTE mapping ``vaddr`` -> frame ``pfn``.

        ``vaddr`` must be aligned to ``page_size``.  This is the per-page
        operation whose repetition makes MAP_POPULATE linear.
        """
        if vaddr % page_size:
            raise AlignmentError(
                f"vaddr {vaddr:#x} not aligned to page size {page_size}"
            )
        node = self.leaf_node(vaddr, page_size)
        return self.write_leaf(node, vaddr, pfn, page_size, writable, user)

    @o1(note="fixed-depth radix descent")
    def leaf_node(self, vaddr: int, page_size: int = PAGE_SIZE) -> PageTableNode:
        """The node that holds ``vaddr``'s leaf of ``page_size``.

        Missing nodes on the way are created and shared ones unshared,
        so the node returned belongs to this table alone.  For 4 KiB
        pages it is the bottom node of ``vaddr``'s 2 MiB window: every
        leaf of the window can be written into it with
        :meth:`write_leaf`, one descent for the lot.
        """
        return self._descend_creating(vaddr, self._leaf_depth_for(page_size))

    @o1(note="one leaf write into a node already reached")
    def write_leaf(
        self,
        node: PageTableNode,
        vaddr: int,
        pfn: int,
        page_size: int = PAGE_SIZE,
        writable: bool = True,
        user: bool = True,
    ) -> Pte:
        """Write ``vaddr``'s leaf PTE into ``node``, charging one PTE write.

        ``node`` must be what :meth:`leaf_node` returned for an address
        in the same slot span as ``vaddr`` with the same ``page_size``,
        and nothing may have unlinked or shared it since.
        """
        index = (vaddr >> self.shifts[node.depth]) & INDEX_MASK
        if isinstance(node.entries.get(index), PageTableNode):
            raise MappingError(
                f"vaddr {vaddr:#x}: cannot place a {page_size}-byte leaf over "
                f"an existing subtree"
            )
        # The named tuple's generated constructor is a Python-level call.
        pte = tuple.__new__(Pte, (pfn, page_size, writable, user, False, False))
        node.entries[index] = pte
        self._charge_pte_write()
        san = self._counters.sanitize
        if san is not None:
            san.on_pte_map(pte)
        return pte

    @o1(note="fixed-depth radix descent")
    def _descend_creating(self, vaddr: int, leaf_depth: int) -> PageTableNode:
        node = self._root
        # o1: allow(flow-bounded) -- leaf_depth is bounded by the table's level count
        for depth in range(leaf_depth):
            index = (vaddr >> self.shifts[depth]) & INDEX_MASK
            child = node.entries.get(index)
            if child is None:
                child = self._new_node(depth + 1)
                node.entries[index] = child
            elif isinstance(child, Pte):
                raise MappingError(
                    f"vaddr {vaddr:#x}: a {child.page_size}-byte huge page "
                    f"already maps this region"
                )
            elif child.refs > 1:
                # Copy-on-write for the page table itself: a mutation
                # descending into a node shared with another table first
                # unshares it, so the other sharer never sees the change.
                child = self._unshare_child(node, index, child)
            node = child
        return node

    @o1(note="one node clone plus one pointer write")
    def _unshare_child(
        self, parent: PageTableNode, index: int, child: PageTableNode
    ) -> PageTableNode:
        """Replace ``parent``'s shared ``child`` with a private clone."""
        clone = self._clone_node(child)
        parent.entries[index] = clone
        child.refs -= 1
        self._charge_pte_write()
        return clone

    @o1(note="copies one fixed 512-entry node")
    def _clone_node(self, node: PageTableNode) -> PageTableNode:
        """A private copy of one node (fixed 4 KiB of entries).

        Child subtrees become shared (refs bumped); leaf PTEs are
        re-registered with the sanitizers because the clone adds one more
        translation of each mapped frame.
        """
        clone = self._new_node(depth=node.depth)
        clone.entries = dict(node.entries)
        clone.wp_slots = set(node.wp_slots)
        san = self._counters.sanitize
        # o1: allow(flow-bounded) -- one page-table node holds at most 512 entries
        for entry in clone.entries.values():
            if isinstance(entry, PageTableNode):
                entry.refs += 1
            elif san is not None:
                san.on_pte_map(entry)
        self._counters.bump("pt_node_clone")
        return clone

    @o1(note="one leaf clear after a fixed-depth descent")
    def unmap(self, vaddr: int, page_size: int = PAGE_SIZE) -> Pte:
        """Remove the leaf PTE at ``vaddr``; returns it.

        Empty interior nodes are *not* eagerly freed (Linux keeps them
        too); whole-tree teardown happens via :meth:`clear`.
        """
        return self._clear_leaf(vaddr, self._leaf_depth_for(page_size))[1]

    @o1(note="one fixed-depth descent; an unmap's and a map's PTE writes")
    def replace_leaf(self, vaddr: int, pfn: int, writable: bool = True) -> Pte:
        """Swap the 4 KiB leaf at ``vaddr`` for one mapping ``pfn``.

        Charges, hooks and errors are those of :meth:`unmap` followed by
        :meth:`map` (two PTE writes, the old leaf's unmap hook, then the
        new leaf's map hook), from one descent.  The new leaf goes last
        in the node's entry order, as a delete and re-insert leaves it.
        """
        node = self._clear_leaf(vaddr, self.bottom_depth)[0]
        return self.write_leaf(node, vaddr, pfn, writable=writable)

    @o1(note="one leaf clear after a fixed-depth descent")
    def _clear_leaf(self, vaddr: int, leaf_depth: int) -> Tuple[PageTableNode, Pte]:
        """Remove the leaf at ``leaf_depth`` for ``vaddr``, unsharing the
        path; returns the node that held it and the leaf."""
        node = self._root
        # o1: allow(flow-bounded) -- descent depth is fixed by the geometry
        for depth in range(leaf_depth):
            index = (vaddr >> self.shifts[depth]) & INDEX_MASK
            child = node.entries.get(index)
            if not isinstance(child, PageTableNode):
                raise MappingError(f"vaddr {vaddr:#x} is not mapped")
            if child.refs > 1:
                child = self._unshare_child(node, index, child)
            node = child
        index = (vaddr >> self.shifts[leaf_depth]) & INDEX_MASK
        entry = node.entries.get(index)
        if not isinstance(entry, Pte):
            raise MappingError(f"vaddr {vaddr:#x} is not mapped")
        self.clear_slot(node, index, entry)
        return node, entry

    @o1(note="one entry delete, one PTE write and one hook")
    def clear_slot(self, node: PageTableNode, index: int, leaf: Pte) -> None:
        """Remove ``leaf`` from slot ``index`` of ``node``, charging one
        PTE write: the tail of every leaf clear.

        ``node`` must belong to this table alone (no node with
        ``refs > 1`` on its path), as :meth:`descend` reports it;
        :meth:`unmap` first unshares the path, which is charged.
        """
        del node.entries[index]
        self._charge_pte_write()
        san = self._counters.sanitize
        if san is not None:
            san.on_pte_unmap(leaf)

    def protect(self, vaddr: int, writable: bool, page_size: int = PAGE_SIZE) -> Pte:
        """Rewrite the leaf PTE's permission at ``vaddr``."""
        old = self.unmap(vaddr, page_size)
        return self.map(
            vaddr, old.pfn, page_size=page_size, writable=writable, user=old.user
        )

    # ------------------------------------------------------------------
    # Lookup (uncharged; the walker prices hardware walks)
    # ------------------------------------------------------------------
    @o1(note="fixed-depth radix descent")
    def descend(
        self, vaddr: int
    ) -> Tuple[PageTableNode, int, Optional[Pte], bool, bool]:
        """One uncharged descent towards ``vaddr``'s leaf.

        Returns ``(node, index, leaf, write_protected, shared)``: the
        last node reached and ``vaddr``'s slot index in it, that slot's
        raw entry (a :class:`Pte`, or None when nothing maps it), whether
        the path passed a write-protected slot (that slot included), and
        whether it passed a node shared with another table
        (``refs > 1``).  The descent stops at the first slot that holds
        no node, so ``node`` is where a leaf for ``vaddr`` sits or would
        sit: a bottom node for a 4 KiB leaf, one level up for 2 MiB.

        A path with no node of ``refs > 1`` belongs to this table alone,
        so the leaf can be cleared with :meth:`clear_slot` or a 4 KiB
        leaf written into a bottom node with :meth:`write_leaf` without a
        second descent.  A write-protected slot does not matter to
        either: it only downgrades the effective permission, and
        :meth:`unmap` and :meth:`map` do not unshare for it.  A bottom
        node that holds a subtree (one linked from a deeper table)
        raises :class:`MappingError`.
        """
        node = self._root
        write_protected = shared = False
        # o1: allow(flow-bounded) -- the level count is a hardware constant
        for shift in self.shifts:
            index = (vaddr >> shift) & INDEX_MASK
            if index in node.wp_slots:
                write_protected = True
            entry = node.entries.get(index)
            if not isinstance(entry, PageTableNode):
                return node, index, entry, write_protected, shared
            if entry.refs > 1:
                shared = True
            node = entry
        raise MappingError(f"vaddr {vaddr:#x}: a bottom node holds a subtree")

    @o1(note="one fixed-depth descent")
    def lookup(self, vaddr: int) -> Optional[Pte]:
        """Leaf PTE covering ``vaddr``, or None.  Pure data-structure op.

        Reflects the *effective* permission hardware would compute: a
        write-protected slot anywhere on the path downgrades the leaf to
        read-only, exactly like x86's U/S and R/W bits combining across
        levels.
        """
        _node, _index, leaf, write_protected, _shared = self.descend(vaddr)
        if write_protected and leaf is not None and leaf.writable:
            return leaf.read_only()
        return leaf

    @o1(note="fixed-depth radix descent")
    def path_nodes(self, vaddr: int) -> List[PageTableNode]:
        """Nodes visited translating ``vaddr`` (for the walker), root first.

        Stops at the node containing the leaf (or the last node that
        exists, if the translation is absent)."""
        nodes = [self._root]
        node = self._root
        shifts = self.shifts
        # o1: allow(flow-bounded) -- the level count is a hardware constant
        for depth in range(self.bottom_depth):
            entry = node.entries.get((vaddr >> shifts[depth]) & INDEX_MASK)
            if not isinstance(entry, PageTableNode):
                break
            node = entry
            nodes.append(node)
        return nodes

    # ------------------------------------------------------------------
    # Subtree sharing — the O(1) mapping primitive
    # ------------------------------------------------------------------
    @o1(note="fixed-depth radix descent")
    def subtree_at(self, vaddr: int, depth: int) -> Optional[PageTableNode]:
        """Interior node rooted at ``vaddr``'s slot chain down to ``depth``."""
        if depth < 1 or depth >= self.levels:
            raise ValueError(f"depth must be in 1..{self.levels - 1}, got {depth}")
        node = self._root
        # o1: allow(flow-bounded) -- depth is bounded by the table's level count
        for d in range(depth):
            entry = node.entries.get(self.index_at(vaddr, d))
            if not isinstance(entry, PageTableNode):
                return None
            node = entry
        return node

    @o1(note="single pointer write — the paper's O(1) mapping primitive")
    def link_subtree(
        self, vaddr: int, subtree: PageTableNode, write_protect: bool = False
    ) -> None:
        """Graft ``subtree`` so it translates the region at ``vaddr``.

        One pointer write: this is the paper's O(1) mapping operation.
        ``vaddr`` must be aligned to the VA span of a slot at the
        subtree's depth (e.g. 2 MiB for a bottom-level node, 1 GiB one
        level up) — the "natural granularities of page table structures"
        constraint the paper calls out.
        """
        depth = subtree.depth
        if depth < 1 or depth >= self.levels:
            raise MappingError(
                f"cannot link a node of depth {depth} into a {self.levels}-level table"
            )
        span = self.span_at(depth - 1)
        if vaddr % span:
            raise AlignmentError(
                f"vaddr {vaddr:#x} not aligned to subtree span {span:#x}"
            )
        parent = self._descend_creating(vaddr, depth - 1) if depth > 1 else self._root
        index = self.index_at(vaddr, depth - 1)
        if index in parent.entries:
            raise MappingError(f"slot for {vaddr:#x} already populated")
        parent.entries[index] = subtree
        if write_protect:
            parent.wp_slots.add(index)
        subtree.refs += 1
        self._charge_pte_write()

    @o1(note="single pointer clear")
    def unlink_subtree(self, vaddr: int, depth: int) -> PageTableNode:
        """Remove the graft at ``vaddr``/``depth``; returns the subtree."""
        parent = self.subtree_at(vaddr, depth - 1) if depth > 1 else self._root
        if parent is None:
            raise MappingError(f"no subtree parent at {vaddr:#x}")
        index = self.index_at(vaddr, depth - 1)
        entry = parent.entries.get(index)
        if not isinstance(entry, PageTableNode):
            raise MappingError(f"no linked subtree at {vaddr:#x} depth {depth}")
        del parent.entries[index]
        parent.wp_slots.discard(index)
        entry.refs -= 1
        self._charge_pte_write()
        if entry.refs <= 0:
            san = self._counters.sanitize
            if san is not None:
                san.on_subtree_dead(entry)
        return entry

    # ------------------------------------------------------------------
    # Bottom-level windows — the COW-fork granularity
    # ------------------------------------------------------------------
    @complexity("n", note="one yield per resident 2 MiB window")
    def iter_bottom_subtrees(
        self,
    ) -> Iterator[Tuple[int, Union[PageTableNode, Pte]]]:
        """(window_va, entry) for every bottom-level node or huge leaf.

        Bottom-level nodes each translate one 2 MiB window; a huge-page
        leaf installed above the bottom level is yielded as the ``Pte``
        itself (callers copy those directly — they cannot be shared by
        node reference).
        """
        yield from self._iter_windows(self._root, 0, 0)

    @complexity("n", note="one visit per resident entry above the bottom level")
    def _iter_windows(
        self, node: PageTableNode, depth: int, base: int
    ) -> Iterator[Tuple[int, Union[PageTableNode, Pte]]]:
        span = self.span_at(depth)
        for index in sorted(node.entries):
            entry = node.entries[index]
            vaddr = base + index * span
            if isinstance(entry, Pte) or entry.depth == self.bottom_depth:
                yield vaddr, entry
            else:
                # o1: allow(flow-bounded) -- recursion depth is the fixed radix level count
                yield from self._iter_windows(entry, depth + 1, vaddr)

    @o1(note="one permission-bit write on the window's parent slot")
    def window_write_protect(self, vaddr: int, protect: bool = True) -> None:
        """Set/clear the WP bit on the slot covering ``vaddr``'s window."""
        depth = self.bottom_depth
        parent = self.subtree_at(vaddr, depth - 1) if depth > 1 else self._root
        if parent is None:
            raise MappingError(f"no window parent at {vaddr:#x}")
        index = self.index_at(vaddr, depth - 1)
        if protect:
            parent.wp_slots.add(index)
        else:
            parent.wp_slots.discard(index)
        self._charge_pte_write()

    @o1(note="clones at most one fixed-size node per level of the descent")
    def privatize_window(self, vaddr: int) -> PageTableNode:
        """Ensure the bottom-level node under ``vaddr`` is exclusively
        owned by this table, cloning shared nodes along the descent.

        This is the page-table half of a COW break: after it, leaf
        rewrites in the window no longer reach the other sharer.
        """
        node = self._descend_creating(vaddr, self.bottom_depth)
        return node

    # ------------------------------------------------------------------
    # Teardown / iteration
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Drop every mapping; returns the number of leaf PTEs removed.

        Shared subtrees (refs > 1 after decrement) are detached, not
        recursed into — their owner tears them down.
        """
        removed = self._clear_node(self._root)
        return removed

    def _clear_node(
        self, node: PageTableNode, dead_pfns: Optional[List[int]] = None
    ) -> int:
        san = self._counters.sanitize
        removed = 0
        for index, entry in list(node.entries.items()):
            if isinstance(entry, Pte):
                removed += 1
                if san is not None:
                    san.on_pte_unmap(entry)
            else:
                entry.refs -= 1
                if entry.refs <= 0:
                    removed += self._clear_node(entry, dead_pfns)
                    if (
                        dead_pfns is not None
                        and entry.paddr < _SYNTHETIC_NODE_BASE
                    ):
                        dead_pfns.append(entry.paddr // PAGE_SIZE)
            del node.entries[index]
        node.wp_slots.clear()
        return removed

    @staticmethod
    def node_frame_pfn(node: PageTableNode) -> Optional[int]:
        """PFN of the node's backing frame, or None for synthetic nodes."""
        if node.paddr >= _SYNTHETIC_NODE_BASE:
            return None
        return node.paddr // PAGE_SIZE

    def sink_node_frames(self, pfns: List[int]) -> None:
        """Hand dead node frames back to the allocator in one batch."""
        if pfns and self._frame_sink is not None:
            self._frame_sink(pfns)

    def release(self) -> int:
        """Tear down the tree and free every owned node frame in one batch.

        Returns the number of leaf PTEs removed.  Shared subtrees whose
        refcount stays positive are detached, not freed; synthetic-paddr
        nodes (donor trees built outside the allocator) are never handed
        to the sink.  The data frames the leaves pointed at are the
        caller's business — this releases only page-table *node* memory.
        """
        dead_pfns: List[int] = []
        removed = self._clear_node(self._root, dead_pfns)
        self._root.refs -= 1
        if self._root.refs <= 0 and self._root.paddr < _SYNTHETIC_NODE_BASE:
            dead_pfns.append(self._root.paddr // PAGE_SIZE)
        if dead_pfns and self._frame_sink is not None:
            self._frame_sink(dead_pfns)
        self._node_count = 0
        self._root = PageTableNode(depth=0)  # defensive: table stays valid
        return removed

    @complexity("n", note="one yield per installed leaf PTE")
    def iter_leaves(self) -> Iterator[Tuple[int, Pte]]:
        """All (vaddr, Pte) pairs, ascending by vaddr."""
        yield from self._iter_node(self._root, 0, 0)

    @complexity("n", note="one visit per resident node entry")
    def _iter_node(
        self, node: PageTableNode, depth: int, base: int
    ) -> Iterator[Tuple[int, Pte]]:
        span = self.span_at(depth)
        for index in sorted(node.entries):
            entry = node.entries[index]
            vaddr = base + index * span
            if isinstance(entry, Pte):
                yield vaddr, entry
            else:
                # o1: allow(flow-bounded) -- recursion depth is the fixed radix level count
                yield from self._iter_node(entry, depth + 1, vaddr)

    def leaf_count(self) -> int:
        """Number of installed leaf PTEs."""
        return sum(1 for _ in self.iter_leaves())
