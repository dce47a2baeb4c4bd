"""Page tables: mapping, huge leaves, subtree sharing, teardown."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlignmentError, ConfigurationError, MappingError
from repro.hw.clock import SimClock
from repro.hw.costmodel import CostModel
from repro.obs.metrics import MetricsRegistry
from repro.paging.pagetable import PageTable, Pte
from repro.units import GIB, HUGE_PAGE_1G, HUGE_PAGE_2M, MIB, PAGE_SIZE


class TestGeometry:
    def test_va_bits(self):
        assert PageTable(levels=4).va_bits == 48
        assert PageTable(levels=5).va_bits == 57

    def test_bad_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            PageTable(levels=3)

    def test_index_at_known_values(self):
        table = PageTable(levels=4)
        vaddr = (3 << 39) | (5 << 30) | (7 << 21) | (9 << 12)
        assert table.index_at(vaddr, 0) == 3
        assert table.index_at(vaddr, 1) == 5
        assert table.index_at(vaddr, 2) == 7
        assert table.index_at(vaddr, 3) == 9

    def test_span_at(self):
        table = PageTable(levels=4)
        assert table.span_at(3) == PAGE_SIZE
        assert table.span_at(2) == HUGE_PAGE_2M
        assert table.span_at(1) == HUGE_PAGE_1G


class TestMapping:
    def test_map_lookup_roundtrip(self):
        table = PageTable()
        table.map(0x7F0000000000, 42)
        pte = table.lookup(0x7F0000000123)
        assert pte is not None and pte.pfn == 42

    def test_unmapped_lookup_none(self):
        assert PageTable().lookup(0x1000) is None

    def test_map_2m_huge_page(self):
        table = PageTable()
        table.map(2 * HUGE_PAGE_2M, 5, page_size=HUGE_PAGE_2M)
        pte = table.lookup(2 * HUGE_PAGE_2M + 12345)
        assert pte.page_size == HUGE_PAGE_2M
        assert pte.paddr == 5 * HUGE_PAGE_2M

    def test_map_1g_huge_page(self):
        table = PageTable()
        table.map(GIB, 3, page_size=HUGE_PAGE_1G)
        assert table.lookup(GIB + 500 * MIB).pfn == 3

    def test_misaligned_huge_map_rejected(self):
        with pytest.raises(AlignmentError):
            PageTable().map(PAGE_SIZE, 0, page_size=HUGE_PAGE_2M)

    def test_unsupported_page_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PageTable().map(0, 0, page_size=8192)

    def test_small_map_under_huge_leaf_rejected(self):
        table = PageTable()
        table.map(0, 0, page_size=HUGE_PAGE_2M)
        with pytest.raises(MappingError):
            table.map(PAGE_SIZE, 1)

    def test_huge_map_over_existing_subtree_rejected(self):
        table = PageTable()
        table.map(0, 0)  # creates 4K leaf => subtree down to depth 3
        with pytest.raises(MappingError):
            table.map(0, 1, page_size=HUGE_PAGE_2M)

    def test_node_count_grows_lazily(self):
        table = PageTable(levels=4)
        assert table.node_count == 1  # root only
        table.map(0, 0)
        assert table.node_count == 4  # root + 3 interior
        table.map(PAGE_SIZE, 1)  # same subtree
        assert table.node_count == 4

    def test_pte_write_charged(self):
        clock = SimClock()
        counters = MetricsRegistry()
        table = PageTable(clock=clock, costs=CostModel(), counters=counters)
        table.map(0, 0)
        assert counters.get("pte_write") == 1
        assert counters.get("pt_node_alloc") == 4


class TestUnmapProtect:
    def test_unmap_removes(self):
        table = PageTable()
        table.map(0x4000, 9)
        removed = table.unmap(0x4000)
        assert removed.pfn == 9
        assert table.lookup(0x4000) is None

    def test_unmap_absent_rejected(self):
        with pytest.raises(MappingError):
            PageTable().unmap(0)

    def test_unmap_huge_needs_size(self):
        table = PageTable()
        table.map(0, 2, page_size=HUGE_PAGE_2M)
        pte = table.unmap(0, page_size=HUGE_PAGE_2M)
        assert pte.page_size == HUGE_PAGE_2M

    def test_protect_rewrites_permission(self):
        table = PageTable()
        table.map(0, 1, writable=True)
        table.protect(0, writable=False)
        assert not table.lookup(0).writable

    def test_read_only_keeps_every_other_field(self):
        # A distinct value per field: one that read_only() does not
        # carry over comes back as its default and breaks the equality.
        pte = Pte(*(("field", name) for name in Pte._fields))
        assert pte.read_only() == pte._replace(writable=False)


class TestSubtreeSharing:
    def test_link_subtree_shares_translations(self):
        donor = PageTable()
        for page in range(512):
            donor.map(page * PAGE_SIZE, 1000 + page)
        node = donor.subtree_at(0, 3)
        other = PageTable()
        other.link_subtree(HUGE_PAGE_2M, node)
        assert other.lookup(HUGE_PAGE_2M + 5 * PAGE_SIZE).pfn == 1005

    def test_link_charges_one_pte_write(self):
        donor = PageTable()
        donor.map(0, 1)
        node = donor.subtree_at(0, 3)
        counters = MetricsRegistry()
        other = PageTable(counters=counters)
        other.link_subtree(0, node)
        assert counters.get("pte_write") == 1

    def test_link_misaligned_rejected(self):
        donor = PageTable()
        donor.map(0, 1)
        node = donor.subtree_at(0, 3)
        with pytest.raises(AlignmentError):
            PageTable().link_subtree(PAGE_SIZE, node)

    def test_link_occupied_slot_rejected(self):
        donor = PageTable()
        donor.map(0, 1)
        node = donor.subtree_at(0, 3)
        table = PageTable()
        table.map(0, 2)  # occupies the depth-2 slot for window 0
        with pytest.raises(MappingError):
            table.link_subtree(0, node)

    def test_unlink_restores_and_decrements(self):
        donor = PageTable()
        donor.map(0, 1)
        node = donor.subtree_at(0, 3)
        table = PageTable()
        table.link_subtree(0, node)
        assert node.refs == 2
        unlinked = table.unlink_subtree(0, 3)
        assert unlinked is node
        assert node.refs == 1
        assert table.lookup(0) is None

    def test_clear_detaches_shared_subtree_without_destroying(self):
        donor = PageTable()
        donor.map(0, 1)
        node = donor.subtree_at(0, 3)
        table = PageTable()
        table.link_subtree(0, node)
        table.clear()
        # Donor still translates through the shared node.
        assert donor.lookup(0).pfn == 1

    def test_clear_counts_owned_leaves(self):
        table = PageTable()
        table.map(0, 1)
        table.map(PAGE_SIZE, 2)
        assert table.clear() == 2
        assert table.leaf_count() == 0


class TestIteration:
    def test_iter_leaves_sorted(self):
        table = PageTable()
        table.map(5 * PAGE_SIZE, 50)
        table.map(PAGE_SIZE, 10)
        table.map(HUGE_PAGE_2M * 4, 99, page_size=HUGE_PAGE_2M)
        leaves = list(table.iter_leaves())
        assert [va for va, _ in leaves] == sorted(va for va, _ in leaves)
        assert len(leaves) == 3

    @given(st.sets(st.integers(0, 2**20), max_size=30))
    @settings(max_examples=30)
    def test_map_iter_roundtrip(self, vpns):
        table = PageTable()
        for vpn in vpns:
            table.map(vpn * PAGE_SIZE, vpn + 1)
        found = {va // PAGE_SIZE: pte.pfn for va, pte in table.iter_leaves()}
        assert found == {vpn: vpn + 1 for vpn in vpns}
