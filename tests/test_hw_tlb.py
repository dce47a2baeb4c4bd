"""Page TLB: multi-size arrays, LRU sets, ASIDs, invalidation."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.tlb import Tlb, TlbEntry
from repro.units import HUGE_PAGE_1G, HUGE_PAGE_2M, PAGE_SIZE


def entry(vpn, pfn=1, size=PAGE_SIZE, writable=True, asid=0):
    return TlbEntry(vpn=vpn, pfn=pfn, page_size=size, writable=writable, asid=asid)


class TestLookupInsert:
    def test_miss_on_empty(self):
        assert Tlb().lookup(0x1000) is None

    def test_hit_after_insert(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=3, pfn=7))
        hit = tlb.lookup(3 * PAGE_SIZE + 123)
        assert hit is not None and hit.pfn == 7

    def test_entry_addresses(self):
        e = entry(vpn=3, pfn=7)
        assert e.vaddr == 3 * PAGE_SIZE
        assert e.paddr == 7 * PAGE_SIZE

    def test_huge_page_hit_anywhere_in_page(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=1, pfn=2, size=HUGE_PAGE_2M))
        assert tlb.lookup(HUGE_PAGE_2M + 12345).pfn == 2

    def test_gigabyte_page(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=0, pfn=0, size=HUGE_PAGE_1G))
        assert tlb.lookup(HUGE_PAGE_1G - 1) is not None

    def test_unsupported_page_size_rejected(self):
        with pytest.raises(ValueError):
            Tlb().insert(entry(vpn=0, size=8192))

    def test_asid_isolation(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=5, pfn=9, asid=1))
        assert tlb.lookup(5 * PAGE_SIZE, asid=2) is None
        assert tlb.lookup(5 * PAGE_SIZE, asid=1).pfn == 9


class TestReplacement:
    def test_set_overflow_evicts_lru(self):
        tlb = Tlb(geometry={PAGE_SIZE: (1, 2)})  # one set, two ways
        tlb.insert(entry(vpn=0, pfn=0))
        tlb.insert(entry(vpn=1, pfn=1))
        evicted = tlb.insert(entry(vpn=2, pfn=2))
        assert evicted is not None and evicted.vpn == 0
        assert tlb.lookup(0) is None
        assert tlb.lookup(PAGE_SIZE) is not None

    def test_lookup_refreshes_lru(self):
        tlb = Tlb(geometry={PAGE_SIZE: (1, 2)})
        tlb.insert(entry(vpn=0, pfn=0))
        tlb.insert(entry(vpn=1, pfn=1))
        tlb.lookup(0)  # make vpn=0 most recent
        evicted = tlb.insert(entry(vpn=2, pfn=2))
        assert evicted.vpn == 1

    def test_capacity(self):
        tlb = Tlb()
        assert tlb.capacity(PAGE_SIZE) == 128 * 12

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Tlb(geometry={PAGE_SIZE: (0, 4)})


class TestInvalidation:
    def test_invalidate_single(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=4))
        assert tlb.invalidate(4 * PAGE_SIZE) == 1
        assert tlb.lookup(4 * PAGE_SIZE) is None

    def test_invalidate_miss_returns_zero(self):
        assert Tlb().invalidate(0) == 0

    def test_invalidate_range_overlap_semantics(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=0, pfn=1, size=HUGE_PAGE_2M))
        # Range covering any byte of the huge page must drop it.
        assert tlb.invalidate_range(PAGE_SIZE, PAGE_SIZE) == 1

    def test_invalidate_range_spares_outside(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=0))
        tlb.insert(entry(vpn=10))
        dropped = tlb.invalidate_range(0, 5 * PAGE_SIZE)
        assert dropped == 1
        assert tlb.lookup(10 * PAGE_SIZE) is not None

    def test_invalidate_range_empty_length(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=0))
        assert tlb.invalidate_range(0, 0) == 0
        assert tlb.lookup(0) is not None

    def test_invalidate_range_respects_asid(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=3, asid=1))
        tlb.insert(entry(vpn=3, asid=2))
        assert tlb.invalidate_range(3 * PAGE_SIZE, PAGE_SIZE, asid=1) == 1
        assert tlb.lookup(3 * PAGE_SIZE, asid=2) is not None

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2048),  # vpn
                st.sampled_from([PAGE_SIZE, HUGE_PAGE_2M, HUGE_PAGE_1G]),
                st.integers(min_value=0, max_value=2),  # asid
            ),
            max_size=40,
        ),
        st.integers(min_value=0, max_value=1024),  # range start page
        st.integers(min_value=1, max_value=4096),  # range length pages
        st.integers(min_value=0, max_value=2),  # invalidated asid
    )
    def test_invalidate_range_matches_brute_force(
        self, entries, start_page, npages, asid
    ):
        """The set-indexed probe drops exactly the overlapping entries.

        Oracle: brute-force overlap filter over every inserted entry —
        the semantics the set-batched implementation must preserve.
        Lengths up to 4096 pages exercise both the per-VPN pops and the
        span > nsets whole-array scan (128 sets for 4 KiB pages).
        """
        tlb = Tlb()
        resident = {}
        for vpn, size, entry_asid in entries:
            e = entry(vpn=vpn, size=size, asid=entry_asid)
            evicted = tlb.insert(e)
            resident[(entry_asid, size, vpn)] = e
            if evicted is not None:
                resident.pop(
                    (evicted.asid, evicted.page_size, evicted.vpn), None
                )
        vaddr = start_page * PAGE_SIZE
        length = npages * PAGE_SIZE
        end = vaddr + length
        expected_dropped = {
            key
            for key, e in resident.items()
            if e.asid == asid and e.vaddr < end and e.vaddr + e.page_size > vaddr
        }
        # Every set's survivors, in LRU order: dropping entries must not
        # reorder the ones left behind.
        expected_sets = {
            (size, index): [
                key
                for key, e in entry_set.items()
                if (e.asid, e.page_size, e.vpn) not in expected_dropped
            ]
            for size, sets in tlb._arrays.items()
            for index, entry_set in sets.items()
        }

        assert tlb.invalidate_range(vaddr, length, asid=asid) == len(
            expected_dropped
        )
        assert {
            (size, index): list(entry_set)
            for size, sets in tlb._arrays.items()
            for index, entry_set in sets.items()
        } == expected_sets
        for key, e in resident.items():
            hit = tlb.lookup(e.vaddr, asid=e.asid)
            if key in expected_dropped:
                assert hit is None or hit.page_size != e.page_size
            else:
                assert hit is not None

    def test_flush_asid_only(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=1, asid=1))
        tlb.insert(entry(vpn=1, asid=2))
        assert tlb.flush_asid(1) == 1
        assert tlb.lookup(PAGE_SIZE, asid=2) is not None

    def test_flush_all(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=1))
        tlb.insert(entry(vpn=2, size=HUGE_PAGE_2M, pfn=3))
        assert tlb.flush_all() == 2
        assert tlb.resident_count() == 0


class TestResidency:
    def test_resident_count_by_size(self):
        tlb = Tlb()
        tlb.insert(entry(vpn=1))
        tlb.insert(entry(vpn=2))
        tlb.insert(entry(vpn=0, size=HUGE_PAGE_2M))
        assert tlb.resident_count(PAGE_SIZE) == 2
        assert tlb.resident_count(HUGE_PAGE_2M) == 1
        assert tlb.resident_count() == 3

    @given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
    def test_lookup_always_finds_most_recent_insert(self, vpns):
        tlb = Tlb()
        for vpn in vpns:
            tlb.insert(entry(vpn=vpn, pfn=vpn + 1))
            hit = tlb.lookup(vpn * PAGE_SIZE)
            assert hit is not None and hit.pfn == vpn + 1
