"""FrameSan's NVM ledger: two bitsets per allocator against a per-block twin.

FrameSan keeps the NVM blocks allocated since arming, and those freed and
not re-allocated, as one int each per allocator, so an extent of any size
updates its ledger with one mask.  The twin below is the per-block set
ledger it replaced; random event sequences must draw the same violations,
in the same order, and the same ``stats()`` from both.
"""

from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.sanitize.framesan import FrameSan
from repro.units import PAGE_SIZE

#: Two NVM allocators: (first pfn, block count).
_REGIONS = ((256, 64), (1024, 32))
_ALLOCATORS = tuple(
    SimpleNamespace(_region=SimpleNamespace(first_pfn=first, frame_count=count))
    for first, count in _REGIONS
)


class _PerBlockLedger:
    """The NVM half of FrameSan with one set entry per block."""

    def __init__(self, report):
        self._report = report
        self._allocated = {}
        self._freed = {}
        self._regions = {}
        self._retired = set()

    def _sets(self, allocator):
        key = id(allocator)
        if key not in self._allocated:
            self._allocated[key] = set()
            self._freed[key] = set()
            region = allocator._region
            self._regions[key] = (region.first_pfn, region.frame_count)
        return self._allocated[key], self._freed[key]

    def on_nvm_alloc(self, allocator, first_block, block_count):
        end = first_block + block_count
        if any(first_block <= retired < end for retired in self._retired):
            self._report(
                "retired-frame-realloc",
                f"NVM extent [{first_block:#x}, {end:#x}) contains a "
                "permanently retired block",
                {"pfn": first_block, "count": block_count},
            )
        allocated, freed = self._sets(allocator)
        for block in range(first_block, end):
            freed.discard(block)
            allocated.add(block)

    def on_nvm_free(self, allocator, first_block, block_count, check):
        allocated, freed = self._sets(allocator)
        for block in range(first_block, first_block + block_count):
            if check and block in freed:
                self._report(
                    "double-free",
                    f"NVM block {block:#x} freed twice (second free without "
                    "an intervening allocation)",
                    {"pfn": block},
                )
                return
            allocated.discard(block)
            freed.add(block)

    def on_nvm_retired(self, allocator, first_block, block_count):
        allocated, _freed = self._sets(allocator)
        for block in range(first_block, first_block + block_count):
            allocated.add(block)
            self._retired.add(block)

    def check_access(self, paddr):
        frame = paddr // PAGE_SIZE
        if frame in self._retired:
            self._report(
                "retired-frame-access",
                f"data access at pa {paddr:#x} landed in permanently "
                f"retired frame {frame:#x}",
                {"paddr": paddr, "pfn": frame},
            )
            return
        for key, (first, count) in self._regions.items():
            if first <= frame < first + count:
                if frame in self._freed[key]:
                    self._report(
                        "use-after-free",
                        f"data access at pa {paddr:#x} landed in freed NVM "
                        f"block {frame:#x}",
                        {"paddr": paddr, "pfn": frame},
                    )
                return

    def stats(self):
        return {
            "dram_blocks_outstanding": 0,
            "nvm_blocks_outstanding_since_arming": sum(
                len(blocks) for blocks in self._allocated.values()
            ),
            "tainted_frames": 0,
            "retired_frames": len(self._retired),
        }


@st.composite
def _extent(draw, max_count=8):
    """(allocator index, first block, block count) inside one region."""
    index = draw(st.integers(0, len(_REGIONS) - 1))
    first, count = _REGIONS[index]
    offset = draw(st.integers(0, count - 1))
    blocks = draw(st.integers(1, min(max_count, count - offset)))
    return index, first + offset, blocks


_EVENTS = st.one_of(
    st.tuples(st.just("alloc"), _extent()),
    st.tuples(st.just("free"), _extent(), st.booleans()),
    st.tuples(st.just("retire"), _extent(max_count=2)),
    # Any frame from below the first region to past the last one.
    st.tuples(st.just("access"), st.integers(200, 1100), st.integers(0, PAGE_SIZE - 1)),
)


def _apply(ledger, event):
    kind = event[0]
    if kind == "access":
        ledger.check_access(event[1] * PAGE_SIZE + event[2])
        return
    index, first_block, block_count = event[1]
    allocator = _ALLOCATORS[index]
    if kind == "alloc":
        ledger.on_nvm_alloc(allocator, first_block, block_count)
    elif kind == "free":
        ledger.on_nvm_free(allocator, first_block, block_count, event[2])
    else:
        ledger.on_nvm_retired(allocator, first_block, block_count)


class TestBitsetLedgerMatchesPerBlockTwin:
    @given(events=st.lists(_EVENTS, max_size=60))
    def test_same_violations_and_stats(self, events):
        got, want = [], []
        bitsets = FrameSan(lambda *violation: got.append(violation))
        twin = _PerBlockLedger(lambda *violation: want.append(violation))
        for event in events:
            _apply(bitsets, event)
            _apply(twin, event)
            assert got == want
            assert bitsets.stats() == twin.stats()

    def test_double_free_stops_at_the_lowest_refreed_block(self):
        got = []
        san = FrameSan(lambda *violation: got.append(violation))
        allocator = _ALLOCATORS[0]
        san.on_nvm_alloc(allocator, 256, 8)
        san.on_nvm_free(allocator, 259, 2, check=True)
        san.on_nvm_free(allocator, 256, 8, check=True)
        assert [violation[2] for violation in got] == [{"pfn": 259}]
        # Blocks 256-258 were freed before the double free, 261-263 not.
        assert san.stats()["nvm_blocks_outstanding_since_arming"] == 3
