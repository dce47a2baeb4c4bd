"""Block bitmap: run operations and search."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.bitmap import Bitmap


class TestBasics:
    def test_new_bitmap_all_clear(self):
        bitmap = Bitmap(64)
        assert bitmap.set_count == 0
        assert bitmap.clear_count == 64
        assert not bitmap.test(0)

    def test_set_and_clear_range(self):
        bitmap = Bitmap(64)
        bitmap.set_range(10, 5)
        assert bitmap.set_count == 5
        assert bitmap.test(10) and bitmap.test(14)
        assert not bitmap.test(9) and not bitmap.test(15)
        bitmap.clear_range(10, 5)
        assert bitmap.set_count == 0

    def test_double_set_rejected(self):
        bitmap = Bitmap(64)
        bitmap.set_range(0, 8)
        with pytest.raises(ValueError):
            bitmap.set_range(4, 8)

    def test_clear_of_clear_rejected(self):
        bitmap = Bitmap(64)
        with pytest.raises(ValueError):
            bitmap.clear_range(0, 1)

    def test_bounds_checked(self):
        bitmap = Bitmap(16)
        with pytest.raises(IndexError):
            bitmap.set_range(10, 10)
        with pytest.raises(IndexError):
            bitmap.test(16)

    def test_empty_range_noop(self):
        bitmap = Bitmap(16)
        bitmap.set_range(0, 0)
        bitmap.clear_range(0, 0)
        assert bitmap.set_count == 0

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(0)


class TestRunSearch:
    def test_finds_first_fit(self):
        bitmap = Bitmap(32)
        bitmap.set_range(0, 4)
        bitmap.set_range(6, 2)
        assert bitmap.find_clear_run(2) == 4
        assert bitmap.find_clear_run(3) == 8

    def test_run_too_large(self):
        bitmap = Bitmap(8)
        bitmap.set_range(4, 1)
        assert bitmap.find_clear_run(5) is None
        assert bitmap.find_clear_run(9) is None

    def test_hint_next_fit_and_wrap(self):
        bitmap = Bitmap(32)
        assert bitmap.find_clear_run(4, start_hint=20) == 20
        bitmap.set_range(20, 12)
        # From hint 20 nothing fits ahead; search wraps to the front.
        assert bitmap.find_clear_run(4, start_hint=20) == 0

    def test_run_is_clear(self):
        bitmap = Bitmap(32)
        bitmap.set_range(8, 4)
        assert bitmap.run_is_clear(0, 8)
        assert not bitmap.run_is_clear(6, 4)

    def test_exact_fit_at_end(self):
        bitmap = Bitmap(16)
        bitmap.set_range(0, 12)
        assert bitmap.find_clear_run(4) == 12

    def test_zero_length_run_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(8).find_clear_run(0)

    def test_largest_clear_run(self):
        bitmap = Bitmap(32)
        assert bitmap.largest_clear_run() == 32
        bitmap.set_range(10, 2)
        assert bitmap.largest_clear_run() == 20


def _per_bit_scan(bits, size, lo, hi, length):
    """The per-bit ``Bitmap._scan`` the run-skipping one replaced: steps
    through a set run one bit at a time."""
    hi = min(hi, size)
    index = lo
    while index + length <= hi:
        if bits >> index & 1:
            index += 1
            continue
        window = bits >> index
        if window == 0:
            return index
        next_set = (window & -window).bit_length() - 1
        if next_set >= length:
            return index
        index += next_set + 1
    return None


def _per_bit_find(bits, size, length, start_hint):
    """``find_clear_run`` over :func:`_per_bit_scan`, wrap included."""
    if length > size:
        return None
    hint = start_hint % size
    found = _per_bit_scan(bits, size, hint, size, length)
    if found is None and hint:
        found = _per_bit_scan(bits, size, 0, hint + length - 1, length)
    return found


def _per_bit_largest(bits, size):
    """The per-bit ``largest_clear_run`` the run-hopping one replaced."""
    best = current = 0
    for index in range(size):
        if bits >> index & 1:
            current = 0
        else:
            current += 1
            best = max(best, current)
    return best


#: A bitmap as alternating clear/set run lengths (clear first), so runs
#: of every length sit next to each other, wrap points included.
_RUNS = st.lists(st.integers(1, 40), min_size=1, max_size=16)


def _from_runs(runs, size_slack):
    bitmap = Bitmap(sum(runs) + size_slack)
    start = 0
    for position, length in enumerate(runs):
        if position % 2:
            bitmap.set_range(start, length)
        start += length
    return bitmap


class TestRunHopping:
    """The run-skipping searches against their per-bit references."""

    @given(
        runs=_RUNS,
        size_slack=st.integers(0, 3),
        length=st.integers(1, 48),
        hint=st.integers(0, 1000),
    )
    def test_find_clear_run_matches_per_bit_scan(self, runs, size_slack, length, hint):
        bitmap = _from_runs(runs, size_slack)
        expected = _per_bit_find(bitmap._bits, bitmap.size, length, hint)
        assert bitmap.find_clear_run(length, hint) == expected

    @given(runs=_RUNS, size_slack=st.integers(0, 3))
    def test_largest_clear_run_matches_per_bit_count(self, runs, size_slack):
        bitmap = _from_runs(runs, size_slack)
        assert bitmap.largest_clear_run() == _per_bit_largest(bitmap._bits, bitmap.size)

    @given(runs=_RUNS, size_slack=st.integers(0, 3), expected=st.integers(0, 1 << 700))
    def test_mismatches_lists_differing_bits_lowest_first(
        self, runs, size_slack, expected
    ):
        bitmap = _from_runs(runs, size_slack)
        assert bitmap.mismatches(expected) == [
            index
            for index in range(bitmap.size)
            if bitmap.test(index) != bool(expected >> index & 1)
        ]

    def test_mismatches_ignores_bits_past_the_end(self):
        bitmap = Bitmap(8)
        bitmap.set_range(2, 3)
        assert bitmap.mismatches(0b11100 | 1 << 8 | 1 << 40) == []
        assert bitmap.mismatches(0) == [2, 3, 4]


class TestProperties:
    @given(st.data())
    def test_alloc_free_roundtrip(self, data):
        """Random allocate/free sequences keep counts consistent and the
        found runs genuinely clear."""
        bitmap = Bitmap(128)
        live = []
        for _ in range(data.draw(st.integers(1, 40))):
            if live and data.draw(st.booleans()):
                start, length = live.pop(data.draw(st.integers(0, len(live) - 1)))
                bitmap.clear_range(start, length)
            else:
                length = data.draw(st.integers(1, 16))
                start = bitmap.find_clear_run(length)
                if start is None:
                    continue
                assert bitmap.run_is_clear(start, length)
                bitmap.set_range(start, length)
                live.append((start, length))
        assert bitmap.set_count == sum(length for _, length in live)

    @given(st.integers(1, 128))
    def test_full_bitmap_has_no_runs(self, length):
        bitmap = Bitmap(128)
        bitmap.set_range(0, 128)
        assert bitmap.find_clear_run(length) is None
