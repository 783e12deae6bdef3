import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcveb.bitops import (
    AtomicWord,
    atomic_set_child,
    check_branching,
    child_mask,
    max_child_below,
    min_child_above,
)
from dcveb.core import DcvebArray


def brute_min_above(bits, p, n):
    lo = 0 if p is None else p + 1
    for q in range(lo, n):
        if bits & (1 << (n - 1 - q)):
            return q
    return None


def brute_max_below(bits, p, n):
    hi = n if p is None else p
    for q in range(hi - 1, -1, -1):
        if bits & (1 << (n - 1 - q)):
            return q
    return None


class TestChildMask:
    def test_child_zero_is_most_significant(self):
        assert child_mask(0, 8) == 0b10000000

    def test_last_child_is_least_significant(self):
        assert child_mask(7, 8) == 0b00000001

    def test_middle_position(self):
        # bit index n-1-p = 4
        assert child_mask(3, 8) == 0b00010000

    def test_out_of_range(self):
        with pytest.raises(AssertionError):
            child_mask(8, 8)


class TestNeighborScans:
    def test_min_above_example(self):
        # set children of 0b00010010 at n=8 are {3, 6}
        assert min_child_above(0b00010010, 3, 8) == 6

    def test_min_above_nothing_right(self):
        assert min_child_above(child_mask(0, 8), 0, 8) is None

    def test_min_above_sentinel_full(self):
        assert min_child_above(0b11111111, None, 8) == 0

    def test_max_below_example(self):
        assert max_child_below(0b00010010, 6, 8) == 3

    def test_max_below_nothing_left(self):
        assert max_child_below(child_mask(7, 8), 7, 8) is None

    def test_max_below_sentinel_full(self):
        assert max_child_below(0b11111111, None, 8) == 7

    def test_exhaustive_n8(self):
        for bits in range(256):
            for p in [None] + list(range(8)):
                assert min_child_above(bits, p, 8) == brute_min_above(bits, p, 8)
                assert max_child_below(bits, p, 8) == brute_max_below(bits, p, 8)

    @settings(max_examples=200)
    @given(
        bits=st.integers(min_value=0, max_value=(1 << 64) - 1),
        p=st.one_of(st.none(), st.integers(min_value=0, max_value=63)),
    )
    def test_randomized_n64(self, bits, p):
        assert min_child_above(bits, p, 64) == brute_min_above(bits, p, 64)
        assert max_child_below(bits, p, 64) == brute_max_below(bits, p, 64)


class TestAtomicSetChild:
    def test_fresh_set(self):
        cell = AtomicWord(0)
        assert atomic_set_child(cell, 2, 8) is True
        assert cell.load() == child_mask(2, 8)

    def test_idempotent(self):
        cell = AtomicWord(child_mask(2, 8))
        assert atomic_set_child(cell, 2, 8) is False
        assert cell.load() == child_mask(2, 8)

    def test_interleavings_by_hand(self):
        # both orders of two racing setters end at the same word and both
        # report having made their own transition
        for first, second in [(1, 2), (2, 1)]:
            cell = AtomicWord(0)
            # thread A observes the empty word...
            seen_a = cell.load()
            # ...thread B runs start to finish in between
            assert atomic_set_child(cell, second, 8) is True
            # A's CAS on the stale word fails, so its loop re-reads and lands
            assert cell.compare_and_set(seen_a, seen_a | child_mask(first, 8)) is False
            assert atomic_set_child(cell, first, 8) is True
            assert cell.load() == child_mask(1, 8) | child_mask(2, 8)

    def test_concurrent_positions_commute(self):
        cell = AtomicWord(0)
        barrier = threading.Barrier(8)

        def setter(p):
            barrier.wait()
            atomic_set_child(cell, p, 8)

        threads = [threading.Thread(target=setter, args=(p,)) for p in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cell.load() == 0b11111111


class TestHeightAndCapacity:
    """``capacity_snapshot``: ``n ** h`` keys over the fewest levels ``h``
    that hold every inserted key."""

    @staticmethod
    def shape_for(key, n=64):
        array = DcvebArray(branching=n, key_bits=63)
        array.insert(key, key)
        return array.capacity_snapshot()

    def test_max_int31(self):
        assert self.shape_for(2**31 - 1) == (64**6, 6)

    def test_max_int63(self):
        assert self.shape_for(2**63 - 1) == (64**11, 11)

    def test_zero(self):
        assert self.shape_for(0) == (64, 1)

    def test_exact_power_needs_next_level(self):
        assert self.shape_for(64) == (4096, 2)

    def test_capacity_values(self):
        assert DcvebArray().capacity_snapshot() == (64, 1)
        assert self.shape_for(4095) == (4096, 2)

    @settings(max_examples=100)
    @given(
        h=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=0, max_value=4),
    )
    def test_growth_multiplies_capacity(self, h, k):
        array = DcvebArray()
        array.insert(64 ** (h - 1), "low")  # the smallest key of height h
        assert array.capacity_snapshot() == (64**h, h)
        array.insert(64 ** (h + k - 1), "high")
        assert array.capacity_snapshot() == (64**h * 64**k, h + k)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 4, 64]),
        st.one_of(
            st.integers(min_value=0, max_value=2**63 - 1),
            st.integers(min_value=0, max_value=62).map(lambda b: 1 << b),
            st.integers(min_value=1, max_value=63).map(lambda b: (1 << b) - 1),
        ),
    )
    def test_height_is_tight(self, n, key):
        # any key a 63-bit array accepts: the growth is tight, and with
        # key 0 present the trim takes the tree back to one level
        array = DcvebArray(branching=n, key_bits=63)
        array.insert(0, 0)
        array.insert(key, key)
        size, h = array.capacity_snapshot()
        assert size == n**h > key
        assert h == 1 or n ** (h - 1) <= key
        array.delete(key)
        assert array.capacity_snapshot() == (n, 1)


class TestBranchingValidation:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_accepts_powers_of_two(self, n):
        check_branching(n)

    @pytest.mark.parametrize("n", [0, 1, 3, 6, 65, 128, -2])
    def test_rejects_others(self, n):
        with pytest.raises(ValueError):
            check_branching(n)


class TestAtomicWord:
    def test_cas_success_and_failure(self):
        cell = AtomicWord(5)
        assert cell.compare_and_set(5, 9)
        assert not cell.compare_and_set(5, 11)
        assert cell.load() == 9

    def test_store(self):
        cell = AtomicWord(1)
        cell.store(7)
        assert cell.load() == 7
