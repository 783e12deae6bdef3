import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcveb.bitops import (
    AtomicWord,
    atomic_set_child,
    capacity,
    check_branching,
    child_mask,
    max_child_below,
    min_child_above,
    required_height,
)


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
    def test_max_int31(self):
        assert required_height(2**31 - 1, 64) == 6

    def test_max_int63(self):
        assert required_height(2**63 - 1, 64) == 11

    def test_zero(self):
        assert required_height(0, 64) == 1

    def test_exact_power_needs_next_level(self):
        assert required_height(64, 64) == 2

    def test_capacity_values(self):
        assert capacity(1, 64) == 64
        assert capacity(2, 64) == 4096

    @settings(max_examples=100)
    @given(
        h=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=0, max_value=4),
    )
    def test_growth_multiplies_capacity(self, h, k):
        assert capacity(h + k, 64) == capacity(h, 64) * 64**k

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=2**40))
    def test_height_is_tight(self, key):
        h = required_height(key, 64)
        assert capacity(h, 64) > key
        assert h == 1 or capacity(h - 1, 64) <= key


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
