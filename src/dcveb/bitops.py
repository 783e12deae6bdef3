"""Bit-vector arithmetic for occupancy summaries.

A node with branching factor ``n`` (a power of two, at most the machine word
width) keeps an ``n``-bit occupancy word.  Child position ``p`` in ``[0, n)``
maps to bit index ``n - 1 - p`` counted from the least significant bit, so
child 0 owns the most significant of the ``n`` bits.  With this layout the
"first child at or after p" query is a mask plus a highest-set-bit, which
``int.bit_length`` gives us directly.

Everything here is either a pure function on plain ints or an operation on an
:class:`AtomicWord` cell, so it is unit-testable without any tree present.
"""

from __future__ import annotations

import threading

WORD_BITS = 64


class AtomicWord:
    """Integer cell with atomic load and compare-and-set.

    CPython has no hardware CAS; ``mutex`` provides the compare-and-set
    atomicity.  Plain loads are safe without it: reading the ``value``
    attribute is the same load as ``load()``, without the call, and hot read
    paths use it.  Writes go through ``store``/``compare_and_set`` only.  The
    owner of the word may hold ``mutex`` to make other updates atomic with
    respect to the word's.
    """

    __slots__ = ("value", "mutex")

    def __init__(self, value: int = 0):
        self.value = value
        self.mutex = threading.Lock()

    def load(self) -> int:
        return self.value

    def store(self, value: int) -> None:
        with self.mutex:
            self.value = value

    def compare_and_set(self, expected: int, update: int) -> bool:
        with self.mutex:
            if self.value == expected:
                self.value = update
                return True
            return False


def check_branching(n: int) -> None:
    """Reject branching factors that are not powers of two in [2, WORD_BITS]."""
    if not isinstance(n, int) or n < 2 or n > WORD_BITS or n & (n - 1):
        raise ValueError(
            "branching factor must be a power of two in [2, %d], got %r"
            % (WORD_BITS, n)
        )


def child_mask(p: int, n: int) -> int:
    """Word with exactly the bit for child position ``p`` set."""
    assert 0 <= p < n, "child position out of range"
    return 1 << (n - 1 - p)


def min_child_above(bits: int, p: int | None, n: int) -> int | None:
    """Smallest child position strictly greater than ``p`` with its bit set.

    ``p=None`` means no lower bound (the leftmost set child overall).
    Returns None when no qualifying bit is set.
    """
    if p is None:
        masked = bits & ((1 << n) - 1)
    else:
        assert 0 <= p < n, "child position out of range"
        # children q > p live at bit indices strictly below n-1-p
        masked = bits & ((1 << (n - 1 - p)) - 1)
    if masked == 0:
        return None
    return n - masked.bit_length()


def max_child_below(bits: int, p: int | None, n: int) -> int | None:
    """Largest child position strictly less than ``p`` with its bit set.

    ``p=None`` means no upper bound (the rightmost set child overall).
    """
    if p is None:
        masked = bits & ((1 << n) - 1)
    else:
        assert 0 <= p < n, "child position out of range"
        # children q < p live at bit indices n-p and above
        masked = bits & ~((1 << (n - p)) - 1) & ((1 << n) - 1)
    if masked == 0:
        return None
    # lowest set bit index -> largest child position
    low = (masked & -masked).bit_length() - 1
    return n - 1 - low


def atomic_set_child(cell: AtomicWord, p: int, n: int) -> bool:
    """Set child ``p``'s bit in ``cell`` via a CAS retry loop.

    Returns True when this call performed the transition, False when the bit
    was already set.  Concurrent callers may only enable further bits, never
    disable them, so the loop fails at most ``n`` times before the first
    branch must hit.
    """
    mask = child_mask(p, n)
    while True:
        s = cell.load()
        if s & mask:
            return False
        if cell.compare_and_set(s, s | mask):
            return True
