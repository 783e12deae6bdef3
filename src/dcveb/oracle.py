"""Single-threaded sorted-map oracle used as ground truth.

:class:`OracleMap` is the one sequential model: a mutable, bisect-backed
ordered map, fast enough to shadow long randomized runs call by call.
:func:`apply_op` threads an immutable state tuple through it, so the
linearizability checker can branch and memoize states cheaply without a
second copy of the semantics.

Ceiling/floor semantics: successor(k) is the entry with the smallest
key >= k, predecessor(k) the largest key <= k.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Optional

from .core import Entry

# Ops are plain tagged tuples: ("insert", key, value), ("delete", key),
# ("get", key), ("successor", key), ("predecessor", key), ("minimum",),
# ("maximum",).  Queries return Entry or None; mutators return None.


class OracleMap:
    """Mutable ordered map over non-negative integer keys."""

    __slots__ = ("_keys", "_values")

    def __init__(self):
        self._keys: list[int] = []
        self._values: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def insert(self, key: int, value: Any) -> None:
        if value is None:
            raise ValueError("value must not be None")
        if key not in self._values:
            insort(self._keys, key)
        self._values[key] = value

    def delete(self, key: int) -> None:
        if key in self._values:
            del self._values[key]
            i = bisect_left(self._keys, key)
            del self._keys[i]

    def get(self, key: int) -> Optional[Entry]:
        value = self._values.get(key)
        if value is None:
            return None
        return Entry(key, value)

    def successor(self, key: int) -> Optional[Entry]:
        i = bisect_left(self._keys, key)
        if i == len(self._keys):
            return None
        k = self._keys[i]
        return Entry(k, self._values[k])

    def predecessor(self, key: int) -> Optional[Entry]:
        i = bisect_left(self._keys, key + 1)
        if i == 0:
            return None
        k = self._keys[i - 1]
        return Entry(k, self._values[k])

    def minimum(self) -> Optional[Entry]:
        if not self._keys:
            return None
        k = self._keys[0]
        return Entry(k, self._values[k])

    def maximum(self) -> Optional[Entry]:
        if not self._keys:
            return None
        k = self._keys[-1]
        return Entry(k, self._values[k])

    def items(self) -> list[Entry]:
        return [Entry(k, self._values[k]) for k in self._keys]


# Immutable state for the checker: a tuple of (key, value) pairs sorted by key.
EMPTY_STATE: tuple = ()

_MUTATORS = ("insert", "delete")
_OPS = _MUTATORS + ("get", "successor", "predecessor", "minimum", "maximum")


def apply_op(state: tuple, op: tuple):
    """Pure transition: returns (result, next_state).

    Runs ``op`` on a fresh :class:`OracleMap` holding ``state``; the state
    is never mutated.  Deterministic and total for well-formed ops.
    """
    name = op[0]
    if name not in _OPS:
        raise ValueError("unknown op %r" % (name,))
    table = OracleMap()
    table._values = dict(state)
    table._keys = list(table._values)  # sorted: dicts keep the state's order
    result = getattr(table, name)(*op[1:])
    if name in _MUTATORS:
        keys = table._keys
        state = tuple(zip(keys, map(table._values.__getitem__, keys)))
    return result, state
