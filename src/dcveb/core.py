"""Concurrent ordered map over integer keys.

The structure is a fixed-fanout tree of nodes; each node holds one mutex, an
occupancy summary word, a ``retired`` mark and an array of child slots.  The
slots of the bottom level hold immutable ``Entry(key, value)`` objects
instead of nodes.  A key's path through the tree is its base-n digit
expansion, and a dict indexes every bottom-level node by its key prefix, so
``get`` touches one node and order queries start at the bottom level.
The tree grows at the top by stacking new root levels above the old root
when a key exceeds the current capacity, and trims root levels back off when
only the leftmost subtree remains.  At the bottom it grows by installing
nodes along an inserted key's path and shrinks by unlinking every node a
delete empties.

Concurrency contract:

* ``get``/``successor``/``predecessor``/``minimum``/``maximum`` take no locks.
  Every writer sets a slot's bit before it fills the slot and empties the
  slot before it clears the bit, so a filled slot always has its bit set:
  queries read slots first, and a word only to move past an empty slot.
* ``_bottoms`` maps each prefix ``key >> shift`` to the bottom-level node
  that covers it.  Every insert writes the item under the bottom node's
  mutex, after the ``retired`` check and before the bit and entry stores;
  the item is removed in the critical section that unlinks that node (a
  delete's climb) or drops it (a growth over an empty height-1
  root).  So a node holding an entry is always indexed, and an indexed node
  that has since been retired is empty for good: a reader that finds it
  retired, or finds its slot empty, answers "absent", which held at a
  moment inside the call.  ``get`` is one index probe and one slot read, and
  ``delete`` starts the same way.  ``successor`` and ``predecessor`` are
  one loop: the same probe, then a climb up ``parent`` links from the
  indexed node (or, on a miss, the published root) to the first ancestor
  with something on the search side, and a descent.  Five steps differ by
  direction: the capacity check on a miss, the word's side, the slot picked
  there, the skip past a node's range and the key re-derived after a move.
* Every write to a node (its word, its slots, its ``retired`` mark) happens
  under the node's mutex, and a writer checks ``retired`` first.  A node is
  retired under its mutex at the moment it leaves the tree: when an unlink
  pass unlinks it, when a growth drops an empty old root, and when a trim
  pops the old root.  So a node found unretired under its mutex is
  reachable from the root published at that moment.
* The published parameters (the root and ``top``, the root level's digit
  shift, from which the height and capacity follow) change only under the
  root guard's write lock plus the old root's mutex: a growth and a trim
  are the only publishers, and each stores the new parameters plainly.
* ``insert`` is one retry loop ending in one store under its bottom node's
  mutex: the node ``_bottoms`` indexes or, on a miss or a restart, the one
  a descent reaches.  It re-checks there that the node is unretired, so the
  node stays reachable while the mutex is held.  Only the descent holds the
  root guard's read lock, so the root it reads stays published; it installs
  a missing child with ``Node.cas_child``.  A retired node at the store or
  on the path, or a key past the capacity, restarts the loop into a fresh
  descent that reads the published root again; the key past the capacity
  first grows the tree, with the guard taken exclusively and no other lock.
* ``delete`` probes ``_bottoms`` and empties the entry's slot under the
  indexed node's mutex; a miss, a retired node, an empty slot or a node
  that keeps another entry ends it.  A delete that empties its node then
  climbs ``parent`` links from it, locking one (parent, child) pair at a
  time top-down, unlinking each child it finds empty and stopping at a
  parent that keeps another child, is retired, or is None.  A growth links
  the old root to the level it stacks under that root's mutex, so the
  climb reaches stacked levels too.  The delete reads no params and takes
  the guard only to trim, exclusively.
* The guard is always taken before any node mutex: no writer holds a node
  mutex while it takes the guard.  The guard's holders are the insert's
  descent, growth and trim; an insert's store and a delete's slot clear and
  climb hold node mutexes only.  An insert holds one node mutex at a
  time, and no operation holds more than two locks.

Nodes detached from the tree stay readable by threads that still hold
references (reclamation is deferred to the garbage collector), which is what
lets the query paths run unlocked.

Operations read a node's ``_mutex`` and ``parent``, ``_ap_lock``,
``_bottoms``, ``_grow`` and ``_trim_top`` through attributes at call time:
the scripted races pause or count an operation by putting stand-ins for
those objects in their place.
"""

from __future__ import annotations

import threading
from typing import Any, NamedTuple, Optional

from .bitops import (
    # unused here: an insert ORs its bit in under the node's mutex, and the
    # order queries find the nearest occupied child with inline masks.  The
    # per-layer tracer patches these three names in this module, so they
    # stay until the tracer learns the new shape (ROADMAP item 5).
    atomic_set_child,  # noqa: F401
    max_child_below,  # noqa: F401
    min_child_above,  # noqa: F401
    check_branching,
    child_mask,
)
from .rwlock import FairRWLock


class Entry(NamedTuple):
    key: int
    value: Any


class Capacity(NamedTuple):
    size: int
    height: int


class Node:
    """One tree node: a mutex ``_mutex``, an occupancy summary word
    ``value``, ``n`` child slots and a ``retired`` mark.

    Above the bottom level a slot holds a child ``Node``; at the bottom level
    it holds an immutable :class:`Entry` whose key is the slot's path key.
    ``None`` marks an empty slot, and at quiescence a slot is occupied
    exactly when its summary bit is set.  ``bits`` is the initial summary.
    Writers set a bit before they fill its slot and empty a slot before they
    clear its bit, so a filled slot's bit is always set: queries read slots.

    ``_mutex`` is the node's only lock object.  Every write to the node's
    word, slots and mark is made under it, and only while ``retired`` is
    False; ``retired`` is set, also under it, when the node leaves the
    tree, and never cleared.  A holder never takes another node's mutex
    except a child's, top-down.
    Readers load ``value`` and ``children`` plainly.

    ``parent`` is the node whose slot holds this one.  ``cas_child`` sets it
    under the parent's mutex before the slot store, so it is set before the
    node becomes reachable.  Only a root's link changes later, and only
    under the root guard's write lock: a growth that stacks levels on an old
    root sets it, under that root's mutex, and a trim clears the new root's,
    under the popped root's mutex, so the published root's ``parent`` is
    None.  Order queries read ``parent`` without a lock to climb; deletes
    read it after emptying the node under its mutex.
    """

    __slots__ = ("value", "children", "_mutex", "retired", "parent")

    def __init__(self, n: int, bits: int):
        self.value = bits
        self.children = [None] * n
        self._mutex = threading.Lock()
        self.retired = False
        self.parent = None

    def cas_child(self, pos: int, candidate: "Node") -> Optional["Node"]:
        """Install ``candidate`` at ``pos`` if the slot is empty, setting its
        bit first.

        Returns the slot's occupant, i.e. ``candidate`` on success or the
        node a racing inserter installed first, or None when this node is
        retired.
        """
        with self._mutex:
            if self.retired:
                return None
            current = self.children[pos]
            if current is None:
                candidate.parent = self
                self.value |= 1 << (len(self.children) - 1 - pos)
                self.children[pos] = candidate
                return candidate
            return current


class TreeParams:
    """Published tree shape: read-only once stored in ``DcvebArray._ap``.
    ``top`` is the root level's digit shift, a multiple of ``shift``; the
    tree holds the keys with ``key >> top <= mask``."""

    __slots__ = ("root", "top")

    def __init__(self, root: Node, top: int):
        self.root = root
        self.top = top


def _order_query(up: bool):
    """``DcvebArray.successor`` if ``up``, else ``predecessor``: the
    direction is a closure constant, so neither pays an extra call frame."""

    def query(self, key: int) -> Optional[Entry]:
        """``successor``: the entry with the smallest key' >= key, or None;
        ``predecessor``: the one with the largest key' <= key.  No locks.

        One loop over one node at a time, from ``key``'s indexed bottom node
        or, on an index miss, the published root; ``s`` is the node's digit
        shift (0 at the bottom level) and ``at`` caches ``key >> s``.  An
        empty slot at ``key``'s digit sends the loop to the word, which
        moves ``key`` to the nearest filled slot on the search side or, if
        there is none, just past the node's range, and the loop climbs
        ``parent`` while the digit wraps (past the root: None).  A filled
        slot is the answer at the bottom level and is descended into above
        it.  ``key`` only moves toward the search side, and past a range
        only when a node covering it showed nothing there.  Each node read
        was in the tree at some moment of the call, and an entry present
        throughout keeps its path in the tree with its bits set, so a node
        read that covers it shows it.  Without concurrent writers a call
        visits at most about ``2 * height`` nodes.

        Five steps read ``up`` (successor / predecessor), none on a filled
        slot's path: (1) a key past the capacity on an index miss answers
        None / is clamped to its last key; (2) the word's search side is past
        the digit / before it, (3) whose nearest slot is its highest / lowest
        set bit; (4) a skip goes one past the node's range / one below it,
        wrapping to digit 0 / to the last; (5) ``key`` is ``at``'s first /
        last key.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        n = self._n
        shift = self._shift
        mask = self._mask
        node = self._bottoms.get(key >> shift)
        s = 0  # ``node``'s digit shift
        at = key  # ``key >> s``: ``node``'s prefix, its digit included
        if node is None:
            params = self._ap
            s = params.top
            at = key >> s
            if at > mask:  # past the capacity
                if up:
                    return None
                key = (n << s) - 1
                at = mask
            node = params.root
        while True:
            digit = at & mask
            child = node.children[digit]
            if child is None:
                # slot ``p`` owns bit ``mask - p``
                side = (node.value & ((1 << (mask - digit)) - 1) if up
                        else node.value >> (n - digit))
                if side:
                    q = (n - side.bit_length() if up
                         else digit - (side & -side).bit_length())
                    child = node.children[q]
                    if child is not None and not s:
                        return child
                    at += q - digit
                else:  # skip the node's range; climb while the digit wraps
                    at = (at | mask) + 1 if up else (at & ~mask) - 1
                    wrap = 0 if up else mask
                    while node is not None and at & mask == wrap:
                        at >>= shift
                        s += shift
                        node = node.parent
                    if node is None:
                        return None
                # ``at`` moved: read its slot, or descend into the child found
                key = at << s if up else ((at + 1) << s) - 1
                if child is None:
                    continue
            if not s:
                return child
            node = child
            s -= shift
            at = key >> s

    query.__name__ = "successor" if up else "predecessor"
    query.__qualname__ = "DcvebArray." + query.__name__
    return query


class DcvebArray:
    """Concurrent dynamic set of integer-keyed entries with order queries.

    ``branching`` is the tree fanout (power of two, at most 64).  Keys must
    lie in ``[0, 2**key_bits)``.
    """

    def __init__(self, branching: int = 64, key_bits: int = 63):
        check_branching(branching)
        if key_bits < 1:
            raise ValueError("key_bits must be >= 1")
        self._n = branching
        self._shift = branching.bit_length() - 1
        self._mask = branching - 1
        self._key_limit = 1 << key_bits
        self._ap_lock = FairRWLock()
        root = Node(branching, 0)
        # prefix -> bottom-level node; written as the module docstring says
        self._bottoms = {0: root}
        # stored only under the guard's write lock; read plainly
        self._ap = TreeParams(root, 0)

    # -- introspection ---------------------------------------------------

    @property
    def branching(self) -> int:
        return self._n

    def capacity_snapshot(self) -> Capacity:
        """The published shape: ``n ** height`` keys over ``height`` levels."""
        top = self._ap.top
        return Capacity(self._n << top, top // self._shift + 1)

    def _check_key(self, key) -> None:
        if (not isinstance(key, int) or isinstance(key, bool)
                or key < 0 or key >= self._key_limit):
            raise ValueError(
                "key must be an int in [0, %d), got %r" % (self._key_limit, key)
            )

    # -- queries (lock-free) ----------------------------------------------
    #
    # ``get`` reads the key's bottom node from ``_bottoms`` and one slot;
    # ``_order_query`` builds ``successor`` and ``predecessor``.  The key
    # check is inlined; only a bad key or an int subclass calls ``_check_key``.

    def get(self, key: int) -> Optional[Entry]:
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        node = self._bottoms.get(key >> self._shift)
        if node is None:
            return None
        return node.children[key & self._mask]

    successor = _order_query(True)
    predecessor = _order_query(False)

    def minimum(self) -> Optional[Entry]:
        return self.successor(0)

    def maximum(self) -> Optional[Entry]:
        return self.predecessor(self._key_limit - 1)

    # -- insert -----------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Store ``value`` under ``key``, overwriting any entry there.

        One retry loop, ending in one store under the mutex of ``key``'s
        bottom node: the node ``_bottoms`` indexes or, on a miss or after a
        restart, the one a descent reaches.  The descent holds the root
        guard's read lock, which every publish takes for writing, so the
        root it reads from ``_ap`` stays published while it walks down; it
        reads slots without locks and installs a missing child with
        ``cas_child``.  It releases the guard before the store, and a key
        beyond the capacity grows the tree there, while no lock is held.
        The store re-checks that the node is unretired, then writes the
        index item, the bit and the entry.  A node is retired under its
        mutex as it leaves the tree, so an unretired one stays reachable
        while the mutex is held.  A retired node at the store, a retired
        parent in ``cas_child`` and a key past the capacity each restart
        the loop, into a fresh descent.  The store takes no guard, and takes
        its mutex with ``acquire`` and ``finally``, cheaper than ``with``.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        if value is None:
            raise ValueError("value must not be None (None marks vacant slots)")
        # ``Entry(key, value)`` would run the NamedTuple's Python __new__
        entry = tuple.__new__(Entry, (key, value))
        shift = self._shift
        mask = self._mask
        prefix = key >> shift
        node = self._bottoms.get(prefix)
        while True:
            if node is None:
                ap_lock = self._ap_lock
                ap_lock.acquire_read()
                try:
                    params = self._ap
                    s = params.top
                    node = params.root if key >> s <= mask else None
                    while s and node is not None:
                        digit = (key >> s) & mask
                        child = node.children[digit]
                        if child is None:  # None again if ``node`` is retired
                            child = node.cas_child(digit, Node(self._n, 0))
                        node = child
                        s -= shift
                finally:
                    ap_lock.release_read()
                if node is None:  # a retired parent or a key past capacity
                    if key >> params.top > mask:
                        self._grow(key)
                    continue
            lock = node._mutex
            lock.acquire()
            try:
                if not node.retired:
                    # index, then bit, then slot; one reference store
                    # publishes the entry
                    self._bottoms[prefix] = node
                    digit = key & mask
                    node.value |= 1 << (mask - digit)
                    node.children[digit] = entry
                    return
            finally:
                lock.release()
            node = None

    def _grow(self, key: int) -> None:
        """Publish a tree tall enough for ``key``, unless one already is.

        An insert calls it, holding no lock, when its key is past the
        capacity.  Runs under the root guard's write lock, so it waits only
        for inserts in a descent, not for their stores, and the old root's
        mutex, so no writer can change the root's word meanwhile.  It raises
        ``top`` one digit at a time until ``key`` fits.  A non-empty old root
        becomes child 0 of a chain of new levels, one per digit; the old
        tree is not reorganized.  An empty old root is dropped (retired) for
        one fresh empty root instead, so growth never leaves an all-zeros
        spine behind; a dropped height-1 root also leaves ``_bottoms``, and
        an insert whose store takes its mutex afterwards restarts.  An
        adopted old root's ``parent`` is set under its mutex: a delete's
        climb that empties the old root either does so first, and this
        growth drops it, or after, and then reads the link to the new level.
        """
        mask = self._mask
        ap_lock = self._ap_lock
        ap_lock.acquire_write()
        try:
            params = self._ap
            top = params.top
            if key >> top <= mask:
                return  # another insert grew the tree first
            old = params.root
            with old._mutex:
                n = self._n
                dropped = old.value == 0
                root = Node(n, 0) if dropped else old
                while key >> top > mask:
                    top += self._shift
                    if not dropped:
                        level = Node(n, child_mask(0, n))
                        level.children[0] = root
                        root.parent = level  # first ``old``, under its mutex
                        root = level
                self._ap = TreeParams(root, top)
                if dropped:
                    old.retired = True  # it leaves the tree with this store
                    if self._bottoms.get(0) is old:
                        del self._bottoms[0]
        finally:
            ap_lock.release_write()

    # -- delete -----------------------------------------------------------

    def delete(self, key: int) -> None:
        """Remove ``key``'s entry, if present.

        ``_bottoms`` hands over ``key``'s bottom node, as for ``get``: a miss
        means the key is absent, since every node that holds an entry is
        indexed.  The slot is re-read under that node's mutex: a retired node
        or an empty slot means the key was absent at some moment inside the
        call (another delete emptied it, or the node was unlinked after the
        probe), so the call linearizes there and touches nothing more.  Any
        entry found is removed: ``insert`` overwrites in place, so the key
        stayed present throughout.  A node that keeps another entry ends the
        call there, with no params read and no guard.

        A delete that empties its node climbs ``parent`` links from it, one
        (parent, child) pair at a time, locked top-down so that lock order
        follows tree levels.  Under both mutexes it re-checks that the child
        still fills the parent's slot for ``key`` and is empty, then clears
        the slot and its bit, retires the child and, for a bottom node,
        removes the node's ``_bottoms`` item if it is still that node.  An
        insert that reaches the child later finds it retired and restarts,
        so an emptied node leaves the tree for good.  The climb stops at a
        child that is no longer there or no longer empty, at a parent that
        keeps another child, and at a retired parent or None.  A retired
        parent has left the tree itself: a popped root still holds the
        published root in slot 0, and a climb that read the root's link
        before the trim cleared it reaches it.

        Each link the climb follows was read after its node was emptied
        under its mutex.  A growth stacks levels on the old root under that
        same mutex, so either it stacked first and the link already leads to
        the new level, or it finds the root empty and drops it.  So the
        climb reaches every level a growth stacked with no params read; it
        ends in ``_trim_top``, the one step that takes the guard.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        shift = self._shift
        node = self._bottoms.get(key >> shift)
        if node is None:
            return
        mask = self._mask
        digit = key & mask
        with node._mutex:
            if node.retired or node.children[digit] is None:
                return
            node.children[digit] = None
            word = node.value & ~(1 << (mask - digit))
            node.value = word
        if word:
            return
        s = shift  # the digit shift of ``node``'s parent
        parent = node.parent
        while not word and parent is not None:
            digit = (key >> s) & mask
            with parent._mutex:
                if parent.retired:
                    break
                with node._mutex:
                    if parent.children[digit] is not node or node.value:
                        break
                    parent.children[digit] = None
                    word = parent.value & ~(1 << (mask - digit))
                    parent.value = word
                    node.retired = True
                    if s == shift and self._bottoms.get(key >> s) is node:
                        del self._bottoms[key >> s]
            node = parent
            parent = node.parent
            s += shift
        self._trim_top()

    def _trim_top(self) -> None:
        """Pop root levels while the root's only occupant is child 0, down
        to ``top == 0``.

        One level per iteration; the publish is re-validated and performed
        under the root guard, which keeps every insert out, plus the old
        root's mutex, under which the popped root is retired and the new
        root's ``parent`` cleared.  A climb that read the link before stops
        at the retired root; one that reads it after stops at None, and no
        chain of popped roots stays reachable from the published root.
        """
        only_zero = child_mask(0, self._n)
        ap_lock = self._ap_lock
        while True:
            params = self._ap
            root = params.root
            if root.value != only_zero or not params.top:
                return
            ap_lock.acquire_write()
            try:
                with root._mutex:
                    if self._ap is params and root.value == only_zero:
                        # fetch the lonely child under the mutex: its slot
                        # may have been emptied and refilled since the word
                        # was read
                        child = root.children[0]
                        child.parent = None
                        self._ap = TreeParams(child, params.top - self._shift)
                        root.retired = True
            finally:
                ap_lock.release_write()
