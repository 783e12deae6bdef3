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
  delete's unlink pass) or drops it (a growth over an empty height-1
  root).  So a node holding an entry is always indexed, and an indexed node
  that has since been retired is empty for good: a reader that finds it
  retired, or finds its slot empty, answers "absent", which held at a
  moment inside the call.  ``get`` is one index probe and one slot read, and
  ``delete`` starts the same way.  ``successor`` and ``predecessor`` make
  the same one probe and then walk the tree: from the indexed node (or, on
  a miss, the published root) they climb ``parent`` links to the first
  ancestor with something on the search side and descend from it.
* Every write to a node (its word, its slots, its ``retired`` mark) happens
  under the node's mutex, and a writer checks ``retired`` first.  A node is
  retired under its mutex at the moment it leaves the tree: when an unlink
  pass unlinks it, when a growth drops an empty old root, and when a trim
  pops the old root.  So a node found unretired under its mutex is
  reachable from the root published at that moment.
* The published parameters (size, height, root) change only under the
  root guard's write lock plus the old root's mutex: a growth and a trim
  are the only publishers, and each stores the new parameters plainly.
* ``insert`` ends in one store under its bottom node's mutex: the node
  ``_bottoms`` indexes or, on a miss, the one a descent reaches.  It
  re-checks there that the node is unretired, so the node stays reachable
  while the mutex is held; a retired node sends it to the descent.  Only
  the descent holds the root guard's read lock, so its snapshotted root
  stays published.  It installs a missing child with ``Node.cas_child``
  and restarts from the same root at a retired node.  A key beyond the
  capacity makes it take the guard exclusively to grow the tree first,
  while it holds no other lock.
* ``delete`` probes ``_bottoms`` and empties the entry's slot under the
  indexed node's mutex; a miss, a retired node or an empty slot ends it.
  A node that keeps another entry ends it too.  A delete that empties its
  node climbs ``parent`` links from it in one unlink pass, one (parent,
  child) pair at a time, locking each pair top-down, unlinking each child
  it finds empty and stopping at a parent that keeps another child, is
  retired, or is None.  A growth links the old root to the level it stacks
  under that root's mutex, so the climb reaches stacked levels too.  The
  delete reads no params and takes the guard only to trim, exclusively.
* The guard is always taken before any node mutex: no writer holds a node
  mutex while it takes the guard.  The guard's holders are the insert's
  descent, growth and trim; an insert's store and a delete's slot clear and
  climb hold node mutexes only.  An insert holds one lock at a time, and
  no operation holds more than two.

Nodes detached from the tree stay readable by threads that still hold
references (reclamation is deferred to the garbage collector), which is what
lets the query paths run unlocked.

Operations read a node's ``_mutex`` and ``parent``, ``_ap_lock``,
``_bottoms`` and the helper methods through attributes at call time: the
scripted races pause or count an operation by putting stand-ins for those
objects in their place.
"""

from __future__ import annotations

import threading
from typing import Any, NamedTuple, Optional

from .bitops import (
    # unused here: an insert ORs its bit in under the node's mutex, and the
    # order queries find the nearest occupied child with inline masks.  The
    # per-layer tracer patches these three names in this module, so they
    # stay until the tracer learns the new shape (ROADMAP item 3).
    atomic_set_child,  # noqa: F401
    max_child_below,  # noqa: F401
    min_child_above,  # noqa: F401
    capacity,
    check_branching,
    child_mask,
    required_height,
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
    ``top`` is the root level's digit shift, ``shift * (height - 1)``."""

    __slots__ = ("size", "height", "root", "top")

    def __init__(self, size: int, height: int, root: Optional[Node], top: int):
        self.size = size
        self.height = height
        self.root = root
        self.top = top


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
        self._ap = TreeParams(branching, 1, root, 0)

    # -- introspection ---------------------------------------------------

    @property
    def branching(self) -> int:
        return self._n

    def capacity_snapshot(self) -> Capacity:
        params = self._ap
        return Capacity(params.size, params.height)

    def _params(self) -> TreeParams:
        return self._ap

    def _check_key(self, key) -> None:
        if (not isinstance(key, int) or isinstance(key, bool)
                or key < 0 or key >= self._key_limit):
            raise ValueError(
                "key must be an int in [0, %d), got %r" % (self._key_limit, key)
            )

    # -- queries (lock-free) ----------------------------------------------
    #
    # ``get`` reads the key's bottom node from ``_bottoms`` and one slot.
    # ``successor`` and ``predecessor`` are one loop over one node at a
    # time, tracking the node's digit shift ``s`` (0 at the bottom level)
    # and ``at``, which caches ``key >> s`` so that an index hit reads its
    # digit with one mask, as ``get`` does.  A filled slot's bit is set, so
    # only an empty slot sends them to the node's word.  The key check is
    # inlined; only a bad key or an int subclass reaches ``_check_key``.

    def get(self, key: int) -> Optional[Entry]:
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        node = self._bottoms.get(key >> self._shift)
        if node is None:
            return None
        return node.children[key & self._mask]

    def successor(self, key: int) -> Optional[Entry]:
        """Entry with the smallest key' >= key, or None.

        Takes no locks.  One loop over one node at a time, at any level,
        from ``key``'s indexed bottom node or, on an index miss, the
        published root.  In each node it reads the slot at ``key``'s digit,
        and only if that is empty the word, which moves ``key`` to the
        nearest filled slot past the digit.  A filled slot is the answer at
        the bottom level and is descended into above it.  A node with
        nothing past the digit moves ``key`` past its range and the loop
        climbs ``parent``, again while the digit wraps; None (past the root)
        answers None.

        ``key`` only moves forward, and past a range only when a node
        covering it showed nothing there.  Each node read was in the tree
        at some moment of the call.  An entry present for the whole call
        keeps its bottom node and all its ancestors in the tree with its
        path's bits set, so a node read that covers it is one of them and
        shows it.  Without concurrent writers a call visits at most about
        ``2 * height`` nodes: up to the root and down once.
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
            if key >= params.size:
                return None
            node = params.root
            s = params.top
            at = key >> s
        while True:
            digit = at & mask
            child = node.children[digit]
            if child is None:
                # slots past ``digit`` own the bits below its bit
                above = node.value & ((1 << (mask - digit)) - 1)
                if not above:  # skip the node's range; climb while it wraps
                    at = (at | mask) + 1
                    while node is not None and not at & mask:
                        at >>= shift
                        s += shift
                        node = node.parent
                    if node is None:
                        return None
                    key = at << s
                    continue
                q = n - above.bit_length()
                child = node.children[q]
                # move to slot ``q`` unless it is the answer: to read it
                # again, or to descend into it
                if child is None or s:
                    at += q - digit
                    key = at << s
                    if child is None:
                        continue  # emptied since the word read
            if not s:
                return child
            node = child
            s -= shift
            at = key >> s

    def predecessor(self, key: int) -> Optional[Entry]:
        """Entry with the largest key' <= key, or None.

        Mirror of successor: an index miss clamps ``key`` to the published
        size once, the word scan moves ``key`` to the last key of the
        nearest filled slot before the digit, and a node with nothing before
        the digit moves ``key`` to one below its range and climbs while the
        digit wraps to the last slot.  A ``key`` below 0 wraps at every
        level, so the climb ends past the root and answers None.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        n = self._n
        shift = self._shift
        mask = self._mask
        node = self._bottoms.get(key >> shift)
        s = 0  # ``node``'s digit shift
        at = key  # ``key >> s``
        if node is None:
            params = self._ap
            if key >= params.size:
                key = params.size - 1
            node = params.root
            s = params.top
            at = key >> s
        while True:
            digit = at & mask
            child = node.children[digit]
            if child is None:
                # slots before ``digit``, nearest first from bit 0 up
                below = node.value >> (n - digit)
                if not below:  # skip the node's range; climb while it wraps
                    at = (at & ~mask) - 1
                    while node is not None and at & mask == mask:
                        at >>= shift
                        s += shift
                        node = node.parent
                    if node is None:
                        return None
                    key = ((at + 1) << s) - 1
                    continue
                q = digit - (below & -below).bit_length()
                child = node.children[q]
                if child is None or s:
                    at += q - digit
                    key = ((at + 1) << s) - 1
                    if child is None:
                        continue
            if not s:
                return child
            node = child
            s -= shift
            at = key >> s

    def minimum(self) -> Optional[Entry]:
        return self.successor(0)

    def maximum(self) -> Optional[Entry]:
        return self.predecessor(self._key_limit - 1)

    # -- insert -----------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        """Store ``value`` under ``key``, overwriting any entry there.

        One store, under the mutex of ``key``'s bottom node: the node
        ``_bottoms`` indexes or, on a miss, the one ``_descend`` reaches.  It
        re-checks there that the node is unretired, then writes the index
        item, the bit and the entry.  Every node is retired under its mutex
        as it leaves the tree, so an unretired one stays reachable from the
        published root while the mutex is held; a retired one sends the
        insert to ``_descend``.  The store takes no guard.  It takes the
        mutex with ``acquire`` and releases it in ``finally``, which costs
        less than ``with``.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        if value is None:
            raise ValueError("value must not be None (None marks vacant slots)")
        # ``Entry(key, value)`` would run the NamedTuple's Python __new__
        entry = tuple.__new__(Entry, (key, value))
        mask = self._mask
        prefix = key >> self._shift
        node = self._bottoms.get(prefix)
        while True:
            if node is None:
                node = self._descend(key)
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

    def _descend(self, key: int) -> Node:
        """Return ``key``'s bottom node, installing missing nodes on its path.

        Holds the root guard's read lock, so the root snapshotted here stays
        published: every publish takes the guard's write lock.  It reads
        slots without locks and installs a missing child with ``cas_child``;
        a node ``cas_child`` finds retired has left the tree, so the descent
        restarts from the same root.  A key beyond the capacity releases the
        guard and grows the tree first, while this thread holds no lock.
        """
        n = self._n
        shift = self._shift
        mask = self._mask
        ap_lock = self._ap_lock
        while True:
            ap_lock.acquire_read()
            try:
                params = self._ap
                if key < params.size:
                    while True:  # one pass per descent from the root
                        s = params.top
                        node = params.root
                        while s:
                            digit = (key >> s) & mask
                            child = node.children[digit]
                            if child is None:
                                child = node.cas_child(digit, Node(n, 0))
                                if child is None:
                                    break  # ``node`` was retired: restart
                            node = child
                            s -= shift
                        else:
                            return node
            finally:
                ap_lock.release_read()
            self._grow(key)

    def _grow(self, key: int) -> None:
        """Publish a tree tall enough for ``key``, unless one already is.

        Runs under the root guard's write lock, so it waits only for inserts
        still descending, not for their stores, and the old root's mutex, so
        no writer can change the root's word meanwhile.  A non-empty old
        root becomes child 0 of a chain of new levels; the old tree is not
        reorganized.  An empty old root is dropped (retired) for one fresh
        empty root instead, so growth never leaves an all-zeros spine
        behind; a dropped height-1 root also leaves ``_bottoms``, and an
        insert whose store takes its mutex afterwards descends again.  An
        adopted old root's ``parent`` is set under its mutex: a delete's
        climb that empties the old root either does so first, and this
        growth drops it, or after, and then reads the link to the new level.
        """
        ap_lock = self._ap_lock
        ap_lock.acquire_write()
        try:
            params = self._ap
            if key < params.size:
                return  # another insert grew the tree first
            old = params.root
            with old._mutex:
                n = self._n
                height = required_height(key, n)
                dropped = old.value == 0
                if dropped:
                    root = Node(n, 0)
                else:
                    root = old
                    for _ in range(height - params.height):
                        top = Node(n, child_mask(0, n))
                        top.children[0] = root
                        root.parent = top  # first ``old``, under its mutex
                        root = top
                self._ap = TreeParams(capacity(height, n), height, root,
                                      self._shift * (height - 1))
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

        Only a delete that empties its node runs ``_unlink_path`` from that
        node, and then ``_trim_top``, the one step that takes the guard.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        node = self._bottoms.get(key >> self._shift)
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
        self._unlink_path(node, key)
        self._trim_top()

    def _clear_if_empty(self, node: Node, key: int, s: int, child: Node) -> bool:
        """Unlink ``child`` from ``node``'s slot for ``key`` (``node``'s digit
        shift is ``s``), clear the slot's bit and retire ``child`` if
        ``child`` still fills that slot and is empty, all re-checked under
        the pair's mutexes.  A bottom-level ``child`` (``s == shift``) also
        leaves ``_bottoms`` if it is the item there.

        The pair is locked top-down, so lock order follows tree levels.  An
        insert that reaches ``child`` later finds it retired under its mutex
        and restarts, so an emptied child leaves the tree for good; a later
        insert under the same digit installs a fresh node.  A retired
        ``node`` has left the tree itself (a popped root still holds the
        published root in slot 0, and a climb that read the root's link
        before the trim cleared it reaches it), so nothing is unlinked from
        it.  Returns True when ``node`` itself became empty:
        only then may the level above need clearing too.
        """
        digit = (key >> s) & self._mask
        bit = 1 << (self._n - 1 - digit)
        with node._mutex:
            if node.retired:
                return False
            with child._mutex:
                word = node.value
                if (node.children[digit] is not child or child.value != 0
                        or word & bit == 0):
                    return False
                node.children[digit] = None
                word &= ~bit
                node.value = word
                child.retired = True
                if s == self._shift:
                    bottoms = self._bottoms
                    if bottoms.get(key >> s) is child:
                        del bottoms[key >> s]
                return word == 0

    def _unlink_path(self, node: Node, key: int) -> None:
        """Unlink every empty node on ``key``'s path above the bottom node
        ``node``, which the calling delete has just emptied.

        Climbs ``parent`` links: ``_clear_if_empty`` unlinks each child that
        is verifiably empty and clears its bit, and the climb stops at a
        parent that keeps another child, is retired, or is None (the root).
        It never clears a bit over a live entry: emptiness is re-checked
        while holding both mutexes.

        Each link is read only after its node was emptied under its mutex.
        A growth stacks levels on the old root under that same mutex, so
        either it stacked first and the link already leads to the new level,
        or it finds the root empty and drops it.  So the climb reaches every
        level a growth stacked, with no guard and no params read.
        """
        clear = self._clear_if_empty
        shift = self._shift
        s = shift
        parent = node.parent
        while parent is not None and clear(parent, key, s, node):
            node = parent
            parent = node.parent
            s += shift

    def _trim_top(self) -> None:
        """Pop root levels while the root's only occupant is child 0.

        One level per iteration; the publish is re-validated and performed
        under the root guard, which keeps every insert out, plus the old
        root's mutex, under which the popped root is retired and the new
        root's ``parent`` cleared.  A climb that read the link before stops
        at the retired root; one that reads it after stops at None, and no
        chain of popped roots stays reachable from the published root.
        """
        n = self._n
        only_zero = child_mask(0, n)
        ap_lock = self._ap_lock
        while True:
            params = self._ap
            if params.root.value != only_zero:
                return
            if params.height == 1:
                return
            root = params.root
            ap_lock.acquire_write()
            try:
                with root._mutex:
                    if self._ap is params and root.value == only_zero:
                        # fetch the lonely child under the mutex: its slot
                        # may have been emptied and refilled since the word
                        # was read
                        child = root.children[0]
                        child.parent = None
                        self._ap = TreeParams(
                            capacity(params.height - 1, n), params.height - 1,
                            child, params.top - self._shift,
                        )
                        root.retired = True
            finally:
                ap_lock.release_write()
