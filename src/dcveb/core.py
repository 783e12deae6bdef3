"""Concurrent ordered map over integer keys.

The structure is a fixed-fanout tree of nodes; each node is itself a fair
readers-writer lock, holds an occupancy summary word and carries an array of
child slots.  The slots of the bottom level hold immutable
``Entry(key, value)`` objects instead of nodes.  A key's path through the
tree is its base-n digit expansion, so lookups touch one node per digit.
The tree grows at the top by stacking new root levels above the old root
when a key exceeds the current capacity, and trims root levels back off when
only the leftmost subtree remains.  At the bottom it grows by installing
nodes along an inserted key's path and shrinks by unlinking every node a
delete empties.

Concurrency contract:

* ``get``/``successor``/``predecessor``/``minimum``/``maximum`` take no locks.
* The published parameters (size, height, root) change only under the
  root guard's write lock plus the old root's write lock: a growth and a
  trim are the only publishers, and each stores the new parameters plainly.
* ``insert`` briefly read-locks the published-root guard, then read-locks one
  node per level hand over hand; many inserts proceed in parallel.  Under a
  node's read lock it sets a clear bit with one OR under the node's mutex,
  and it publishes its entry by one slot store under the parent's read lock.
  A key beyond the current capacity makes it take the guard exclusively to
  grow the tree first, while it holds no other lock.
* ``delete`` descends once without locks, empties the entry's slot under the
  parent's write lock, then write-locks (parent, child) node pairs
  bottom-up, one pair at a time, unlinking each child it finds empty.  It
  takes the root guard shared only for one residue pass when the
  parameters moved under it, and exclusively only while trimming.  Under a
  node's write lock it stores the word plainly: every other writer of that
  word holds the node's read lock (an insert's OR) or its write lock.
* All locks are fair; the guard is always taken before any node lock, and
  no operation ever holds more than two node locks.

Nodes detached from the tree stay readable by threads that still hold
references (reclamation is deferred to the garbage collector), which is what
lets the query paths run unlocked.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .bitops import (
    # unused here: an insert ORs its bit in under the node's mutex, and the
    # order queries find the nearest occupied child with inline masks.  The
    # per-layer tracer patches these three names in this module, so they
    # stay until the tracer learns the new shape (ROADMAP item 2).
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


class Node(FairRWLock):
    """One tree node: a fair readers-writer lock (the inherited
    ``acquire_read``/``release_read``/``acquire_write``/``release_write``)
    with an occupancy summary word ``value`` and ``n`` child slots.

    Above the bottom level a slot holds a child ``Node``; at the bottom level
    it holds an immutable :class:`Entry` whose key is the slot's path key.
    ``None`` marks an empty slot, and at quiescence a slot is occupied
    exactly when its summary bit is set.  ``bits`` is the initial summary.

    The lock's ``_mutex`` is the node's only lock object.  Besides the
    rwlock bookkeeping it serializes an insert's bit OR and ``cas_child``;
    each holder takes it briefly and never nests it.  Readers load ``value``
    plainly.  It is written by an OR under ``_mutex`` while holding the
    node's read lock, or by a plain store while holding its write lock.
    """

    __slots__ = ("value", "children")

    def __init__(self, n: int, bits: int):
        FairRWLock.__init__(self)
        self.value = bits
        self.children = [None] * n

    def cas_child(self, pos: int, candidate: "Node") -> "Node":
        """Install ``candidate`` at ``pos`` if the slot is empty.

        Returns the slot's occupant, i.e. ``candidate`` on success or the
        node a racing inserter installed first.
        """
        with self._mutex:
            current = self.children[pos]
            if current is None:
                self.children[pos] = candidate
                return candidate
            return current


class TreeParams:
    """Published tree shape: read-only once stored in ``DcvebArray._ap``."""

    __slots__ = ("size", "height", "root")

    def __init__(self, size: int, height: int, root: Optional[Node]):
        self.size = size
        self.height = height
        self.root = root


class DcvebArray:
    """Concurrent dynamic set of integer-keyed entries with order queries.

    ``branching`` is the tree fanout (power of two, at most 64).  Keys must
    lie in ``[0, 2**key_bits)``.
    """

    def __init__(self, branching: int = 64, key_bits: int = 63, hooks=None):
        check_branching(branching)
        if key_bits < 1:
            raise ValueError("key_bits must be >= 1")
        self._n = branching
        self._shift = branching.bit_length() - 1
        self._mask = branching - 1
        self._key_limit = 1 << key_bits
        self._hooks = hooks
        self._ap_lock = FairRWLock()
        # stored only under the guard's write lock; read plainly
        self._ap = TreeParams(branching, 1, Node(branching, 0))

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
    # Each query is one loop that reads the published params and every
    # node's word through the plain ``value`` attribute, counting the digit
    # shift down to 0 at the bottom level; ``successor`` and ``predecessor``
    # re-read the params whenever they restart from the root.  The key check
    # is inlined; only a bad key or an int subclass reaches ``_check_key``.

    def get(self, key: int) -> Optional[Entry]:
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        params = self._ap
        if key >= params.size:
            return None
        n = self._n
        shift = self._shift
        mask = self._mask
        s = shift * (params.height - 1)
        node = params.root
        while True:
            digit = (key >> s) & mask
            if node.value & (1 << (n - 1 - digit)) == 0:
                return None
            node = node.children[digit]
            if s == 0 or node is None:
                return node  # at s == 0, the bottom-level slot's Entry
            s -= shift

    def successor(self, key: int) -> Optional[Entry]:
        """Entry with the smallest key' >= key, or None.

        Takes no locks.  One loop descends along ``key``'s digits: an exact
        hit returns the entry.  A node whose word shows an occupied child
        past ``key``'s digit moves ``key`` sideways to that child's first key
        and the descent goes on from the same node.  A node with nothing past
        the digit moves ``key`` past its whole range, and the descent
        restarts from the root under freshly read params.  ``key`` only moves
        forward, and a range is skipped only when a word read during the
        call showed it empty, so an entry that stays present for the whole
        call cannot be missed.  Without concurrent writers each restart
        stops at a strictly higher level: at most ``height`` restarts.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        n = self._n
        shift = self._shift
        mask = self._mask
        params = self._ap
        if key >= params.size:
            return None
        s = shift * (params.height - 1)
        node = params.root
        while True:
            digit = (key >> s) & mask
            word = node.value
            bit = 1 << (n - 1 - digit)
            if word & bit:
                child = node.children[digit]
                if child is not None:
                    if s == 0:
                        return child
                    node = child
                    s -= shift
                    continue
            # children past ``digit`` own the bits below ``bit``
            above = word & (bit - 1)
            if above:
                key = ((key >> s) - digit + n - above.bit_length()) << s
                continue
            if self._hooks is not None:
                self._hooks("query-restart")
            s += shift
            key = ((key >> s) + 1) << s
            params = self._ap
            if key >= params.size:
                return None
            s = shift * (params.height - 1)
            node = params.root

    def predecessor(self, key: int) -> Optional[Entry]:
        """Entry with the largest key' <= key, or None.

        Mirror of successor: a sideways move takes ``key`` to the last key
        of the nearest occupied child before its digit, and a restart takes
        it to one below the empty node's first key.  Each restart re-clamps
        ``key`` to the freshly read size.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        n = self._n
        shift = self._shift
        mask = self._mask
        params = self._ap
        if key >= params.size:
            key = params.size - 1
        s = shift * (params.height - 1)
        node = params.root
        while True:
            digit = (key >> s) & mask
            word = node.value
            if word & (1 << (n - 1 - digit)):
                child = node.children[digit]
                if child is not None:
                    if s == 0:
                        return child
                    node = child
                    s -= shift
                    continue
            # children before ``digit``, nearest first from bit 0 up
            below = (word >> (n - digit)) & ((1 << digit) - 1)
            if below:
                key = (((key >> s) - (below & -below).bit_length() + 1) << s) - 1
                continue
            if self._hooks is not None:
                self._hooks("query-restart")
            s += shift
            key = ((key >> s) << s) - 1
            if key < 0:
                return None
            params = self._ap
            if key >= params.size:
                key = params.size - 1
            s = shift * (params.height - 1)
            node = params.root

    def minimum(self) -> Optional[Entry]:
        return self.successor(0)

    def maximum(self) -> Optional[Entry]:
        return self.predecessor(self._key_limit - 1)

    # -- insert -----------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        if value is None:
            raise ValueError("value must not be None (None marks vacant slots)")
        params = self._pin_root(key)
        node = params.root  # the one node whose read lock this call holds
        try:
            n = self._n
            shift = self._shift
            mask = self._mask
            s = shift * (params.height - 1)
            while True:
                digit = (key >> s) & mask
                bit = 1 << (n - 1 - digit)
                if node.value & bit == 0:
                    # concurrent inserts into this node hold its read lock
                    # too, so the read-modify-write needs the mutex
                    with node._mutex:
                        node.value |= bit
                if s == 0:
                    # one reference store publishes the entry, so a reader
                    # sees either the old occupant or the whole new entry
                    node.children[digit] = Entry(key, value)
                    break
                child = node.children[digit]
                if child is None:
                    child = node.cas_child(digit, Node(n, 0))
                child.acquire_read()
                node.release_read()
                node = child
                s -= shift
        finally:
            node.release_read()

    def _pin_root(self, key: int) -> TreeParams:
        """Snapshot the published parameters and read-lock their root,
        growing the tree first while ``key`` does not fit.

        The root guard's read lock spans both steps, and every publish takes
        the guard's write lock, so the root is still published once it is
        locked.  From then on, unlinking or detaching the root needs its
        write lock, which waits for this insert's bit.  A growth takes the
        guard exclusively, so it runs after the read lock is released, while
        this thread holds no lock at all.
        """
        ap_lock = self._ap_lock
        while True:
            ap_lock.acquire_read()
            try:
                params = self._ap
                if self._hooks is not None:
                    self._hooks("insert-snapshot")
                if key < params.size:
                    params.root.acquire_read()
                    return params
            finally:
                ap_lock.release_read()
            self._grow(key)

    def _grow(self, key: int) -> None:
        """Publish a tree tall enough for ``key``, unless one already is.

        Runs under the root guard's write lock plus the old root's write
        lock, so no insert is inside the old root and no delete can clear
        its word.  A non-empty old root becomes child 0 of a chain of new
        levels; the old tree is not reorganized.  An empty old root is
        dropped for one fresh empty root instead, so growth never leaves an
        all-zeros spine behind.
        """
        ap_lock = self._ap_lock
        ap_lock.acquire_write()
        try:
            params = self._ap
            if key < params.size:
                return  # another insert grew the tree first
            old = params.root
            old.acquire_write()
            try:
                n = self._n
                height = required_height(key, n)
                if old.value == 0:
                    root = Node(n, 0)
                else:
                    root = old
                    for _ in range(height - params.height):
                        top = Node(n, child_mask(0, n))
                        top.children[0] = root
                        root = top
                if self._hooks is not None:
                    self._hooks("grow-pre-publish")
                self._ap = TreeParams(capacity(height, n), height, root)
            finally:
                old.release_write()
        finally:
            ap_lock.release_write()

    # -- delete -----------------------------------------------------------

    def delete(self, key: int) -> None:
        """Remove ``key``'s entry, if present.

        One lock-free descent finds the bottom-level node.  Its slot is then
        re-read under that node's write lock: an empty slot means the key
        was absent at that moment (another delete got there first, or the
        branch was emptied since the descent), so the call linearizes there
        and touches nothing more.  Any entry found is removed, whether or
        not it is the one the descent saw: ``insert`` overwrites in place,
        so the key stayed present throughout.  The walk up then unlinks
        every node the delete emptied, one (parent, child) pair at a time.
        """
        if type(key) is not int or key < 0 or key >= self._key_limit:
            self._check_key(key)
        hooks = self._hooks
        params = self._ap
        if hooks is not None:
            hooks("delete-snapshot")
        if key >= params.size:
            return
        n = self._n
        shift = self._shift
        mask = self._mask
        s = shift * (params.height - 1)
        node = params.root
        path = []  # the nodes above the bottom level, root first
        while True:
            digit = (key >> s) & mask
            bit = 1 << (n - 1 - digit)
            if node.value & bit == 0:
                return
            child = node.children[digit]
            if child is None:
                return
            if s == 0:
                break
            path.append(node)
            node = child
            s -= shift
        if hooks is not None:
            hooks("delete-path")
        node.acquire_write()
        try:
            if node.children[digit] is None:
                return
            node.children[digit] = None
            word = node.value & ~bit
            node.value = word
        finally:
            node.release_write()
        if word == 0:
            clear = self._clear_if_empty
            for parent in reversed(path):
                s += shift
                if not clear(parent, (key >> s) & mask, node):
                    break
                node = parent
        if hooks is not None:
            hooks("delete-cleared")
        if self._ap is not params:
            # the walk stopped at the root it snapshotted, below any levels
            # a growth stacked on top since; one guarded pass strips them
            ap_lock = self._ap_lock
            ap_lock.acquire_read()
            try:
                self._clean_residue(key)
            finally:
                ap_lock.release_read()
        self._trim_top()

    def _clear_if_empty(self, node: Node, digit: int, child: Node) -> bool:
        """Unlink ``child`` from ``node``'s slot ``digit`` and clear the slot's
        bit if ``child`` still fills that slot and is empty, both re-checked
        under the pair's write locks.

        The pair is locked top-down, so lock order follows tree levels and
        never deadlocks against descending inserts.  No inserter can be
        between ``node`` and ``child`` while both write locks are held, so an
        emptied child leaves the tree for good; a later insert under the same
        digit installs a fresh node.  Returns True when ``node`` itself
        became empty: only then may the level above need clearing too.
        """
        bit = 1 << (self._n - 1 - digit)
        node.acquire_write()
        try:
            child.acquire_write()
            try:
                word = node.value
                if (node.children[digit] is not child or child.value != 0
                        or word & bit == 0):
                    return False
                node.children[digit] = None
                word &= ~bit
                node.value = word
                return word == 0
            finally:
                child.release_write()
        finally:
            node.release_write()

    def _clean_residue(self, key: int) -> None:
        """Re-verify the current path toward ``key`` and strip stale bits.

        A delete that raced a root growth can only propagate up to the root
        it snapshotted, leaving levels above it claiming a subtree that is
        now empty.  This pass descends without locks from the currently
        published root, keeping the nodes above the stop point as ``delete``
        does, and stops at the first clear bit.  Then, bottom-up under the
        same pair-lock discipline as deletion, it unlinks any child that is
        verifiably empty and clears its bit.  It never clears a bit over a
        live entry: emptiness is re-checked while holding both locks.

        ``delete`` runs it under the root guard's read lock, so no growth or
        trim publishes during the pass and one pass reaches every stacked
        level.  A growth after the delete's walk finds the emptied old root
        under its write lock and does not adopt it, so no residue can
        appear behind the pass.
        """
        params = self._ap
        if key >= params.size:
            return
        n = self._n
        shift = self._shift
        mask = self._mask
        s = shift * (params.height - 1)
        node = params.root
        path = []  # the nodes above ``node``, root first
        while True:
            digit = (key >> s) & mask
            if node.value & (1 << (n - 1 - digit)) == 0:
                break
            child = node.children[digit]
            if child is None or s == 0:
                # an empty slot under a set bit, or an entry: either
                # anchors every level above
                return
            path.append(node)
            node = child
            s -= shift
        # stopped on a clear bit: that node may itself be an empty residue,
        # so begin at the edge above it
        clear = self._clear_if_empty
        for parent in reversed(path):
            s += shift
            if not clear(parent, (key >> s) & mask, node):
                return
            node = parent

    def _trim_top(self) -> None:
        """Pop root levels while the root's only occupant is child 0.

        One level per iteration; the publish is re-validated and performed
        under the root guard plus the old root's write lock, which is what
        keeps a concurrent insert from landing in a detached top.
        """
        n = self._n
        only_zero = child_mask(0, n)
        hooks = self._hooks
        ap_lock = self._ap_lock
        while True:
            params = self._ap
            if params.root.value != only_zero:
                return
            if params.height == 1:
                return
            if hooks is not None:
                hooks("trim-pre-publish")
            root = params.root
            ap_lock.acquire_write()
            root.acquire_write()
            try:
                if self._ap is params and root.value == only_zero:
                    # fetch the lonely child under the locks: its slot may
                    # have been emptied and refilled since the summary was read
                    lonely = root.children[0]
                    if lonely is None:
                        return
                    self._ap = TreeParams(
                        capacity(params.height - 1, n), params.height - 1, lonely
                    )
            finally:
                root.release_write()
                ap_lock.release_write()
