"""Concurrent ordered map over integer keys.

The structure is a fixed-fanout tree of nodes, each an atomic occupancy
summary word plus an array of child slots.  The slots of the bottom level
hold immutable ``Entry(key, value)`` objects instead of nodes.  A key's path
through the tree is its base-n digit expansion, so lookups touch one node per
digit.  The tree grows by stacking new root levels above the old root when a
key exceeds the current capacity, and trims root levels back off when only
the leftmost subtree remains.

Concurrency contract:

* ``get``/``successor``/``predecessor``/``minimum``/``maximum`` take no locks.
* ``insert`` briefly read-locks the published-root guard, then read-locks one
  node per level hand over hand; many inserts proceed in parallel.  It
  publishes its entry by one slot store under the parent's read lock.
* ``delete`` empties the entry's slot under the parent's write lock, then
  write-locks (parent, child) node pairs bottom-up, one pair at a time, and
  takes the root guard exclusively only while trimming.
* All locks are fair; no operation ever holds more than two node locks.

Nodes detached from the tree stay readable by threads that still hold
references (reclamation is deferred to the garbage collector), which is what
lets the query paths run unlocked.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from .bitops import (
    AtomicReference,
    AtomicWord,
    atomic_set_child,
    capacity,
    check_branching,
    child_mask,
    clear_child,
    max_child_below,
    min_child_above,
    required_height,
    has_child,
)
from .rwlock import FairRWLock


class Entry(NamedTuple):
    key: int
    value: Any


class Capacity(NamedTuple):
    size: int
    height: int


class Node:
    """One tree node: an occupancy ``summary`` word, ``n`` child slots and a
    fair readers-writer ``lock``.

    Above the bottom level a slot holds a child ``Node``; at the bottom level
    it holds an immutable :class:`Entry` whose key is the slot's path key.
    ``None`` marks an empty slot.  ``bits`` is the initial summary.  The
    summary word's mutex also serializes ``cas_child``, so a node owns two
    lock objects: that mutex and ``lock``.
    """

    __slots__ = ("summary", "children", "lock")

    def __init__(self, n: int, bits: int):
        self.summary = AtomicWord(bits)
        self.children = [None] * n
        self.lock = FairRWLock()

    def cas_child(self, pos: int, candidate: "Node") -> "Node":
        """Install ``candidate`` at ``pos`` if the slot is empty.

        Returns the slot's occupant, i.e. ``candidate`` on success or the
        node a racing inserter installed first.
        """
        with self.summary.mutex:
            current = self.children[pos]
            if current is None:
                self.children[pos] = candidate
                return candidate
            return current


class TreeParams:
    """Published tree shape: read-only after publication through the ap cell."""

    __slots__ = ("size", "height", "root")

    def __init__(self, size: int, height: int, root: Optional[Node]):
        self.size = size
        self.height = height
        self.root = root


class Trail:
    """Nodes and child positions visited on the way toward a key.

    ``nodes[k]``/``slots[k]`` describe level ``k``.  ``depth`` is the number
    of levels fully traversed: ``depth == height`` means the key's entry was
    reached and is stored in ``node``.  On an early stop, entry ``depth`` is
    still recorded (the node whose summary bit was clear, or whose child slot
    was empty; ``node`` is None in the latter case) so that resumable searches
    have a defined frame at the stop level.
    """

    __slots__ = ("nodes", "slots", "depth", "node")

    def __init__(self, nodes, slots, depth, node):
        self.nodes = nodes
        self.slots = slots
        self.depth = depth
        self.node = node


class DcvebArray:
    """Concurrent dynamic set of integer-keyed entries with order queries.

    ``branching`` is the tree fanout (power of two, at most 64).  Keys must
    lie in ``[0, 2**key_bits)``; bounding the key domain bounds how many
    root-growth races a single delete may need to clean up after: ``max_rep``
    is exactly that bound.
    """

    def __init__(self, branching: int = 64, key_bits: int = 63, hooks=None):
        check_branching(branching)
        if key_bits < 1:
            raise ValueError("key_bits must be >= 1")
        self._n = branching
        self._shift = branching.bit_length() - 1
        self._mask = branching - 1
        self._key_limit = 1 << key_bits
        self._max_rep = required_height(self._key_limit - 1, branching)
        self._hooks = hooks
        self._ap_lock = FairRWLock()
        self._ap = AtomicReference(TreeParams(branching, 1, Node(branching, 0)))

    # -- introspection ---------------------------------------------------

    @property
    def branching(self) -> int:
        return self._n

    @property
    def max_rep(self) -> int:
        return self._max_rep

    def capacity_snapshot(self) -> Capacity:
        params = self._ap.load()
        return Capacity(params.size, params.height)

    def _params(self) -> TreeParams:
        return self._ap.load()

    def _check_key(self, key) -> None:
        if (not isinstance(key, int) or isinstance(key, bool)
                or key < 0 or key >= self._key_limit):
            raise ValueError(
                "key must be an int in [0, %d), got %r" % (self._key_limit, key)
            )

    # -- queries (lock-free) ----------------------------------------------

    def get(self, key: int) -> Optional[Entry]:
        self._check_key(key)
        params = self._ap.load()
        if key >= params.size:
            return None
        n = self._n
        shift = self._shift
        mask = self._mask
        h = params.height
        node = params.root
        level = 0
        while level < h:
            digit = (key >> (shift * (h - 1 - level))) & mask
            if node.summary.load() & (1 << (n - 1 - digit)) == 0:
                return None
            node = node.children[digit]
            if node is None:
                return None
            level += 1
        return node  # the bottom-level slot's Entry

    def successor(self, key: int) -> Optional[Entry]:
        """Entry with the smallest key' >= key, or None.

        Takes no locks.  If a candidate vanishes mid-descent the search
        resumes from the stop point, sweeping rightward; it never restarts
        from the root, so an entry that stays present for the whole call
        cannot be missed.
        """
        self._check_key(key)
        params = self._ap.load()
        if key >= params.size:
            return None
        return self._scan(params, key, True)

    def predecessor(self, key: int) -> Optional[Entry]:
        """Entry with the largest key' <= key, or None.  Mirror of successor."""
        self._check_key(key)
        params = self._ap.load()
        if key >= params.size:
            key = params.size - 1
        return self._scan(params, key, False)

    def minimum(self) -> Optional[Entry]:
        return self.successor(0)

    def maximum(self) -> Optional[Entry]:
        params = self._ap.load()
        return self._scan(params, params.size - 1, False)

    def _scan(self, params: TreeParams, key: int, ascending: bool) -> Optional[Entry]:
        n = self._n
        root = params.root
        if root.summary.load() == 0:
            return None
        h = params.height
        trail = self._make_path(key, params)
        nodes = trail.nodes
        slots = trail.slots
        level = trail.depth
        if level == h:
            return trail.node
        sideways = min_child_above if ascending else max_child_below
        while True:
            # climb until some sibling subtree remains on the search side
            q = None
            while level >= 0:
                node = nodes[level]
                q = sideways(node.summary.load(), slots[level], n)
                if q is not None:
                    break
                level -= 1
            if level < 0:
                return None
            # dive to the extreme entry of the chosen subtree
            while True:
                slots[level] = q
                nodes[level] = node
                child = node.children[q]
                if child is None:
                    # candidate vanished before we reached it: retry this
                    # level strictly past q
                    break
                level += 1
                if level == h:
                    return child
                q = sideways(child.summary.load(), None, n)
                if q is None:
                    # subtree emptied under us: resume at its parent level
                    level -= 1
                    break
                node = child

    # -- insert -----------------------------------------------------------

    def insert(self, key: int, value: Any) -> None:
        self._check_key(key)
        if value is None:
            raise ValueError("value must not be None (None marks vacant slots)")
        hooks = self._hooks
        params = self._pin_root()
        held = params.root  # the one node whose read lock this call holds
        try:
            grew = False
            while key >= params.size:
                new_params = self._grow(key, params)
                # the new top is private until published: locking it cannot
                # block, and an exception before the publish leaves it locked
                # but unreachable
                new_params.root.lock.acquire_read()
                if hooks is not None:
                    hooks("grow-pre-publish")
                published = self._ap.compare_and_set(params, new_params)
                held.lock.release_read()
                held = new_params.root
                if published:
                    params = new_params
                    grew = True
                    break
                # lost the publish race: drop the unpublished top and retry
                held.lock.release_read()
                held = None
                params = self._pin_root()
                held = params.root
            n = self._n
            shift = self._shift
            mask = self._mask
            last = params.height - 1
            node = held
            level = 0
            while True:
                digit = (key >> (shift * (last - level))) & mask
                summary = node.summary
                if summary.load() & (1 << (n - 1 - digit)) == 0:
                    atomic_set_child(summary, digit, n)
                if level == last:
                    # one reference store publishes the entry, so a reader
                    # sees either the old occupant or the whole new entry
                    node.children[digit] = Entry(key, value)
                    break
                child = node.children[digit]
                if child is None:
                    child = node.cas_child(digit, Node(n, 0))
                child.lock.acquire_read()
                node.lock.release_read()
                held = node = child
                level += 1
        finally:
            if held is not None:
                held.lock.release_read()
        if grew:
            # the new top claims child 0 unconditionally (concurrent inserts
            # may still be landing in the adopted old tree), so when the old
            # tree was actually empty the all-zeros spine is stale; verify
            # and strip it now that the top is published
            self._clean_residue(0)

    def _pin_root(self) -> TreeParams:
        """Snapshot the published parameters and read-lock their root.

        The root guard's read lock spans both steps, so no trim can pop the
        root in between.
        """
        ap_lock = self._ap_lock
        ap_lock.acquire_read()
        try:
            params = self._ap.load()
            if self._hooks is not None:
                self._hooks("insert-snapshot")
            params.root.lock.acquire_read()
        finally:
            ap_lock.release_read()
        return params

    def _grow(self, key: int, params: TreeParams) -> TreeParams:
        """Build (privately) a taller top whose deepest new level adopts the
        current root as child 0.  The old tree is not reorganized."""
        n = self._n
        new_height = required_height(key, n)
        new_params = TreeParams(capacity(new_height, n), new_height, None)
        top_size = new_height - params.height
        prev = None
        for i in range(top_size):
            node = Node(n, child_mask(0, n))
            if i == 0:
                new_params.root = node
            else:
                prev.children[0] = node
            if i == top_size - 1:
                node.children[0] = params.root
            prev = node
        return new_params

    # -- delete -----------------------------------------------------------

    def delete(self, key: int) -> None:
        self._check_key(key)
        hooks = self._hooks
        params = self._ap.load()
        if hooks is not None:
            hooks("delete-snapshot")
        if key >= params.size:
            return
        trail = self._make_path(key, params)
        if trail.depth != params.height:
            # incomplete path: nothing to delete
            return
        if not self._delete_internal(params, trail):
            return
        if hooks is not None:
            hooks("delete-cleared")
        rep = 0
        max_rep = self._max_rep
        while self._ap.load() is not params and rep < max_rep:
            self._clean_residue(key)
            rep += 1
        self._trim_top()

    def _make_path(self, key: int, params: TreeParams) -> Trail:
        n = self._n
        shift = self._shift
        mask = self._mask
        h = params.height
        nodes = [None] * h
        slots = [0] * h
        node = params.root
        level = 0
        while level < h:
            digit = (key >> (shift * (h - 1 - level))) & mask
            nodes[level] = node
            slots[level] = digit
            if node.summary.load() & (1 << (n - 1 - digit)) == 0:
                return Trail(nodes, slots, level, node)
            child = node.children[digit]
            if child is None:
                return Trail(nodes, slots, level, None)
            node = child
            level += 1
        return Trail(nodes, slots, h, node)

    def _delete_internal(self, params: TreeParams, trail: Trail) -> bool:
        """Empty the entry's slot, then walk up clearing occupancy bits.

        The slot is re-read under the parent's write lock.  An empty slot
        means the key was absent at that moment (another delete got there
        first, or the branch was emptied since the path snapshot), so this
        call linearizes there, touches nothing and returns False.  Any
        entry found is removed, whether or not it is the one the trail saw:
        ``insert`` overwrites in place, so the key stayed present throughout.
        Above the bottom level each step locks a (parent, child) pair
        top-down, so lock order follows tree levels and never deadlocks
        against descending inserts.
        """
        n = self._n
        nodes = trail.nodes
        slots = trail.slots
        level = params.height - 1
        parent = nodes[level]
        digit = slots[level]
        parent.lock.acquire_write()
        try:
            if parent.children[digit] is None:
                return False
            parent.children[digit] = None
            summary = clear_child(parent.summary.load(), digit, n)
            parent.summary.store(summary)
        finally:
            parent.lock.release_write()
        if summary == 0:
            for level in range(level - 1, -1, -1):
                if not self._clear_if_empty(nodes[level], slots[level], nodes[level + 1]):
                    break
        return True

    def _clear_if_empty(self, node: Node, digit: int, child: Node) -> bool:
        """Clear ``node``'s bit for ``digit`` if ``child`` still fills that
        slot and is empty, both re-checked under the pair's write locks.

        A node whose summary reaches zero drops its whole child array; nodes
        kept alive by siblings stay referenced with their bit cleared.
        Returns True when ``node`` itself became empty: only then may the
        level above need clearing too.
        """
        n = self._n
        node.lock.acquire_write()
        try:
            child.lock.acquire_write()
            try:
                summary = node.summary.load()
                if (node.children[digit] is not child or child.summary.load() != 0
                        or not has_child(summary, digit, n)):
                    return False
                summary = clear_child(summary, digit, n)
                node.summary.store(summary)
                if summary == 0:
                    node.children = [None] * n
                return summary == 0
            finally:
                child.lock.release_write()
        finally:
            node.lock.release_write()

    def _clean_residue(self, key: int) -> None:
        """Re-verify the current path toward ``key`` and strip stale bits.

        A delete that raced a root growth can only propagate up to the root
        it snapshotted, leaving levels above it claiming a subtree that is
        now empty.  This pass starts from the currently published root and,
        bottom-up under the same pair-lock discipline as deletion, clears
        any bit whose child is verifiably empty.  It never clears a bit over
        a live entry: emptiness is re-checked while holding both locks.
        """
        params = self._ap.load()
        if key >= params.size:
            return
        trail = self._make_path(key, params)
        if trail.node is None or trail.depth == params.height:
            # stopped on an empty slot under a set bit, or reached an entry:
            # either anchors every level above
            return
        # stopped on a clear bit: that node may itself be an empty residue,
        # so begin at the edge above it
        nodes = trail.nodes
        for level in range(trail.depth - 1, -1, -1):
            if not self._clear_if_empty(nodes[level], trail.slots[level], nodes[level + 1]):
                return

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
            params = self._ap.load()
            if params.root.summary.load() != only_zero:
                return
            if params.height == 1:
                return
            if hooks is not None:
                hooks("trim-pre-publish")
            root = params.root
            ap_lock.acquire_write()
            root.lock.acquire_write()
            try:
                if root.summary.load() == only_zero:
                    # fetch the lonely child under the locks: its slot may
                    # have been wiped and rebuilt since the summary was read
                    lonely = root.children[0]
                    if lonely is None:
                        return
                    new_params = TreeParams(
                        capacity(params.height - 1, n), params.height - 1, lonely
                    )
                    self._ap.compare_and_set(params, new_params)
            finally:
                root.lock.release_write()
                ap_lock.release_write()
