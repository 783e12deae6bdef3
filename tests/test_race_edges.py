"""Targeted interleavings for the delete/rebuild edge cases, driven through
the test hooks, plus the hook surface itself."""

import random
import sys
import threading

import pytest

from dcveb.core import DcvebArray, Entry, Node
from dcveb.rwlock import FairRWLock
from dcveb.scenarios import RunOnEnter
from dcveb.walker import quiescent_walk, structure_fingerprint


def test_hook_points_fire_in_order():
    points = []
    array = DcvebArray(branching=64, hooks=points.append)
    array.insert(70, "x")  # snapshot, grow publish, snapshot of the new root
    assert points == ["insert-snapshot", "grow-pre-publish", "insert-snapshot"]
    points.clear()
    array.insert(3, "keep")
    assert points == ["insert-snapshot"]
    points.clear()
    array.delete(70)  # node indexed, emptied: unlink pass, then a trim
    assert points == ["delete-snapshot", "delete-path", "delete-cleared",
                      "trim-pre-publish"]
    points.clear()
    array.delete(71)  # absent: no node is indexed under its prefix
    assert points == ["delete-snapshot"]
    points.clear()
    assert array.successor(3) == Entry(3, "keep")  # exact hit: no restart
    assert array.successor(4) is None  # nothing past 3: one restart
    assert points == ["query-restart"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a restart skips a slot "
                   "that an insert fills behind it")
def test_scan_skip_returns_key_never_least():
    # successor(1) finds nothing past slot 1 in the bottom node holding 0
    # and pauses at its restart.  Inside the pause insert(2) and then
    # insert(6) complete.  The restart resumes past the node's range, at 4,
    # and returns 6, but no state that held 6 lacked 2: a linearizable
    # answer is 15 (before insert(2)) or 2 (after it).
    armed = [False]

    def hooks(point):
        if point == "query-restart" and armed[0]:
            armed[0] = False
            array.insert(2, 2)
            array.insert(6, 6)

    array = DcvebArray(branching=4, key_bits=4, hooks=hooks)
    array.insert(0, 0)
    array.insert(15, 15)
    armed[0] = True
    result = array.successor(1)
    assert result in (Entry(15, 15), Entry(2, 2))


def test_restart_sees_growth_made_inside_it():
    # successor(1) finds nothing past slot 1 of the lone height-1 root and
    # restarts.  Inside the restart insert(20) grows the tree to height 3.
    # The restart reads the fresh params, so it finds 20 instead of stopping
    # at the old capacity.
    armed = [False]

    def hooks(point):
        if point == "query-restart" and armed[0]:
            armed[0] = False
            array.insert(20, 20)

    array = DcvebArray(branching=4, key_bits=8, hooks=hooks)
    array.insert(0, 0)
    assert array.capacity_snapshot().height == 1
    armed[0] = True
    assert array.successor(1) == Entry(20, 20)
    assert not armed[0]
    assert array.capacity_snapshot().height == 3


def _pause_once_at(point_name, in_window, resume):
    armed = [True]

    def hooks(point):
        if point == point_name and armed[0]:
            armed[0] = False
            in_window.set()
            resume.wait(5)

    return hooks


def test_paused_delete_removes_rebuilt_entry():
    # A's delete pauses before it probes the index; B deletes the same key
    # and re-inserts it.  A then finds the fresh node and its delete takes
    # effect last: the rebuilt entry is (legitimately) removed.
    in_window = threading.Event()
    resume = threading.Event()
    array = DcvebArray(branching=64,
                       hooks=_pause_once_at("delete-snapshot", in_window, resume))
    array.insert(130, "old")

    def paused_deleter():
        array.delete(130)

    def rebuilder():
        in_window.wait(5)
        array.delete(130)
        array.insert(130, "new")
        resume.set()

    threads = [threading.Thread(target=paused_deleter),
               threading.Thread(target=rebuilder)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def _run_once_at(point_name, action):
    """Hooks that record every point and run ``action`` at the first
    ``point_name`` after ``armed[0]`` is set."""
    armed = [False]
    points = []

    def hooks(point):
        points.append(point)
        if point == point_name and armed[0]:
            armed[0] = False
            action()

    return hooks, armed, points


class _SpyGuard(FairRWLock):
    """Root guard that logs every acquire and knows whether the calling
    thread holds it for reading."""

    def __init__(self):
        super().__init__()
        self.acquires = []
        self._reading = threading.local()

    def held_for_reading(self):
        return getattr(self._reading, "held", False)

    def acquire_read(self):
        self.acquires.append("read")
        super().acquire_read()
        self._reading.held = True

    def release_read(self):
        self._reading.held = False
        super().release_read()

    def acquire_write(self):
        self.acquires.append("write")
        super().acquire_write()


def test_stale_trail_delete_aborts_without_touching_rebuild():
    # delete(130) pauses after the index handed it the bottom-level node.
    # In the pause the branch is emptied (its nodes unlinked) and rebuilt.  The
    # stale node is retired under its mutex, so the delete aborts and leaves
    # the rebuilt entry alone; it linearizes between the other delete and
    # the re-insert.
    def rebuild():
        array.delete(130)   # empties the branch: the parent is unlinked
        array.insert(130, "new")

    hooks, armed, points = _run_once_at("delete-path", rebuild)
    array = DcvebArray(branching=64, hooks=hooks)
    array.insert(130, "old")
    stale = array._params().root.children[2]
    armed[0] = True
    points.clear()
    array.delete(130)
    assert array._params().root.children[2] is not stale
    # the inner delete cleared; the outer one stopped at the node's mutex
    assert points.count("delete-cleared") == 1
    assert array.get(130) == Entry(130, "new")
    assert quiescent_walk(array).ok()


def test_stale_trail_delete_after_overwrite_removes_key():
    # delete(130) pauses after its index probe, and the key is overwritten in
    # the pause (a new Entry lands in the same slot).  The key was present
    # throughout, so the delete must take effect and leave it absent;
    # aborting because the slot no longer holds the Entry it held at the
    # probe would not be linearizable.
    seen = []

    def overwrite():
        parent = array._params().root.children[2]
        seen.append(parent.children[2])
        array.insert(130, "new")
        assert parent.children[2] != seen[0]

    hooks, armed, _ = _run_once_at("delete-path", overwrite)
    array = DcvebArray(branching=64, hooks=hooks)
    array.insert(130, "old")
    armed[0] = True
    array.delete(130)
    assert seen == [Entry(130, "old")]
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def _start_grower(array, growers, key=5):
    """Start insert(key), which must grow the fanout-4 tree, in a daemon
    thread and give it 0.2 s to finish."""
    grower = threading.Thread(target=array.insert, args=(key, key), daemon=True)
    grower.start()
    grower.join(0.2)
    growers.append(grower)


def test_insert_survives_growth_cleanup_of_its_root():
    # insert(1) finds the empty root of a fresh fanout-4 tree through the
    # index and parks on entering its mutex, holding no guard.  The growth
    # started in the pause is not held off: it finds the root empty, drops
    # it and retires it.  The parked insert's re-check finds the root
    # retired, so it descends into the new tree: no insert is lost.
    array = DcvebArray(branching=4, key_bits=4)
    original_root = array._params().root
    growers = []
    parked = []

    def grow():
        _start_grower(array, growers)
        parked.append(growers[0].is_alive())

    original_root._mutex = RunOnEnter(original_root._mutex, grow)
    array.insert(1, 1)
    assert parked == [False], "growth waited for the parked insert"
    assert original_root.retired and original_root.children[1] is None
    params = array._params()
    assert params.height == 2 and params.root is not original_root
    assert array._bottoms[0] is params.root.children[0]
    for key in (1, 5):
        assert array.get(key) == Entry(key, key)
    assert quiescent_walk(array).ok()


def test_growth_waits_for_a_descending_insert_and_adopts_its_root():
    # The height-2 root of a fanout-4 tree is empty and nothing is indexed,
    # so insert(1) descends.  A growth started at its snapshot, while it
    # holds the root guard's read lock, waits for the guard.  The descent
    # installs root child 0 before it releases the guard, so the growth
    # then finds the root non-empty and adopts it as child 0 instead of
    # dropping it with the insert's node inside.
    growers = []
    waited = []

    def grow():
        _start_grower(array, growers, 20)
        waited.append(growers[0].is_alive())

    hooks, armed, _ = _run_once_at("insert-snapshot", grow)
    array = DcvebArray(branching=4, key_bits=6, hooks=hooks)
    array.insert(5, 5)
    array.delete(5)
    original_root = array._params().root
    assert original_root.value == 0 and array._bottoms == {}
    armed[0] = True
    array.insert(1, 1)
    assert waited == [True], "growth published inside the descent"
    growers[0].join(10)
    assert not growers[0].is_alive()
    params = array._params()
    assert params.height == 3 and params.root.children[0] is original_root
    assert not original_root.retired
    assert array.get(1) == Entry(1, 1)
    assert array.get(20) == Entry(20, 20)
    assert quiescent_walk(array).ok()


def test_delete_lands_on_reused_parent_node():
    # Same shape, but a sibling keeps the parent node alive across B's
    # delete+reinsert, so the new entry lands in the same node.  A probes
    # the index after B and its delete takes effect last: the key ends up
    # absent.
    in_window = threading.Event()
    resume = threading.Event()
    array = DcvebArray(branching=64,
                       hooks=_pause_once_at("delete-snapshot", in_window, resume))
    array.insert(130, "old")
    array.insert(131, "sibling")
    parent_before = array._params().root.children[2]

    def stale_deleter():
        array.delete(130)

    def resurrecter():
        in_window.wait(5)
        array.delete(130)
        array.insert(130, "new")
        resume.set()

    threads = [threading.Thread(target=stale_deleter),
               threading.Thread(target=resurrecter)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert array._params().root.children[2] is parent_before
    assert array.get(130) is None
    assert array.get(131) == Entry(131, "sibling")
    assert quiescent_walk(array).ok()


def test_walker_flags_summary_high_bits():
    array = DcvebArray(branching=8, key_bits=16)
    array.insert(3, "x")
    root = array._params().root
    root.value |= 1 << 60
    report = quiescent_walk(array)
    assert any(v[1] == "summary-high-bits" for v in report.violations)


@pytest.mark.parametrize("point", ["insert-snapshot", "grow-pre-publish",
                                   "delete-path", "delete-cleared",
                                   "trim-pre-publish"])
def test_raising_hook_leaks_no_lock(point, assert_no_lock_held):
    # A hook that raises inside a write path must not leave the root guard
    # or a node mutex held: the writes below need the node mutexes on 70's
    # path, the guard's write lock to trim and then to grow.
    armed = [False]

    def hooks(name):
        if name == point and armed[0]:
            armed[0] = False
            raise RuntimeError("injected at " + name)

    array = DcvebArray(branching=64, hooks=hooks)
    array.insert(3, "keep")
    array.insert(70, "drop")  # height 2; root children {0, 1}
    armed[0] = True
    with pytest.raises(RuntimeError):
        if point.startswith(("insert", "grow")):
            array.insert(5000, "grow")  # needs height 3
        else:
            array.delete(70)
    assert not armed[0]
    assert_no_lock_held(array)

    def churn():
        array.insert(70, "drop")  # back, if the raising delete removed it
        array.delete(70)  # leaves only child 0: trims to height 1

    writer = threading.Thread(target=churn, daemon=True)
    writer.start()
    writer.join(10)
    assert not writer.is_alive(), "writer blocked on a leaked lock"
    assert array.capacity_snapshot().height == 1
    array.insert(5000, "grow")
    assert array.get(5000) == Entry(5000, "grow")
    assert array.get(3) == Entry(3, "keep")
    assert array.get(70) is None
    assert quiescent_walk(array).ok()
    assert_no_lock_held(array)


class _FailingSlots(list):
    """A node's slot list whose stores raise."""

    def __setitem__(self, index, value):
        raise RuntimeError("injected slot store failure")


def test_index_hit_store_leaks_no_mutex(assert_no_lock_held):
    # insert(131) stores through the index into the node holding 130, and
    # its slot store raises inside the critical section.  The node's mutex
    # must be released on the way out, so the next insert into that node
    # goes through.
    points = []
    array = DcvebArray(branching=64, hooks=points.append)
    array.insert(130, "keep")
    node = array._bottoms[2]
    node.children = _FailingSlots(node.children)
    points.clear()
    with pytest.raises(RuntimeError):
        array.insert(131, "lost")
    assert points == []  # the index path: no guard, no descent, no hook
    assert not node._mutex.locked()
    assert_no_lock_held(array)
    node.children = list(node.children)
    points.clear()  # the walk's own queries fire ``query-restart``
    array.insert(131, "landed")
    assert points == []
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) == Entry(130, "keep")
    assert quiescent_walk(array).ok()
    assert_no_lock_held(array)


@pytest.mark.parametrize("query", ["successor", "predecessor"])
def test_hop_that_misses_the_index_descends_from_the_root(query):
    # The query finds nothing on its search side in its own bottom node and
    # hops to the neighbouring prefix.  Before the hop's index probe, a
    # delete removes that neighbour's only entry, which unlinks and
    # de-indexes its node.  The hop misses, descends from the root, and
    # returns the next live entry beyond the emptied prefix.
    armed = [False]
    fired = []

    def hooks(point):
        if point == "query-restart" and armed[0]:
            armed[0] = False
            fired.append(point)
            array.delete(neighbour)

    array = DcvebArray(branching=64, key_bits=12, hooks=hooks)
    if query == "successor":
        keys, neighbour, start, expected = (5, 70, 200), 70, 6, 200
    else:
        keys, neighbour, start, expected = (5, 130, 200), 130, 199, 5
    for key in keys:
        array.insert(key, key)
    assert neighbour >> 6 in array._bottoms
    armed[0] = True
    assert getattr(array, query)(start) == Entry(expected, expected)
    assert fired == ["query-restart"]
    assert neighbour >> 6 not in array._bottoms
    assert quiescent_walk(array).ok()


def test_insert_restarts_when_its_bottom_node_is_unlinked():
    # insert(131) finds the node holding 130 through the index and, before
    # it takes that node's mutex, delete(130) empties the node, unlinks it
    # and retires it.  The insert finds the node retired under its mutex and
    # falls back to the descent from the root, which installs a fresh node
    # for the entry.
    array = DcvebArray(branching=64)
    array.insert(130, "evict")
    stale = array._params().root.children[2]
    stale._mutex = RunOnEnter(stale._mutex, lambda: array.delete(130))
    array.insert(131, "landed")
    assert stale.retired
    assert stale.children[3] is None
    fresh = array._params().root.children[2]
    assert fresh is not stale and not fresh.retired
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def test_index_hit_insert_falls_back_when_its_node_is_unlinked():
    # insert(131) finds the node holding only 130 through the index and
    # parks on entering its mutex, before any hook and holding no guard.
    # delete(130) runs to completion in the pause: it empties, unlinks,
    # retires and de-indexes that node.  The insert's re-check under the
    # mutex fails, so it takes the guarded descent, which installs and
    # indexes a fresh node.
    points = []
    array = DcvebArray(branching=64, hooks=points.append)
    array.insert(130, "evict")
    stale = array._bottoms[2]

    def unlink():
        assert points == []
        assert array._ap_lock._active_readers == 0
        array.delete(130)
        assert stale.retired and 2 not in array._bottoms

    stale._mutex = RunOnEnter(stale._mutex, unlink)
    points.clear()
    array.insert(131, "landed")
    assert points == ["delete-snapshot", "delete-path", "delete-cleared",
                      "insert-snapshot"]
    fresh = array._params().root.children[2]
    assert fresh is not stale and not fresh.retired
    assert array._bottoms[2] is fresh
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def test_descent_restarts_when_its_bottom_node_is_unlinked():
    # insert(131) parks on entering the mutex of the node holding 130.  In
    # the pause delete(130) retires that node and insert(130) installs a
    # fresh one, so the re-check fails and the insert descends.  The descent
    # reaches the fresh node and parks on its mutex, where delete(130)
    # retires that node too: the descent finds it retired and restarts from
    # the same root, which installs and indexes a third node.
    array = DcvebArray(branching=64)
    array.insert(130, "evict")
    stale = array._bottoms[2]
    seen = []

    def unlink_again():
        array.delete(130)
        seen.append(array._bottoms.get(2))

    def unlink_and_refill():
        array.delete(130)
        array.insert(130, "back")
        fresh = array._bottoms[2]
        seen.append(fresh)
        fresh._mutex = RunOnEnter(fresh._mutex, unlink_again)

    stale._mutex = RunOnEnter(stale._mutex, unlink_and_refill)
    array.insert(131, "landed")
    fresh = seen[0]
    assert seen == [fresh, None]
    assert stale.retired and fresh.retired and fresh is not stale
    assert fresh.children[3] is None
    third = array._params().root.children[2]
    assert third not in (stale, fresh) and array._bottoms[2] is third
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def test_index_hit_insert_lands_in_a_root_that_a_growth_adopts():
    # The height-1 root holds 1, so insert(2) stores through the index.  It
    # parks on entering the root's mutex, holding no guard, while insert(5)
    # grows the tree: the growth is not held off, finds the root non-empty
    # and adopts it as child 0.  The adopted root is still live, so the
    # parked insert's re-check passes and its entry lands there.
    array = DcvebArray(branching=4, key_bits=4)
    array.insert(1, 1)
    root = array._params().root
    growers = []
    parked = []

    def grow():
        _start_grower(array, growers)
        parked.append(growers[0].is_alive())

    root._mutex = RunOnEnter(root._mutex, grow)
    array.insert(2, 2)
    assert parked == [False], "growth waited for the parked insert"
    params = array._params()
    assert params.height == 2 and params.root.children[0] is root
    assert not root.retired and array._bottoms[0] is root
    for key in (1, 2, 5):
        assert array.get(key) == Entry(key, key)
    assert quiescent_walk(array).ok()


def test_index_hit_insert_restarts_when_a_growth_drops_its_root():
    # The height-1 root holds 1, so insert(2) finds it through the index
    # and parks on entering its mutex.  In the pause delete(1) empties the
    # root and insert(5) grows the tree, which drops the empty root and
    # retires it.  The parked insert's re-check under the mutex finds the
    # root retired, so it takes the guarded descent into the new tree
    # instead of storing into the dropped root.
    array = DcvebArray(branching=4, key_bits=4)
    array.insert(1, 1)
    root = array._params().root

    def empty_and_grow():
        array.delete(1)
        array.insert(5, 5)
        assert array._params().root is not root

    root._mutex = RunOnEnter(root._mutex, empty_and_grow)
    array.insert(2, 2)
    assert array.get(2) == Entry(2, 2)
    assert array.get(5) == Entry(5, 5)
    assert array.get(1) is None
    assert root.retired and root.children[2] is None
    assert quiescent_walk(array).ok()


def test_delete_that_keeps_its_node_non_empty_touches_only_its_slot():
    # A delete whose bottom node keeps another entry clears the slot and its
    # bit under that node's mutex and returns: no guard, no unlink pass, no
    # trim.  A delete of a key that is absent from an indexed node changes
    # nothing, and one whose prefix is not indexed returns at the probe.
    points = []
    array = DcvebArray(branching=64, hooks=points.append)
    for key in (5, 130, 131, 4000):
        array.insert(key, key)
    expected = DcvebArray(branching=64)
    for key in (5, 131, 4000):
        expected.insert(key, key)
    guard = array._ap_lock = _SpyGuard()
    params = array._params()
    bottoms = dict(array._bottoms)
    before = structure_fingerprint(array)
    points.clear()
    array.delete(130)
    assert points == ["delete-snapshot", "delete-path"]
    assert guard.acquires == []
    assert array._params() is params and array._bottoms == bottoms
    after = structure_fingerprint(array)
    assert after == structure_fingerprint(expected)
    array.insert(130, 130)  # through the index: writes only that slot back
    assert structure_fingerprint(array) == before
    array.delete(130)
    points.clear()
    array.delete(132)  # prefix 2 is indexed, slot 4 is empty
    assert points == ["delete-snapshot", "delete-path"]
    array.delete(200)  # prefix 3 is not indexed
    assert points == ["delete-snapshot", "delete-path", "delete-snapshot"]
    assert guard.acquires == []
    assert structure_fingerprint(array) == after
    assert quiescent_walk(array).ok()


def test_insert_indexes_its_bottom_node_before_the_bit_and_entry_stores():
    # Every insert writes the index item under the bottom node's mutex,
    # after the retired check and before the bit and the entry: a node that
    # holds an entry is always indexed, and a node that a delete unlinks can
    # have no item written after the unlink.  That holds for a node the
    # descent reaches and for one found through the index, which takes no
    # guard and fires no hook, an empty one included.
    seen = []
    points = []

    class SpyIndex(dict):
        def __setitem__(self, prefix, node):
            seen.append((prefix, node._mutex.locked(), node.retired,
                         node.value, list(node.children)))
            super().__setitem__(prefix, node)

    array = DcvebArray(branching=64, hooks=points.append)
    array._bottoms = SpyIndex(array._bottoms)
    guard = array._ap_lock = _SpyGuard()
    root = array._params().root
    array.insert(5, "a")  # the fresh, empty root: through the index
    assert seen == [(0, True, False, 0, [None] * 64)]
    assert (guard.acquires, points) == ([], [])
    array.insert(130, "b")  # height 2; the root holding 5 is adopted
    assert array._params().root.children[0] is root
    seen.clear()
    array.insert(200, "c")  # prefix 3: a fresh bottom node, by the descent
    node = array._params().root.children[3]
    assert seen == [(3, True, False, 0, [None] * 64)]
    assert array._bottoms[3] is node
    assert array.get(200) == Entry(200, "c")
    node = array._bottoms[2]
    word, slots = node.value, list(node.children)
    seen.clear()
    guard.acquires.clear()
    points.clear()
    array.insert(131, "d")  # prefix 2 holds 130: through the index
    assert seen == [(2, True, False, word, slots)]
    assert (guard.acquires, points) == ([], [])
    assert array.get(131) == Entry(131, "d")


def test_insert_into_an_emptied_node_keeps_it_linked():
    # delete(130) empties the bottom node of prefix 2 and pauses at
    # ``delete-cleared``, before its unlink pass.  In the pause insert(131)
    # stores into that still-linked, indexed, empty node through the index,
    # with no guard and no hook.  The resumed unlink pass finds the node
    # non-empty under its mutex and leaves it linked and indexed.
    def refill():
        assert node.value == 0 and not node.retired
        mark = len(points)
        array.insert(131, "landed")
        assert points[mark:] == [] and guard.acquires == []

    hooks, armed, points = _run_once_at("delete-cleared", refill)
    array = DcvebArray(branching=64, hooks=hooks)
    array.insert(5, 5)
    array.insert(130, "drop")  # height 2; root children {0, 2}
    node = array._bottoms[2]
    guard = array._ap_lock = _SpyGuard()
    armed[0] = True
    array.delete(130)
    assert not armed[0]
    assert guard.acquires == []
    assert array._params().root.children[2] is node and not node.retired
    assert array._bottoms[2] is node
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) is None
    assert array.get(5) == Entry(5, 5)
    assert quiescent_walk(array).ok()


def test_restarted_insert_leaves_the_fresh_node_indexed():
    # insert(131) parks before the mutex of the node holding 130.  In the
    # pause delete(130) unlinks and retires that node, and insert(132)
    # installs and indexes a fresh one.  The parked insert finds its node
    # retired and restarts; when it reaches the fresh node's mutex, the
    # index must still hold the fresh node, so get(132) finds 132.
    array = DcvebArray(branching=64)
    array.insert(130, "evict")
    stale = array._params().root.children[2]
    seen = {}

    def probe():
        seen["indexed"] = array._bottoms.get(2)
        seen["get"] = array.get(132)

    def unlink_and_refill():
        array.delete(130)
        array.insert(132, "first")
        fresh = array._params().root.children[2]
        fresh._mutex = RunOnEnter(fresh._mutex, probe)

    stale._mutex = RunOnEnter(stale._mutex, unlink_and_refill)
    array.insert(131, "landed")
    fresh = array._params().root.children[2]
    assert fresh is not stale and stale.retired
    assert seen == {"indexed": fresh, "get": Entry(132, "first")}
    assert array._bottoms[2] is fresh
    assert array.get(131) == Entry(131, "landed")
    assert quiescent_walk(array).ok()


def test_delete_of_a_retired_bottom_node_removes_nothing_else():
    # delete(130) pauses after its index probe.  In the pause an inner delete
    # empties and retires the bottom node, and 130 returns under a fresh
    # node.  The outer delete finds its node retired and returns: the
    # structure is exactly as the pause left it.
    seen = {}

    def rebuild():
        seen["stale"] = array._params().root.children[2]
        array.delete(130)
        array.insert(130, "new")
        seen["after"] = structure_fingerprint(array)

    hooks, armed, points = _run_once_at("delete-path", rebuild)
    array = DcvebArray(branching=64, hooks=hooks)
    for key in (5, 130, 4000):
        array.insert(key, key)
    armed[0] = True
    points.clear()
    array.delete(130)
    assert seen["stale"].retired
    assert points.count("delete-cleared") == 1  # the inner delete's only
    assert structure_fingerprint(array) == seen["after"]
    assert array.get(130) == Entry(130, "new")
    assert quiescent_walk(array).ok()


def test_delete_walk_stops_at_a_trimmed_root():
    # delete(3) empties the bottom node A of the height-2 root R, reads the
    # params (root R) and pauses.  In the pause delete(70) empties root
    # child 1, so the trim pops R, publishes A as the root and retires R,
    # which still holds A in slot 0.  The resumed unlink pass descends from
    # R to A and tries to unlink A from R: R is retired, so it stops there
    # and the published root A stays in use.
    def evict():
        array.delete(70)
        assert array._params().root is bottom

    hooks, armed, _ = _run_once_at("delete-cleared", evict)
    array = DcvebArray(branching=64, hooks=hooks)
    array.insert(3, "drop")
    array.insert(70, "evict")
    old_root = array._params().root
    bottom = old_root.children[0]
    armed[0] = True
    array.delete(3)
    assert old_root.retired
    assert old_root.children[0] is bottom
    assert array._params().root is bottom and not bottom.retired
    writer = threading.Thread(target=array.insert, args=(5, "new"), daemon=True)
    writer.start()
    writer.join(10)
    assert not writer.is_alive(), "insert spun on a retired root"
    assert array.get(5) == Entry(5, "new")
    assert array.get(3) is None
    assert quiescent_walk(array).ok()


def test_filled_slot_never_has_a_clear_bit_under_churn():
    # The lock-free queries trust a filled slot without reading its bit.
    # Two writers churn keys through growths, guarded unlink passes and
    # trims while a checker walks the tree from the published root, holding
    # at most one node's mutex at a time: under it no filled slot may have a
    # clear bit.
    # Between locked sweeps it makes unlocked ones, reading each slot, the
    # word and the slot again.  A slot is never refilled with an object it
    # held before, so a slot that held one object across the word read had
    # its bit set.  The unlocked sweeps catch a writer that fills a slot
    # before it sets the bit; the locked one cannot, since every writer
    # holds the node's mutex across both stores.
    counts = {}
    residue = []
    stop = threading.Event()
    bad = []
    sweeps = [0]

    def hooks(point):
        counts[point] = counts.get(point, 0) + 1

    # every delete that empties its node makes one unlink pass; count only
    # the second, guarded pass, made when a growth or trim outran the first
    array = DcvebArray(branching=4, key_bits=12, hooks=hooks)
    guard = array._ap_lock = _SpyGuard()
    unlink_path = array._unlink_path

    def counting_unlink_path(key, params):
        if guard.held_for_reading():
            residue.append(key)
        unlink_path(key, params)

    array._unlink_path = counting_unlink_path

    def writer(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            low = rng.randrange(16)
            array.insert(low, low)
            array.delete(rng.randrange(16))
            high = rng.randrange(64, 1 << 12)
            array.insert(high, high)  # grows past height 3
            array.delete(high)  # trims back unless the other writer is high

    def locked_check(node):
        with node._mutex:
            word = node.value
            for p, child in enumerate(node.children):
                if child is not None and not word & (1 << (3 - p)):
                    bad.append(("locked", p, word))

    def unlocked_check(node):
        children = node.children
        for p in range(4):
            first = children[p]
            word = node.value
            if (first is not None and children[p] is first
                    and not word & (1 << (3 - p))):
                bad.append(("unlocked", p, word))

    def sweep(check):
        pending = [array._params().root]
        while pending:
            node = pending.pop()
            check(node)
            pending.extend(c for c in node.children if isinstance(c, Node))

    def checker():
        while not stop.is_set():
            sweep(locked_check)
            for _ in range(5):
                sweep(unlocked_check)
            sweeps[0] += 1

    def guarded(target, *args):
        try:
            target(*args)
        except BaseException as exc:  # noqa: BLE001 - asserted on below
            bad.append(("raised", repr(exc)))
            stop.set()

    threads = [threading.Thread(target=guarded, args=(writer, seed), daemon=True)
               for seed in (1, 2)]
    threads.append(threading.Thread(target=guarded, args=(checker,), daemon=True))
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        stop.wait(3.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(10)
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []
    assert sweeps[0] > 0
    assert counts.get("grow-pre-publish", 0) > 0
    assert counts.get("trim-pre-publish", 0) > 0
    assert residue
    assert quiescent_walk(array).ok()
